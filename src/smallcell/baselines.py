"""Comparison algorithms: iterative water filling and a brute-force oracle.

Iterative water filling models selfish concurrent transmission: every link
repeatedly water-fills its budget against the noise plus interference it
currently sees, a best-response dynamic that (when it settles) lands on a
Nash equilibrium.  The oracle enumerates every orthogonal tone assignment
and is the exact optimum of the assignment problem on instances small
enough to enumerate.

Rates are natural-log units per tone use, consistent with tssolver.
"""

from dataclasses import dataclass
from itertools import product
import numpy as np

from .tssolver import TSProblem, Allocation, water_fill

ORACLE_MAX_ASSIGNMENTS = 10 ** 6


@dataclass
class InterferenceAllocation:
    """Concurrent-transmission outcome of the water filling game."""

    power: np.ndarray    # (I, K) mW
    sinr: np.ndarray     # (I, K)
    rate: np.ndarray     # (I,) nats
    rounds: int
    converged: bool


def _interference(cross_gain: np.ndarray, power: np.ndarray) -> np.ndarray:
    """Interference power at each receiver per tone, excluding own signal."""
    total = np.einsum("ijk,ik->jk", cross_gain, power)
    own = np.einsum("iik,ik->ik", cross_gain, power)
    return total - own


def evaluate_concurrent(realization, power) -> np.ndarray:
    """Per-link rates (nats) when the given powers transmit simultaneously."""
    power = np.asarray(power, dtype=float)
    cross = realization.cross_gain
    own = np.einsum("iik->ik", cross) * power
    interf = _interference(cross, power)
    sinr = own / (realization.noise_power_mw + interf)
    return np.log1p(sinr).sum(axis=1)


def iwfa_solve(realization, budgets, max_rounds: int = 200, eps: float = 1e-6) -> InterferenceAllocation:
    """Round-robin best-response water filling.

    Links update sequentially in index order; each one water-fills its budget
    against the noise-plus-interference floor left by the others' current
    powers.  Starts from the interference-free water filling point.  Stops
    after a full round moves no power entry by more than eps (mW), or at
    max_rounds; running out of rounds sets converged=False and is not an
    error.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    budgets = np.asarray(budgets, dtype=float)
    cross = realization.cross_gain
    I, K = realization.num_links, realization.num_tones
    noise = realization.noise_power_mw
    own_gain = np.einsum("iik->ik", cross)

    power = np.vstack([water_fill(own_gain[i] / noise, float(budgets[i])) for i in range(I)])

    rounds = 0
    converged = False
    for _ in range(max_rounds):
        rounds += 1
        delta = 0.0
        for i in range(I):
            floor = noise + np.einsum("jk,jk->k", cross[:, i, :], power) - cross[i, i, :] * power[i]
            new_p = water_fill(own_gain[i] / floor, float(budgets[i]))
            delta = max(delta, float(np.max(np.abs(new_p - power[i]))))
            power[i] = new_p
        if delta < eps:
            converged = True
            break

    interf = _interference(cross, power)
    sinr = own_gain * power / (noise + interf)
    rate = np.log1p(sinr).sum(axis=1)
    return InterferenceAllocation(power=power, sinr=sinr, rate=rate,
                                  rounds=rounds, converged=converged)


class OracleTooLarge(ValueError):
    """The instance has more assignments than the oracle's enumeration guard allows."""


def oracle_orthogonal(problem: TSProblem):
    """Exhaustive optimum over orthogonal assignments.

    Every tone goes to exactly one link or to nobody; each link water-fills
    over its set.  Returns (Allocation, objective).  Guarded against
    combinatorial blowup: past (I+1)^K = 10^6 assignments it raises
    OracleTooLarge.
    """
    I, K = problem.gains.shape
    total = (I + 1) ** K
    if total > ORACLE_MAX_ASSIGNMENTS:
        raise OracleTooLarge(f"{total} assignments exceed the enumeration guard "
                             f"({ORACLE_MAX_ASSIGNMENTS}); instance too large for the oracle")

    best_obj = -np.inf
    best_assign = None
    for assign in product(range(-1, I), repeat=K):
        obj = 0.0
        for i in range(I):
            tones = [k for k in range(K) if assign[k] == i and problem.gains[i, k] > 0.0]
            if tones:
                p = water_fill(problem.gains[i, tones], float(problem.budgets[i]))
                obj += problem.weights[i] * np.log1p(problem.gains[i, tones] * p).sum()
        if obj > best_obj:
            best_obj = obj
            best_assign = assign

    share = np.zeros((I, K))
    power = np.zeros((I, K))
    for i in range(I):
        tones = [k for k in range(K) if best_assign[k] == i and problem.gains[i, k] > 0.0]
        if tones:
            share[i, tones] = 1.0
            power[i, tones] = water_fill(problem.gains[i, tones], float(problem.budgets[i]))
    alloc = Allocation.from_power(problem, share, power)
    return alloc, alloc.objective
