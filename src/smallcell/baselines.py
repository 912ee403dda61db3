"""Comparison algorithms: iterative water filling and a brute-force oracle.

Iterative water filling models selfish concurrent transmission: every link
repeatedly water-fills its budget against the noise plus interference it
currently sees, a best-response dynamic that (when it settles) lands on a
Nash equilibrium.  The oracle enumerates every orthogonal tone assignment
and is the exact optimum of the assignment problem on instances small
enough to enumerate; like SOA and dual recovery it builds its allocation
with the shared power phase, Allocation.from_sets.

Rates are natural-log units per tone use, consistent with tssolver.
"""

from dataclasses import dataclass
import numpy as np

from .tssolver import TSProblem, Allocation, _check_count, _water_fill_core

ORACLE_MAX_ASSIGNMENTS = 10 ** 6
IWFA_EPS_MW = 1e-6  # IWFA settles once a round moves no power entry by this much


@dataclass
class InterferenceAllocation:
    """Concurrent-transmission outcome of the water filling game."""

    power: np.ndarray    # (I, K) mW
    rate: np.ndarray     # (I,) nats
    rounds: int
    converged: bool
    delta_trace: np.ndarray  # (rounds,) largest |power change| of each round, mW


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


def iwfa_solve(realization, budgets, max_rounds: int = 200) -> InterferenceAllocation:
    """Round-robin best-response water filling.

    Links update sequentially in index order; each one water-fills its budget
    against the noise-plus-interference floor left by the others' current
    powers.  Starts from the interference-free water filling point.  Stops
    after a full round moves no power entry by IWFA_EPS_MW or more, or at
    max_rounds; running out of rounds sets converged=False and is not an
    error.  delta_trace holds each round's largest power move.  Budgets must
    be one finite, positive value per link, and max_rounds an integer >= 1.

    A round's powers fully determine the next round, so once a round that
    did not converge ends on the exact powers an earlier round ended on, the
    run repeats that cycle until max_rounds.  The cycle is then not run out:
    delta_trace is filled from it and the powers are those the cycle ends
    on at max_rounds, the same result as running every round.
    """
    max_rounds = _check_count("max_rounds", max_rounds)
    budgets = np.asarray(budgets, dtype=float)
    cross = realization.cross_gain
    I = realization.num_links
    if budgets.shape != (I,):
        raise ValueError(f"budgets must have shape ({I},), one per link, got {budgets.shape}")
    if not np.all((budgets > 0.0) & (budgets < np.inf)):
        raise ValueError("budgets must be finite and strictly positive")
    noise = realization.noise_power_mw
    if not (np.all((cross >= 0.0) & (cross < np.inf)) and 0.0 < noise < np.inf):
        raise ValueError("cross gains must be finite and non-negative, noise finite and positive")
    # per link: the gains from every transmitter into its receiver, its own
    # direct gains, its budget and its positive-gain tones (None when all are)
    links = []
    for i in range(I):
        direct = cross[i, i, :]
        usable = None if np.minimum.reduce(direct) > 0.0 else np.flatnonzero(direct > 0.0)
        if usable is not None and usable.size == 0:
            raise ValueError(f"link {i} has no tone with positive direct gain")
        links.append((cross[:, i, :], direct, float(budgets[i]), usable))

    # a best response water-fills direct / floor over the positive-gain tones
    # straight into the link's zeroed power row; with non-negative gains the
    # floor is never negative, so those tones' gains stay positive
    power = np.zeros((I, cross.shape[2]))
    for row, (_, direct, budget, usable) in zip(power, links):
        gains = direct / noise
        _water_fill_core(row, gains if usable is None else gains[usable], usable, budget)

    deltas = []
    history = []    # history[n]: the powers after n rounds
    seen = {}       # their bytes -> n
    converged = False
    while len(deltas) < max_rounds:
        before = power.copy()
        seen.setdefault(before.tobytes(), len(history))
        history.append(before)
        for row, (incoming, direct, budget, usable) in zip(power, links):
            floor = noise + np.einsum("jk,jk->k", incoming, power) - direct * row
            gains = direct / floor
            row.fill(0.0)
            _water_fill_core(row, gains if usable is None else gains[usable], usable, budget)
        deltas.append(float(np.abs(power - before).max()))
        if deltas[-1] < IWFA_EPS_MW:
            converged = True
            break
        first = seen.get(power.tobytes())
        if first is not None:
            period = len(deltas) - first
            while len(deltas) < max_rounds:
                deltas.append(deltas[-period])
            power = history[first + (max_rounds - first) % period]
            break

    return InterferenceAllocation(power=power, rate=evaluate_concurrent(realization, power),
                                  rounds=len(deltas), converged=converged,
                                  delta_trace=np.array(deltas))


class OracleTooLarge(ValueError):
    """The instance has more assignments than the oracle's enumeration guard allows."""


def oracle_orthogonal(problem: TSProblem):
    """Exhaustive optimum over orthogonal assignments.

    Every tone goes to exactly one link or to nobody; each link water-fills
    over its set.  Each link's water-filled value is tabulated once for every
    tone subset (I * (2^K - 1) water-fills), then every assignment is scored
    from the table in itertools.product order; the first best one is built by
    Allocation.from_sets.  Returns (Allocation, objective).  Guarded against
    combinatorial blowup: past (I+1)^K = 10^6 assignments it raises
    OracleTooLarge.
    """
    g, w, b = problem.gains, problem.weights, problem.budgets
    I, K = g.shape
    total = (I + 1) ** K
    if total > ORACLE_MAX_ASSIGNMENTS:
        raise OracleTooLarge(f"{total} assignments exceed the enumeration guard "
                             f"({ORACLE_MAX_ASSIGNMENTS}); instance too large for the oracle")

    # value[i, m]: link i's weighted rate when it water-fills over the
    # positive-gain tones of bitmask m (bit k = tone k).  Only the masks made
    # of a link's positive-gain tones are filled; any other mask is worth
    # its positive part.
    bits = 1 << np.arange(K)
    positive = (g > 0.0) @ bits
    links = list(zip(g, w, b.tolist(), positive.tolist()))
    value = np.zeros((I, 2 ** K))
    for m in range(1, 2 ** K):
        tones = np.flatnonzero(m & bits)
        for i, (gi, wi, bi, pos) in enumerate(links):
            if m & pos == m:
                gt = gi.take(tones)
                p = np.zeros(tones.size)
                _water_fill_core(p, gt, None, bi)
                value[i, m] = wi * np.log1p(gt * p).sum()
    value = np.take_along_axis(value, np.arange(2 ** K) & positive[:, None], axis=1)

    # assignment n gives tone k (tone 0 most significant) to link digit_k - 1,
    # digit_k being the k-th base-(I+1) digit of n, as product(range(-1, I)) does
    score = 0.0
    for i in range(I):
        mask = np.zeros(1, dtype=np.int64)
        for k in range(K):
            mask = (mask[:, None] + np.where(np.arange(I + 1) == i + 1, 1 << k, 0)).ravel()
        score = score + value[i, mask]
    best = np.unravel_index(int(np.argmax(score)), (I + 1,) * K)
    alloc = Allocation.from_sets(problem, [[k for k in range(K) if best[k] == i + 1]
                                           for i in range(I)])
    return alloc, alloc.objective
