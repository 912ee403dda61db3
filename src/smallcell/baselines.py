"""Comparison algorithms: iterative water filling and a brute-force oracle.

Iterative water filling models selfish concurrent transmission: every link
repeatedly water-fills its budget against the noise plus interference it
currently sees, a best-response dynamic that (when it settles) lands on a
Nash equilibrium.  The oracle enumerates every orthogonal tone assignment
and is the exact optimum of the assignment problem on instances small
enough to enumerate.  It scores assignments from a table of every link's
value on every tone subset, water-filled a subset size at a time by the
stacked fill, and like SOA and dual recovery it builds its allocation with
the shared power phase, Allocation.from_sets.

Rates are natural-log units per tone use, consistent with tssolver.
"""

from dataclasses import dataclass
from itertools import combinations, islice
import math

import numpy as np

from .channel import _diagonal_rows
from .tssolver import (TSProblem, Allocation, _check_budgets, _check_count, _water_fill_core,
                       _water_fill_rows)

ORACLE_MAX_ASSIGNMENTS = 10 ** 6
# (link, subset) rows the Oracle's subset table water-fills per stacked call
ORACLE_CHUNK_ROWS = 1024
IWFA_EPS_MW = 1e-6  # IWFA settles once a round moves no power entry by this much


@dataclass
class InterferenceAllocation:
    """Concurrent-transmission outcome of the water filling game."""

    power: np.ndarray    # (I, K) mW
    rate: np.ndarray     # (I,) nats
    rounds: int
    converged: bool
    delta_trace: np.ndarray  # (rounds,) largest |power change| of each round, mW


def evaluate_concurrent(realization, power) -> np.ndarray:
    """Per-link rates (nats) when the given powers transmit simultaneously.

    power is (I, K) mW, finite and non-negative, for a realization of I
    links and K tones; anything else raises ValueError before any rate is
    computed.  The slot loop calls this once per re-scheduling slot, so the
    value test reads the extreme entries through argmin and argmax (about
    1.4 us at 4×10, against 6 us for np.all over two comparisons), and each
    link's own signal is computed once, for the SINR and for taking it out
    of the total the receiver hears.
    """
    power = np.asarray(power, dtype=float)
    cross = realization.cross_gain
    shape = (cross.shape[0], cross.shape[2])
    if power.shape != shape:
        raise ValueError(f"power must have shape {shape}, one row per link, got {power.shape}")
    # argmin and argmax both return a NaN's index, so a NaN fails the first test
    if not (power.item(power.argmin()) >= 0.0 and power.item(power.argmax()) < math.inf):
        raise ValueError("power must be finite and non-negative")
    own = _diagonal_rows(cross) * power
    interf = np.einsum("ijk,ik->jk", cross, power) - own
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

    At K = 10 a best response costs about 13 us, most of it numpy's fixed
    cost per call, so the round loop picks its calls for cost, each with
    the same bits: the floor adds noise as a (K,) array (1.3 us, against
    2.2 us with a Python float), a round's largest move is read as
    moved.item(moved.argmax()) (0.6 us, against 1.5 us for
    float(moved.max())), and the powers' bytes are taken once per round,
    since a round starts on the powers the last one ended on.  Python 3.11,
    numpy 2.4, one core of a 2-vCPU x86-64 host.
    """
    max_rounds = _check_count("max_rounds", max_rounds)
    cross = realization.cross_gain
    I = realization.num_links
    budgets = _check_budgets(budgets, I)
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
    # floor is never negative, so those tones' gains stay positive.  The
    # first fill is against the noise alone, over the realization's direct gains.
    power = np.zeros((I, cross.shape[2]))
    for row, gains, (_, _, budget, usable) in zip(power, realization.direct_gain, links):
        _water_fill_core(row, gains if usable is None else gains[usable], usable, budget)

    noise_k = np.full(power.shape[1], realization.noise_power_mw)
    deltas = []
    history = []    # history[n]: the powers after n rounds
    seen = {}       # their bytes -> n
    key = power.tobytes()
    converged = False
    while len(deltas) < max_rounds:
        before = power.copy()
        seen[key] = len(history)    # a key seen before has ended the run
        history.append(before)
        for row, (incoming, direct, budget, usable) in zip(power, links):
            floor = noise_k + np.einsum("jk,jk->k", incoming, power) - direct * row
            gains = direct / floor
            row.fill(0.0)
            _water_fill_core(row, gains if usable is None else gains[usable], usable, budget)
        moved = np.abs(power - before)
        deltas.append(moved.item(moved.argmax()))
        if deltas[-1] < IWFA_EPS_MW:
            converged = True
            break
        key = power.tobytes()
        first = seen.get(key)
        if first is not None:
            period = len(deltas) - first
            while len(deltas) < max_rounds:
                deltas.append(deltas[-period])
            power = history[first + (max_rounds - first) % period]
            break

    return InterferenceAllocation(power=power, rate=evaluate_concurrent(realization, power),
                                  rounds=len(deltas), converged=converged,
                                  delta_trace=np.array(deltas))


def _subset_values(problem: TSProblem) -> np.ndarray:
    """value[i, m]: link i's weighted rate when it water-fills its budget
    over the positive-gain tones of bitmask m (bit k = tone k).

    Only masks made of a link's positive-gain tones are filled; any other
    mask is worth its positive part.  Each entry has the bytes of
    _water_fill_core filling that subset alone.  The subsets of each size s
    come from itertools.combinations, ORACLE_CHUNK_ROWS // I at a time, and
    every (link, subset) row of a chunk whose subset lies inside the link's
    positive tones is filled by one _water_fill_rows call.  A chunk thus
    holds at most max(ORACLE_CHUNK_ROWS, I) rows of s gains, and its fill
    about ten such float arrays: under 1.6 MB at s = 19.  The table itself
    is I * 2^K floats.
    """
    g, w, b = problem.gains, problem.weights, problem.budgets
    I, K = g.shape
    bits = 1 << np.arange(K)
    positive = (g > 0.0) @ bits
    value = np.zeros((I, 2 ** K))
    step = max(1, ORACLE_CHUNK_ROWS // I)
    for size in range(1, K + 1):
        subsets = combinations(range(K), size)
        while chunk := list(islice(subsets, step)):
            tones = np.array(chunk)
            masks = np.add.reduce(bits.take(tones), axis=1)
            link, row = ((masks & positive[:, None]) == masks).nonzero()
            gains = g[link[:, None], tones[row]]
            power = _water_fill_rows(gains, b[link])
            value[link, masks[row]] = w[link] * np.add.reduce(np.log1p(gains * power), axis=1)
    # flat index of value[i, m & positive[i]]
    return value.take((np.arange(2 ** K) & positive[:, None]) + (np.arange(I) << K)[:, None])


class OracleTooLarge(ValueError):
    """The instance has more assignments than the oracle's enumeration guard allows."""


def oracle_orthogonal(problem: TSProblem):
    """Exhaustive optimum over orthogonal assignments.

    Every tone goes to exactly one link or to nobody; each link water-fills
    over its set.  Each link's water-filled value is tabulated once for every
    tone subset (_subset_values: I * (2^K - 1) fills, stacked by subset
    size), then every assignment is scored from the table in
    itertools.product order; the first best one is built by
    Allocation.from_sets.  Returns (Allocation, objective).  Guarded against
    combinatorial blowup: past (I+1)^K = 10^6 assignments it raises
    OracleTooLarge.

    With the stacked table the Oracle takes about a tenth of the time it
    takes with one core fill per entry at one link and 12 to 19 tones:
    0.6-0.9 s against 8-11 s at 1 x 19, the largest one-link shape the guard
    admits, nearly all of it the table.  With many links and few tones,
    scoring dominates instead (9.4 of 9.7 ms at 10 x 5).  Scoring holds a
    few (I+1)^K-entry arrays, 4 MB each at 1 x 19.  Python 3.11, numpy 2.4,
    one core of a 2-vCPU x86-64 host.
    """
    I, K = problem.gains.shape
    total = (I + 1) ** K
    if total > ORACLE_MAX_ASSIGNMENTS:
        raise OracleTooLarge(f"{total} assignments exceed the enumeration guard "
                             f"({ORACLE_MAX_ASSIGNMENTS}); instance too large for the oracle")

    value = _subset_values(problem)

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
