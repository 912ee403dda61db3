"""Greedy tone assignment by marginal rate, then a simple power phase.

One tone is handed out per step: every link nominates its best unassigned
tone and reports the marginal rate it would gain from receiving it under
equal power split across its tones so far; the link with the largest
strictly positive marginal rate wins.  Assignment stops when nobody gains,
so weak tones can stay unassigned.  The power phase either splits the
budget equally over a link's tones or water-fills it.

The loop keeps per-link running log-sums so a step costs O(1) bookkeeping
plus one vectorized pass over the winner's tone set; with the one-off
per-link gain sorts the whole assignment is O(I K log K).
"""

from dataclasses import dataclass
import numpy as np

from .tssolver import TSProblem, Allocation, water_fill

POWER_MODES = ("equal", "waterfill")


@dataclass
class GreedyState:
    """Mutable bookkeeping of the assignment loop."""

    assigned: list            # per link, tone indices in acceptance order
    candidate: list           # per link, best unassigned tone or None
    order: list               # per link, tones sorted by descending gain
    pointer: list             # per link, cursor into order
    taken: np.ndarray         # (K,) bool
    assigned_count: int = 0


def marginal_rate(theta: float, budget: float, gains, acs, cta: int) -> float:
    """Rate gained by adding tone cta to a link holding the tones in acs.

    Equal power split is assumed before (budget/|acs|) and after
    (budget/(|acs|+1)) the addition; with an empty acs the baseline is zero
    rate.  Natural-log units.
    """
    g = np.asarray(gains, dtype=float)
    held = list(acs)
    if cta in held:
        raise ValueError("candidate tone already assigned to this link")
    m = len(held)
    after = np.log1p(budget * g[held + [cta]] / (m + 1)).sum()
    before = np.log1p(budget * g[held] / m).sum() if m else 0.0
    return float(theta * (after - before))


def _advance(state: GreedyState, i: int, taken=None):
    """Move link i's candidate to its best still-unassigned tone.

    taken, when given, is a plain-list mirror of state.taken (list indexing
    is cheaper than array scalar access in this bookkeeping loop).
    """
    if taken is None:
        taken = state.taken
    order = state.order[i]
    ptr = state.pointer[i]
    while ptr < len(order) and taken[order[ptr]]:
        ptr += 1
    state.pointer[i] = ptr
    state.candidate[i] = int(order[ptr]) if ptr < len(order) else None


def assign_channels(problem: TSProblem):
    """Run the greedy loop; returns the per-link lists of won tones.

    Ties at the argmax go to the lowest link index; a link's best tone is
    the unassigned one with the largest gain, lowest tone index on equal
    gains.  Identical problems produce identical assignments.

    The loop body touches only the winner and the links whose nominee was
    just taken, so the cost per handed-out tone is a couple of fixed-size
    vector ops and does not grow with the link count.
    """
    g = problem.gains
    w = problem.weights
    p0 = problem.budgets
    I, K = g.shape

    orders = np.argsort(-g, axis=1, kind="stable")
    state = GreedyState(
        assigned=[[] for _ in range(I)],
        candidate=[int(c) for c in orders[:, 0]],
        order=list(orders),
        pointer=[0] * I,
        taken=np.zeros(K, dtype=bool),
    )
    taken = [False] * K                         # plain-list mirror of state.taken
    cand_arr = orders[:, 0].copy()              # -1 mirrors a None candidate

    # running sums: base[i] = log-rate of acs at the current split,
    # shifted[i] = same tones at the split after one more tone
    base = np.zeros(I)
    shifted = np.zeros(I)
    counts = np.zeros(I, dtype=int)
    cand_log = np.log1p(p0 * g[np.arange(I), cand_arr])

    margin = w * (shifted + cand_log - base)   # -inf where no candidate

    while state.assigned_count < K:
        i_star = int(np.argmax(margin))
        if not margin[i_star] > 0.0:
            break                               # nobody gains from another tone
        c_star = state.candidate[i_star]

        state.taken[c_star] = True
        taken[c_star] = True
        state.assigned[i_star].append(c_star)
        state.assigned_count += 1
        counts[i_star] += 1
        m = counts[i_star]

        held = g[i_star, state.assigned[i_star]]
        base[i_star] = shifted[i_star] + cand_log[i_star]
        shifted[i_star] = np.log1p(p0[i_star] * held / (m + 1)).sum()

        # every link whose nominee was just taken picks a new one, then all
        # their bids refresh in one batch
        aff = np.flatnonzero(cand_arr == c_star)
        for j in aff:
            _advance(state, j, taken)
            c = state.candidate[j]
            cand_arr[j] = c if c is not None else -1
        cands = cand_arr[aff]
        live = cands >= 0
        cand_log[aff] = np.where(
            live,
            np.log1p(p0[aff] * g[aff, np.where(live, cands, 0)] / (counts[aff] + 1)),
            -np.inf)
        # the winner is always in aff, so its margin refreshes here too
        margin[aff] = w[aff] * (shifted[aff] + cand_log[aff] - base[aff])

    return state.assigned


def soa_allocate(problem: TSProblem, power_mode: str = "equal") -> Allocation:
    """Greedy assignment followed by the selected power phase.

    power_mode "equal" splits each budget evenly over the link's tones;
    "waterfill" solves the per-link optimal split instead.
    """
    if power_mode not in POWER_MODES:
        raise ValueError(f"unknown power_mode {power_mode!r}")
    sets = assign_channels(problem)
    I, K = problem.gains.shape
    owner = np.full(K, -1)
    for i, tones in enumerate(sets):
        for k in tones:
            owner[k] = i
    used = np.flatnonzero(owner >= 0)
    share = np.zeros((I, K))
    power = np.zeros((I, K))
    share[owner[used], used] = 1.0
    if power_mode == "equal":
        counts = np.bincount(owner[used], minlength=I)
        power[owner[used], used] = problem.budgets[owner[used]] / counts[owner[used]]
    else:
        for i, tones in enumerate(sets):
            if tones:
                power[i, tones] = water_fill(problem.gains[i, tones], float(problem.budgets[i]))
    rate = np.log1p(problem.gains * power).sum(axis=1)
    return Allocation(share=share, power=power, rate=rate,
                      objective=float(problem.weights @ rate))
