"""Greedy tone assignment by marginal rate, then a simple power phase.

One tone is handed out per step: every link nominates its best unassigned
tone and reports the marginal rate it would gain from receiving it under
equal power split across its tones so far; the link with the largest
strictly positive marginal rate wins.  Assignment stops when nobody gains,
so weak tones can stay unassigned.  The power phase is the one shared by
every orthogonal allocation (tssolver.Allocation.from_sets): each link
splits its budget equally over its tones or water-fills it.

The loop keeps per-link running log-sums of the held tones at the current
split and at the split after one more tone, so a step is one argmax over
the (I, K) gains with taken tones masked out, one vectorized refresh of all
I bids and a log-sum over the winner's tones: O(I K) work per step and
O(I K^2) for a whole assignment.
"""

import numpy as np

from .tssolver import TSProblem, Allocation


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


def assign_channels(problem: TSProblem):
    """Run the greedy loop; returns the per-link lists of won tones.

    Ties at the argmax go to the lowest link index; a link's best tone is
    the unassigned one with the largest gain, lowest tone index on equal
    gains.  Identical problems produce identical assignments.
    """
    g = problem.gains
    w = problem.weights
    p0 = problem.budgets
    I, K = g.shape

    free = g.copy()             # taken tones are set to -1, below every real gain
    links = np.arange(I)
    assigned = [[] for _ in range(I)]
    # running sums: base[i] = log-rate of the held tones at the current split,
    # shifted[i] = same tones at the split after one more tone
    base = np.zeros(I)
    shifted = np.zeros(I)
    counts = np.zeros(I, dtype=int)

    for _ in range(K):
        nominee = np.argmax(free, axis=1)
        bid = np.log1p(p0 * free[links, nominee] / (counts + 1))
        margin = w * (shifted + bid - base)
        i = int(np.argmax(margin))
        if not margin[i] > 0.0:
            break                               # nobody gains from another tone
        k = int(nominee[i])
        free[:, k] = -1.0
        assigned[i].append(k)
        counts[i] += 1
        base[i] = shifted[i] + bid[i]
        shifted[i] = np.log1p(p0[i] * g[i, assigned[i]] / (counts[i] + 1)).sum()
    return assigned


def soa_allocate(problem: TSProblem, power_mode: str = "equal") -> Allocation:
    """Greedy assignment followed by the power phase of Allocation.from_sets.

    power_mode "equal" splits each budget evenly over the link's tones;
    "waterfill" solves the per-link optimal split instead.
    """
    return Allocation.from_sets(problem, assign_channels(problem), power_mode)
