"""Greedy tone assignment by marginal rate, then a simple power phase.

One tone is handed out per step: every link nominates its best unassigned
tone and reports the marginal rate it would gain from receiving it under
equal power split across its tones so far; the link with the largest
strictly positive marginal rate wins.  Assignment stops when nobody gains,
so weak tones can stay unassigned.  The power phase is the one shared by
every orthogonal allocation (tssolver.Allocation.from_sets): each link
splits its budget equally over its tones or water-fills it.

The loop runs over a (B, I, K) stack of problems that share weights and
budgets; assign_channels is the stack of one.  The slotted protocol stacks
the views of the links that re-schedule in one slot, so the per-call numpy
overhead of a step is paid once for all of them.  Per problem and link the
loop keeps running log-sums of the held tones at the current split and at
the split after one more tone.  A step is one argmax over the stack's gains
with taken tones masked out, one vectorized refresh of all B I bids, one
argmax per problem, and one log-sum over each winner's tones, taken for all
winners holding the same number of tones at once (a lone winner sums its own
row).  With one problem, as in assign_channels, a step is about a dozen
numpy calls, and their fixed cost is most of its time.  A problem in which
nobody gains makes no more updates, so its result is the one it has alone.
Work is O(B I K) per step and O(B I K^2) for a whole stack.  Memory is the
stack, its masked copy and a row per link for the scaled gains of its held
tones, 3 B I K floats.
"""

import numpy as np

from .tssolver import TSProblem, Allocation


def assign_channels(problem: TSProblem):
    """Run the greedy loop; returns the per-link lists of won tones.

    Ties at the argmax go to the lowest link index; a link's best tone is
    the unassigned one with the largest gain, lowest tone index on equal
    gains.  Identical problems produce identical assignments.
    """
    return _assign_stack(problem.gains[None], problem.weights, problem.budgets)[0]


def _assign_stack(gains, weights, budgets):
    """assign_channels for each problem of a (B, I, K) stack of valid gains.

    All problems share the (I,) weights and budgets.  Returns B lists of
    per-link tone lists; entry b equals assign_channels on gains[b].
    """
    B, I, K = gains.shape
    n = B * I                   # problem b's link i is row b I + i
    free = gains.reshape(n, K).copy()    # taken tones are set to -1, below every real gain
    free_flat = free.reshape(-1)
    row_starts = np.arange(0, n * K, K)  # flat index of each row's first tone
    firsts = range(0, n, I)
    p0 = np.concatenate((budgets,) * B)
    w = np.concatenate((weights,) * B)
    held = [[] for _ in range(n)]
    held_scaled = np.empty((n, K))  # row r: p0 * gain of r's held tones, in greedy order
    # running sums: base[r] = log-rate of the held tones at the current split,
    # shifted[r] = same tones at the split after one more tone
    base = np.zeros(n)
    shifted = np.zeros(n)
    split = np.ones(n)          # number of held tones + 1

    for _ in range(K):
        nominee = free.argmax(axis=1)
        scaled = p0 * free_flat.take(nominee + row_starts)
        bid = np.log1p(scaled / split)
        margin = w * (shifted + bid - base)
        by_count = {}           # winners grouped by their new number of held tones
        for first, i in zip(firsts, margin.reshape(B, I).argmax(axis=1).tolist()):
            r = first + i
            if not margin[r] > 0.0:
                continue                        # nobody in this problem gains from another tone
            k = int(nominee[r])
            free[first:first + I, k] = -1.0
            mine = held[r]
            mine.append(k)
            held_scaled[r, len(mine) - 1] = scaled[r]
            base[r] = shifted[r] + bid[r]
            split[r] = len(mine) + 1.0
            by_count.setdefault(len(mine), []).append(r)
        if not by_count:
            break
        # a sum along axis 1 adds each row in greedy order, the same floats as
        # a 1-D sum over one link's tones; a zero-padded row would add in
        # another order, hence one sum per held count.  A lone winner takes
        # the 1-D sum of its row's slice, which costs fewer numpy calls.
        for count, winners in by_count.items():
            if len(winners) == 1:
                r = winners[0]
                shifted[r] = np.add.reduce(np.log1p(held_scaled[r, :count] / (count + 1.0)))
            else:
                held_rows = held_scaled[winners, :count]
                shifted[winners] = np.add.reduce(np.log1p(held_rows / (count + 1.0)), axis=1)
    return [held[first:first + I] for first in firsts]


def soa_allocate(problem: TSProblem, power_mode: str = "equal") -> Allocation:
    """Greedy assignment followed by the power phase of Allocation.from_sets.

    power_mode "equal" splits each budget evenly over the link's tones;
    "waterfill" solves the per-link optimal split instead.
    """
    return Allocation.from_sets(problem, assign_channels(problem), power_mode)
