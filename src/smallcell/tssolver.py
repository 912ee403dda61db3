"""Optimal tone sharing via Lagrangian dual decomposition.

The relaxed scheduling problem lets every tone be time-shared between links:
maximize the weighted sum rate over shares T[i,k] in [0,1] (summing to at
most 1 per tone) and powers p[i,k] (summing to at most the per-link budget).
Dualizing the power constraints with multipliers lam[i] decouples the
problem per tone: each link's bid for a tone is a closed-form score, the
tone goes to the highest bidder, and a projected subgradient update drives
the multipliers toward the dual optimum.  The relaxation is tight (Yu &
Lui, IEEE TCOM 2006), so the best dual value is also the time-sharing
optimum.

One per-problem kernel (_dual_kernel) evaluates the dual: it is built once
from the problem's gains and weights and maps multipliers to the dual value,
its subgradient and the per-tone winners.  subgradient_solve calls it every
iteration; recover_primal calls it once.

One function (power_phase) splits budgets once tones are won: over a stack
of gain rows, each row takes its tone set at full share and splits its
budget over it equally or by water filling.  Every orthogonal allocation
(SOA, primal recovery, the Oracle) goes through it via
Allocation.from_sets, and the slotted protocol calls it for the links that
re-schedule in a slot.  Its equal split is one flat scatter over the stack
and its tone-set check one vectorized pass, not a loop over rows, so that
SOA's cost stays flat in the number of links (acceptance check 6).

subgradient_solve stops at a certified gap.  The winners of the last half of
the run, averaged, are time-sharing shares; water-filling every link's
budget weighted by them (_share_fill) gives a feasible time-sharing point,
whose value is at most the optimum.  The best dual value minus that value
therefore bounds the solver's error, and the run stops once it is within
tol of the best dual value, plus LAM_FLOOR times the budgets' sum, the
most by which the floor on the multipliers can hold the dual up.

Water filling, p_k = max(nu - 1/g_k, 0) with the level nu set so the
powers sum to the budget, is solved exactly by sorting the floors 1/g_k.
It has one checked entry, power_phase, and two unchecked fills
with the same bits: _water_fill_core writes one fill into a given zeroed
row, and _water_fill_rows fills an (n, s) stack of rows at once.  numpy's
fixed cost per call dominates at these sizes, and the stacked fill makes
about 35 calls whatever n is, where the core makes about a dozen per row.
So oracle_orthogonal fills its subset table a subset size at a time through
the stacked fill, while power_phase (one to three rows per call in the
solvers) and iwfa_solve (each best response depends on the last) call the
core row by row.

Rates here are in natural-log units per tone use ("nats"); multiply by
tone_bandwidth / ln 2 for bits/s.  Powers are mW, gains 1/mW.
"""

from dataclasses import dataclass
from itertools import accumulate, chain
import math

import numpy as np

LAM_FLOOR = 1e-12  # evaluation floor, keeps the log bid finite at lam -> 0
# below this budget * strongest gain, _water_fill_core measures levels from the
# strongest tone's floor, since budget + 1/g would round to 1/g
WATER_FILL_MIN_SNR = 1e-6
POWER_MODES = ("equal", "waterfill")
# subgradient step alpha(t) = a / (b + t): square summable but not summable
STEP_SCHEDULE = (1.0, 10.0)
CHECK_EVERY = 10  # iterations between two certificate checks of subgradient_solve


def _is_int_type(kind: type) -> bool:
    """Whether kind is int or a numpy integer type; bool is not one here."""
    return kind is not bool and issubclass(kind, (int, np.integer))


def _check_int(name: str, value, least: int) -> int:
    """Return value as an int; raise ValueError naming it unless it is an
    int or numpy integer no smaller than least: 1 for a count, 0 for a seed,
    2 for a level count.  A bool is not an integer here."""
    if not _is_int_type(type(value)) or value < least:
        rule = "a non-negative integer" if least == 0 else f"an integer >= {least}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return int(value)


def _check_finite(name: str, values, positive: bool, shape=None) -> np.ndarray:
    """Return values as a float array; raise ValueError naming it unless it
    has the given shape, when one is given, and every entry is finite and
    > 0, or >= 0 when positive is False.  An empty array passes.

    argmin and argmax both land on a NaN, so the smallest and the largest
    entry, read as Python floats, check every entry.  The slot loop checks
    its powers (evaluate_concurrent) every re-scheduling slot, and at 4x10
    this takes 0.9 us, against 2.4 us for ((v > 0) & (v < inf)).all() and
    2.9 us for np.isfinite and a comparison, each reduced with all; at 4
    entries it is within 0.2 us of a loop over Python floats.  Python 3.11,
    numpy 2.4, one core of a shared 2-vCPU x86-64 host.
    """
    values = np.asarray(values, dtype=float)
    if shape is not None and values.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {values.shape}")
    if values.size:
        low, high = values.item(values.argmin()), values.item(values.argmax())
        for bad, fine in ((low, low > 0.0 if positive else low >= 0.0), (high, high < math.inf)):
            if not fine:
                sign = "positive" if positive else "non-negative"
                raise ValueError(f"{name} must be finite and {sign}, got {bad!r}")
    return values


def _check_power_mode(power_mode: str) -> None:
    if power_mode not in POWER_MODES:
        raise ValueError(f"unknown power_mode {power_mode!r}, expected one of {POWER_MODES}")


@dataclass(frozen=True)
class TSProblem:
    """Gains, weights and budgets of one scheduling instance.

    gains may contain zeros (a zero row entry models a tone the link knows
    nothing about and will never claim); weights and budgets are finite and
    positive, and each link's full-budget SNR, its budget times its largest
    gain, is finite.
    """

    gains: np.ndarray     # (I, K), 1/mW, >= 0
    weights: np.ndarray   # (I,), > 0
    budgets: np.ndarray   # (I,), mW, > 0

    def __post_init__(self):
        g = np.atleast_2d(np.asarray(self.gains, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        b = np.atleast_1d(np.asarray(self.budgets, dtype=float))
        object.__setattr__(self, "gains", g)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "budgets", b)
        if g.ndim != 2 or w.shape != (g.shape[0],) or b.shape != (g.shape[0],):
            raise ValueError("shape mismatch between gains, weights, budgets")
        if 0 in g.shape:
            raise ValueError(f"gains must have at least one link and one tone, got shape {g.shape}")
        _check_finite("gains", g, False)
        _check_finite("weights", w, True)
        _check_finite("budgets", b, True)
        with np.errstate(over="ignore"):    # an overflow is rejected here, without a warning
            if not (b * np.maximum.reduce(g, axis=1) < np.inf).all():
                raise ValueError("each link's full-budget SNR, budget times largest gain, must be finite")

    @property
    def num_links(self) -> int:
        return self.gains.shape[0]

    @property
    def num_tones(self) -> int:
        return self.gains.shape[1]


@dataclass
class Allocation:
    """Feasible primal point: who uses each tone and with what power."""

    share: np.ndarray    # (I, K) in [0, 1], column sums <= 1
    power: np.ndarray    # (I, K) mW, row sums <= budget
    rate: np.ndarray     # (I,) nats
    objective: float     # weighted sum of rates, nats

    @classmethod
    def from_power(cls, problem: TSProblem, share, power) -> "Allocation":
        """Score an orthogonal allocation: per-link rates and their weighted sum."""
        rate = np.log1p(problem.gains * power).sum(axis=1)
        return cls(share=share, power=power, rate=rate, objective=float(problem.weights @ rate))

    @classmethod
    def from_sets(cls, problem: TSProblem, sets, power_mode: str = "waterfill") -> "Allocation":
        """Link i takes every tone of sets[i] at full share and splits its
        budget over them (power_phase); scored by from_power."""
        share, power = power_phase(problem.gains, sets, problem.budgets, power_mode)
        return cls.from_power(problem, share, power)


def power_phase(gains, sets, budgets, power_mode: str):
    """The power phase over an (n, K) stack of gain rows: row r takes every
    tone of sets[r] at full share and splits budgets[r] over them.

    Returns (share, power), both (n, K).  power_mode "equal" splits each
    budget evenly over its set, for all rows in one flat scatter;
    "waterfill" water-fills it over the set's positive-gain tones, and a
    zero-gain tone keeps its share but gets no power.  Tones are
    water-filled in the set's order, into a row of their own, since the
    rounding fix-up sums the filled row in index order.  Each row's result
    is the one it gets alone.  In either mode, gains must be 2-D, budgets
    must hold one finite, positive budget per row, and sets one set of
    distinct integer tones in [0, K) per row, where a float or a bool is
    not a tone; otherwise ValueError is raised before any power is split,
    naming the first bad set.  This is the package's one checked water
    fill.

    The equal split is one flat scatter over all rows, and the set check one
    vectorized pass, because a loop over rows makes soa_allocate's cost
    grow with the number of links, which acceptance check 6 bounds: its
    spread over 2..10 links, 5-7% as written, read 12-16% with the equal
    split in a Python loop over rows and 39-42% with the set check in that
    loop too, against a bound of 20%.  Python 3.11, numpy 2.4, a 2-vCPU
    x86-64 host.
    """
    _check_power_mode(power_mode)
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 2:
        raise ValueError(f"gains must be 2-D, one row per tone set, got shape {gains.shape}")
    num_rows, num_tones = gains.shape
    if len(sets) != num_rows:
        raise ValueError(f"{len(sets)} tone sets for {num_rows} rows of gains")
    budgets = _check_finite("budgets", budgets, True, (num_rows,))
    share = np.zeros(gains.shape)
    power = np.zeros(gains.shape)
    counts = [len(tones) for tones in sets]
    listed = list(chain.from_iterable(sets))
    # the cast truncates a float, reads a bool as 0 or 1 and fails on NaN or
    # a string, so each type listed must first be an integer type by
    # _check_int's rule; an integer past intp is outside [0, K) too
    if not all(map(_is_int_type, set(map(type, listed)))):
        _reject_sets(sets, num_tones)
    try:
        tones = np.array(listed, dtype=np.intp)
    except OverflowError:
        _reject_sets(sets, num_tones)
    # read as unsigned, a negative tone is huge, so one argmax checks both
    # ends of [0, K); a repeated tone shows as fewer shares than tones
    unsigned = tones.view(np.uintp)
    if tones.size and not unsigned.item(unsigned.argmax()) < num_tones:
        _reject_sets(sets, num_tones)
    flat = np.repeat(np.arange(num_rows) * num_tones, counts)
    flat += tones
    share.put(flat, 1.0)
    if np.count_nonzero(share) != flat.size:
        _reject_sets(sets, num_tones)
    if power_mode == "equal":
        power.put(flat, np.repeat(budgets / np.maximum(counts, 1), counts))
        return share, power
    for row, g, tones, budget in zip(power, gains, sets, budgets):
        tones = np.asarray(tones, dtype=np.intp)
        wet = tones[g[tones] > 0.0]
        if wet.size:
            fill = np.zeros(wet.size)
            _water_fill_core(fill, g[wet], None, float(budget))
            row[wet] = fill
    return share, power


def _reject_sets(sets, num_tones: int):
    """Raise ValueError naming the first set with a tone that is not an
    integer by _check_int's rule or lies outside [0, num_tones), or a tone
    it holds twice.  A tone's type is tested before it is compared, so a
    NaN or a string is named as not an integer."""
    for r, tones in enumerate(sets):
        for k in tones:
            if not _is_int_type(type(k)):
                _check_int(f"a tone of sets[{r}]", k, 0)
            if not 0 <= k < num_tones:
                raise ValueError(f"sets[{r}] holds tone {k}, outside [0, {num_tones})")
        tones = [int(k) for k in tones]
        if len(set(tones)) != len(tones):
            raise ValueError(f"sets[{r}] holds a tone twice: {tones}")


@dataclass
class SubgradientResult:
    best_dual: float
    best_multipliers: np.ndarray
    iterations: int
    converged: bool            # the gap was certified <= tol, up to LAM_FLOOR * sum(budgets)
    best_trace: np.ndarray     # running best dual value
    bound_trace: np.ndarray    # running a-priori gap bound (R^2 + G^2 sum a^2) / sum a
    gap: float                 # last checked relative gap, inf if none was checked


def _dual_kernel(problem: TSProblem):
    """Dual evaluator of one problem: lam -> (value, subgradient, winner, flat).

    Link i bids xi = max over power density d >= 0 of
    theta*log(1 + g*d) - lam*d for each tone: with d = theta/lam - 1/g this
    is theta*(log(theta*g/lam) - 1) + lam/g where theta*g > lam, and 0
    where the link would not power the tone.  Each tone goes to its highest
    bidder (lowest link index on ties), the winners draw density d, and the
    subgradient is each link's budget minus what it draws; flat is each
    winner's tone-major index, tone * I + winner.  lam must already be at
    least LAM_FLOOR, so no entry divides by zero.

    numpy charges per call, and more for a broadcast or Python-scalar operand
    than for a same-shape array, so theta and the constants 0 and 1 are built
    once as arrays of the bids' shape, lam is expanded once per call, and the
    winners' entries are read through one flat index.  The bids are laid out
    tone-major, (K, I), so that each tone's argmax runs along the contiguous
    axis.  Each call does the same IEEE operations in the same order as the
    broadcasting form.
    """
    budgets = problem.budgets
    num_links, num_tones = problem.gains.shape
    gains = problem.gains.T.copy()
    # the link index of every (tone, link) entry: x.take(spread) lays a
    # per-link vector out over the bids
    spread = (np.arange(num_tones * num_links) % num_links).reshape(gains.shape)
    theta = problem.weights.take(spread)
    tg = theta * gains
    g_safe = np.where(gains > 0.0, gains, 1.0)
    ones = np.ones(gains.shape)
    zeros = np.zeros(gains.shape)
    ones_k = np.ones(num_tones)
    rows = np.arange(num_tones) * num_links

    def dual(lam):
        lam_e = lam.take(spread)
        # tg <= lam exactly where the quotient rounds to at most 1
        ratio = np.maximum(tg / lam_e, ones)
        xi = np.where(tg > lam_e, theta * (np.log(ratio) - ones) + lam_e / g_safe, zeros)
        winner = xi.argmax(axis=1)
        flat = rows + winner
        value = float(np.add.reduce(xi.take(flat), None) + lam @ budgets)
        # an inactive winner has ratio 1 and draws nothing
        drawn = (ratio.take(flat) - ones_k) / g_safe.take(flat)
        return value, budgets - np.bincount(winner, weights=drawn, minlength=num_links), winner, flat

    return dual


def _share_fill(problem: TSProblem):
    """Time-sharing point of one problem: share (I, K) -> (power, value).

    With the shares T held fixed, the best powers water-fill each link's
    budget weighted by its shares: p = T (nu - 1/g)+ with sum p = budget,
    and the link's rate is sum T log(g nu) = sum T log1p(g p / T) over its
    wet entries.  value is the weighted sum rate.  Entries with no share or
    no gain stay dry.  Floors are measured from each link's strongest tone,
    1/g - 1/g_max, as _water_fill_core does at low SNR, so a budget that is
    negligible next to 1/g is not lost to rounding; a tone whose floor
    overflows stays dry.

    All links are filled in one pass.  Each row's floors are sorted once per
    problem.  Taking the tones in that order, the level of the first m,
    (budget + sum T f) / sum T, falls while the next floor lies below it and
    rises from then on, so the water level is the lowest prefix level.  It
    is found as the largest reciprocal, sum T / (budget + sum T f), whose
    denominator is never 0; entries without a share leave the sums as they
    are, so they may sit anywhere in the order.  The power is non-negative
    and each row sums to its budget up to rounding; a link with no share
    gets none.
    """
    gains, weights, budgets = problem.gains, problem.weights, problem.budgets
    num_links, num_tones = gains.shape
    g_safe = np.where(gains > 0.0, gains, 1.0)
    top = np.maximum.reduce(gains, axis=1)
    top = np.where(top > 0.0, top, 1.0)[:, None]
    with np.errstate(over="ignore"):
        floors = (top / g_safe - 1.0) / top
    usable = (gains > 0.0) & (floors < np.inf)
    floors[~usable] = 0.0           # any finite floor: these entries get no share
    usable = usable.astype(float)
    # as in _dual_kernel, per-link vectors are laid out over the entries by
    # take, and constants are arrays of the entries' shape
    spread = np.arange(num_links * num_tones).reshape(gains.shape) // num_tones
    order = floors.argsort(axis=1) + spread * num_tones
    floors_sorted = floors.take(order)
    budget_first = np.zeros(gains.shape)
    budget_first[:, 0] = budgets
    weighted = usable * weights.take(spread)
    zeros = np.zeros(gains.shape)
    zeros_i = np.zeros(num_links)

    def fill(share):
        masked = share * usable
        share_s = masked.take(order)
        inv = share_s.cumsum(axis=1) / (share_s * floors_sorted + budget_first).cumsum(axis=1)
        top_inv = np.maximum.reduce(inv, axis=1)
        level = np.reciprocal(top_inv, out=np.zeros(num_links), where=top_inv > zeros_i)
        depth = np.maximum(level.take(spread) - floors, zeros)
        value = np.vdot(share * weighted, np.log1p(gains * depth))
        return masked * depth, float(value)

    return fill


def default_multipliers(problem: TSProblem) -> np.ndarray:
    """Water-level-scale starting point for the multipliers, from each
    link's median gain."""
    med = np.median(problem.gains, axis=1)
    lam0 = problem.weights * med / (1.0 + problem.budgets * med / problem.num_tones)
    return np.maximum(lam0, LAM_FLOOR)


def subgradient_solve(problem: TSProblem, max_iters: int = 10000, tol=1e-4) -> SubgradientResult:
    """Minimize the dual by projected subgradient with diminishing steps.

    Starts from default_multipliers (lam0, clipped into the box below).
    STEP_SCHEDULE (a, b) sets alpha(t) = a / (b + t), and each link's step
    is additionally scaled by lam0_i / budget_i so the update speed matches
    the natural size of its multiplier; this is a plain subgradient method
    in per-link rescaled coordinates and the recorded gap bound is computed
    in those coordinates.

    Multipliers are kept in the box [1e-12, K * weight / budget]; the upper
    edge is a valid bound on the optimizer (a link charged more than that
    could never spend its whole budget), and clipping there keeps a stray
    overshoot from stalling the run.  An upper edge below 1e-12 is raised
    to it, so the box is never empty.

    Stop at a certified gap.  Every CHECK_EVERY iterations t, the winners
    of iterations t//2 + 1 .. t, averaged, give time-sharing shares; the
    share-weighted water fill (_share_fill) turns them into a feasible
    time-sharing point.  By weak duality its value is at most the optimum,
    which is at most the best dual value, so
    gap = (best_dual - value) / max(|best_dual|, 1e-30) bounds the relative
    error of best_dual.  The run stops, converged, once |best_dual - value|
    is within tol * max(|best_dual|, 1e-30) plus LAM_FLOOR * sum(budgets):
    the multipliers never drop below LAM_FLOOR, so the dual can stay that
    far above an optimum that lies below it.  A value above the dual bound
    by more than that can only be rounding or overflow and certifies
    nothing.  tol=None checks nothing and runs all max_iters iterations.
    max_iters must be an integer >= 1 and tol None or finite and >= 0, and
    each link's box edge and step scale lam0_i / budget_i must be finite;
    anything else raises ValueError before the first iteration.  With a
    tol, the winners are kept in one (max_iters, K) integer array,
    8 * max_iters * K bytes (320 kB at 10,000 iterations and 4 tones).
    Every run keeps each iteration's subgradient in one (max_iters, I)
    float array, 8 * max_iters * I bytes (240 kB at 10,000 iterations and
    3 links), and builds bound_trace from it after the loop.  The steps
    alpha(t) * lam0_i / budget_i are built once per solve as a table of the
    same shape and size, with the bits of the scalar product, so an
    iteration multiplies no Python float into an array.

    The dual is evaluated by one per-problem kernel (_dual_kernel), built
    once with the constants of the bids; the loop feeds it multipliers that
    are already inside the box.  Neither the certificate nor tol changes
    the multipliers, so a run that stops at t repeats the first t
    iterations of the tol=None run bit for bit.

    Returns the best (lowest) dual value seen, the multipliers that achieved
    it, the last checked gap (inf if none was checked), and two
    per-iteration traces: best_trace, the running best dual value, and
    bound_trace, an a-priori suboptimality bound
    (R^2 + G^2 * sum alpha^2) / sum alpha with R the box diameter from the
    start point and G the largest observed (rescaled) subgradient norm.
    """
    a, b = STEP_SCHEDULE
    max_iters = _check_int("max_iters", max_iters, 1)
    if tol is not None and not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be None, or finite and >= 0, got {tol!r}")

    num_links, num_tones = problem.gains.shape
    dual = _dual_kernel(problem)
    lam0 = default_multipliers(problem)
    with np.errstate(over="ignore"):    # an overflow is rejected just below, without a warning
        lam_max = np.maximum(num_tones * problem.weights / problem.budgets, LAM_FLOOR)
        lam = np.minimum(lam0, lam_max)
        scale = lam / problem.budgets
    bad = ~(np.isfinite(lam_max) & np.isfinite(scale))
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"link {i}'s multiplier box edge num_tones * weight / budget ({lam_max.item(i)!r}) "
                         f"and step scale lam0 / budget ({scale.item(i)!r}) must be finite")
    lam_floor = np.full(num_links, LAM_FLOOR)
    # steps[t - 1] is alpha(t) * scale, as the Python float a / (b + t) times
    # scale gives it
    alphas = a / (b + np.arange(1, max_iters + 1))
    steps = alphas[:, None] * scale

    # distance bound to any optimizer inside the box, in rescaled coordinates
    radius2 = float(np.sum(np.maximum(lam, lam_max - lam) ** 2 / scale))

    if tol is not None:
        fill = _share_fill(problem)
        # lam never drops below LAM_FLOOR, so the dual value can stay this far
        # above an optimum that lies below it
        slack = LAM_FLOOR * float(np.add.reduce(problem.budgets))
        # each iteration's winners, as the kernel's tone-major flat index
        # tone * I + winner
        winners = np.empty((max_iters, num_tones), dtype=np.intp)
    # each iteration's subgradient, for bound_trace after the loop
    subgrads = np.empty((max_iters, num_links))
    best_tr = []
    best = math.inf
    best_lam = lam
    converged = False
    gap = math.inf

    for t in range(1, max_iters + 1):
        value, subgrad, _, flat = dual(lam)
        if not math.isfinite(value):
            raise FloatingPointError(f"dual value became non-finite at iteration {t}")
        if value < best:
            best = value
            best_lam = lam      # lam is rebound below, never written in place

        subgrads[t - 1] = subgrad
        best_tr.append(best)

        if tol is not None:
            winners[t - 1] = flat
            if t % CHECK_EVERY == 0:
                half = t // 2
                counts = np.bincount(winners[half:t].ravel(), minlength=num_tones * num_links)
                _, ts_value = fill(counts.reshape(num_tones, num_links).T / (t - half))
                size = max(abs(best), 1e-30)
                gap = (best - ts_value) / size
                if abs(gap) <= tol + slack / size:
                    converged = True
                    break
        if t == max_iters:
            break
        lam = np.minimum(np.maximum(lam - steps[t - 1] * subgrad, lam_floor), lam_max)

    # bound_trace in one pass, with the IEEE operations of a running update:
    # each row's norm is reduced alone, fmax skips a NaN norm as `if g2 >
    # gmax2` would, and cumsum adds in order
    sg = subgrads[:t]
    gmax2 = np.fmax.accumulate(np.fmax(np.add.reduce(scale * (sg * sg), axis=1), 0.0))
    alphas = alphas[:t]
    bound_trace = (radius2 + gmax2 * np.cumsum(alphas * alphas)) / np.cumsum(alphas)
    return SubgradientResult(best_dual=best, best_multipliers=best_lam, iterations=t,
                             converged=converged, best_trace=np.array(best_tr),
                             bound_trace=bound_trace, gap=gap)


def _water_fill_core(out, gains, usable, budget: float) -> None:
    """Write the water fill of budget over gains into out, a zeroed row.

    gains are the positive gains, at out's entries usable (an index array),
    or at every entry of out when usable is None; budget is a finite,
    positive float.  Nothing is checked.  The rounding fix-up sums all of
    out in index order, so a row's bits depend on where its entries sit.

    At IWFA's K = 10 numpy's fixed cost per call outweighs the work, so two
    calls are chosen for cost, each exact: the strongest gain is read as
    gains[gains.argmax()] (0.58 us, against 1.76 us for the ufunc reduction
    np.maximum.reduce), and the floors are np.reciprocal(gains) (0.42 us,
    against 0.71 us for 1.0 / gains, the same bits and the same overflow
    warning).  Python 3.11, numpy 2.4, one core of a 2-vCPU x86-64 host.
    """
    gmax = gains[gains.argmax()]
    if budget * gmax >= WATER_FILL_MIN_SNR:
        floors = np.reciprocal(gains)
    else:
        # a tone whose floor sits a full budget above the strongest one's
        # stays dry, so capping there changes nothing and bounds the sums
        with np.errstate(over="ignore"):
            floors = np.minimum((gmax / gains - 1.0) / gmax, budget)
    order = floors.argsort(kind="stable")
    floors_sorted = floors.take(order)
    floor_list = floors_sorted.tolist()
    cum = list(accumulate(floor_list))     # the same sequential sums as cumsum
    # the strongest tone always clears its floor (budget > 0 is not lost to
    # rounding next to it), so the scan stops at m >= 1
    m = len(floor_list)
    while not (budget + cum[m - 1]) / m > floor_list[m - 1]:
        m -= 1
    if usable is not None:
        order = usable[order]
    out[order[:m]] = (budget + cum[m - 1]) / m - floors_sorted[:m]
    # strongest tone absorbs the summation rounding so the budget binds exactly
    out[order[0]] += budget - np.add.reduce(out)


def _water_fill_rows(gains, budgets) -> np.ndarray:
    """Water fills of an (n, s) stack of positive gain rows, each over its
    own row with budgets[r] (an (n,) array of finite, positive budgets).

    Row r of the result has the bytes _water_fill_core writes into a zeroed
    row of s entries for gains[r] and budgets[r] alone: the same branch per
    row, a stable sort along each row, sequential prefix sums, the last
    count m whose level (budget + cum[m-1]) / m clears its floor, and the
    fix-up that adds the budget less the row's pairwise sum to the
    strongest tone.  np.reciprocal runs on the normal-branch rows only, so
    a 1/g that overflows warns exactly when the core would; the prefix sums
    may overflow silently, as the core's Python floats do.  When every row
    is normal, as in nearly every Oracle table, one reciprocal of the whole
    stack skips the masked copies and their fancy indexing.  Nothing is
    checked.

    It makes about 35 numpy calls whatever n is: about 30 us for up to a
    dozen short rows, 60 us for 100 rows of 10, against 6-9 us per row
    through the core (Python 3.11, numpy 2.4, one core of a 2-vCPU x86-64
    host).  So it pays from about four independent rows on, as in the
    Oracle's subset table, and not for power_phase's one to three rows or
    IWFA's best responses, each of which depends on the last.  It holds
    about ten (n, s) float arrays at once.
    """
    num_rows, num_tones = gains.shape
    gmax = np.maximum.reduce(gains, axis=1)
    normal = budgets * gmax >= WATER_FILL_MIN_SNR
    if np.count_nonzero(normal) == num_rows:
        floors = np.reciprocal(gains)
    else:
        floors = np.empty(gains.shape)
        floors[normal] = np.reciprocal(gains[normal])
        low = ~normal
        top = gmax[low, None]
        with np.errstate(over="ignore"):
            floors[low] = np.minimum((top / gains[low] - 1.0) / top, budgets[low, None])
    # each entry's flat index in the stack, in floor order; numpy's flat
    # take and put cost a fraction of take_along_axis and put_along_axis
    starts = np.arange(0, num_rows * num_tones, num_tones)
    order = floors.argsort(axis=1, kind="stable")
    order += starts[:, None]
    floors_sorted = floors.take(order)
    counts = np.arange(1, num_tones + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        levels = (budgets[:, None] + np.add.accumulate(floors_sorted, axis=1)) / counts
        # the strongest tone always clears its floor, so m >= 1; entries past
        # m are dropped, whatever they hold
        m = num_tones - (levels > floors_sorted)[:, ::-1].argmax(axis=1)
        depth = levels.take(starts + (m - 1))[:, None] - floors_sorted
    out = np.empty(gains.shape)
    out.put(order, np.where(counts <= m[:, None], depth, 0.0))
    first = order[:, 0]
    out.put(first, out.take(first) + (budgets - np.add.reduce(out, axis=1)))
    return out


def recover_primal(problem: TSProblem, lam) -> Allocation:
    """Feasible allocation from converged multipliers.

    lam must hold one finite multiplier per link (else ValueError), each
    floored at LAM_FLOOR.  Each tone goes wholly to its winning bidder, then
    every link water-fills its budget over the tones it won
    (Allocation.from_sets).  Feasible by construction; its objective
    lower-bounds the time-sharing optimum.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (problem.num_links,) or not np.isfinite(lam).all():
        raise ValueError(f"lam must hold {problem.num_links} finite values, got {lam.tolist()!r}")
    _, _, winner, _ = _dual_kernel(problem)(np.maximum(lam, LAM_FLOOR))
    return Allocation.from_sets(problem, [np.flatnonzero(winner == i)
                                          for i in range(problem.num_links)])

