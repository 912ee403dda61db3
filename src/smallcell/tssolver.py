"""Optimal tone sharing via Lagrangian dual decomposition.

The relaxed scheduling problem lets every tone be time-shared between links:
maximize the weighted sum rate over shares T[i,k] in [0,1] (summing to at
most 1 per tone) and powers p[i,k] (summing to at most the per-link budget).
Dualizing the power constraints with multipliers lam[i] decouples the
problem per tone: each link's bid for a tone is a closed-form score, the
tone goes to the highest bidder, and a projected subgradient update drives
the multipliers toward the dual optimum.  The relaxation is tight, so the
best dual value is also the time-sharing optimum.

Rates here are in natural-log units per tone use ("nats"); multiply by
tone_bandwidth / ln 2 for bits/s.  Powers are mW, gains 1/mW.
"""

from dataclasses import dataclass
import numpy as np

LAM_FLOOR = 1e-12  # evaluation floor, keeps the log bid finite at lam -> 0
# below this budget * strongest gain, water_fill measures levels from the
# strongest tone's floor, since budget + 1/g would round to 1/g
WATER_FILL_MIN_SNR = 1e-6
POWER_MODES = ("equal", "waterfill")
# subgradient step alpha(t) = a / (b + t): square summable but not summable
STEP_SCHEDULE = (1.0, 10.0)


@dataclass(frozen=True)
class TSProblem:
    """Gains, weights and budgets of one scheduling instance.

    gains may contain zeros (a zero row entry models a tone the link knows
    nothing about and will never claim); weights and budgets are finite and
    strictly positive.
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
        if np.any(~np.isfinite(g)) or np.any(g < 0.0):
            raise ValueError("gains must be finite and non-negative")
        if not (np.all((w > 0.0) & (w < np.inf)) and np.all((b > 0.0) & (b < np.inf))):
            raise ValueError("weights and budgets must be finite and strictly positive")

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
        """The power phase: link i takes every tone of sets[i] at full share.

        Each link's budget is split over its set by split_power; scored by
        from_power.
        """
        share = np.zeros(problem.gains.shape)
        power = np.zeros(problem.gains.shape)
        for i, tones in enumerate(sets):
            tones = np.asarray(tones, dtype=int)
            share[i, tones] = 1.0
            power[i] = split_power(problem.gains[i], tones, problem.budgets[i], power_mode)
        return cls.from_power(problem, share, power)


def split_power(gains, tones, budget, power_mode: str) -> np.ndarray:
    """One link's power row: its budget split over the given tones.

    power_mode "equal" splits the budget evenly over the tones; "waterfill"
    water-fills it over the positive-gain ones, and a zero-gain tone gets no
    power.  Tones are used in the given order, since water_fill's rounding
    fix-up sums in input order.
    """
    if power_mode not in POWER_MODES:
        raise ValueError(f"unknown power_mode {power_mode!r}, expected one of {POWER_MODES}")
    row = np.zeros(len(gains))
    tones = np.asarray(tones, dtype=int)
    if power_mode == "equal":
        row[tones] = budget / max(tones.size, 1)
        return row
    wet = tones[gains[tones] > 0.0]
    if wet.size:
        row[wet] = water_fill(gains[wet], float(budget))
    return row


@dataclass
class SubgradientResult:
    best_dual: float
    best_multipliers: np.ndarray
    iterations: int
    converged: bool
    dual_trace: np.ndarray
    best_trace: np.ndarray
    step_trace: np.ndarray
    subgrad_norm_trace: np.ndarray
    bound_trace: np.ndarray    # running certified gap (R^2 + G^2 sum a^2) / sum a


def _bid(theta, g, lam):
    """Bid xi and power density d of weight theta, gain g at floored multiplier lam.

    A link is active on a tone when theta*g > lam; there d = theta/lam - 1/g
    and xi = theta*(log(theta*g/lam) - 1) + lam/g.  Inactive entries get 0.
    """
    tg = theta * g
    active = tg > lam
    g_safe = np.where(g > 0, g, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(active, tg / lam, 1.0)
        xi = np.where(active, theta * (np.log(ratio) - 1.0) + lam / g_safe, 0.0)
        d = np.where(active, (ratio - 1.0) / g_safe, 0.0)
    return xi, d


def dual_score(theta, g, lam):
    """Best dual bid of a link for one tone at multiplier lam.

    The bid is max over power density d >= 0 of theta*log(1 + g*d) - lam*d,
    the weighted rate the link can buy on the tone minus the price of the
    power it spends, per unit of time share.  The maximizer is
    d = theta/lam - 1/g, giving theta*(log(theta*g/lam) - 1) + lam/g when
    theta*g > lam and 0 otherwise (the link bids nothing on a tone it would
    not power).  Continuous in lam, including at the threshold.

    lam below 1e-12 is floored there, which caps the otherwise divergent
    log; the solver never feeds multipliers below the floor.
    """
    lam = np.maximum(np.asarray(lam, dtype=float), LAM_FLOOR)
    out, _ = _bid(np.asarray(theta, dtype=float), np.asarray(g, dtype=float), lam)
    return float(out) if out.ndim == 0 else out


def power_density(problem: TSProblem, lam) -> np.ndarray:
    """Per-unit-share power each link would pour into each tone at lam.

    d[i,k] = (1/g) * (theta*g/lam - 1) clamped at zero; the actual power on
    a tone is the share times this density.
    """
    lam_e = np.maximum(np.asarray(lam, dtype=float), LAM_FLOOR)
    _, d = _bid(problem.weights[:, None], problem.gains, lam_e[:, None])
    return d


def _dual_terms(problem: TSProblem, lam):
    """Dual value, subgradient and per-tone winners at lam (see dual_value)."""
    lam_e = np.maximum(lam, LAM_FLOOR)
    xi, dens = _bid(problem.weights[:, None], problem.gains, lam_e[:, None])
    winner = np.argmax(xi, axis=0)          # ties: lowest link index
    cols = np.arange(xi.shape[1])
    value = float(xi[winner, cols].sum() + lam_e @ problem.budgets)
    drawn = np.bincount(winner, weights=dens[winner, cols], minlength=xi.shape[0])
    subgrad = problem.budgets - drawn
    return value, subgrad, winner


def dual_value(problem: TSProblem, lam):
    """Dual objective at lam.

    Returns (value, subgradient, winner): the per-tone winner takes the tone
    at full share, the subgradient is each link's unused budget (negative
    when the multiplier is too cheap and the link over-draws).
    """
    return _dual_terms(problem, np.asarray(lam, dtype=float))


def default_multipliers(problem: TSProblem) -> np.ndarray:
    """Water-level-scale starting point for the multipliers."""
    med = np.median(problem.gains, axis=1)
    lam0 = problem.weights * med / (1.0 + problem.budgets * med / problem.num_tones)
    return np.maximum(lam0, LAM_FLOOR)


def subgradient_solve(problem: TSProblem, max_iters: int = 10000, tol=1e-6) -> SubgradientResult:
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
    overshoot from stalling the run.

    Early stop: when the best dual value improves by less than tol (relative)
    over a 100-iteration window.  tol=None disables the check and runs all
    max_iters iterations.

    Returns the best (lowest) dual value seen, the multipliers that achieved
    it, and per-iteration traces including a certified suboptimality bound
    (R^2 + G^2 * sum alpha^2) / sum alpha with R the box diameter from the
    start point and G the largest observed (rescaled) subgradient norm.
    """
    a, b = STEP_SCHEDULE
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")

    lam_max = problem.num_tones * problem.weights / problem.budgets
    lam = np.clip(default_multipliers(problem), LAM_FLOOR, lam_max)
    scale = lam / problem.budgets

    # distance bound to any optimizer inside the box, in rescaled coordinates
    radius2 = float(np.sum(np.maximum(lam, lam_max - lam) ** 2 / scale))

    dual_tr = np.empty(max_iters)
    best_tr = np.empty(max_iters)
    step_tr = np.empty(max_iters)
    norm_tr = np.empty(max_iters)
    bound_tr = np.empty(max_iters)

    best = np.inf
    best_lam = lam.copy()
    gmax2 = 0.0
    sum_a = 0.0
    sum_a2 = 0.0
    converged = False
    window = 100

    for t in range(1, max_iters + 1):
        value, subgrad, _ = _dual_terms(problem, lam)
        if not np.isfinite(value):
            raise FloatingPointError(f"dual value became non-finite at iteration {t}")
        if value < best:
            best = value
            best_lam = lam.copy()

        alpha = a / (b + t)
        sum_a += alpha
        sum_a2 += alpha * alpha
        gmax2 = max(gmax2, float(np.sum(scale * subgrad ** 2)))
        idx = t - 1
        dual_tr[idx] = value
        best_tr[idx] = best
        step_tr[idx] = alpha
        norm_tr[idx] = float(np.linalg.norm(subgrad))
        bound_tr[idx] = (radius2 + gmax2 * sum_a2) / sum_a

        if tol is not None and t > window:
            improve = best_tr[idx - window] - best
            if improve <= tol * max(abs(best), 1e-30):
                converged = True
                break
        if t == max_iters:
            break
        lam = np.clip(lam - alpha * scale * subgrad, LAM_FLOOR, lam_max)

    return SubgradientResult(
        best_dual=best,
        best_multipliers=best_lam,
        iterations=t,
        converged=converged,
        dual_trace=dual_tr[:t].copy(),
        best_trace=best_tr[:t].copy(),
        step_trace=step_tr[:t].copy(),
        subgrad_norm_trace=norm_tr[:t].copy(),
        bound_trace=bound_tr[:t].copy(),
    )


def water_fill(gains, budget: float) -> np.ndarray:
    """Classic water filling: p_k = max(nu - 1/g_k, 0) with sum p = budget.

    The water level nu is solved exactly by sorting: take the m strongest
    tones, nu = (budget + sum of their inverse gains) / m, with m the largest
    count keeping every taken tone above water.  m is found by stepping back
    from the weakest tone until the level clears its floor, one step per dry
    tone.  Zero-gain entries never get power; if no tone has positive gain
    there is nothing to fill and the call raises.  So do gains that are not
    1-D or contain NaN, and a budget that is not finite and positive.

    When budget times the strongest gain is below WATER_FILL_MIN_SNR, the
    budget is lost to rounding next to 1/g (or 1/g overflows), so the floors
    1/g_k are measured from the strongest tone's floor instead.  Powers stay
    non-negative and sum to the budget for every finite gain vector; only a
    subnormal gain next to a strong tone still warns that 1/g overflowed
    (that tone stays dry).
    """
    g = np.atleast_1d(np.asarray(gains, dtype=float))
    if g.ndim != 1:
        raise ValueError(f"gains must be 1-D, got shape {g.shape}")
    if g.size == 0:
        raise ValueError("empty gain list")
    budget = float(budget)
    if not 0.0 < budget < np.inf:
        raise ValueError(f"budget must be finite and positive, got {budget}")
    if g.min() > 0.0:          # every tone usable; NaN fails the test
        usable, gu = None, g
    else:
        if np.isnan(g).any():
            raise ValueError("gains must not be NaN")
        usable = np.flatnonzero(g > 0.0)
        if usable.size == 0:
            raise ValueError("no tone with positive gain")
        gu = g[usable]
    gmax = gu.max()
    if budget * gmax >= WATER_FILL_MIN_SNR:
        floors = 1.0 / gu
    else:
        # a tone whose floor sits a full budget above the strongest one's
        # stays dry, so capping there changes nothing and bounds the sums
        with np.errstate(over="ignore"):
            floors = np.minimum((gmax / gu - 1.0) / gmax, budget)
    order = floors.argsort(kind="stable")
    floors_sorted = floors[order]
    floor_list = floors_sorted.tolist()
    cum = floors_sorted.cumsum().tolist()
    # the strongest tone always clears its floor (budget > 0 is not lost to
    # rounding next to it), so the scan stops at m >= 1
    m = len(floor_list)
    while not (budget + cum[m - 1]) / m > floor_list[m - 1]:
        m -= 1
    if usable is not None:
        order = usable[order]
    out = np.zeros(g.shape)
    out[order[:m]] = (budget + cum[m - 1]) / m - floors_sorted[:m]
    # strongest tone absorbs the summation rounding so the budget binds exactly
    out[order[0]] += budget - out.sum()
    return out


def recover_primal(problem: TSProblem, lam) -> Allocation:
    """Feasible allocation from converged multipliers.

    Each tone goes wholly to its winning bidder, then every link water-fills
    its budget over the tones it won (Allocation.from_sets).  Feasible by
    construction; its objective lower-bounds the time-sharing optimum.
    """
    _, _, winner = _dual_terms(problem, np.asarray(lam, dtype=float))
    return Allocation.from_sets(problem, [np.flatnonzero(winner == i)
                                          for i in range(problem.num_links)])


def write_trace_csv(result: SubgradientResult, path):
    """Dump the iteration trace for convergence plots."""
    header = "t,dual_value,best_dual,subgrad_norm,alpha"
    t = np.arange(1, result.iterations + 1)
    data = np.column_stack([t, result.dual_trace, result.best_trace,
                            result.subgrad_norm_trace, result.step_trace])
    np.savetxt(path, data, delimiter=",", header=header, comments="")
