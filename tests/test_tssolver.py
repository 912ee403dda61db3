import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smallcell.channel import ScenarioConfig
from smallcell.harness import _trial_realization
from smallcell.tssolver import (TSProblem, Allocation, subgradient_solve, recover_primal,
                                default_multipliers, power_phase, LAM_FLOOR, _check_finite,
                                _dual_kernel, _share_fill)
from smallcell.baselines import oracle_orthogonal
from smallcell.soa import soa_allocate
from reference import (classic_water_fill, random_problem, _reference_dual, _reference_shares,
                       _reference_solve, _reference_stop, _reference_ts_value)


def bid(theta, g, lam, budget=1.0):
    """One link's dual bid for one tone: the 1x1 kernel's value less the priced budget.

    The kernel is read at lam floored at LAM_FLOOR, and so is the price.
    """
    lam = max(lam, LAM_FLOOR)
    value, _, _, _ = _dual_kernel(TSProblem(gains=[[g]], weights=[theta], budgets=[budget]))(
        np.array([lam]))
    return value - lam * budget


def density(g, lam):
    """Power density a unit-weight link draws from one tone: budget 1 less the 1x1 subgradient."""
    _, subgrad, _, _ = _dual_kernel(TSProblem(gains=[[g]], weights=[1.0], budgets=[1.0]))(
        np.array([max(lam, LAM_FLOOR)]))
    return 1.0 - subgrad[0]


class TestDualScore:
    def test_reference_value(self):
        # max_d log(1 + e*d) - d  attained at d = 1 - 1/e, value 1/e
        assert bid(1.0, np.e, 1.0) == pytest.approx(1.0 / np.e, rel=1e-12)

    def test_zero_at_threshold_and_below(self):
        assert bid(1.0, 2.0, 2.0) == 0.0
        assert bid(1.0, 2.0, 5.0) == 0.0

    def test_continuous_at_threshold(self):
        eps = 1e-9
        assert bid(1.0, 2.0, 2.0 - eps) == pytest.approx(0.0, abs=1e-8)

    def test_floor_keeps_score_finite(self):
        assert np.isfinite(bid(1.0, 1.0, 0.0))

    def test_zero_gain_scores_zero(self):
        assert bid(1.0, 0.0, 1e-6) == 0.0

    @settings(max_examples=200)
    @given(theta=st.floats(0.1, 10.0), g=st.floats(1e-6, 1e6),
           lam1=st.floats(1e-9, 1e3), lam2=st.floats(1e-9, 1e3))
    def test_nonincreasing_in_multiplier(self, theta, g, lam1, lam2):
        lo, hi = sorted((lam1, lam2))
        assert bid(theta, g, lo) >= bid(theta, g, hi) - 1e-12


class TestPowerDensity:
    def test_reference_value(self):
        assert density(2.0, 1.0) == pytest.approx(0.5)

    def test_clamped_when_priced_out(self):
        assert density(2.0, 3.0) == 0.0

    def test_vanishes_continuously_at_threshold(self):
        assert density(2.0, 2.0 - 1e-10) == pytest.approx(0.0, abs=1e-9)


class TestDualValue:
    def test_saturated_multipliers(self):
        prob = random_problem(np.random.default_rng(0), num_links=3, num_tones=4)
        lam = np.full(3, 1e9)
        value, subgrad, _, _ = _dual_kernel(prob)(lam)
        assert value == pytest.approx(float(lam @ prob.budgets))
        assert np.allclose(subgrad, prob.budgets)

    def test_midpoint_convexity_on_grid(self):
        prob = TSProblem(gains=[[1.0]], weights=[1.0], budgets=[1.0])
        dual = _dual_kernel(prob)
        grid = np.linspace(0.05, 2.0, 80)
        vals = np.array([dual(np.array([x]))[0] for x in grid])
        mid = np.array([dual(np.array([(a + b) / 2]))[0]
                        for a, b in zip(grid[:-2], grid[2:])])
        assert np.all(mid <= (vals[:-2] + vals[2:]) / 2 + 1e-12)

    def test_weak_duality_against_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            prob = random_problem(rng, num_links=2, num_tones=3)
            _, best_primal = oracle_orthogonal(prob)
            for _ in range(10):
                lam = rng.uniform(0.01, 2.0, 2)
                value, _, _, _ = _dual_kernel(prob)(lam)
                assert value >= best_primal - 1e-9


class TestSubgradientSolve:
    def test_single_link_closed_form(self):
        # lam* = theta*g/(1 + g*P0), optimum log(1 + g*P0)
        prob = TSProblem(gains=[[1.0]], weights=[1.0], budgets=[1.0])
        res = subgradient_solve(prob, max_iters=3000, tol=None)
        assert res.best_dual == pytest.approx(np.log(2.0), abs=1e-9)
        assert res.best_multipliers[0] == pytest.approx(0.5, abs=1e-6)
        alloc = recover_primal(prob, res.best_multipliers)
        assert alloc.objective == pytest.approx(np.log(2.0), rel=1e-12)

    def test_best_trace_non_increasing(self):
        prob = random_problem(np.random.default_rng(2), num_links=3, num_tones=4)
        res = subgradient_solve(prob, max_iters=500, tol=None)
        assert np.all(np.diff(res.best_trace) <= 0.0)
        assert res.iterations == 500 and not res.converged

    def test_early_stop_reports_convergence(self):
        # one link holds the only tone, so every TS point is the optimum and
        # the run stops as soon as the best dual value is within tol of it
        prob = TSProblem(gains=[[1.0]], weights=[1.0], budgets=[1.0])
        res = subgradient_solve(prob, max_iters=10000, tol=1e-6)
        assert res.converged and res.iterations < 10000 and res.iterations % 10 == 0
        assert 0.0 <= res.gap <= 1e-6
        assert res.best_dual - np.log(2.0) <= 1e-6 * res.best_dual + 1e-15

    def test_no_check_reports_infinite_gap(self):
        prob = random_problem(np.random.default_rng(2), num_links=3, num_tones=4)
        for max_iters, tol in ((500, None), (9, 1e-4)):
            res = subgradient_solve(prob, max_iters=max_iters, tol=tol)
            assert res.iterations == max_iters and not res.converged and res.gap == np.inf

    def test_converged_means_gap_within_tol(self):
        rng = np.random.default_rng(14)
        outcomes = set()
        for _ in range(30):
            prob = random_problem(rng, int(rng.integers(1, 5)), int(rng.integers(1, 7)),
                                  gain_scale=10.0 ** rng.uniform(-3.0, 3.0))
            tol = float(rng.choice([1e-2, 1e-4, 1e-6]))
            res = subgradient_solve(prob, max_iters=400, tol=tol)
            assert np.isfinite(res.gap)
            assert res.converged == (res.gap <= tol)
            assert res.converged or res.iterations == 400
            outcomes.add(res.converged)
        assert outcomes == {False, True}

    def test_stalled_start_is_not_reported_converged(self):
        # the median start prices the 1e-3 tone out and the steps are too
        # small to recover: the dual stays far above the optimum
        prob = TSProblem(gains=[[1e-9, 1e-3]], weights=[1.0], budgets=[1.0])
        res = subgradient_solve(prob)
        assert res.iterations == 10000
        assert res.converged is False and res.gap > 1e-4

    def test_ts_point_against_one_dimensional_share_search(self):
        # I=2, K=1: with shares (T, 1 - T) each link spends its whole budget
        # on the tone, so the TS value is a closed form in T
        gains, weights, budgets = np.array([3.0, 0.5]), np.array([1.0, 2.0]), np.array([2.0, 5.0])
        prob = TSProblem(gains=gains[:, None], weights=weights, budgets=budgets)

        def value(T):
            shares = np.stack([T, 1.0 - T], axis=-1)
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = shares * np.log1p(gains * budgets / shares)
            return np.where(shares > 0.0, terms, 0.0) @ weights

        fill = _share_fill(prob)
        for T in (0.0, 1e-6, 0.25, 0.5, 0.9, 1.0):
            power, got = fill(np.array([[T], [1.0 - T]]))
            assert got == pytest.approx(value(T), rel=1e-12)
            assert np.allclose(power[:, 0], np.where([T > 0.0, T < 1.0], budgets, 0.0), rtol=1e-12)

        grid = np.linspace(0.0, 1.0, 10001)
        best = grid[np.argmax(value(grid))]
        lo, hi = max(best - 1e-4, 0.0), min(best + 1e-4, 1.0)
        for _ in range(100):                    # golden-section refinement
            a, b = hi - 0.618 * (hi - lo), lo + 0.618 * (hi - lo)
            lo, hi = (lo, b) if value(a) >= value(b) else (a, hi)
        optimum = value((lo + hi) / 2)

        res = subgradient_solve(prob, tol=1e-6)
        assert res.converged
        assert res.best_dual >= optimum * (1 - 1e-12)
        assert res.best_dual - optimum <= 1e-6 * res.best_dual
        ts_value = res.best_dual * (1.0 - res.gap)
        assert ts_value <= optimum * (1 + 1e-12)

    def test_ts_point_feasible_and_within_reach_of_the_dual(self):
        # the convex check that always runs: the instances of
        # test_matches_convex_reference, with the TS point standing in for cvxpy
        rng = np.random.default_rng(3)
        for _ in range(3):
            prob = random_problem(rng, num_links=3, num_tones=4)
            res = subgradient_solve(prob, max_iters=10000)
            assert res.converged
            share = _reference_shares(prob, _reference_solve(prob, res.iterations)["winners"],
                                      res.iterations)
            power, ts_value = _share_fill(prob)(share)
            assert np.all((share >= 0.0) & (share <= 1.0))
            assert np.all(share.sum(axis=0) <= 1.0 + 1e-12)
            assert np.all(power >= 0.0)
            assert np.all(power.sum(axis=1) <= prob.budgets * (1 + 1e-12))
            assert np.all(power[share == 0.0] == 0.0)
            assert ts_value == pytest.approx(_reference_ts_value(prob, share), rel=1e-12)
            assert ts_value == pytest.approx(res.best_dual * (1.0 - res.gap), rel=1e-12)
            assert -1e-12 <= res.best_dual - ts_value <= 1e-3

    def test_matches_convex_reference(self):
        cvxpy = pytest.importorskip("cvxpy")
        rng = np.random.default_rng(3)
        for _ in range(3):
            prob = random_problem(rng, num_links=3, num_tones=4)
            res = subgradient_solve(prob, max_iters=10000, tol=None)

            T = cvxpy.Variable((3, 4), nonneg=True)
            p = cvxpy.Variable((3, 4), nonneg=True)
            # time-shared rate: T * log(1 + g * p / T), concave via rel_entr
            rate = -cvxpy.rel_entr(T, T + cvxpy.multiply(prob.gains, p))
            objective = cvxpy.sum(rate)
            constraints = [cvxpy.sum(T, axis=0) <= 1, cvxpy.sum(p, axis=1) <= prob.budgets]
            cp = cvxpy.Problem(cvxpy.Maximize(objective), constraints)
            cp.solve(solver=cvxpy.CLARABEL)
            assert cp.status == "optimal"
            assert res.best_dual >= cp.value - 1e-6
            assert res.best_dual - cp.value <= 1e-3

    def test_best_iterate_invariants(self):
        prob = random_problem(np.random.default_rng(4), num_links=3, num_tones=4)
        res = subgradient_solve(prob, max_iters=200, tol=None)
        lam = res.best_multipliers
        assert np.all(lam >= LAM_FLOOR)
        assert np.all(lam <= prob.num_tones * prob.weights / prob.budgets)
        scores = np.array([[bid(w, g, x, b) for g in row] for w, row, x, b
                           in zip(prob.weights, prob.gains, lam, prob.budgets)])
        assert np.all(scores >= 0.0)
        inactive = prob.weights[:, None] * prob.gains <= lam[:, None]
        assert np.all(scores[inactive] == 0.0)
        assert _dual_kernel(prob)(lam)[0] == res.best_dual

    def test_winner_invariant_to_common_weight_scaling(self):
        prob = random_problem(np.random.default_rng(5), num_links=3, num_tones=4)
        lam = default_multipliers(prob)
        _, _, winner, _ = _dual_kernel(prob)(lam)
        scaled = TSProblem(gains=prob.gains, weights=7.5 * prob.weights, budgets=prob.budgets)
        _, _, winner_scaled, _ = _dual_kernel(scaled)(7.5 * lam)
        assert np.array_equal(winner, winner_scaled)

    @pytest.mark.parametrize("gains, weight, budget, overflow", [
        ([[1e300, 1.0]], 1.0, 1.0, False),
        ([[1e-320, 1e-3]], 1.0, 1.0, True),       # 1/g of a subnormal gain overflows
        ([[1e200, 1e-200]], 1.0, 100.0, False),
        ([[1.0, 2.0]], 1e300, 1.0, True)])        # the squared subgradient overflows
    def test_extreme_valid_inputs_solve_cleanly(self, gains, weight, budget, overflow):
        prob = TSProblem(gains=gains, weights=[weight], budgets=[budget])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = subgradient_solve(prob)
            alloc = recover_primal(prob, res.best_multipliers)
        assert np.isfinite(res.best_dual) and res.best_dual >= alloc.objective
        messages = {str(w.message) for w in caught}
        assert all(issubclass(w.category, RuntimeWarning) for w in caught)
        assert all("overflow" in m for m in messages)
        assert bool(messages) == overflow

    def test_box_stays_non_empty_below_the_floor(self):
        # K * weight / budget = 2e-20 lies under LAM_FLOOR; the box's top edge
        # is raised to the floor, so the multipliers stay where they are evaluated
        prob = TSProblem(gains=[[1.0, 2.0]], weights=[1e-20], budgets=[1.0])
        res = subgradient_solve(prob)
        assert np.array_equal(res.best_multipliers, [LAM_FLOOR])
        assert _dual_kernel(prob)(res.best_multipliers)[0] == res.best_dual
        assert res.best_dual >= recover_primal(prob, res.best_multipliers).objective

    @pytest.mark.parametrize("gains, weights", [([[1.0, 2.0]], [1e-20]),
                                                ([[0.0] * 3] * 2, [1.0, 1.0])])
    def test_optimum_below_the_floor_stops_at_the_first_check(self, gains, weights):
        # the dual value stays at LAM_FLOOR * sum(budgets) while the TS value
        # is about the optimum, so the relative gap stays about 1; before the
        # absolute slack these runs spent all 10,000 iterations
        prob = TSProblem(gains=gains, weights=weights, budgets=np.ones(len(weights)))
        res = subgradient_solve(prob)
        assert res.converged and res.iterations == 10
        assert res.gap > 0.99
        assert res.best_dual <= LAM_FLOOR * prob.budgets.sum() * (1 + 1e-12)

    @pytest.mark.parametrize("gains, budget", [
        ([[1.0, 2.0]], 1e-308),         # the box edge K * weight / budget overflows
        ([[1e300, 1e300]], 1e-300)])    # the step scale lam0 / budget overflows
    def test_box_edge_or_step_scale_past_the_float_range_rejected(self, gains, budget):
        # unchecked, the dual value became inf and the solve raised
        # FloatingPointError at iteration 2
        prob = TSProblem(gains=[[1.0, 2.0]] + gains, weights=[1.0, 1.0], budgets=[1.0, budget])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^link 1's multiplier box edge .* must be finite$"):
                subgradient_solve(prob)

    def test_bad_arguments(self):
        prob = random_problem(np.random.default_rng(7), num_links=3, num_tones=4)
        with pytest.raises(ValueError):
            subgradient_solve(prob, max_iters=0)

    @pytest.mark.parametrize("max_iters", [2.5, 3.0, "10", -1, True])
    def test_max_iters_not_a_count_rejected(self, max_iters):
        # unchecked, a float failed with a TypeError from range, and True ran
        # one iteration
        with pytest.raises(ValueError, match="max_iters must be an integer >= 1"):
            subgradient_solve(random_problem(np.random.default_rng(7), num_links=3, num_tones=4),
                              max_iters=max_iters)

    @pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf, -np.inf])
    def test_tol_not_finite_and_non_negative_rejected(self, tol):
        # unchecked, a NaN or negative tol silently never stopped early
        with pytest.raises(ValueError, match="tol must be None, or finite and >= 0"):
            subgradient_solve(random_problem(np.random.default_rng(7), num_links=3, num_tones=4),
                              max_iters=500, tol=tol)

    def test_counts_of_numpy_integer_type_accepted(self):
        prob = random_problem(np.random.default_rng(7), num_links=3, num_tones=4)
        assert subgradient_solve(prob, max_iters=np.int64(5), tol=0).iterations == 5


def _sandwich_pool():
    for seed in range(100, 124):
        for num_links in (1, 2, 3):
            cfg = ScenarioConfig(num_links=num_links, num_tones=4, rng_seed=seed)
            real = _trial_realization(cfg, 0)
            yield (TSProblem(gains=real.direct_gain, weights=np.ones(num_links),
                             budgets=np.full(num_links, cfg.max_power_mw)), 2000, 1e-4)


def _shaped(make, max_iters, tol, shapes=((3, 4), (2, 6), (4, 3), (1, 5), (3, 1), (1, 1))):
    """One case per shape, single-link and single-tone shapes included."""
    rng = np.random.default_rng(12)
    for shape in shapes:
        gains, weights, budgets = make(rng, *shape)
        yield TSProblem(gains=gains, weights=weights, budgets=budgets), max_iters, tol


def _tied(rng, num_links, num_tones):
    return rng.integers(0, 3, (num_links, num_tones)).astype(float), np.ones(num_links), \
        np.full(num_links, 2.0)


def _zeros(rng, num_links, num_tones):
    gains = rng.lognormal(0.0, 2.0, (num_links, num_tones))
    gains[rng.random(gains.shape) < 0.3] = 0.0
    gains[0] = 0.0                  # a link that hears nothing
    gains[:, -1] = 0.0              # a tone nobody can use
    return gains, rng.uniform(0.2, 5.0, num_links), rng.uniform(0.1, 100.0, num_links)


def _mixed(rng, num_links, num_tones):
    return rng.lognormal(0.0, 3.0, (num_links, num_tones)), rng.uniform(0.2, 5.0, num_links), \
        rng.uniform(0.1, 100.0, num_links)


def _equal(rng, num_links, num_tones):
    return np.ones((num_links, num_tones)), np.ones(num_links), np.ones(num_links)


REFERENCE_CASES = {
    "sandwich-pool": _sandwich_pool,
    "tied-gains": lambda: _shaped(_tied, 600, 1e-6),
    "zero-entries-rows-columns": lambda: _shaped(_zeros, 400, 1e-6),
    "mixed-weights-budgets": lambda: _shaped(_mixed, 500, 1e-6),
    "all-equal-tol-none": lambda: _shaped(_equal, 300, None),
    "mixed-tol-none": lambda: _shaped(_mixed, 300, None),
    "one-iteration": lambda: _shaped(_mixed, 1, 1e-6),
    "all-zero-gains": lambda: iter([(TSProblem(gains=np.zeros((2, 3)), weights=np.ones(2),
                                               budgets=np.ones(2)), 200, 1e-6)]),
    # shapes where the kernel's flat winner index and expanded multipliers
    # differ most from broadcasting: many tones, many links, one link
    "mixed-8x64": lambda: _shaped(_mixed, 300, 1e-6, [(8, 64)]),
    "tied-16x3": lambda: _shaped(_tied, 600, 1e-6, [(16, 3)]),
    "zeros-1x64": lambda: _shaped(_zeros, 400, 1e-6, [(1, 64)]),
    # the extreme valid inputs of test_extreme_valid_inputs_solve_cleanly, at
    # subgradient_solve's defaults; they overflow, so the tests ignore overflow
    "extreme-gains-weights": lambda: iter([
        (TSProblem(gains=gains, weights=[weight], budgets=[1.0]), 10000, 1e-6)
        for gains, weight in [([[1e300, 1.0]], 1.0), ([[1e-320, 1e-3]], 1.0),
                              ([[1.0, 2.0]], 1e300)]]),
}


class TestDefaultMultipliers:
    @pytest.mark.parametrize("num_tones", range(1, 10))
    def test_bits_of_the_median_formula(self, num_tones):
        rng = np.random.default_rng(num_tones)
        for gains in (rng.lognormal(0.0, 3.0, (3, num_tones)),
                      rng.integers(0, 3, (3, num_tones)).astype(float)):    # ties and zeros
            prob = TSProblem(gains=gains, weights=rng.uniform(0.5, 2.0, 3),
                             budgets=rng.uniform(0.1, 100.0, 3))
            med = np.median(prob.gains, axis=1)
            lam0 = prob.weights * med / (1.0 + prob.budgets * med / num_tones)
            want = np.maximum(lam0, LAM_FLOOR)
            assert default_multipliers(prob).tobytes() == want.tobytes()


class TestSubgradientMatchesReference:
    """The per-problem dual kernel and lean loop repeat the reference loop bit for bit.

    A run with a tol must stop at the first multiple of 10 at which the
    reference's own certificate holds, or else run all max_iters; either
    way it is a prefix of the reference run, which has no stop rule.
    """

    @pytest.mark.parametrize("group", list(REFERENCE_CASES))
    def test_solve_and_recovery_bit_identical(self, group):
        for prob, max_iters, tol in REFERENCE_CASES[group]():
            with np.errstate(over="ignore"):
                got = subgradient_solve(prob, max_iters=max_iters, tol=tol)
                want = _reference_solve(prob, got.iterations)
                stop, gap = (None, None) if tol is None else _reference_stop(prob, want, tol)
                _, _, winner = _reference_dual(prob, want["best_multipliers"])
                ref = Allocation.from_sets(prob, [np.flatnonzero(winner == i)
                                                  for i in range(prob.num_links)])
                alloc = recover_primal(prob, got.best_multipliers)
            assert got.iterations == (stop or max_iters)
            assert got.converged == (stop is not None)
            if got.converged:
                assert got.gap == pytest.approx(gap, rel=1e-9, abs=1e-15)
            assert got.best_dual == want["best_dual"]
            for field in ("best_multipliers", "best_trace", "bound_trace"):
                assert getattr(got, field).tobytes() == want[field].tobytes(), field
            assert alloc.share.tobytes() == ref.share.tobytes()
            assert alloc.power.tobytes() == ref.power.tobytes()

    @pytest.mark.parametrize("group", list(REFERENCE_CASES))
    def test_dual_kernel_bit_identical_at_random_multipliers(self, group):
        rng = np.random.default_rng(13)
        for prob, _, _ in REFERENCE_CASES[group]():
            for _ in range(5):
                # log-uniform over [1e-16, 1e4]: below LAM_FLOOR, around it and far above
                lam = 10.0 ** rng.uniform(-16.0, 4.0, prob.num_links)
                with np.errstate(over="ignore"):
                    value, subgrad, winner, _ = _dual_kernel(prob)(np.maximum(lam, LAM_FLOOR))
                    ref_value, ref_subgrad, ref_winner = _reference_dual(prob, lam)
                assert value == ref_value
                assert subgrad.tobytes() == ref_subgrad.tobytes()
                assert np.array_equal(winner, ref_winner)


class TestRecoverPrimal:
    def test_single_link_gets_everything(self):
        rng = np.random.default_rng(8)
        gains = rng.lognormal(0.0, 1.0, (1, 5))
        prob = TSProblem(gains=gains, weights=[1.0], budgets=[2.0])
        res = subgradient_solve(prob, max_iters=2000, tol=None)
        alloc = recover_primal(prob, res.best_multipliers)
        direct = classic_water_fill(gains[0], 2.0)
        assert np.allclose(alloc.power[0], direct)
        assert np.all(alloc.share[0] == 1.0)

    def test_recovered_never_beats_dual(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            prob = random_problem(rng, num_links=3, num_tones=4)
            res = subgradient_solve(prob, max_iters=2000, tol=None)
            alloc = recover_primal(prob, res.best_multipliers)
            assert alloc.objective <= res.best_dual + 1e-9

    def test_sandwich_against_oracle(self):
        # recovered (orthogonal) <= best orthogonal <= time-sharing dual
        rng = np.random.default_rng(10)
        for _ in range(5):
            prob = random_problem(rng, num_links=2, num_tones=3)
            res = subgradient_solve(prob, max_iters=10000, tol=None)
            alloc = recover_primal(prob, res.best_multipliers)
            _, best = oracle_orthogonal(prob)
            assert alloc.objective <= best + 1e-9
            assert best <= res.best_dual + 1e-9

    def test_close_to_oracle_when_tones_outnumber_links(self):
        # with several tones per link the winner-take-all rounding loses little
        rng = np.random.default_rng(10)
        for _ in range(5):
            prob = random_problem(rng, num_links=2, num_tones=8)
            res = subgradient_solve(prob, max_iters=10000, tol=None)
            alloc = recover_primal(prob, res.best_multipliers)
            _, best = oracle_orthogonal(prob)
            assert alloc.objective >= 0.97 * best

    def test_feasibility(self):
        prob = random_problem(np.random.default_rng(11), num_links=3, num_tones=4)
        alloc = recover_primal(prob, default_multipliers(prob))
        assert np.all(alloc.share.sum(axis=0) <= 1.0 + 1e-12)
        assert np.all(alloc.power.sum(axis=1) <= prob.budgets + 1e-9)
        assert np.all(alloc.power[alloc.share == 0.0] == 0.0)

    @pytest.mark.parametrize("lam", [[0.1, 0.2, 0.3], [0.1], 0.1, [[0.1, 0.2]],
                                     [np.nan, 0.1], [np.inf, 0.1]],
                             ids=["three", "one", "scalar", "row", "nan", "inf"])
    def test_rejects_multipliers_not_one_finite_value_per_link(self, lam):
        # unchecked, the first four failed with an error from numpy or from
        # indexing, and a NaN or infinite multiplier gave an allocation
        prob = random_problem(np.random.default_rng(11), num_links=2, num_tones=3)
        with pytest.raises(ValueError, match="lam must hold 2 finite values"):
            recover_primal(prob, lam)

    def test_multipliers_below_the_floor_are_read_at_the_floor(self):
        prob = random_problem(np.random.default_rng(11), num_links=2, num_tones=3)
        want = recover_primal(prob, [LAM_FLOOR, LAM_FLOOR])
        for lam in ([0.0, -1.0], np.array([-np.finfo(float).max, 1e-300])):
            got = recover_primal(prob, lam)
            assert got.share.tobytes() == want.share.tobytes()
            assert got.power.tobytes() == want.power.tobytes()


class TestFromSets:
    PROB = TSProblem(gains=[[2.0, 0.0, 1.0, 0.5], [1.0, 3.0, 0.0, 0.0]],
                     weights=[1.0, 2.0], budgets=[3.0, 4.0])

    def test_equal_split(self):
        alloc = Allocation.from_sets(self.PROB, [[2, 0, 3], [1]], power_mode="equal")
        assert np.array_equal(alloc.share, [[1, 0, 1, 1], [0, 1, 0, 0]])
        assert np.array_equal(alloc.power, [[1.0, 0.0, 1.0, 1.0], [0.0, 4.0, 0.0, 0.0]])
        rate = np.log1p(self.PROB.gains * alloc.power).sum(axis=1)
        assert np.array_equal(alloc.rate, rate)
        assert alloc.objective == float(self.PROB.weights @ rate)

    def test_zero_gain_tones_keep_share_without_power(self):
        alloc = Allocation.from_sets(self.PROB, [[0, 1], [1, 2, 3]])
        assert np.array_equal(alloc.share, [[1, 1, 0, 0], [0, 1, 1, 1]])
        assert np.array_equal(alloc.power[0], [3.0, 0.0, 0.0, 0.0])
        assert np.array_equal(alloc.power[1], [0.0, 4.0, 0.0, 0.0])

    def test_water_fill_over_the_given_order(self):
        alloc = Allocation.from_sets(self.PROB, [[3, 0, 2], []])
        want = np.zeros(4)
        want[[3, 0, 2]] = classic_water_fill([0.5, 2.0, 1.0], 3.0)
        assert np.array_equal(alloc.power[0], want)

    @pytest.mark.parametrize("mode", ["equal", "waterfill"])
    def test_empty_sets(self, mode):
        alloc = Allocation.from_sets(self.PROB, [[], np.array([], dtype=int)], power_mode=mode)
        assert not alloc.share.any() and not alloc.power.any()
        assert alloc.objective == 0.0
        # a link whose set holds only zero-gain tones gets no power either
        alloc = Allocation.from_sets(self.PROB, [[1], [2, 3]], power_mode="waterfill")
        assert not alloc.power.any() and alloc.share.sum() == 3

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="power_mode"):
            Allocation.from_sets(self.PROB, [[0], [1]], power_mode="peak")


class TestPowerPhase:
    @pytest.mark.parametrize("mode", ["equal", "waterfill"])
    @pytest.mark.parametrize("num_tones", [1, 8])
    def test_stack_matches_each_row_alone(self, mode, num_tones):
        rng = np.random.default_rng(21)
        n = 9
        gains = rng.lognormal(0.0, 2.0, (n, num_tones))
        gains[rng.random((n, num_tones)) < 0.3] = 0.0
        gains[2] = 0.0                        # a row whose set holds only zero-gain tones
        budgets = rng.uniform(0.5, 50.0, n)
        sets = [rng.permutation(num_tones)[:rng.integers(1, num_tones + 1)].tolist()
                for _ in range(n)]
        sets[0] = []
        sets[1] = np.array([], dtype=int)
        share, power = power_phase(gains, sets, budgets, mode)
        for r in range(n):
            alone = power_phase(gains[r:r + 1], sets[r:r + 1], budgets[r:r + 1], mode)
            assert np.array_equal(share[r], alone[0][0])
            assert np.array_equal(power[r], alone[1][0])
        assert share.sum() == sum(len(tones) for tones in sets)
        assert not power[:2].any()
        in_sets = share > 0.0
        dry = in_sets & (gains == 0.0)
        assert dry[2].any()
        if mode == "waterfill":
            assert not power[dry].any()       # zero-gain tones keep their share, get no power
            assert not power[2].any()
        else:
            assert np.all(power[in_sets] > 0.0)


    @pytest.mark.parametrize("mode", ["equal", "waterfill"])
    @pytest.mark.parametrize("sets, message", [
        ([[-1], [0]], r"sets\[0\] holds tone -1, outside \[0, 3\)"),
        ([[3], [0]], r"sets\[0\] holds tone 3, outside \[0, 3\)"),
        ([[0], [1, 2, 5]], r"sets\[1\] holds tone 5"),
        ([[0, 0, 1], [2]], r"sets\[0\] holds a tone twice"),
        ([[0], np.array([2, 1, 2])], r"sets\[1\] holds a tone twice"),
        ([[0, 1, 2]], r"1 tone sets for 2 rows"),
        ([[0], [1], [2]], r"3 tone sets for 2 rows"),
        ([[0.5], [0]], r"a tone of sets\[0\] must be a non-negative integer, got 0\.5"),
        ([[0], [1, 2.0]], r"a tone of sets\[1\] must be a non-negative integer, got 2\.0"),
        ([[1], [0, True]], r"a tone of sets\[1\] must be a non-negative integer, got True"),
        ([[float("nan")], [0]], r"a tone of sets\[0\] must be a non-negative integer, got nan"),
        ([[0], [1, "a"]], r"a tone of sets\[1\] must be a non-negative integer, got 'a'"),
        ([[2 ** 70], [0]], r"sets\[0\] holds tone 1180591620717411303424, outside \[0, 3\)"),
    ])
    def test_rejects_tones_outside_the_row_or_repeated(self, sets, message, mode):
        # at 10 mW each, [[-1], [0]] put link 0's budget on link 1's row,
        # [[0, 0, 1], [2]] left link 0 short of its budget, and 0.5 and True
        # were read as tones 0 and 1; NaN, 'a' and 2 ** 70 failed in the
        # cast to intp without naming the set
        with pytest.raises(ValueError, match=message):
            power_phase(np.ones((2, 3)), sets, np.full(2, 10.0), mode)

    @pytest.mark.parametrize("mode", ["equal", "waterfill"])
    def test_rows_that_all_won_nothing_get_nothing(self, mode):
        # a stack of empty sets lists no tone, so the type check sees no type
        # and the cast must still give integer tones
        for sets in ([[], []], [np.array([], dtype=np.intp), []]):
            share, power = power_phase(np.ones((2, 3)), sets, np.full(2, 10.0), mode)
            assert not share.any() and not power.any()

    @pytest.mark.parametrize("mode", ["equal", "waterfill"])
    @pytest.mark.parametrize("budget", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_rejects_a_budget_that_is_not_finite_and_positive(self, budget, mode):
        # unchecked, "equal" wrote the budget itself, or NaN, as power
        with pytest.raises(ValueError, match=re.escape(f"budgets must be finite and positive, got {budget!r}")):
            power_phase(np.ones((1, 2)), [[0, 1]], np.array([budget]), mode)

    @pytest.mark.parametrize("mode", ["equal", "waterfill"])
    @pytest.mark.parametrize("budgets", [np.ones(1), np.ones(3), np.ones((2, 1)), 2.0],
                             ids=["one", "three", "column", "scalar"])
    def test_rejects_budgets_not_one_per_row(self, budgets, mode):
        # unchecked, one budget was spread over both rows in "equal" and left
        # row 1 unpowered in "waterfill", and a third budget was ignored
        with pytest.raises(ValueError, match=r"budgets must have shape \(2,\)"):
            power_phase(np.ones((2, 3)), [[0], [1, 2]], budgets, mode)

    @pytest.mark.parametrize("mode", ["equal", "waterfill"])
    def test_gains_must_be_two_dimensional(self, mode):
        # unchecked, 1-D gains failed to unpack their shape and a list of
        # lists had no shape at all
        for gains in (np.ones(3), np.ones((1, 2, 3))):
            with pytest.raises(ValueError, match=re.escape(f"got shape {gains.shape}")):
                power_phase(gains, [[0]], np.ones(1), mode)
        rows = [[0.5, 2.0, 0.0], [1.0, 0.25, 3.0]]
        got = power_phase(rows, [[0, 1], [2, 1]], np.array([2.0, 3.0]), mode)
        want = power_phase(np.array(rows), [[0, 1], [2, 1]], np.array([2.0, 3.0]), mode)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


def fill_row(gains, budget):
    """power_phase's water fill of one gain row over all of its tones."""
    g = np.asarray(gains, dtype=float)
    return power_phase(g[None], [np.arange(g.size)], np.array([budget]), "waterfill")[1][0]


class TestWaterFill:
    def test_symmetric_split(self):
        assert np.allclose(fill_row([1.0, 1.0], 2.0), [1.0, 1.0])

    def test_weak_tone_shut_off(self):
        assert np.allclose(fill_row([1.0, 0.5], 1.0), [1.0, 0.0])

    def test_zero_gain_tones_excluded(self):
        p = fill_row([1.0, 0.0, 1.0], 2.0)
        assert p[1] == 0.0 and p.sum() == pytest.approx(2.0)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_kkt_conditions(self, data):
        n = data.draw(st.integers(1, 12))
        log_g = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n))
        budget = 10.0 ** data.draw(st.floats(-2.0, 2.0))
        g = np.power(10.0, np.array(log_g))
        p = fill_row(g, budget)
        assert np.all(p >= 0.0)
        assert p.sum() == pytest.approx(budget, rel=1e-12)
        active = p > 0.0
        levels = p[active] + 1.0 / g[active]
        nu = levels.mean()
        assert np.all(np.abs(levels - nu) <= 1e-12 * nu)
        if np.any(~active):
            assert np.all(1.0 / g[~active] >= nu - 1e-12 * nu)

    @pytest.mark.parametrize("gains,budget", [([1e-300, 1e-300], 100.0), ([1e-290] * 64, 100.0),
                                              ([1e-308] * 2, 100.0), ([1e-320], 1.0),
                                              ([1e-20], 100.0)])
    def test_weak_gains_split_the_budget(self, gains, budget):
        # budget * gain far below 1: budget + 1/g rounds to 1/g in the classic formula
        p = fill_row(gains, budget)
        assert np.all(np.isfinite(p)) and np.all(p >= 0.0)
        assert p.sum() == pytest.approx(budget, rel=1e-12)
        strongest = np.asarray(gains) == max(gains)
        assert np.allclose(p[strongest], budget / strongest.sum(), rtol=1e-12)

    def test_subnormal_gain_next_to_a_strong_tone_stays_dry(self):
        with pytest.warns(RuntimeWarning, match="overflow"):
            p = fill_row([1.0, 1e-320], 1.0)
        assert np.array_equal(p, [1.0, 0.0])

    def test_weak_gains_keep_water_filling_levels(self):
        # 1/g differs by 10 between the tones: levels 55 and 45 + 10 above 1/g_max
        g = np.array([1e-12, 1e-12 / (1.0 + 1e-11)])
        p = fill_row(g, 100.0)
        floors = (g[0] / g - 1.0) / g[0]
        assert np.allclose(p, [55.0, 45.0], rtol=1e-3)
        assert np.allclose(p + floors, (p + floors)[0], rtol=1e-12)

    def test_normal_gains_use_the_classic_formula_exactly(self):
        # power_phase fills the positive-gain tones into a row of their own,
        # so the fix-up sums those alone
        rng = np.random.default_rng(4)
        rows = [rng.lognormal(0.0, 3.0, int(rng.integers(1, 20))) for _ in range(50)]
        rows += [rng.lognormal(0.0, 3.0, k) * (rng.random(k) < 0.7) for k in (1, 3, 10, 64, 256)]
        rows += [rng.integers(0, 4, k).astype(float) for k in (2, 10, 64, 256)]
        rows += [rng.integers(1, 3, k).astype(float) for k in (10, 64, 256)]
        rows += [rng.lognormal(0.0, 3.0, k) for k in (64, 64, 256, 256)]
        for g in rows:
            if not np.any(g > 0.0):
                g[0] = 1.0
            budget = float(rng.choice([0.01, 1.0, 100.0]))
            usable = np.flatnonzero(g > 0.0)
            order = np.argsort(1.0 / g[usable], kind="stable")
            inv = 1.0 / g[usable][order]
            nu = (budget + np.cumsum(inv)) / np.arange(1, usable.size + 1)
            m = int(np.flatnonzero(nu > inv)[-1]) + 1
            wet = np.zeros(usable.size)
            wet[order[:m]] = nu[m - 1] - inv[:m]
            wet[order[0]] += budget - wet.sum()
            expected = np.zeros_like(g)
            expected[usable] = wet
            assert fill_row(g, budget).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("budget", [np.nan, np.inf, -np.inf, -1.0])
    def test_budget_not_finite_and_positive_raises(self, budget):
        with pytest.raises(ValueError, match="budget"):
            fill_row([1.0, 2.0], budget)

    @pytest.mark.parametrize("gains", [[np.nan, 1.0], [1.0, 0.0, np.nan], [np.nan], [-1.0, np.nan]])
    def test_nan_gain_raises(self, gains):
        # a NaN gain is rejected where gains enter, before any solver fills
        # them, and is the entry reported even after a negative one
        with pytest.raises(ValueError, match="gains must be finite and non-negative, got nan"):
            TSProblem(gains=[gains], weights=[1.0], budgets=[1.0])

    def test_gains_not_1d_raise(self):
        # each link's gains are one 1-D row of the (I, K) matrix
        with pytest.raises(ValueError, match="shape mismatch"):
            TSProblem(gains=np.ones((2, 3, 1)), weights=[1.0, 1.0], budgets=[1.0, 1.0])

    def test_subnormal_gain_problem_solves(self):
        prob = TSProblem(gains=[[1e-320]], weights=[1.0], budgets=[1.0])
        for alloc in (soa_allocate(prob, "waterfill"), oracle_orthogonal(prob)[0],
                      recover_primal(prob, subgradient_solve(prob, max_iters=20).best_multipliers)):
            assert np.array_equal(alloc.power, [[1.0]])
            assert np.isfinite(alloc.objective) and alloc.objective >= 0.0


class TestProblemValidation:
    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            TSProblem(gains=[[-1.0]], weights=[1.0], budgets=[1.0])

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            TSProblem(gains=[[1.0]], weights=[0.0], budgets=[1.0])

    @pytest.mark.parametrize("weight, budget", [(1.0, np.nan), (1.0, np.inf), (np.nan, 1.0),
                                                (np.inf, 1.0), (-np.inf, 1.0)])
    def test_non_finite_weight_or_budget_rejected(self, weight, budget):
        # unchecked, a NaN budget scores 0.0, an inf budget gives NaN powers
        # and an inf weight an inf objective
        name, value = ("budgets", budget) if weight == 1.0 else ("weights", weight)
        with pytest.raises(ValueError, match=re.escape(f"{name} must be finite and positive, got {value!r}")):
            TSProblem(gains=[[1.0, 2.0]], weights=[weight], budgets=[budget])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TSProblem(gains=[[1.0, 2.0]], weights=[1.0, 1.0], budgets=[1.0])

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0), (0, 0)])
    def test_no_links_or_no_tones_rejected(self, shape):
        # unchecked, soa_allocate failed in range() or with a ZeroDivisionError
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            TSProblem(gains=np.zeros(shape), weights=np.ones(shape[0]),
                      budgets=np.ones(shape[0]))

    @pytest.mark.parametrize("gains, budget", [([[1e300, 1.0]], 1e10), ([[0.0, 1e200]], 1e200)])
    def test_full_budget_snr_past_the_float_range_rejected(self, gains, budget):
        # unchecked, SOA scored an inf objective and the dual raised
        # FloatingPointError after numpy's overflow warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="full-budget SNR"):
                TSProblem(gains=gains, weights=[1.0], budgets=[budget])
        TSProblem(gains=gains, weights=[1.0], budgets=[1.0])


class TestCheckFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_rejects_an_entry_that_is_not_finite_and_positive(self, bad):
        values = np.array([[2.0, 3.0], [bad, 1.0]])
        with pytest.raises(ValueError, match=re.escape(f"x must be finite and positive, got {bad!r}")):
            _check_finite("x", values, True)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, -1e-300])
    def test_rejects_an_entry_that_is_not_finite_and_non_negative(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"x must be finite and non-negative, got {bad!r}")):
            _check_finite("x", [0.0, bad, 5.0], False)

    def test_a_nan_is_reported_over_the_other_bad_entries(self):
        # argmin and argmax both land on the first NaN
        with pytest.raises(ValueError, match="got nan"):
            _check_finite("x", [-1.0, np.inf, np.nan, 0.0], True)

    def test_returns_a_float_array_of_the_values(self):
        out = _check_finite("x", [[1, 2]], True, (1, 2))
        assert out.dtype == float and out.tolist() == [[1.0, 2.0]]
        for zero in (0.0, -0.0):
            assert _check_finite("x", [zero, 1.0], False).tolist() == [zero, 1.0]
        assert _check_finite("x", 3.5, True).shape == ()
        assert _check_finite("x", np.empty((0, 4)), True, (0, 4)).shape == (0, 4)

    @pytest.mark.parametrize("values", [np.ones(2), np.ones((3, 1)), 1.0])
    def test_rejects_another_shape(self, values):
        shape = np.shape(values)
        with pytest.raises(ValueError, match=re.escape(f"x must have shape (3,), got {shape}")):
            _check_finite("x", values, True, (3,))
