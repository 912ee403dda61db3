import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smallcell.tssolver import (TSProblem, Allocation, dual_score, power_density, dual_value,
                                subgradient_solve, recover_primal, water_fill,
                                default_multipliers, write_trace_csv, LAM_FLOOR)
from smallcell.baselines import oracle_orthogonal
from smallcell.soa import soa_allocate


def random_problem(rng, num_links=3, num_tones=4, gain_scale=1.0):
    gains = gain_scale * rng.lognormal(0.0, 1.0, (num_links, num_tones))
    return TSProblem(gains=gains, weights=np.ones(num_links),
                     budgets=np.full(num_links, 2.0))


class TestDualScore:
    def test_reference_value(self):
        # max_d log(1 + e*d) - d  attained at d = 1 - 1/e, value 1/e
        assert dual_score(1.0, np.e, 1.0) == pytest.approx(1.0 / np.e, rel=1e-12)

    def test_zero_at_threshold_and_below(self):
        assert dual_score(1.0, 2.0, 2.0) == 0.0
        assert dual_score(1.0, 2.0, 5.0) == 0.0

    def test_continuous_at_threshold(self):
        eps = 1e-9
        assert dual_score(1.0, 2.0, 2.0 - eps) == pytest.approx(0.0, abs=1e-8)

    def test_floor_keeps_score_finite(self):
        assert np.isfinite(dual_score(1.0, 1.0, 0.0))

    def test_zero_gain_scores_zero(self):
        assert dual_score(1.0, 0.0, 1e-6) == 0.0

    @settings(max_examples=200)
    @given(theta=st.floats(0.1, 10.0), g=st.floats(1e-6, 1e6),
           lam1=st.floats(1e-9, 1e3), lam2=st.floats(1e-9, 1e3))
    def test_nonincreasing_in_multiplier(self, theta, g, lam1, lam2):
        lo, hi = sorted((lam1, lam2))
        assert dual_score(theta, g, lo) >= dual_score(theta, g, hi) - 1e-12


class TestPowerDensity:
    def test_reference_value(self):
        prob = TSProblem(gains=[[2.0]], weights=[1.0], budgets=[1.0])
        assert power_density(prob, [1.0])[0, 0] == pytest.approx(0.5)

    def test_clamped_when_priced_out(self):
        prob = TSProblem(gains=[[2.0]], weights=[1.0], budgets=[1.0])
        assert power_density(prob, [3.0])[0, 0] == 0.0

    def test_vanishes_continuously_at_threshold(self):
        prob = TSProblem(gains=[[2.0]], weights=[1.0], budgets=[1.0])
        assert power_density(prob, [2.0 - 1e-10])[0, 0] == pytest.approx(0.0, abs=1e-9)


class TestDualValue:
    def test_saturated_multipliers(self):
        prob = random_problem(np.random.default_rng(0))
        lam = np.full(3, 1e9)
        value, subgrad, _ = dual_value(prob, lam)
        assert value == pytest.approx(float(lam @ prob.budgets))
        assert np.allclose(subgrad, prob.budgets)

    def test_midpoint_convexity_on_grid(self):
        prob = TSProblem(gains=[[1.0]], weights=[1.0], budgets=[1.0])
        grid = np.linspace(0.05, 2.0, 80)
        vals = np.array([dual_value(prob, [x])[0] for x in grid])
        mid = np.array([dual_value(prob, [(a + b) / 2])[0]
                        for a, b in zip(grid[:-2], grid[2:])])
        assert np.all(mid <= (vals[:-2] + vals[2:]) / 2 + 1e-12)

    def test_weak_duality_against_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            prob = random_problem(rng, num_links=2, num_tones=3)
            _, best_primal = oracle_orthogonal(prob)
            for _ in range(10):
                lam = rng.uniform(0.01, 2.0, 2)
                value, _, _ = dual_value(prob, lam)
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
        prob = random_problem(np.random.default_rng(2))
        res = subgradient_solve(prob, max_iters=500, tol=None)
        assert np.all(np.diff(res.best_trace) <= 0.0)
        assert res.iterations == 500 and not res.converged

    def test_early_stop_reports_convergence(self):
        prob = TSProblem(gains=[[1.0]], weights=[1.0], budgets=[1.0])
        res = subgradient_solve(prob, max_iters=10000, tol=1e-6)
        assert res.converged and res.iterations < 10000

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
        prob = random_problem(np.random.default_rng(4))
        res = subgradient_solve(prob, max_iters=200, tol=None)
        lam = res.best_multipliers
        assert np.all(lam >= LAM_FLOOR)
        assert np.all(lam <= prob.num_tones * prob.weights / prob.budgets)
        scores = dual_score(prob.weights[:, None], prob.gains, lam[:, None])
        assert np.all(scores >= 0.0)
        inactive = prob.weights[:, None] * prob.gains <= lam[:, None]
        assert np.all(scores[inactive] == 0.0)
        assert dual_value(prob, lam)[0] == res.best_dual

    def test_winner_invariant_to_common_weight_scaling(self):
        prob = random_problem(np.random.default_rng(5))
        lam = default_multipliers(prob)
        _, _, winner = dual_value(prob, lam)
        scaled = TSProblem(gains=prob.gains, weights=7.5 * prob.weights, budgets=prob.budgets)
        _, _, winner_scaled = dual_value(scaled, 7.5 * lam)
        assert np.array_equal(winner, winner_scaled)

    def test_trace_csv(self, tmp_path):
        prob = random_problem(np.random.default_rng(6))
        res = subgradient_solve(prob, max_iters=50, tol=None)
        path = tmp_path / "trace.csv"
        write_trace_csv(res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,dual_value,best_dual,subgrad_norm,alpha"
        assert len(lines) == 51

    def test_bad_arguments(self):
        prob = random_problem(np.random.default_rng(7))
        with pytest.raises(ValueError):
            subgradient_solve(prob, max_iters=0)


class TestRecoverPrimal:
    def test_single_link_gets_everything(self):
        rng = np.random.default_rng(8)
        gains = rng.lognormal(0.0, 1.0, (1, 5))
        prob = TSProblem(gains=gains, weights=[1.0], budgets=[2.0])
        res = subgradient_solve(prob, max_iters=2000, tol=None)
        alloc = recover_primal(prob, res.best_multipliers)
        direct = water_fill(gains[0], 2.0)
        assert np.allclose(alloc.power[0], direct)
        assert np.all(alloc.share[0] == 1.0)

    def test_recovered_never_beats_dual(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            prob = random_problem(rng)
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
        prob = random_problem(np.random.default_rng(11))
        alloc = recover_primal(prob, default_multipliers(prob))
        assert np.all(alloc.share.sum(axis=0) <= 1.0 + 1e-12)
        assert np.all(alloc.power.sum(axis=1) <= prob.budgets + 1e-9)
        assert np.all(alloc.power[alloc.share == 0.0] == 0.0)


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
        want[[3, 0, 2]] = water_fill([0.5, 2.0, 1.0], 3.0)
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


class TestWaterFill:
    def test_symmetric_split(self):
        assert np.allclose(water_fill([1.0, 1.0], 2.0), [1.0, 1.0])

    def test_weak_tone_shut_off(self):
        assert np.allclose(water_fill([1.0, 0.5], 1.0), [1.0, 0.0])

    def test_zero_gain_tones_excluded(self):
        p = water_fill([1.0, 0.0, 1.0], 2.0)
        assert p[1] == 0.0 and p.sum() == pytest.approx(2.0)

    def test_no_usable_tone_raises(self):
        with pytest.raises(ValueError):
            water_fill([0.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            water_fill([1.0], 0.0)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_kkt_conditions(self, data):
        n = data.draw(st.integers(1, 12))
        log_g = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n))
        budget = 10.0 ** data.draw(st.floats(-2.0, 2.0))
        g = np.power(10.0, np.array(log_g))
        p = water_fill(g, budget)
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
        p = water_fill(gains, budget)
        assert np.all(np.isfinite(p)) and np.all(p >= 0.0)
        assert p.sum() == pytest.approx(budget, rel=1e-12)
        strongest = np.asarray(gains) == max(gains)
        assert np.allclose(p[strongest], budget / strongest.sum(), rtol=1e-12)

    def test_subnormal_gain_next_to_a_strong_tone_stays_dry(self):
        with pytest.warns(RuntimeWarning, match="overflow"):
            p = water_fill([1.0, 1e-320], 1.0)
        assert np.array_equal(p, [1.0, 0.0])

    def test_weak_gains_keep_water_filling_levels(self):
        # 1/g differs by 10 between the tones: levels 55 and 45 + 10 above 1/g_max
        g = np.array([1e-12, 1e-12 / (1.0 + 1e-11)])
        p = water_fill(g, 100.0)
        floors = (g[0] / g - 1.0) / g[0]
        assert np.allclose(p, [55.0, 45.0], rtol=1e-3)
        assert np.allclose(p + floors, (p + floors)[0], rtol=1e-12)

    def test_normal_gains_use_the_classic_formula_exactly(self):
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
            expected = np.zeros_like(g)
            expected[usable[order[:m]]] = nu[m - 1] - inv[:m]
            expected[usable[order[0]]] += budget - expected.sum()
            assert water_fill(g, budget).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("budget", [np.nan, np.inf, -np.inf, -1.0])
    def test_budget_not_finite_and_positive_raises(self, budget):
        with pytest.raises(ValueError, match="budget"):
            water_fill([1.0, 2.0], budget)

    @pytest.mark.parametrize("gains", [[np.nan, 1.0], [1.0, 0.0, np.nan], [np.nan]])
    def test_nan_gain_raises(self, gains):
        with pytest.raises(ValueError, match="NaN"):
            water_fill(gains, 1.0)

    def test_gains_not_1d_raise(self):
        with pytest.raises(ValueError, match="1-D"):
            water_fill(np.ones((2, 3)), 1.0)

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
                                                (np.inf, 1.0)])
    def test_non_finite_weight_or_budget_rejected(self, weight, budget):
        # unchecked, a NaN budget scores 0.0, an inf budget gives NaN powers
        # and an inf weight an inf objective
        with pytest.raises(ValueError, match="finite"):
            TSProblem(gains=[[1.0, 2.0]], weights=[weight], budgets=[budget])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TSProblem(gains=[[1.0, 2.0]], weights=[1.0, 1.0], budgets=[1.0])
