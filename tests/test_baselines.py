from itertools import product
import warnings

import numpy as np
import pytest

from smallcell.channel import ChannelRealization, ScenarioConfig
from smallcell.harness import _trial_realization
from smallcell.tssolver import (TSProblem, water_fill, WATER_FILL_MIN_SNR, _water_fill_core,
                                _water_fill_rows)
from smallcell.soa import soa_allocate
from smallcell import baselines
from smallcell.baselines import (InterferenceAllocation, evaluate_concurrent,
                                 iwfa_solve, oracle_orthogonal,
                                 ORACLE_MAX_ASSIGNMENTS, IWFA_EPS_MW)


def make_realization(cross, noise=1.0):
    return ChannelRealization(cross_gain=np.asarray(cross, dtype=float), noise_power_mw=noise)


def random_realization(rng, num_links=3, num_tones=4, cross_scale=0.1):
    cross = cross_scale * rng.lognormal(0.0, 1.0, (num_links, num_links, num_tones))
    idx = np.arange(num_links)
    cross[idx, idx, :] = rng.lognormal(0.0, 1.0, (num_links, num_tones))
    return make_realization(cross)


# the first three passes of the benchmark's sweep pool: links 2-10 at 10 tones
SWEEP_POOL = [ScenarioConfig(rng_seed=seed, num_links=n, num_tones=10)
              for seed in (777, 778, 779) for n in range(2, 11)]


class TestEvaluateConcurrent:
    def test_zero_power_zero_rate(self):
        real = random_realization(np.random.default_rng(0))
        rates = evaluate_concurrent(real, np.zeros((3, 4)))
        assert np.all(rates == 0.0)

    def test_single_link_is_interference_free(self):
        g = np.array([[[2.0, 1.0]]])
        real = make_realization(g, noise=0.5)
        p = np.array([[1.0, 3.0]])
        want = np.log1p(np.array([2.0 / 0.5, 3.0 / 0.5])).sum()
        assert evaluate_concurrent(real, p)[0] == pytest.approx(want)

    def test_symmetric_links_get_equal_rates(self):
        cross = np.empty((2, 2, 1))
        cross[0, 0, 0] = cross[1, 1, 0] = 4.0
        cross[0, 1, 0] = cross[1, 0, 0] = 1.0
        real = make_realization(cross)
        rates = evaluate_concurrent(real, np.full((2, 1), 2.0))
        # sinr = 4*2 / (1 + 1*2) for both
        assert rates[0] == rates[1] == pytest.approx(np.log1p(8.0 / 3.0))

    def test_interference_hurts(self):
        cross = np.empty((2, 2, 1))
        cross[0, 0, 0] = cross[1, 1, 0] = 4.0
        cross[0, 1, 0] = cross[1, 0, 0] = 1.0
        real = make_realization(cross)
        alone = evaluate_concurrent(real, np.array([[2.0], [0.0]]))[0]
        both = evaluate_concurrent(real, np.full((2, 1), 2.0))[0]
        assert both < alone

    @pytest.mark.parametrize("shape", [(3, 5), (2, 4), (4,), (4, 3), (3, 4, 1)])
    def test_wrong_shape_rejected(self, shape):
        # unchecked, each failed with an opaque broadcasting or einsum error
        real = random_realization(np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"shape \(3, 4\)"):
            evaluate_concurrent(real, np.ones(shape))

    @pytest.mark.parametrize("value", [np.nan, -1.0, -1e-300, np.inf])
    def test_power_not_finite_and_non_negative_rejected(self, value):
        # unchecked, each returned rates, NaN among them, instead of an error
        real = random_realization(np.random.default_rng(0))
        power = np.ones((3, 4))
        power[1, 2] = value
        with pytest.raises(ValueError, match="finite and non-negative"):
            evaluate_concurrent(real, power)


class TestIwfa:
    def test_single_link_matches_water_fill(self):
        rng = np.random.default_rng(1)
        g = rng.lognormal(0.0, 1.0, (1, 1, 6))
        real = make_realization(g, noise=0.25)
        out = iwfa_solve(real, [2.0])
        assert out.converged and out.rounds == 1
        assert np.allclose(out.power[0], water_fill(g[0, 0] / 0.25, 2.0))

    def test_zero_cross_gain_converges_first_round(self):
        rng = np.random.default_rng(2)
        cross = np.zeros((2, 2, 5))
        idx = np.arange(2)
        cross[idx, idx, :] = rng.lognormal(0.0, 1.0, (2, 5))
        out = iwfa_solve(make_realization(cross), [1.0, 3.0])
        assert out.converged and out.rounds == 1
        for i, b in enumerate([1.0, 3.0]):
            assert np.allclose(out.power[i], water_fill(cross[i, i] / 1.0, b))

    def test_budgets_hold_every_round(self):
        real = random_realization(np.random.default_rng(3), cross_scale=0.5)
        budgets = np.array([1.0, 2.0, 0.5])
        for rounds in (1, 2, 3):
            out = iwfa_solve(real, budgets, max_rounds=rounds)
            assert np.all(out.power >= 0.0)
            assert np.allclose(out.power.sum(axis=1), budgets)

    def test_fixed_point_is_mutual_best_response(self):
        real = random_realization(np.random.default_rng(4), cross_scale=0.2)
        budgets = np.array([1.0, 1.0, 1.0])
        out = iwfa_solve(real, budgets)
        assert out.converged
        cross, noise = real.cross_gain, real.noise_power_mw
        for i in range(3):
            floor = noise + np.einsum("jk,jk->k", cross[:, i, :], out.power) \
                - cross[i, i, :] * out.power[i]
            best = water_fill(cross[i, i, :] / floor, 1.0)
            assert np.allclose(out.power[i], best, atol=1e-5)

    @pytest.mark.parametrize("entry, value", [((0, 1, 2), np.nan), ((1, 0, 0), -1.0),
                                              ((2, 2, 1), np.inf)])
    def test_bad_cross_gain_rejected(self, entry, value):
        real = random_realization(np.random.default_rng(6))
        real.cross_gain[entry] = value
        with pytest.raises(ValueError, match="cross gains must be finite and non-negative"):
            iwfa_solve(real, np.ones(3))

    def test_link_without_a_positive_direct_gain_rejected(self):
        real = random_realization(np.random.default_rng(6))
        real.cross_gain[1, 1, :] = 0.0
        with pytest.raises(ValueError, match="link 1 has no tone with positive direct gain"):
            iwfa_solve(real, np.ones(3))

    def test_round_budget_cut_reports_unconverged(self):
        real = random_realization(np.random.default_rng(5), cross_scale=0.8)
        out = iwfa_solve(real, np.ones(3), max_rounds=1)
        assert out.rounds == 1 and not out.converged

    def test_rates_match_reported_powers(self):
        real = random_realization(np.random.default_rng(6))
        out = iwfa_solve(real, np.ones(3))
        assert np.allclose(out.rate, evaluate_concurrent(real, out.power))
        assert isinstance(out, InterferenceAllocation)

    def test_bad_arguments(self):
        real = random_realization(np.random.default_rng(7))
        with pytest.raises(ValueError):
            iwfa_solve(real, np.ones(3), max_rounds=0)

    @pytest.mark.parametrize("max_rounds", [2.5, 3.0, -2])
    def test_max_rounds_not_a_count_rejected(self, max_rounds):
        # unchecked, 2.5 silently ran 3 rounds
        real = random_realization(np.random.default_rng(7))
        with pytest.raises(ValueError, match="max_rounds must be an integer >= 1"):
            iwfa_solve(real, np.ones(3), max_rounds=max_rounds)

    @pytest.mark.parametrize("budgets,match", [
        (np.ones(2), "shape"), (np.ones(4), "shape"), (np.ones((3, 1)), "shape"), (1.0, "shape"),
        ([1.0, np.nan, 1.0], "finite"), ([1.0, np.inf, 1.0], "finite"),
        ([1.0, 0.0, 1.0], "positive"), ([1.0, 1.0, -2.0], "positive")])
    def test_bad_budgets_rejected_before_any_round(self, budgets, match):
        real = random_realization(np.random.default_rng(7))
        with pytest.raises(ValueError, match=match):
            iwfa_solve(real, budgets)

    def test_delta_trace_explains_the_stop(self):
        cases = [(random_realization(np.random.default_rng(seed), cross_scale=scale), np.ones(3), rounds)
                 for seed, scale, rounds in [(3, 0.5, 1), (4, 0.2, 200), (5, 0.8, 3)]]
        cases += [(_trial_realization(cfg, 0), np.full(cfg.num_links, cfg.max_power_mw), 200)
                  for cfg in SWEEP_POOL[9:18]]
        outcomes = set()
        for real, budgets, max_rounds in cases:
            out = iwfa_solve(real, budgets, max_rounds=max_rounds)
            trace = out.delta_trace
            assert trace.shape == (out.rounds,)
            assert (trace[-1] < IWFA_EPS_MW) == out.converged
            assert np.all(trace[:-1] >= IWFA_EPS_MW)
            outcomes.add((out.converged, out.rounds == max_rounds))
        # both stops occur: settling early and running out of rounds
        assert {(True, False), (False, True)} <= outcomes


def classic_water_fill(gains, budget):
    """water_fill as a vectorized level search over every count of wet tones."""
    g = np.atleast_1d(np.asarray(gains, dtype=float))
    usable = np.where(g > 0.0)[0]
    gu = g[usable]
    gmax = gu.max()
    if budget * gmax >= WATER_FILL_MIN_SNR:
        floors = 1.0 / gu
    else:
        with np.errstate(over="ignore"):
            floors = np.minimum((gmax / gu - 1.0) / gmax, budget)
    order = np.argsort(floors, kind="stable")
    floors_sorted = floors[order]
    nu_candidates = (budget + np.cumsum(floors_sorted)) / np.arange(1, usable.size + 1)
    m = int(np.where(nu_candidates > floors_sorted)[0][-1]) + 1
    out = np.zeros(g.shape)
    out[usable[order[:m]]] = nu_candidates[m - 1] - floors_sorted[:m]
    out[usable[order[0]]] += budget - out.sum()
    return out


class TestWaterFillCore:
    """The unchecked core writes classic_water_fill's bits into a zeroed row
    of a larger array and leaves the other rows alone."""

    @staticmethod
    def rows(rng, num_tones):
        yield rng.lognormal(0.0, 2.0, num_tones)
        yield rng.integers(1, 4, num_tones).astype(float)        # ties
        g = rng.lognormal(0.0, 2.0, num_tones)
        g[rng.random(num_tones) < 0.4] = 0.0
        g[rng.integers(num_tones)] = 1.0                         # at least one usable tone
        yield g
        yield g * 1e-9                                           # low SNR at these budgets
        if num_tones > 1:
            g = rng.lognormal(0.0, 2.0, num_tones)
            weak, strong = rng.choice(num_tones, 2, replace=False)
            g[weak], g[strong] = 1e-320, 10.0                    # 1/1e-320 overflows to inf
            yield g

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("num_tones", range(1, 71))
    def test_matches_classic_water_fill(self, num_tones):
        rng = np.random.default_rng(num_tones)
        low_snr = 0
        for g in self.rows(rng, num_tones):
            usable = np.flatnonzero(g > 0.0)
            forms = [(g[usable], usable)]
            if usable.size == num_tones:
                forms.append((g, None))
            for budget in (1e-3, 1.0, 100.0):
                want = classic_water_fill(g, budget)
                low_snr += budget * g.max() < WATER_FILL_MIN_SNR
                for gains, index in forms:
                    block = np.full((3, num_tones), 7.0)
                    block[1] = 0.0
                    _water_fill_core(block[1], gains, index, budget)
                    assert block[1].tobytes() == want.tobytes()
                    assert np.all(block[[0, 2]] == 7.0)
        assert low_snr > 0


def core_fill(gains, budget):
    out = np.zeros(gains.shape)
    _water_fill_core(out, gains, None, float(budget))
    return out


def overflow_warned(fill, *args):
    """Run fill(*args) and return its result and whether numpy warned of an overflow."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fill(*args)
    return out, any("overflow" in str(w.message) for w in caught)


class TestWaterFillRows:
    """The stacked fill gives every row the bytes the core writes for that row alone."""

    @staticmethod
    def stack(rng, num_tones):
        rows = []
        for _ in range(34):                 # 102 to 136 rows
            rows.append(rng.lognormal(0.0, 2.0, num_tones))
            rows.append(rng.integers(1, 4, num_tones).astype(float))          # ties
            rows.append(rng.lognormal(0.0, 2.0, num_tones) * 1e-9)            # low SNR
            if num_tones > 1:
                g = rng.lognormal(0.0, 2.0, num_tones)
                weak, strong = rng.choice(num_tones, 2, replace=False)
                g[weak], g[strong] = 1e-320, 10.0                             # 1/1e-320 overflows
                rows.append(g)
        gains = np.array(rows)
        # budgets 1e-3, 1 and 100 mixed in one stack
        return gains, rng.choice([1e-3, 1.0, 100.0], len(gains))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("num_tones", range(1, 71))
    def test_every_row_matches_the_core(self, num_tones):
        rng = np.random.default_rng(num_tones)
        gains, budgets = self.stack(rng, num_tones)
        assert len(gains) >= 100
        low = budgets * gains.max(axis=1) < WATER_FILL_MIN_SNR
        assert low.any() and not low.all()
        got = _water_fill_rows(gains, budgets)
        for r, (g, budget) in enumerate(zip(gains, budgets)):
            want = core_fill(g, budget)
            assert got[r].tobytes() == want.tobytes()
            assert _water_fill_rows(gains[r:r + 1], budgets[r:r + 1]).tobytes() == want.tobytes()

    def test_overflow_warns_where_the_core_does(self):
        rows = [([1e-320, 1e-4], 1e-3),        # low SNR: the core caps the floor, no warning
                ([1e-320, 10.0], 1.0),         # 1/1e-320 overflows: the core warns
                ([2.0, 3.0], 1.0),             # no warning
                ([1e-320, 1e-320], 1.0)]       # low SNR, all subnormal
        warns = []
        for g, budget in rows:
            want, core_warned = overflow_warned(core_fill, np.array(g), budget)
            got, rows_warned = overflow_warned(_water_fill_rows, np.array([g]), np.array([budget]))
            assert got[0].tobytes() == want.tobytes()
            assert rows_warned == core_warned
            warns.append(core_warned)
        assert warns == [False, True, False, False]
        for picked in ([0, 2, 3], [0, 1, 2, 3]):
            gains = np.array([rows[r][0] for r in picked])
            budgets = np.array([rows[r][1] for r in picked])
            _, warned = overflow_warned(_water_fill_rows, gains, budgets)
            assert warned == any(warns[r] for r in picked)


def per_entry_subset_values(problem):
    """The Oracle's value table as one _water_fill_core call per (link, mask) entry."""
    g, w, b = problem.gains, problem.weights, problem.budgets
    I, K = g.shape
    bits = 1 << np.arange(K)
    positive = (g > 0.0) @ bits
    value = np.zeros((I, 2 ** K))
    for m in range(1, 2 ** K):
        tones = np.flatnonzero(m & bits)
        for i in range(I):
            if m & positive[i] == m:
                gt = g[i].take(tones)
                p = np.zeros(tones.size)
                _water_fill_core(p, gt, None, float(b[i]))
                value[i, m] = w[i] * np.log1p(gt * p).sum()
    return np.take_along_axis(value, np.arange(2 ** K) & positive[:, None], axis=1)


class TestSubsetValues:
    """The Oracle's stacked table has the bytes of one core fill per entry."""

    @staticmethod
    def problems(num_links, num_tones):
        rng = np.random.default_rng(num_links * 100 + num_tones)
        shape = (num_links, num_tones)
        zeros = rng.lognormal(0.0, 1.0, shape)
        zeros[rng.random(shape) < 0.3] = 0.0
        zeros[:, rng.integers(num_tones)] = 0.0           # a tone nobody can use
        for gains in (rng.lognormal(0.0, 1.0, shape), zeros,
                      rng.integers(1, 3, shape).astype(float),      # ties
                      rng.lognormal(0.0, 1.0, shape) * 1e-9):       # low SNR
            yield TSProblem(gains=gains, weights=rng.uniform(0.5, 2.0, num_links),
                            budgets=rng.uniform(0.5, 5.0, num_links))

    @pytest.mark.parametrize("chunk", [1, 5, baselines.ORACLE_CHUNK_ROWS])
    @pytest.mark.parametrize("num_links", [1, 3])
    @pytest.mark.parametrize("num_tones", range(1, 11))
    def test_table_matches_per_entry_fills(self, monkeypatch, num_tones, num_links, chunk):
        monkeypatch.setattr(baselines, "ORACLE_CHUNK_ROWS", chunk)
        for prob in self.problems(num_links, num_tones):
            got = baselines._subset_values(prob)
            assert got.tobytes() == per_entry_subset_values(prob).tobytes()

    @pytest.mark.parametrize("num_links", [1, 2])
    @pytest.mark.parametrize("num_tones", range(1, 11))
    def test_oracle_matches_the_per_entry_table(self, monkeypatch, num_tones, num_links):
        for prob in self.problems(num_links, num_tones):
            alloc, objective = oracle_orthogonal(prob)
            with monkeypatch.context() as patch:
                patch.setattr(baselines, "_subset_values", per_entry_subset_values)
                want, want_objective = oracle_orthogonal(prob)
            for field in ("share", "power", "rate"):
                assert getattr(alloc, field).tobytes() == getattr(want, field).tobytes()
            assert objective == want_objective == alloc.objective


def reference_iwfa(realization, budgets, max_rounds=200):
    """IWFA with the running per-link delta and classic_water_fill, every round run:
    (power, rounds, converged, deltas)."""
    cross = realization.cross_gain
    noise = realization.noise_power_mw
    own_gain = np.einsum("iik->ik", cross)
    power = np.vstack([classic_water_fill(own_gain[i] / noise, float(budgets[i]))
                       for i in range(realization.num_links)])
    deltas = []
    for rounds in range(1, max_rounds + 1):
        delta = 0.0
        for i in range(realization.num_links):
            floor = noise + np.einsum("jk,jk->k", cross[:, i, :], power) - cross[i, i, :] * power[i]
            new_p = classic_water_fill(own_gain[i] / floor, float(budgets[i]))
            delta = max(delta, float(np.max(np.abs(new_p - power[i]))))
            power[i] = new_p
        deltas.append(delta)
        if delta < IWFA_EPS_MW:
            return power, rounds, True, deltas
    return power, max_rounds, False, deltas


class TestIwfaMatchesReference:
    def test_sweep_pool_bit_identical(self):
        capped = 0
        for cfg in SWEEP_POOL + [ScenarioConfig(rng_seed=5, num_links=10, num_tones=64)]:
            real = _trial_realization(cfg, 0)
            budgets = np.full(cfg.num_links, cfg.max_power_mw)
            power, rounds, converged, deltas = reference_iwfa(real, budgets)
            out = iwfa_solve(real, budgets)
            assert out.power.tobytes() == power.tobytes()
            assert out.rate.tobytes() == evaluate_concurrent(real, power).tobytes()
            assert (out.rounds, out.converged) == (rounds, converged)
            assert out.delta_trace.tobytes() == np.array(deltas).tobytes()
            capped += not converged
        assert capped > 0

    # seed 779 at 3 links: the powers after round 33 are those after round 25
    CYCLING = ScenarioConfig(rng_seed=779, num_links=3, num_tones=10)

    def test_exact_cycle_is_not_run_out(self, monkeypatch):
        calls = []
        core = baselines._water_fill_core
        monkeypatch.setattr(baselines, "_water_fill_core",
                            lambda *args: calls.append(1) or core(*args))
        real = _trial_realization(self.CYCLING, 0)
        out = iwfa_solve(real, np.full(3, self.CYCLING.max_power_mw))
        # the starting point, then 33 rounds of 3 best responses, not 200
        assert len(calls) == 3 + 33 * 3
        assert (out.rounds, out.converged, len(out.delta_trace)) == (200, False, 200)

    @pytest.mark.parametrize("max_rounds", [1, 25, 32] + list(range(33, 42)) + [200])
    def test_skipped_cycle_ends_where_every_round_would(self, max_rounds):
        # caps before the first repeat, at it, and at each phase of the
        # 8-round cycle after it
        real = _trial_realization(self.CYCLING, 0)
        budgets = np.full(3, self.CYCLING.max_power_mw)
        power, rounds, converged, deltas = reference_iwfa(real, budgets, max_rounds)
        out = iwfa_solve(real, budgets, max_rounds=max_rounds)
        assert out.power.tobytes() == power.tobytes()
        assert (out.rounds, out.converged) == (rounds, converged) == (max_rounds, False)
        assert out.delta_trace.tobytes() == np.array(deltas).tobytes()


class TestOracle:
    def test_single_link_two_tones(self):
        prob = TSProblem(gains=[[1.0, 1.0]], weights=[1.0], budgets=[2.0])
        alloc, obj = oracle_orthogonal(prob)
        assert obj == pytest.approx(2.0 * np.log(2.0))
        assert np.allclose(alloc.power, [[1.0, 1.0]])
        assert np.all(alloc.share == 1.0)

    def test_dominates_greedy(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            gains = rng.lognormal(0.0, 1.0, (2, 4))
            prob = TSProblem(gains=gains, weights=[1.0, 2.0], budgets=[1.0, 1.0])
            _, best = oracle_orthogonal(prob)
            assert best >= soa_allocate(prob, "waterfill").objective - 1e-9

    def test_strong_links_split_the_band(self):
        # each link clearly prefers its own half of the tones
        gains = np.array([[5.0, 4.0, 0.1, 0.1], [0.1, 0.1, 5.0, 4.0]])
        prob = TSProblem(gains=gains, weights=[1.0, 1.0], budgets=[2.0, 2.0])
        alloc, _ = oracle_orthogonal(prob)
        assert np.all(alloc.share[0, :2] == 1.0)
        assert np.all(alloc.share[1, 2:] == 1.0)

    def test_enumeration_guard(self):
        gains = np.ones((3, 11))
        prob = TSProblem(gains=gains, weights=np.ones(3), budgets=np.ones(3))
        assert 4 ** 11 > ORACLE_MAX_ASSIGNMENTS
        with pytest.raises(ValueError):
            oracle_orthogonal(prob)

    def test_tones_can_stay_idle(self):
        # a zero-gain tone earns nothing, the oracle leaves it unassigned
        prob = TSProblem(gains=[[1.0, 0.0]], weights=[1.0], budgets=[1.0])
        alloc, obj = oracle_orthogonal(prob)
        assert alloc.share[0, 1] == 0.0
        assert obj == pytest.approx(np.log(2.0))


def product_scan_oracle(prob):
    """Reference Oracle: water-fill every link's set for every enumerated assignment."""
    g, w, b = prob.gains, prob.weights, prob.budgets
    I, K = g.shape
    best_obj, best_assign = -np.inf, None
    for assign in product(range(-1, I), repeat=K):
        obj = 0.0
        for i in range(I):
            tones = [k for k in range(K) if assign[k] == i and g[i, k] > 0.0]
            if tones:
                p = water_fill(g[i, tones], float(b[i]))
                obj += w[i] * np.log1p(g[i, tones] * p).sum()
        if obj > best_obj:
            best_obj, best_assign = obj, assign
    share = np.zeros((I, K))
    power = np.zeros((I, K))
    for i in range(I):
        tones = [k for k in range(K) if best_assign[k] == i and g[i, k] > 0.0]
        if tones:
            share[i, tones] = 1.0
            power[i, tones] = water_fill(g[i, tones], float(b[i]))
    return share, power, float(w @ np.log1p(g * power).sum(axis=1))


class TestOracleMatchesProductScan:
    SHAPES = [(1, 1), (1, 5), (2, 1), (2, 4), (3, 3), (4, 2), (2, 8)]

    @staticmethod
    def gains(rng, kind, shape):
        if kind == "continuous":
            return rng.lognormal(0.0, 1.0, shape)
        if kind == "ties":
            return rng.integers(1, 3, shape).astype(float)
        g = rng.lognormal(0.0, 1.0, shape)
        g[rng.integers(shape[0])] = 0.0          # a link that hears nothing
        g[:, rng.integers(shape[1])] = 0.0       # a tone nobody can use
        g[rng.random(shape) < 0.2] = 0.0
        return g

    @pytest.mark.parametrize("kind", ["continuous", "ties", "zeros"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_exact_match(self, shape, kind):
        rng = np.random.default_rng(sum(shape) * 31 + len(kind))
        for weights in (np.ones(shape[0]), rng.uniform(0.5, 2.0, shape[0])):
            prob = TSProblem(gains=self.gains(rng, kind, shape), weights=weights,
                             budgets=rng.uniform(0.5, 5.0, shape[0]))
            share, power, objective = product_scan_oracle(prob)
            alloc, obj = oracle_orthogonal(prob)
            assert np.array_equal(alloc.share, share)
            assert np.array_equal(alloc.power, power)
            assert alloc.objective == objective and obj == objective
