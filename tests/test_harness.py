import csv
from dataclasses import replace
import warnings

import numpy as np
import pytest

from smallcell.channel import ScenarioConfig
from smallcell.harness import (ALGORITHMS, CSV_COLUMNS, SUBGRADIENT_ITERS,
                               TrialRecord, run_experiment, run_distributed_slots,
                               summarize, render_summary, write_records_csv,
                               _trial_realization, _bps_factor)
from smallcell.soa import assign_channels, soa_allocate
from smallcell.tssolver import TSProblem, Allocation
from smallcell.baselines import evaluate_concurrent, iwfa_solve


@pytest.fixture
def no_channel_draw(monkeypatch):
    """Fail on any channel draw, so a check that raises shows it ran on entry."""
    import smallcell.harness as harness

    def no_draw(*args):
        raise AssertionError("drew a channel")
    monkeypatch.setattr(harness, "_trial_realization", no_draw)


def small_cfg(**kw):
    base = dict(num_links=3, num_tones=4, rng_seed=7)
    base.update(kw)
    return ScenarioConfig(**base)


class TestRunExperiment:
    def test_deterministic_up_to_runtime(self):
        cfg = small_cfg()
        a = run_experiment(cfg, algorithms=("SOA", "IWFA"), trials=4)
        b = run_experiment(cfg, algorithms=("SOA", "IWFA"), trials=4)
        assert len(a) == len(b) == 8
        for ra, rb in zip(a, b):
            assert ra.algorithm == rb.algorithm and ra.trial_id == rb.trial_id
            assert ra.objective_bps == rb.objective_bps
            assert ra.iterations == rb.iterations
            assert np.array_equal(ra.per_link_rates_bps, rb.per_link_rates_bps)

    def test_objective_recomputed_from_allocation(self):
        cfg = small_cfg()
        rec = run_experiment(cfg, algorithms=("SOA",), trials=1)[0]
        realization = _trial_realization(cfg, 0)
        problem = TSProblem(gains=realization.direct_gain,
                            weights=np.ones(3), budgets=np.full(3, cfg.max_power_mw))
        alloc = soa_allocate(problem, "equal")
        want = alloc.objective * _bps_factor(cfg)
        assert rec.objective_bps == pytest.approx(want, rel=1e-12)
        assert rec.iterations == int(alloc.share.sum())

    def test_oracle_skip_marker_past_guard(self):
        cfg = small_cfg(num_tones=10)          # 4^10 assignments, over the guard
        recs = run_experiment(cfg, algorithms=("Oracle",), trials=2)
        assert all(r.skipped for r in recs)
        assert all(r.objective_bps == 0.0 for r in recs)

    def test_oracle_dominates_per_trial(self):
        cfg = small_cfg()
        recs = run_experiment(cfg, algorithms=("SOA", "Oracle"), trials=5, power_mode="waterfill")
        by = {(r.trial_id, r.algorithm): r for r in recs}
        for t in range(5):
            assert by[(t, "Oracle")].objective_bps >= by[(t, "SOA")].objective_bps - 1e-6
            assert by[(t, "Oracle")].iterations == 4 ** 4

    def test_subgradient_record(self):
        cfg = small_cfg()
        rec = run_experiment(cfg, algorithms=("TS-Subgradient",), trials=1)[0]
        assert 0 < rec.iterations <= SUBGRADIENT_ITERS
        assert rec.objective_bps > 0.0

    def test_overhead_discounts_proportionally(self):
        cfg = small_cfg()
        full = run_experiment(cfg, algorithms=("SOA",), trials=2)
        cut = run_experiment(cfg, algorithms=("SOA",), trials=2, signaling_overhead=0.25)
        for rf, rc in zip(full, cut):
            assert rc.objective_bps == pytest.approx(0.75 * rf.objective_bps, rel=1e-12)

    def test_bad_arguments(self):
        cfg = small_cfg()
        with pytest.raises(ValueError):
            run_experiment(cfg, algorithms=("SOA", "fastest"), trials=1)
        with pytest.raises(ValueError, match="no algorithm given"):
            run_experiment(cfg, algorithms=(), trials=1)
        with pytest.raises(ValueError):
            run_experiment(cfg, trials=0)
        with pytest.raises(ValueError):
            run_experiment(cfg, trials=1, signaling_overhead=1.0)

    @pytest.mark.parametrize("trials", [1.5, 2.0, -1, True])
    def test_trials_not_a_count_rejected(self, trials):
        # unchecked, a float failed with a TypeError from range, and True ran
        # one trial
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            run_experiment(small_cfg(), trials=trials)

    @pytest.mark.parametrize("algorithms", [("IWFA",), ("IWFA", "SOA")])
    def test_bad_power_mode_rejected_before_the_first_draw(self, algorithms, no_channel_draw):
        # unchecked, IWFA alone ignored the mode and returned records, and
        # SOA raised only after the first channel draw
        with pytest.raises(ValueError, match="unknown power_mode 'bogus'"):
            run_experiment(small_cfg(), algorithms, trials=1, power_mode="bogus")

    def test_iwfa_record_rates_are_the_solver_rates(self):
        cfg = small_cfg()
        recs = run_experiment(cfg, algorithms=("IWFA",), trials=3)
        for t, rec in enumerate(recs):
            realization = _trial_realization(cfg, t)
            result = iwfa_solve(realization, np.full(3, cfg.max_power_mw))
            want = result.rate * _bps_factor(cfg)
            assert rec.per_link_rates_bps.tobytes() == want.tobytes()
            assert rec.iterations == result.rounds

    @pytest.mark.parametrize("seed", [-1, 2.5])
    def test_bad_rng_seed_rejected_before_the_first_draw(self, seed, no_channel_draw):
        # unchecked, a negative seed failed inside numpy's SeedSequence
        with pytest.raises(ValueError, match="rng_seed must be a non-negative integer"):
            run_experiment(small_cfg(rng_seed=seed), trials=1)

    def test_all_algorithm_names_run(self):
        cfg = small_cfg()
        recs = run_experiment(cfg, algorithms=ALGORITHMS, trials=1)
        assert [r.algorithm for r in recs] == list(ALGORITHMS)

    def test_solvers_looked_up_at_call_time(self, monkeypatch):
        # wrappers swapped into the harness module (as a tracer does) see every call
        import smallcell.harness as harness
        calls = {}
        for name in ("soa_allocate", "subgradient_solve", "recover_primal",
                     "iwfa_solve", "oracle_orthogonal"):
            def counting(*args, _fn=getattr(harness, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(harness, name, counting)
        run_experiment(small_cfg(num_links=2, num_tones=3), algorithms=ALGORITHMS, trials=2)
        assert calls == {"soa_allocate": 2, "subgradient_solve": 2, "recover_primal": 2,
                         "iwfa_solve": 2, "oracle_orthogonal": 2}


class TestDistributedSlots:
    @pytest.mark.parametrize("setting, got", [({"shadow_sigma_db": 10000.0}, "0.0"),
                                              ({"noise_density_dbm_hz": -3230.0}, "inf")],
                             ids=["shadowing", "noise"])
    def test_codebook_samples_past_the_float_range_raise_without_a_warning(self, setting, got):
        # the codebook's samples once overflowed with numpy's RuntimeWarning
        # before build_cdf_table rejected them; a 10000 dB spread also
        # underflows some samples to 0.0, the smallest and so the one named
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"gain samples must be finite and positive, got {got}"):
                run_distributed_slots(small_cfg(**setting), num_slots=1)

    @pytest.mark.parametrize("links, tones, noise", [(4, 10, -3192.0), (16, 64, -3180.0)])
    def test_codebook_level_past_the_float_range_rejected_on_entry(self, links, tones, noise,
                                                                   no_channel_draw):
        # each link schedules from codebook levels, which can exceed every
        # true gain: these once passed TSProblem's full-budget SNR check and
        # printed numpy's overflow warnings from the greedy's budget times gain
        cfg = small_cfg(num_links=links, num_tones=tones, noise_density_dbm_hz=noise)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="max_power_mw times the top codebook level must be "
                                                 "finite and non-negative, got inf"):
                run_distributed_slots(cfg, num_slots=1)

    def test_perfect_signaling_never_collides(self):
        cfg = small_cfg(num_links=3, num_tones=6)
        states = run_distributed_slots(cfg, num_slots=10, p_loss=0.0)
        assert all(s.collisions == [] for s in states)

    def test_realized_never_exceeds_intended(self):
        cfg = small_cfg(num_links=4, num_tones=8)
        states = run_distributed_slots(replace(cfg, rng_seed=11), num_slots=6, p_loss=0.2)
        for s in states:
            assert np.all(s.realized_rate_bps <= s.intended_rate_bps + 1e-9)

    def test_budgets_respected_each_slot(self):
        cfg = small_cfg(num_links=4, num_tones=8)
        for mode in ("equal", "waterfill"):
            states = run_distributed_slots(replace(cfg, rng_seed=11), num_slots=3, p_loss=0.2,
                                           power_mode=mode)
            for s in states:
                assert np.all(s.intended_power >= 0.0)
                assert np.all(s.intended_power.sum(axis=1) <= cfg.max_power_mw + 1e-9)

    def test_certain_giveup_never_recontests(self):
        # with giveup probability 1 a collider abandons the tone for good
        cfg = small_cfg(num_links=4, num_tones=6)
        states = run_distributed_slots(replace(cfg, rng_seed=3), num_slots=12, p_loss=0.3,
                                       giveup_probability=1.0)
        seen = {}
        for s in states:
            for tone, group in s.collisions:
                assert not (seen.get(tone, set()) & set(group))
                seen.setdefault(tone, set()).update(group)

    def test_deterministic(self):
        cfg = small_cfg(num_links=4, num_tones=6, rng_seed=5)
        a = run_distributed_slots(cfg, num_slots=5, p_loss=0.25)
        b = run_distributed_slots(cfg, num_slots=5, p_loss=0.25)
        assert [s.claims for s in a] == [s.claims for s in b]
        assert [s.collisions for s in a] == [s.collisions for s in b]

    def test_bad_arguments(self):
        cfg = small_cfg()
        with pytest.raises(ValueError):
            run_distributed_slots(cfg, num_slots=0)
        with pytest.raises(ValueError):
            run_distributed_slots(cfg, num_slots=1, giveup_probability=1.5)
        for p_loss in (-0.5, 1.5, float("nan")):
            with pytest.raises(ValueError, match="p_loss"):
                run_distributed_slots(cfg, num_slots=1, p_loss=p_loss)
        with pytest.raises(ValueError, match="power_mode"):
            run_distributed_slots(cfg, num_slots=1, power_mode="greedy")
        with pytest.raises(ValueError, match="num_slots must be an integer >= 1"):
            run_distributed_slots(cfg, num_slots=2.5)

    @pytest.mark.parametrize("seed", [-1, 2.5])
    def test_bad_rng_seed_rejected_before_the_first_draw(self, seed, no_channel_draw):
        with pytest.raises(ValueError, match="rng_seed must be a non-negative integer"):
            run_distributed_slots(small_cfg(rng_seed=seed), num_slots=1)

    @pytest.mark.parametrize("levels", [2.5, 3.0, 1, True, False])
    def test_bad_signaling_levels_rejected_on_entry(self, levels, no_channel_draw):
        # unchecked, 2.5 failed in numpy's quantile after the channel draw, 3.0
        # was accepted, and 1 was rejected only after the channel draw
        with pytest.raises(ValueError, match="signaling_levels must be an integer >= 2"):
            run_distributed_slots(small_cfg(), num_slots=1, signaling_levels=levels)

    def test_loss_fraction_matches_probability(self):
        # each (sender, receiver, tone) broadcast is erased with probability p_loss
        lost, total = 0, 0
        for seed in range(40):
            states = run_distributed_slots(small_cfg(num_links=8, num_tones=64, rng_seed=seed),
                                           num_slots=1, p_loss=0.1)
            for view in states[0].views:
                lost += int(view.missing.sum())
                total += view.missing.size
        assert lost / total == pytest.approx(0.1, abs=0.01)

    def test_waterfill_at_most_once_per_reschedule(self, monkeypatch):
        # a re-schedule splits one link's budget, never every link's
        import smallcell.tssolver as tssolver
        calls = 0
        core = tssolver._water_fill_core

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return core(*args, **kwargs)
        monkeypatch.setattr(tssolver, "_water_fill_core", counting)
        reschedules = 0
        for seed in range(8):
            states = run_distributed_slots(small_cfg(num_links=4, num_tones=10, rng_seed=seed),
                                           num_slots=40, p_loss=0.1, power_mode="waterfill")
            reschedules += sum(len(st.rescheduled) for st in states)
        assert reschedules > 8 * 4       # give-ups made links re-schedule
        assert 0 < calls <= reschedules

    @staticmethod
    def rescheduled_every_slot(cfg, states, giveup_probability, power_mode):
        """Reference slot loop: every link re-runs the greedy on its view in every slot."""
        I, K = cfg.num_links, cfg.num_tones
        weights, budgets = np.ones(I), np.full(I, cfg.max_power_mw)
        views = states[0].views
        giveup_rng = np.random.default_rng((cfg.rng_seed, 0, 4))
        given_up = [set() for _ in range(I)]
        slots = []
        for _ in states:
            claims, power = [], np.zeros((I, K))
            for i in range(I):
                gains = views[i].effective_gains()
                gains[i, sorted(given_up[i])] = 0.0
                local = TSProblem(gains=gains, weights=weights, budgets=budgets)
                if power_mode == "equal":
                    mine = assign_channels(local)[i]
                    if mine:
                        power[i, mine] = budgets[i] / len(mine)
                else:
                    power[i] = soa_allocate(local, power_mode).power[i]
                    mine = [k for k in assign_channels(local)[i] if power[i, k] > 0]
                claims.append(mine)
            collisions = [(k, [i for i in range(I) if k in claims[i]]) for k in range(K)
                          if sum(k in mine for mine in claims) >= 2]
            for tone, group in collisions:
                for i in group:
                    if giveup_rng.random() < giveup_probability:
                        given_up[i].add(tone)
            slots.append((claims, collisions, power))
        return slots

    @pytest.mark.parametrize("power_mode", ["equal", "waterfill"])
    @pytest.mark.parametrize("giveup_probability", [0.5, 1.0])
    @pytest.mark.parametrize("p_loss", [0.1, 0.3])
    def test_reused_claims_match_rescheduling_every_slot(self, p_loss, giveup_probability,
                                                          power_mode):
        collided = 0
        cases = [(5, 8, seed) for seed in (1, 5, 9)]
        if p_loss == 0.1:
            cases.append((16, 64, 1))    # dense: several links re-schedule in one slot
        for num_links, num_tones, seed in cases:
            cfg = small_cfg(num_links=num_links, num_tones=num_tones, rng_seed=seed)
            states = run_distributed_slots(cfg, num_slots=15, p_loss=p_loss,
                                           giveup_probability=giveup_probability,
                                           power_mode=power_mode)
            want = self.rescheduled_every_slot(cfg, states, giveup_probability, power_mode)
            for st, (claims, collisions, power) in zip(states, want):
                assert st.claims == claims
                assert st.collisions == collisions
                assert np.array_equal(st.intended_power, power)
                collided += len(collisions)
            if num_links == 16:
                assert any(len(st.rescheduled) > 1 for st in states[1:])
        assert collided > 0          # give-ups happened, so some links re-scheduled

    @pytest.mark.parametrize("giveup_probability", [0.5, 1.0])
    def test_rescheduled_links_replay_the_giveup_draws(self, giveup_probability):
        # a link runs the greedy in slot 0 and in each slot after it gives up a tone
        batches = []
        for seed in (1, 5, 9):
            cfg = small_cfg(num_links=6, num_tones=12, rng_seed=seed)
            states = run_distributed_slots(cfg, num_slots=10, p_loss=0.3,
                                           giveup_probability=giveup_probability)
            giveup_rng = np.random.default_rng((seed, 0, 4))
            want = tuple(range(6))
            for slot, st in enumerate(states):
                assert st.rescheduled == want
                if not want:
                    assert st.claims is states[slot - 1].claims
                gave_up = {i for _, group in st.collisions for i in group
                           if giveup_rng.random() < giveup_probability}
                want = tuple(sorted(gave_up))
                batches.append(len(st.rescheduled))
        assert 0 in batches and any(1 < b < 6 for b in batches)


    @pytest.mark.parametrize("power_mode", ["equal", "waterfill"])
    def test_each_state_rates_match_its_own_power(self, power_mode):
        collided = 0
        for seed in (1, 5, 9):
            cfg = small_cfg(num_links=5, num_tones=8, rng_seed=seed)
            states = run_distributed_slots(cfg, num_slots=15, p_loss=0.3, power_mode=power_mode)
            realization = _trial_realization(cfg, 0)
            truth = TSProblem(gains=realization.direct_gain, weights=np.ones(5),
                              budgets=np.full(5, cfg.max_power_mw))
            factor = _bps_factor(cfg)
            for st in states:
                power = st.intended_power
                intended = Allocation.from_power(truth, power > 0.0, power).rate * factor
                assert np.array_equal(st.intended_rate_bps, intended)
                assert np.array_equal(st.realized_rate_bps,
                                      evaluate_concurrent(realization, power) * factor)
                collided += len(st.collisions)
        assert collided > 0


class TestSummaries:
    @staticmethod
    def record(algo, links, obj, trial=0, runtime=10.0, skipped=False):
        return TrialRecord(trial_id=trial, scenario="urban-indoor", num_links=links,
                           num_tones=4, algorithm=algo, objective_bps=obj,
                           runtime_us=runtime, iterations=1, collisions=0, seed=0,
                           skipped=skipped)

    def test_summarize_means_and_ratio(self):
        recs = [self.record("SOA", 2, 30.0, trial=0), self.record("SOA", 2, 10.0, trial=1),
                self.record("IWFA", 2, 10.0, trial=0), self.record("IWFA", 2, 10.0, trial=1)]
        rows = summarize(recs)
        by_algo = {r["algorithm"]: r for r in rows}
        assert by_algo["SOA"]["mean_objective_bps"] == pytest.approx(20.0)
        assert by_algo["SOA"]["soa_iwfa_ratio"] == pytest.approx(2.0)
        assert by_algo["IWFA"]["soa_iwfa_ratio"] == pytest.approx(2.0)
        assert by_algo["SOA"]["trials"] == 2

    def test_summarize_skips_skipped(self):
        recs = [self.record("Oracle", 2, 0.0, skipped=True), self.record("SOA", 2, 5.0)]
        rows = summarize(recs)
        assert [r["algorithm"] for r in rows] == ["SOA"]
        with pytest.raises(ValueError):
            summarize([])

    def test_summarize_rows_by_algorithm_then_link_count(self):
        recs = [self.record("SOA", 3, 4.0, runtime=30.0), self.record("SOA", 3, 8.0, trial=1, runtime=10.0),
                self.record("IWFA", 3, 2.0), self.record("SOA", 2, 5.0), self.record("IWFA", 2, 0.0),
                self.record("TS-Subgradient", 4, 6.0), self.record("SOA", 4, 3.0)]
        rows = summarize(recs)
        assert [(r["algorithm"], r["num_links"]) for r in rows] == [
            ("IWFA", 2), ("IWFA", 3), ("SOA", 2), ("SOA", 3), ("SOA", 4), ("TS-Subgradient", 4)]
        soa = rows[3]
        assert soa["std_objective_bps"] == 2.0 and soa["mean_runtime_us"] == 20.0
        assert soa["soa_iwfa_ratio"] == rows[1]["soa_iwfa_ratio"] == 3.0
        # an IWFA mean of 0 at two links, and no IWFA at four
        assert [r["soa_iwfa_ratio"] for r in rows if r["num_links"] != 3] == [None] * 4

    def test_render_summary_mentions_everything(self):
        recs = [self.record("SOA", 2, 2.0e6), self.record("IWFA", 2, 1.0e6)]
        text = render_summary(summarize(recs))
        assert "SOA" in text and "IWFA" in text and "2.00" in text


class TestCsv:
    def test_column_contract(self, tmp_path):
        cfg = small_cfg()
        recs = run_experiment(cfg, algorithms=("SOA", "IWFA"), trials=2)
        path = tmp_path / "records.csv"
        write_records_csv(recs, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert len(rows) == 1 + 4
        for row in rows[1:]:
            assert row[1] == "urban-indoor"
            assert float(row[5]) > 0.0
            assert row[4] in ALGORITHMS

    def test_skipped_rows_have_empty_cells(self, tmp_path):
        cfg = small_cfg(num_tones=10)
        recs = run_experiment(cfg, algorithms=("Oracle",), trials=1)
        path = tmp_path / "skipped.csv"
        write_records_csv(recs, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[1][5] == "" and rows[1][6] == "" and rows[1][7] == ""
        assert rows[1][4] == "Oracle"

    def test_exact_rows_of_a_solved_and_a_skipped_record(self, tmp_path):
        record = TrialRecord(trial_id=0, scenario="urban-indoor", num_links=2, num_tones=4,
                             algorithm="SOA", objective_bps=1234.5678901, runtime_us=12.3456,
                             iterations=7, collisions=0, seed=3)
        skipped = replace(record, algorithm="Oracle", objective_bps=0.0, skipped=True)
        path = tmp_path / "exact.csv"
        write_records_csv([record, skipped], path)
        assert path.read_text().splitlines()[1:] == [
            "0,urban-indoor,2,4,Oracle,,,,0,3",
            "0,urban-indoor,2,4,SOA,1234.567890,12.346,7,0,3",
        ]

    def test_rows_sorted_by_trial_then_algorithm(self, tmp_path):
        cfg = small_cfg()
        recs = run_experiment(cfg, algorithms=("IWFA", "SOA"), trials=2)
        path = tmp_path / "sorted.csv"
        write_records_csv(recs, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))[1:]
        keys = [(int(r[0]), r[4]) for r in rows]
        assert keys == sorted(keys)
