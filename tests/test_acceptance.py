"""Whole-system acceptance checks, one printed PASS/FAIL line per check.

These are heavier than the unit tests: full solver runs, timing sweeps and
protocol simulations (a couple of minutes in total).  Run with

    pytest tests/test_acceptance.py -s

to see the summary lines.  Every check is deterministic given the seeds
fixed below, except for the wall-clock measurements.
"""

import time
from dataclasses import dataclass
from math import comb

import numpy as np
import pytest

from smallcell.channel import ScenarioConfig
from smallcell.harness import _trial_realization, run_experiment, run_distributed_slots
from smallcell.tssolver import TSProblem, subgradient_solve, recover_primal, water_fill
from smallcell.soa import soa_allocate
from smallcell.baselines import oracle_orthogonal
from smallcell.signaling import build_cdf_table, decode_levels, encode_powers


def _report(num, label, ok, detail):
    print(f"\n[check {num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# ---------------------------------------------------------------- fixtures

@dataclass
class SandwichEntry:
    greedy: float
    oracle: float
    dual: float
    primal: float
    best_trace: np.ndarray
    bound_trace: np.ndarray


@pytest.fixture(scope="module")
def sandwich_set():
    """201 small urban-indoor instances solved by greedy, oracle and dual."""
    t0 = time.perf_counter()
    entries = []
    for num_links in (1, 2, 3):
        cfg = ScenarioConfig(num_links=num_links, num_tones=4, rng_seed=100 + num_links)
        budgets = np.full(num_links, cfg.max_power_mw)
        for t in range(67):
            real = _trial_realization(cfg, t)
            prob = TSProblem(gains=real.direct_gain, weights=np.ones(num_links),
                             budgets=budgets)
            greedy = soa_allocate(prob, "equal").objective
            _, oracle = oracle_orthogonal(prob)
            res = subgradient_solve(prob, max_iters=10000, tol=None)
            primal = recover_primal(prob, res.best_multipliers).objective
            entries.append(SandwichEntry(greedy=greedy, oracle=oracle,
                                         dual=res.best_dual, primal=primal,
                                         best_trace=res.best_trace,
                                         bound_trace=res.bound_trace))
    return {"entries": entries, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def link_sweep():
    """Urban-indoor 25 m, K=10, 100 trials per link count, shared instances."""
    t0 = time.perf_counter()
    soa_mean, iwfa_mean, wf_mean = {}, {}, {}
    for num_links in range(2, 11):
        cfg = ScenarioConfig(num_links=num_links, num_tones=10, rng_seed=777)
        recs = run_experiment(cfg, algorithms=("SOA", "IWFA"), trials=100)
        wf = run_experiment(cfg, algorithms=("SOA",), trials=100, power_mode="waterfill")
        soa_mean[num_links] = np.mean([r.objective_bps for r in recs if r.algorithm == "SOA"])
        iwfa_mean[num_links] = np.mean([r.objective_bps for r in recs if r.algorithm == "IWFA"])
        wf_mean[num_links] = np.mean([r.objective_bps for r in wf])
    return {"soa": soa_mean, "iwfa": iwfa_mean, "wf": wf_mean,
            "elapsed": time.perf_counter() - t0}


# ------------------------------------------------------------------ checks

def test_oracle_sandwich_and_dual_gap(sandwich_set):
    entries = sandwich_set["entries"]
    elapsed = sandwich_set["elapsed"]
    bad_low = sum(1 for e in entries if e.greedy > e.oracle + 1e-9)
    bad_high = sum(1 for e in entries if e.oracle > e.dual + 1e-9)
    gaps = np.array([(e.dual - e.oracle) / e.oracle for e in entries])
    n_over = int(np.sum(gaps > 0.01))
    ok = (bad_low == 0 and bad_high == 0 and gaps.mean() <= 0.01 and elapsed < 300.0)
    assert _report(
        1, "greedy <= oracle <= dual sandwich with small dual gap", ok,
        f"{len(entries)} instances, sandwich violations {bad_low}/{bad_high}, "
        f"mean gap {gaps.mean():.3%}, max {gaps.max():.3%} with {n_over} instances "
        f"above 1% (irreducible relaxation-vs-orthogonal slack), wall {elapsed:.0f}s")


def test_greedy_near_optimality(sandwich_set):
    ratios = np.array([e.greedy / e.oracle for e in sandwich_set["entries"]])
    ok = ratios.mean() >= 0.95
    assert _report(
        2, "greedy throughput close to the orthogonal optimum", ok,
        f"mean greedy/oracle {ratios.mean():.4f}, min {ratios.min():.4f}, need mean >= 0.95")


def test_greedy_beats_iterative_water_filling(link_sweep):
    soa, iwfa = link_sweep["soa"], link_sweep["iwfa"]
    counts = sorted(soa)
    wins = all(soa[i] > iwfa[i] for i in counts)
    r_first = soa[counts[0]] / iwfa[counts[0]]
    r_last = soa[counts[-1]] / iwfa[counts[-1]]
    ok = wins and r_last > r_first and link_sweep["elapsed"] < 600.0
    assert _report(
        3, "greedy beats the water-filling game at every size, gap widening", ok,
        f"ratios {r_first:.2f} at {counts[0]} links -> {r_last:.2f} at {counts[-1]}, "
        f"wins at all sizes: {wins}, wall {link_sweep['elapsed']:.0f}s")


def test_throughput_grows_with_link_count(link_sweep):
    soa = link_sweep["soa"]
    counts = sorted(soa)
    diffs = [soa[b] - soa[a] for a, b in zip(counts[:-1], counts[1:])]
    ok = all(d >= 0.0 for d in diffs)
    assert _report(
        4, "mean greedy throughput non-decreasing in link count", ok,
        f"{soa[counts[0]] / 1e6:.1f} -> {soa[counts[-1]] / 1e6:.1f} Mbit/s, "
        f"min step {min(diffs) / 1e6:+.2f} Mbit/s")


def test_equal_power_close_to_water_filling(link_sweep):
    eq = np.mean(list(link_sweep["soa"].values()))
    wf = np.mean(list(link_sweep["wf"].values()))
    ok = eq >= 0.98 * wf
    assert _report(
        5, "equal power split nearly matches per-link water filling", ok,
        f"mean equal/water-fill objective {eq / wf:.5f}, need >= 0.98")


def test_runtime_scaling():
    rng = np.random.default_rng(0)

    def bench(shapes, repeats=40):
        """Min-of-repeats per-call microseconds, shapes timed round robin.

        Interleaving keeps every shape's floor estimate exposed to the same
        clock-drift windows, so the spread reflects the algorithm rather
        than when each point happened to be measured.
        """
        probsets = []
        for num_links, num_tones, instances in shapes:
            probsets.append([
                TSProblem(gains=rng.lognormal(0.0, 2.0, (num_links, num_tones)) * 1e3,
                          weights=np.ones(num_links),
                          budgets=np.full(num_links, 100.0))
                for _ in range(instances)])
        for probs in probsets:          # untimed warm-up sweep
            for p in probs:
                soa_allocate(p, "equal")
        best = np.full(len(shapes), np.inf)
        for _ in range(repeats):
            for j, probs in enumerate(probsets):
                t0 = time.perf_counter_ns()
                for p in probs:
                    soa_allocate(p, "equal")
                best[j] = min(best[j], (time.perf_counter_ns() - t0) / len(probs) / 1e3)
        return best

    times = bench([(10, 64, 20), (10, 128, 20)]
                  + [(i, 10, 50) for i in range(2, 11)])
    t64, t128, per_i = times[0], times[1], times[2:]
    k_ratio = t128 / t64
    i_var = (per_i.max() - per_i.min()) / per_i.min()
    ok = k_ratio <= 2.5 and i_var < 0.20
    assert _report(
        6, "greedy runtime scales gently in tones, flat in links", ok,
        f"K 64->128 ratio {k_ratio:.2f} (need <= 2.5), "
        f"spread over 2..10 links {i_var:.1%} (need < 20%)")


def test_dual_convergence_certificate(sandwich_set):
    entries = sandwich_set["entries"]
    bound_violations = 0
    stalled = 0
    for e in entries:
        if np.any(e.best_trace - e.primal > e.bound_trace + 1e-9):
            bound_violations += 1
        window = min(100, len(e.best_trace) - 1)
        improve = e.best_trace[-1 - window] - e.best_trace[-1]
        if improve > 1e-6 * abs(e.best_trace[-1]):
            stalled += 1
    ok = bound_violations == 0 and stalled == 0
    assert _report(
        7, "dual suboptimality stays under its running certificate", ok,
        f"{len(entries)} traces, certificate violations {bound_violations}, "
        f"runs still improving past tolerance at the end {stalled}")


def test_signaling_roundtrip_exhaustive():
    rng = np.random.default_rng(42)
    table = build_cdf_table(rng.lognormal(0.0, 2.0, 20000), 64)
    p0 = 100.0
    attenuations = rng.lognormal(-8.0, 3.0, 100)
    errors = 0
    for level in table.gain_levels:
        s1, s2 = encode_powers(level, table, p0)
        for a in attenuations:
            got = decode_levels(a * s1, a * s2, table)
            if got != level:
                errors += 1

    # three-level codebook: a received ratio of exactly 2/3 names the middle level
    three = build_cdf_table(np.linspace(1.0, 3.0, 3000), 3)
    mid = decode_levels(3e-7, 2e-7, three)
    mid_ok = mid == three.gain_levels[1]
    ok = errors == 0 and mid_ok
    assert _report(
        8, "noiseless signaling round trip is the identity", ok,
        f"{table.size} levels x {len(attenuations)} attenuations, {errors} mismatches; "
        f"ratio-2/3 decodes to middle level: {mid_ok}")


def test_water_fill_kkt_suite():
    rng = np.random.default_rng(0)
    draws = 10000
    worst_bind = worst_level = worst_inactive = 0.0
    for _ in range(draws):
        n = int(rng.integers(1, 17))
        g = rng.lognormal(0.0, 2.0, n) * 10.0 ** rng.uniform(-2.0, 4.0)
        budget = 10.0 ** rng.uniform(-2.0, 2.0)
        p = water_fill(g, budget)
        assert np.all(p >= 0.0)
        worst_bind = max(worst_bind, abs(p.sum() - budget) / budget)
        active = p > 0
        levels = p[active] + 1.0 / g[active]
        nu = levels.mean()
        worst_level = max(worst_level, float(np.max(np.abs(levels - nu))) / nu)
        if np.any(~active):
            worst_inactive = max(worst_inactive,
                                 float(np.max(nu - 1.0 / g[~active])) / nu)
    ok = worst_bind <= 1e-12 and worst_level <= 1e-12 and worst_inactive <= 1e-12
    assert _report(
        9, "water filling satisfies its optimality conditions", ok,
        f"{draws} draws, worst budget residual {worst_bind:.1e}, "
        f"worst level spread {worst_level:.1e}, worst inactive slack {worst_inactive:.1e}, "
        f"all need <= 1e-12")


def _expected_resolution_slots(n, q):
    """Mean slots until <= 1 claimant remains, each leaving i.i.d. w.p. q per slot."""
    E = {0: 0.0, 1: 0.0}
    for m in range(2, n + 1):
        stay = (1 - q) ** m
        acc = 1.0
        for s in range(2, m):      # s survivors out of m claimants
            acc += comb(m, s) * ((1 - q) ** s) * (q ** (m - s)) * E[s]
        E[m] = acc / (1 - stay)
    return E[n]


def test_collision_recovery():
    cfg0 = ScenarioConfig(num_links=4, num_tones=10, rng_seed=1)
    lossless = run_distributed_slots(cfg0, num_slots=1000, p_loss=0.0)
    clean = sum(len(s.collisions) for s in lossless)

    q = 0.5
    lengths, starts, censored = [], [], 0
    for r in range(300):
        cfg = ScenarioConfig(num_links=4, num_tones=10, rng_seed=5000 + r)
        states = run_distributed_slots(cfg, num_slots=40, p_loss=0.1,
                                       giveup_probability=q)
        open_eps = {}
        for s in states:
            now = {tone: group for tone, group in s.collisions}
            for tone, group in now.items():
                if tone not in open_eps:
                    open_eps[tone] = [len(group), 0]
                open_eps[tone][1] += 1
            for tone in [t for t in open_eps if t not in now]:
                starts.append(open_eps[tone][0])
                lengths.append(open_eps[tone][1])
                del open_eps[tone]
        censored += len(open_eps)

    model = float(np.mean([_expected_resolution_slots(n, q) for n in starts]))
    emp = float(np.mean(lengths))
    rel = abs(emp - model) / model
    ok = clean == 0 and censored == 0 and rel <= 0.10
    assert _report(
        10, "collisions absent when signaling is perfect, resolve as modeled when not", ok,
        f"lossless: {clean} collisions in 1000 slots; lossy: {len(lengths)} episodes, "
        f"mean {emp:.3f} slots vs model {model:.3f} ({rel:.1%} off, need <= 10%)")
