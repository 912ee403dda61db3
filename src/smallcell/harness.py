"""End-to-end experiment drivers and record emission.

Two entry points: run_experiment solves independently drawn instances with a
selection of algorithms and times each solve; run_distributed_slots plays
the slotted protocol where links first exchange gains over the signaling
channel, then each schedules itself from its own (possibly inconsistent)
view, collides, and backs off probabilistically.  Its quantization codebook
is built from channel.scenario_gain_samples.

Seed discipline: a run's master seed is cfg.rng_seed, and trial t draws all
of its randomness from substreams keyed by (cfg.rng_seed, t, stage), so
records do not depend on execution order and a sweep over link counts reuses
the same positions and fading for the links common to two counts.

Objectives in records are bits/s: solver-side rates are natural-log units
and get scaled by tone_bandwidth / ln(2) here.  Per-link rates come from the
returned powers (Allocation.from_power for orthogonal allocations; for IWFA,
iwfa_solve's rate, evaluate_concurrent of its powers), and each record's
objective is their weighted sum, not an objective copied from the solver.
"""

from dataclasses import dataclass
import csv
import time
import numpy as np

from .channel import ScenarioConfig, drop_topology, realize_channels, scenario_gain_samples
from .signaling import build_cdf_table, run_signaling_slot
from .tssolver import (TSProblem, Allocation, power_phase, subgradient_solve, recover_primal,
                       _check_finite, _check_int, _check_power_mode)
from .soa import soa_allocate, _assign_stack
from .baselines import OracleTooLarge, iwfa_solve, oracle_orthogonal, evaluate_concurrent

SUBGRADIENT_ITERS = 2000    # TS-Subgradient's iteration cap in run_experiment
CSV_COLUMNS = ("trial_id", "scenario", "num_links", "num_tones", "algorithm",
               "objective_bps", "runtime_us", "iterations", "collisions", "seed")


@dataclass
class TrialRecord:
    trial_id: int
    scenario: str
    num_links: int
    num_tones: int
    algorithm: str
    objective_bps: float
    runtime_us: float
    iterations: int
    collisions: int
    seed: int
    per_link_rates_bps: np.ndarray = None
    skipped: bool = False


@dataclass
class SlotState:
    """Outcome of one traffic slot of the distributed protocol.

    A slot where no link re-scheduled shares its objects with the slot before.
    """

    slot_index: int
    views: list                      # per-link GainView, shared across slots
    claims: list                     # per-link powered tones, in greedy order
    intended_power: np.ndarray       # (I, K) mW each link meant to transmit
    intended_rate_bps: np.ndarray    # (I,) interference-free rates at true gains
    realized_rate_bps: np.ndarray    # (I,) rates under actual concurrent transmission
    collisions: list                 # (tone, [claimant links]) with >= 2 claimants
    rescheduled: tuple               # links that ran the greedy in this slot


def _bps_factor(cfg: ScenarioConfig) -> float:
    return cfg.tone_bandwidth_hz / np.log(2.0)


def _trial_realization(cfg: ScenarioConfig, trial: int):
    positions = drop_topology(cfg, np.random.default_rng((cfg.rng_seed, trial, 1)))
    return realize_channels(cfg, positions, (cfg.rng_seed, trial, 2))


# Each runner returns (per-link rates in nats or None when skipped, iterations).
# Solver names are looked up in this module when a runner runs, so a wrapper
# swapped into the module sees every call.
def _run_soa(problem, realization, power_mode):
    alloc = soa_allocate(problem, power_mode=power_mode)
    return alloc.rate, int(alloc.share.sum())


def _run_subgradient(problem, realization, power_mode):
    result = subgradient_solve(problem, max_iters=SUBGRADIENT_ITERS)
    return recover_primal(problem, result.best_multipliers).rate, result.iterations


def _run_iwfa(problem, realization, power_mode):
    result = iwfa_solve(realization, problem.budgets)
    return result.rate, result.rounds


def _run_oracle(problem, realization, power_mode):
    try:
        alloc, _ = oracle_orthogonal(problem)
    except OracleTooLarge:
        return None, 0
    I, K = problem.gains.shape
    return alloc.rate, (I + 1) ** K


_SOLVERS = {"SOA": _run_soa, "TS-Subgradient": _run_subgradient,
            "IWFA": _run_iwfa, "Oracle": _run_oracle}
ALGORITHMS = tuple(_SOLVERS)


def run_experiment(cfg: ScenarioConfig, algorithms=("SOA", "IWFA"), trials: int = 100,
                   power_mode: str = "equal", signaling_overhead: float = 0.0):
    """Solve `trials` independent instances with each algorithm.

    Every algorithm sees the identical realization within a trial.  A
    record's runtime_us is the wall time of one call of the algorithm's
    runner: the solve and the rates it returns, and for TS-Subgradient the
    primal recovery too.  An Oracle request on an instance past the
    enumeration guard yields a record marked skipped instead of a crash.
    signaling_overhead discounts all objectives by the fraction of the slot
    spent signaling.
    """
    if not algorithms:
        raise ValueError(f"no algorithm given, expected a non-empty subset of {ALGORITHMS}")
    for name in algorithms:
        if name not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {name!r}, expected subset of {ALGORITHMS}")
    _check_power_mode(power_mode)
    trials = _check_int("trials", trials, 1)
    if not 0.0 <= signaling_overhead < 1.0:
        raise ValueError("signaling_overhead must be in [0, 1)")

    factor = _bps_factor(cfg) * (1.0 - signaling_overhead)
    records = []
    for t in range(trials):
        realization = _trial_realization(cfg, t)
        weights = np.ones(cfg.num_links)
        budgets = np.full(cfg.num_links, cfg.max_power_mw)
        problem = TSProblem(gains=realization.direct_gain, weights=weights, budgets=budgets)

        for name in algorithms:
            t0 = time.perf_counter_ns()
            rates, iterations = _SOLVERS[name](problem, realization, power_mode)
            runtime_ns = time.perf_counter_ns() - t0
            skipped = rates is None
            rates = np.zeros(cfg.num_links) if skipped else rates * factor
            records.append(TrialRecord(
                trial_id=t,
                scenario=cfg.scenario,
                num_links=cfg.num_links,
                num_tones=cfg.num_tones,
                algorithm=name,
                objective_bps=0.0 if skipped else float(weights @ rates),
                runtime_us=max(runtime_ns, 1) / 1000.0,
                iterations=iterations,
                collisions=0,
                seed=cfg.rng_seed,
                per_link_rates_bps=rates,
                skipped=skipped,
            ))
    return records


def run_distributed_slots(cfg: ScenarioConfig, num_slots: int, p_loss: float = 0.0,
                          giveup_probability: float = 0.5, signaling_levels: int = 16,
                          power_mode: str = "equal"):
    """Play the slotted protocol on one topology and return per-slot states.

    Signal losses are drawn once, here, with probability p_loss per
    (sender, receiver, tone), and are persistent for the whole run (a
    blocked propagation path stays blocked), so every link holds a fixed
    decoded view.  Each slot, every link greedily schedules itself from its
    own view, excluding tones it has given up, and splits its budget over
    the tones it won with tssolver.power_phase (the power phase every
    orthogonal allocation uses).  A link claims the tones it powers, listed
    in the order the greedy handed them out; tones claimed by two or more
    links collide and every collider independently abandons the tone for
    the rest of the run with giveup_probability.

    A link's claims and power row depend only on its fixed view and its
    give-up set, so a link re-schedules only in the slot after it gives up a
    new tone; each state's rescheduled lists those links (every link in slot
    0).  Every link's view is decided once per run, in one (I, I, K) array,
    I I K floats: decided[i] is link i's decoded view with missing entries
    as gain zero, and a give-up zeroes decided[i, i, tone].  The links
    re-scheduling in one slot run their greedies as one stack
    (soa._assign_stack over their B rows of decided, 3 B I K floats), and one
    power_phase call splits their budgets over the (B, K) stack of their own
    rows of those views.  A slot where no link re-schedules shares the
    previous state's claims, powers, collisions and rates, so treat them as
    read-only; a slot that re-schedules writes into copies of them.
    """
    if not 0.0 <= p_loss <= 1.0:
        raise ValueError("p_loss must be in [0, 1]")
    _check_power_mode(power_mode)
    if not 0.0 <= giveup_probability <= 1.0:
        raise ValueError("giveup_probability must be in [0, 1]")
    num_slots = _check_int("num_slots", num_slots, 1)
    _check_int("signaling_levels", signaling_levels, 2)

    I, K = cfg.num_links, cfg.num_tones
    factor = _bps_factor(cfg)
    budgets = np.full(I, cfg.max_power_mw)
    weights = np.ones(I)

    # the codebook comes first, so a level count too fine for the gain samples
    # (duplicate levels) and a top level too large for the budget fail before
    # the channel draw.  Each link schedules from its decoded view, whose
    # levels can exceed every true gain, so the budget times the top level
    # must be finite; Python floats overflow to inf without numpy's warning
    table_rng = np.random.default_rng((cfg.rng_seed, 0, 5))
    table = build_cdf_table(scenario_gain_samples(cfg, table_rng), signaling_levels)
    _check_finite("max_power_mw times the top codebook level", cfg.max_power_mw * table.gain_levels[-1].item(), False)
    realization = _trial_realization(cfg, 0)
    truth = TSProblem(gains=realization.direct_gain, weights=weights, budgets=budgets)

    loss_mask = np.random.default_rng((cfg.rng_seed, 0, 3)).random((I, I, K)) < p_loss
    views = run_signaling_slot(realization, table, cfg.max_power_mw, loss_mask=loss_mask)
    decided = np.stack([view.effective_gains() for view in views])

    giveup_rng = np.random.default_rng((cfg.rng_seed, 0, 4))
    claims = [[] for _ in range(I)]
    power = np.zeros((I, K))
    stale = set(range(I))    # links that gave up a new tone since they last scheduled
    states = []

    for slot in range(num_slots):
        rescheduled = tuple(sorted(stale))
        stale.clear()
        if rescheduled:
            links = list(rescheduled)    # a tuple would select one entry
            won = [sets[i] for sets, i in zip(_assign_stack(decided[links], weights, budgets), links)]
            _, rows = power_phase(decided[links, links], won, budgets.take(links), power_mode)
            claims = list(claims)    # earlier states keep theirs
            power = power.copy()
            power[links] = rows
            for i, mine, row in zip(rescheduled, won, rows):
                claims[i] = [k for k in mine if row[k] > 0.0]
            claimed = power > 0.0    # a link claims exactly the tones it powers
            collisions = [(int(k), np.flatnonzero(claimed[:, k]).tolist())
                          for k in np.flatnonzero(claimed.sum(axis=0) >= 2)]
            intended = Allocation.from_power(truth, claimed, power).rate * factor
            realized = evaluate_concurrent(realization, power) * factor

        states.append(SlotState(
            slot_index=slot,
            views=views,
            claims=claims,
            intended_power=power,
            intended_rate_bps=intended,
            realized_rate_bps=realized,
            collisions=collisions,
            rescheduled=rescheduled,
        ))

        for tone, group in collisions:
            for i in group:
                if giveup_rng.random() < giveup_probability:
                    decided[i, i, tone] = 0.0    # off the table: a given-up tone is never claimed again
                    stale.add(i)
    return states


def summarize(records):
    """Aggregate records into per-(algorithm, link count) rows.

    Returns a list of dicts with mean/stddev objective and mean runtime;
    when both SOA and IWFA ran at a link count, every row of that count also
    carries their throughput ratio.
    """
    if not records:
        raise ValueError("no records to summarize")
    groups = {}
    for rec in records:
        if rec.skipped:
            continue
        groups.setdefault((rec.algorithm, rec.num_links), []).append(rec)

    means = {key: float(np.mean([r.objective_bps for r in recs])) for key, recs in groups.items()}
    rows = []
    for (algo, links) in sorted(groups, key=lambda k: (k[0], k[1])):
        recs = groups[(algo, links)]
        objs = np.array([r.objective_bps for r in recs])
        ratio = None
        if ("SOA", links) in means and ("IWFA", links) in means and means[("IWFA", links)] > 0:
            ratio = means[("SOA", links)] / means[("IWFA", links)]
        rows.append({
            "algorithm": algo,
            "num_links": links,
            "trials": len(recs),
            "mean_objective_bps": float(objs.mean()),
            "std_objective_bps": float(objs.std()),
            "mean_runtime_us": float(np.mean([r.runtime_us for r in recs])),
            "soa_iwfa_ratio": ratio,
        })
    return rows


def render_summary(rows) -> str:
    """Aligned text table of summarize() rows, objective in Mbit/s."""
    header = f"{'algorithm':<15}{'links':>6}{'trials':>8}{'mean Mbit/s':>13}{'std':>10}{'mean us':>12}{'SOA/IWFA':>10}"
    lines = [header, "-" * len(header)]
    for row in rows:
        ratio = f"{row['soa_iwfa_ratio']:.2f}" if row["soa_iwfa_ratio"] else ""
        lines.append(f"{row['algorithm']:<15}{row['num_links']:>6}{row['trials']:>8}"
                     f"{row['mean_objective_bps'] / 1e6:>13.3f}{row['std_objective_bps'] / 1e6:>10.3f}"
                     f"{row['mean_runtime_us']:>12.1f}{ratio:>10}")
    return "\n".join(lines)


def write_records_csv(records, path):
    """Emit records with the stable column set, sorted by trial then algorithm.

    Skipped records keep their row with empty objective/runtime/iterations.
    """
    ordered = sorted(records, key=lambda r: (r.trial_id, r.num_links, r.algorithm))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in ordered:
            if r.skipped:
                writer.writerow([r.trial_id, r.scenario, r.num_links, r.num_tones,
                                 r.algorithm, "", "", "", r.collisions, r.seed])
            else:
                writer.writerow([r.trial_id, r.scenario, r.num_links, r.num_tones,
                                 r.algorithm, f"{r.objective_bps:.6f}", f"{r.runtime_us:.3f}",
                                 r.iterations, r.collisions, r.seed])
