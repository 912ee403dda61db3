"""The benchmark's four workloads: a fixed pool of inputs, one operation, output checks.

Each workload has a fixed pool of operations, split into groups.  An
operation is one trial (``sweep``, ``sandwich``) or one protocol run
(``slots``, ``dense-slots``), made through the same public harness calls the
CLI makes.  Calls go through module attributes (``sc.harness.run_experiment``)
so that the tracer's wrappers see them while they are installed.

Why a fixed pool: the cost of one instance varies widely (an IWFA trial at
10 links either converges in a few rounds or runs to the 200-round cap), so
a run of seed-drawn instances measures mostly which instances it drew.
Resampling 150 timed sweep passes (links 2 to 10), runs of 45 passes spread
7% in trials per second and 15% in median trial time.  A fixed pool makes
every seed measure the same work; the seed sets the order of each traversal.

Outputs are checked in two ways.  Every deterministic output of every pool
operation is compared exactly with ``reference.json``: SOA and Oracle
objectives, decoded signaling views, and each slot's claims and collisions;
during warm-up, when the tracer captures the allocations, the SOA and Oracle
assignments too.  IWFA and the dual solver are only checked by invariants: a
1e-13 relative change in the gains can move a 10-link IWFA objective by
several percent, so an exact IWFA reference would fail a correct refactor.
"""

import hashlib

import numpy as np

REL_TOL = 1e-9
IWFA_MAX_ROUNDS = 200    # iwfa_solve's default, which run_experiment uses
TS_MAX_ITERS = 2000      # run_experiment's subgradient_iters default


def _tone_sets(share):
    return [np.flatnonzero(row > 0).tolist() for row in share]


def _allocation_problems(label, alloc, budgets):
    """Feasibility invariants of an orthogonal allocation."""
    problems = []
    share, power = np.asarray(alloc.share), np.asarray(alloc.power)
    if not (np.all(np.isfinite(power)) and np.all(power >= 0.0)):
        problems.append(f"{label}: negative or non-finite power")
    if np.any(power.sum(axis=1) > budgets * (1 + REL_TOL)):
        problems.append(f"{label}: a row sum exceeds its budget")
    if np.any(share < 0.0) or np.any(share.sum(axis=0) > 1.0 + REL_TOL):
        problems.append(f"{label}: a tone's shares exceed 1")
    if not np.all((share == 0.0) | (share == 1.0)):
        problems.append(f"{label}: shares of an orthogonal allocation are not 0 or 1")
    if not np.isfinite(alloc.objective):
        problems.append(f"{label}: non-finite objective")
    return problems


def _record_problems(records, algorithms, num_links):
    problems = []
    if [r.algorithm for r in records] != list(algorithms):
        return [f"records {[r.algorithm for r in records]}, expected {list(algorithms)}"]
    for r in records:
        rates = np.asarray(r.per_link_rates_bps, dtype=float)
        if r.skipped:
            problems.append(f"{r.algorithm} skipped")
        elif not (np.isfinite(r.objective_bps) and r.objective_bps > 0.0):
            problems.append(f"{r.algorithm} objective {r.objective_bps!r} not finite and positive")
        elif rates.shape != (num_links,) or not np.all(np.isfinite(rates)) or np.any(rates < 0.0):
            problems.append(f"{r.algorithm} per-link rates malformed")
        elif abs(rates.sum() - r.objective_bps) > REL_TOL * r.objective_bps:
            problems.append(f"{r.algorithm} objective differs from its per-link rates")
    return problems


class Workload:
    """A pool of `groups` groups; group g runs the pool's configs for master seed pool_base + g."""

    warmup_groups = 1

    def pool(self, sc):
        """The workload's inputs: a list of groups, each a list of (op index, config)."""
        groups, index = [], 0
        for g in range(self.groups):
            ops = []
            for kwargs in self.configs():
                ops.append((index, sc.channel.ScenarioConfig(rng_seed=self.pool_base + g, **kwargs)))
                index += 1
            groups.append(ops)
        return groups

    finish = None


class Sweep(Workload):
    """Paper headline: SOA against IWFA over link counts, as `smallcell sweep` runs it."""

    name = "sweep"
    op_label, unit_label, quality_label = "trial", "trials", "soa_iwfa_ratio"
    pool_base, groups = 777, 8

    def configs(self):
        # one master seed per pass, shared by every link count, as the CLI does
        return [{"num_links": n, "num_tones": 10} for n in range(2, 11)]

    def run(self, sc, cfg):
        equal = sc.harness.run_experiment(cfg, ("SOA", "IWFA"), trials=1)
        waterfill = sc.harness.run_experiment(cfg, ("SOA",), trials=1, power_mode="waterfill")
        return equal, waterfill

    def units(self, out):
        return 1

    def check(self, cfg, out):
        equal, waterfill = out
        problems = (_record_problems(equal, ("SOA", "IWFA"), cfg.num_links)
                    + _record_problems(waterfill, ("SOA",), cfg.num_links))
        if problems:
            return problems
        (soa, iwfa), (soa_wf,) = equal, waterfill
        if not 1 <= soa.iterations <= cfg.num_tones:
            problems.append(f"SOA assigned {soa.iterations} tones")
        if soa_wf.iterations != soa.iterations:
            problems.append("power mode changed the SOA assignment")
        if soa_wf.objective_bps < soa.objective_bps * (1 - REL_TOL):
            problems.append("water-filled SOA below equal-power SOA on the same assignment")
        if not 1 <= iwfa.iterations <= IWFA_MAX_ROUNDS:
            problems.append(f"IWFA reported {iwfa.iterations} rounds")
        return problems

    def quality(self, out):
        (soa, iwfa), _ = out
        return soa.objective_bps, iwfa.objective_bps

    def finish(self, sc, outs, out_dir):
        """Per pass, what the CLI does after its run_experiment calls."""
        H = sc.harness
        done = {}
        for label, part in (("equal", 0), ("waterfill", 1)):
            records = [r for out in outs for r in out[part]]
            path = out_dir / f"sweep-{label}.csv"
            H.write_records_csv(records, path)
            rows = H.summarize(records)
            done[label] = (path, len(records), rows, H.render_summary(rows))
        return done

    def check_finish(self, outs, done):
        problems = []
        for label, per_op in (("equal", 2), ("waterfill", 1)):
            path, num_records, rows, text = done[label]
            with open(path) as fh:
                lines = sum(1 for _ in fh)
            if lines != num_records + 1:
                problems.append(f"{path.name}: {lines} lines for {num_records} records")
            if len(rows) != per_op * len(outs) or len(text.splitlines()) != len(rows) + 2:
                problems.append(f"{label} summary has {len(rows)} rows for {len(outs)} trials")
        return problems

    def digest(self, cfg, out, calls=None):
        equal, waterfill = out
        digest = {"records": [[r.algorithm, r.objective_bps, r.iterations]
                              for r in (equal[0], waterfill[0])]}
        if calls is None:
            return digest, []
        budgets = np.full(cfg.num_links, cfg.max_power_mw)
        problems = []
        digest["soa"] = []
        for _, name, args, kwargs, result in calls:
            if name == "soa.soa_allocate":
                digest["soa"].append([_tone_sets(result.share), result.objective])
                problems += _allocation_problems("SOA", result, budgets)
            elif name == "baselines.iwfa_solve":
                # concurrent transmission: no shares, so only the power invariants apply
                power = result.power
                if not (np.all(np.isfinite(power)) and np.all(power >= 0.0)):
                    problems.append("IWFA: negative or non-finite power")
                if np.any(power.sum(axis=1) > budgets * (1 + REL_TOL)):
                    problems.append("IWFA: a row sum exceeds its budget")
                if not np.all(np.isfinite(result.rate)):
                    problems.append("IWFA: non-finite rate")
        return digest, problems


class Sandwich(Workload):
    """Acceptance sandwich through the user path: SOA, the dual and the Oracle on small instances."""

    name = "sandwich"
    op_label, unit_label, quality_label = "trial", "trials", "ts_oracle_ratio"
    algorithms = ("SOA", "TS-Subgradient", "Oracle")
    pool_base, groups = 100, 24
    warmup_groups = 2

    def configs(self):
        return [{"num_links": n, "num_tones": 4} for n in (1, 2, 3)]

    def run(self, sc, cfg):
        return sc.harness.run_experiment(cfg, self.algorithms, trials=1)

    def units(self, out):
        return 1

    def check(self, cfg, out):
        problems = _record_problems(out, self.algorithms, cfg.num_links)
        if problems:
            return problems
        soa, ts, oracle = out
        if oracle.iterations != (cfg.num_links + 1) ** cfg.num_tones:
            problems.append(f"Oracle enumerated {oracle.iterations} assignments")
        if not 1 <= ts.iterations <= TS_MAX_ITERS:
            problems.append(f"TS-Subgradient ran {ts.iterations} iterations")
        for r in (soa, ts):
            if r.objective_bps > oracle.objective_bps * (1 + REL_TOL):
                problems.append(f"{r.algorithm} above the Oracle")
        return problems

    def quality(self, out):
        _, ts, oracle = out
        return ts.objective_bps, oracle.objective_bps

    def digest(self, cfg, out, calls=None):
        digest = {"records": [[r.algorithm, r.objective_bps, r.iterations]
                              for r in out if r.algorithm != "TS-Subgradient"]}
        if calls is None:
            return digest, []
        budgets = np.full(cfg.num_links, cfg.max_power_mw)
        found = {name: result for _, name, _, _, result in calls}
        soa = found["soa.soa_allocate"]
        oracle, oracle_obj = found["baselines.oracle_orthogonal"]
        dual = found["tssolver.subgradient_solve"]
        problems = []
        for label, alloc in (("SOA", soa), ("Oracle", oracle),
                             ("TS primal", found["tssolver.recover_primal"])):
            problems += _allocation_problems(label, alloc, budgets)
            if alloc.objective > oracle_obj * (1 + REL_TOL):
                problems.append(f"{label} above the Oracle")
        if not np.isfinite(dual.best_dual) or oracle_obj > dual.best_dual * (1 + REL_TOL):
            problems.append("Oracle above the dual bound")
        digest["soa"] = [_tone_sets(soa.share), soa.objective]
        digest["oracle"] = [_tone_sets(oracle.share), oracle_obj]
        return digest, problems


class Slots(Workload):
    """Slotted distributed protocol: lossy two-burst signaling, greedy claims, collisions, give-up."""

    name = "slots"
    op_label, unit_label, quality_label = "run", "slots", "realized_intended_ratio"
    num_links, num_tones, num_slots = 4, 10, 40
    p_loss, giveup = 0.1, 0.5
    pool_base, groups = 5000, 32
    warmup_groups = 2

    def configs(self):
        return [{"num_links": self.num_links, "num_tones": self.num_tones}]

    def run(self, sc, cfg):
        return sc.harness.run_distributed_slots(cfg, num_slots=self.num_slots, p_loss=self.p_loss,
                                                giveup_probability=self.giveup)

    def units(self, out):
        return len(out)

    def check(self, cfg, states):
        I, K = cfg.num_links, cfg.num_tones
        if len(states) != self.num_slots:
            return [f"{len(states)} slots, expected {self.num_slots}"]
        views = states[0].views
        gains = np.stack([v.gains for v in views])
        missing = np.stack([v.missing for v in views])
        problems = []
        decoded = gains[~missing]
        if not (np.all(np.isfinite(decoded)) and np.all(decoded > 0.0)):
            problems.append("decoded gain not finite and positive")
        heard = ~missing.all(axis=0)
        highest = np.where(missing, -np.inf, gains).max(axis=0)
        lowest = np.where(missing, np.inf, gains).min(axis=0)
        if np.any(highest[heard] != lowest[heard]):
            problems.append("receivers decoded different levels for one broadcast")
        own = np.stack([v.effective_gains()[i] for i, v in enumerate(views)])
        budgets = np.full(I, cfg.max_power_mw)
        for s, st in enumerate(states):
            claims = st.claims
            if st.slot_index != s or len(claims) != I:
                problems.append(f"slot {s}: malformed state")
                continue
            claimed = np.zeros((I, K), dtype=bool)
            for i, mine in enumerate(claims):
                tones = [int(k) for k in mine]
                if len(set(tones)) != len(tones) or any(not 0 <= k < K for k in tones):
                    problems.append(f"slot {s}: link {i} claims {tones}")
                    continue
                claimed[i, tones] = True
            if np.any(claimed & (own <= 0.0)):
                problems.append(f"slot {s}: a link claims a tone it has no gain for")
            counts = claimed.sum(axis=0)
            expected = [(int(k), np.flatnonzero(claimed[:, k]).tolist())
                        for k in np.flatnonzero(counts >= 2)]
            got = [(int(k), [int(i) for i in group]) for k, group in st.collisions]
            if got != expected:
                problems.append(f"slot {s}: collisions {got}, claims give {expected}")
            power = st.intended_power
            if not (np.all(np.isfinite(power)) and np.all(power >= 0.0)):
                problems.append(f"slot {s}: negative or non-finite power")
            elif np.any(power.sum(axis=1) > budgets * (1 + REL_TOL)) or np.any((power > 0) != claimed):
                problems.append(f"slot {s}: power does not match claims and budgets")
            intended, realized = st.intended_rate_bps, st.realized_rate_bps
            if not (np.all(np.isfinite(realized)) and np.all(realized >= 0.0)
                    and np.all(realized <= intended * (1 + REL_TOL) + REL_TOL)):
                problems.append(f"slot {s}: realized rates exceed interference-free rates")
            if not st.collisions and s + 1 < len(states) and states[s + 1].claims != claims:
                problems.append(f"slot {s}: claims changed after a slot without collisions")
        return problems

    def quality(self, states):
        return (sum(float(st.realized_rate_bps.sum()) for st in states),
                sum(float(st.intended_rate_bps.sum()) for st in states))

    def digest(self, cfg, states, calls=None):
        views = [hashlib.sha256(np.ascontiguousarray(v.gains).tobytes()
                                + np.ascontiguousarray(v.missing).tobytes()).hexdigest()
                 for v in states[0].views]
        claims = [[[int(k) for k in mine] for mine in st.claims] for st in states]
        collisions = [[[int(k), [int(i) for i in group]] for k, group in st.collisions]
                      for st in states]
        return {"views_sha256": views, "claims": claims, "collisions": collisions}, []


class DenseSlots(Slots):
    """The same protocol at 16 links and 64 tones, where signaling is a large share of a run."""

    name = "dense-slots"
    num_links, num_tones, num_slots = 16, 64, 6
    pool_base, groups = 1, 4
    warmup_groups = 1


WORKLOADS = {w.name: w for w in (Sweep(), Sandwich(), Slots(), DenseSlots())}


def traversal_orders(name, seed):
    """Endless group orders, one permutation of the pool per traversal, from workload and seed."""
    wl = WORKLOADS[name]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    while True:
        yield rng.permutation(wl.groups)
