"""Span tracing for the benchmark's traced run.

The program's source is not edited.  ``Tracer.install`` replaces every public
function bound in the ``smallcell.harness``, ``soa``, ``baselines`` and
``tssolver`` namespaces with a wrapper that records one span per call, and
``Tracer.uninstall`` puts the originals back.  A span is
``[name, start_ns, end_ns, parent_index]`` and is named after the module that
defines the function, so ``harness.iwfa_solve`` is recorded as
``baselines.iwfa_solve``: that module is the layer the time belongs to.

Spans stay in memory until ``write_spans`` dumps them at the end.  Arguments
and results of the calls in ``OBSERVED`` are kept too; the layer counters
(dual iterations, IWFA rounds, signaling pairs, collisions) and the warm-up
checks read them after the calls, so no counting happens inside a span.
"""

import csv
import functools
import gzip
import hashlib
import inspect
import statistics
from time import perf_counter_ns

import numpy as np

NAMESPACES = ("harness", "soa", "baselines", "tssolver")
LAYERS = ("channel", "signaling", "soa", "tssolver", "baselines")

OBSERVED = frozenset({
    "signaling.run_signaling_slot",
    "soa.assign_channels",
    "soa.soa_allocate",
    "tssolver.subgradient_solve",
    "tssolver.recover_primal",
    "baselines.iwfa_solve",
    "baselines.oracle_orthogonal",
    "harness.run_distributed_slots",
})


class Tracer:
    """Wraps the package's public functions while installed (use as a context manager)."""

    def __init__(self, sc):
        self.sc = sc
        self.spans = []      # [name, start_ns, end_ns, parent index or -1]
        self.calls = []      # (span index, name, args, kwargs, result) of OBSERVED names
        self._stack = []
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self):
        for ns in NAMESPACES:
            module = getattr(self.sc, ns)
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith("smallcell.")):
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spans, stack, calls = self.spans, self._stack, self.calls
        observed = name in OBSERVED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if observed:
                calls.append((index, name, args, kwargs, result))
            return result

        return traced


def arg(args, kwargs, position, name):
    """Argument of a recorded call, whether it was passed by position or by name."""
    return args[position] if len(args) > position else kwargs[name]


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, untraced_s, traced_s, traversals):
    """Per-layer metrics of the traced passes, as {name: (value, unit)}.

    Counts and busy times (units ``count`` and ``s``) are per traversal of
    the workload's pool, so they do not depend on how many traversals fit in
    the run; the other metrics are ratios, means and medians.

    A layer call is a span entered directly from a harness span, so the
    layers' busy times plus harness self time add up to the traced wall time
    of the harness calls.  Nested calls inside a layer (for example the
    water-fills inside IWFA) count toward that layer call only.
    """
    spans = tracer.spans
    dur = [end - start for _, start, end, _ in spans]
    layer = [name.split(".", 1)[0] for name, _, _, _ in spans]
    child_ns = [0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += dur[i]

    def root(i):
        while spans[i][3] >= 0:
            i = spans[i][3]
        return i

    busy = dict.fromkeys(LAYERS, 0)
    calls = dict.fromkeys(LAYERS, 0)
    by_name = {}
    layer_call = [False] * len(spans)
    harness_self = root_ns = 0
    for i, (name, _, _, parent) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if layer[i] == "harness":
            harness_self += dur[i] - child_ns[i]
        elif parent >= 0 and layer[parent] == "harness":
            layer_call[i] = True
            busy[layer[i]] += dur[i]
            calls[layer[i]] += 1
        if parent < 0:
            root_ns += dur[i]

    def total_ns(name):
        return sum(dur[i] for i in by_name.get(name, ()))

    pairs = solves = iterations = converged = 0
    iwfa_rounds = iwfa_updates = iwfa_converged = 0
    oracle_assignments = collisions = 0
    settle = []
    seen = set()
    soa_calls = repeats = 0
    for index, name, args, kwargs, result in tracer.calls:
        if name == "signaling.run_signaling_slot":
            real = arg(args, kwargs, 0, "realization")
            pairs += real.num_links * real.num_links * real.num_tones
        elif name.startswith("soa.") and layer_call[index]:
            problem = arg(args, kwargs, 0, "problem")
            key = hashlib.sha1()
            for a in (problem.gains, problem.weights, problem.budgets):
                key.update(np.ascontiguousarray(a).tobytes())
            mode = kwargs.get("power_mode", args[1] if len(args) > 1 else "equal")
            item = (root(index), name, mode, key.digest())
            soa_calls += 1
            repeats += item in seen
            seen.add(item)
        elif name == "tssolver.subgradient_solve":
            solves += 1
            iterations += result.iterations
            converged += bool(result.converged)
        elif name == "baselines.iwfa_solve":
            iwfa_rounds += result.rounds
            iwfa_updates += result.rounds * result.power.shape[0]
            iwfa_converged += bool(result.converged)
        elif name == "baselines.oracle_orthogonal":
            num_links, num_tones = arg(args, kwargs, 0, "problem").gains.shape
            oracle_assignments += (num_links + 1) ** num_tones
        elif name == "harness.run_distributed_slots":
            collisions += sum(len(st.collisions) for st in result)
            settle.append(settle_slot(result))

    iwfa = by_name.get("baselines.iwfa_solve", [])
    iwfa_ns = sum(dur[i] for i in iwfa)
    iwfa_self_ns = sum(dur[i] - child_ns[i] for i in iwfa)
    signaling_slot_ns = total_ns("signaling.run_signaling_slot")
    solve_ns = total_ns("tssolver.subgradient_solve")
    s = 1e-9
    metrics = {
        "channel.calls": (calls["channel"], "count"),
        "channel.busy_s": (busy["channel"] * s, "s"),
        "channel.share": (_ratio(busy["channel"], root_ns), "ratio"),
        "signaling.calls": (calls["signaling"], "count"),
        "signaling.pairs": (pairs, "count"),
        "signaling.busy_s": (busy["signaling"] * s, "s"),
        "signaling.pair_us": (_ratio(signaling_slot_ns / 1e3, pairs), "us"),
        "soa.calls": (calls["soa"], "count"),
        "soa.busy_s": (busy["soa"] * s, "s"),
        "soa.assign_us_p50": (_median([dur[i] / 1e3 for i in range(len(spans))
                                       if layer_call[i] and layer[i] == "soa"]), "us"),
        "soa.repeat_frac": (_ratio(repeats, soa_calls), "ratio"),
        "tssolver.solves": (solves, "count"),
        "tssolver.iterations": (iterations, "count"),
        "tssolver.busy_s": (busy["tssolver"] * s, "s"),
        "tssolver.iter_us": (_ratio(solve_ns / 1e3, iterations), "us"),
        "tssolver.converged_frac": (_ratio(converged, solves), "ratio"),
        "tssolver.recover_us_p50": (_median([dur[i] / 1e3 for i in
                                             by_name.get("tssolver.recover_primal", ())]), "us"),
        "tssolver.water_fill_calls": (len(by_name.get("tssolver.water_fill", [])), "count"),
        "tssolver.water_fill_busy_s": (total_ns("tssolver.water_fill") * s, "s"),
        "baselines.iwfa_calls": (len(iwfa), "count"),
        "baselines.iwfa_busy_s": (iwfa_ns * s, "s"),
        "baselines.iwfa_rounds": (iwfa_rounds, "count"),
        "baselines.iwfa_update_us": (_ratio(iwfa_ns / 1e3, iwfa_updates), "us"),
        "baselines.iwfa_self_s": (iwfa_self_ns * s, "s"),
        "baselines.iwfa_converged_frac": (_ratio(iwfa_converged, len(iwfa)), "ratio"),
        "baselines.oracle_calls": (len(by_name.get("baselines.oracle_orthogonal", [])), "count"),
        "baselines.oracle_busy_s": (total_ns("baselines.oracle_orthogonal") * s, "s"),
        "baselines.oracle_assignments": (oracle_assignments, "count"),
        "baselines.evaluate_calls": (len(by_name.get("baselines.evaluate_concurrent", [])), "count"),
        "baselines.evaluate_busy_s": (total_ns("baselines.evaluate_concurrent") * s, "s"),
        "harness.self_s": (harness_self * s, "s"),
        "harness.csv_s": (total_ns("harness.write_records_csv") * s, "s"),
        "harness.collisions": (collisions, "count"),
        "harness.settle_slot_mean": (_ratio(sum(settle), len(settle)), "slot"),
        "trace.overhead_frac": (_ratio(traced_s - untraced_s, untraced_s), "ratio"),
    }
    return {name: (value / traversals if unit in ("count", "s") else value, unit)
            for name, (value, unit) in metrics.items()}


def settle_slot(states):
    """First slot from which every later slot repeats its claims."""
    last = states[-1].claims
    slot = len(states) - 1
    while slot > 0 and states[slot - 1].claims == last:
        slot -= 1
    return slot


def write_spans(spans, path):
    """Dump spans as gzipped CSV: index, parent, name, start_ns, end_ns."""
    with gzip.open(path, "wt", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("index", "parent", "name", "start_ns", "end_ns"))
        for index, (name, start, end, parent) in enumerate(spans):
            writer.writerow((index, parent, name, start, end))
