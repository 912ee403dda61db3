"""smallcell benchmark.

    python3 bench/run.py --workload {sweep,sandwich,slots,dense-slots} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  One process and one thread generate all load.

Set-up imports the package fresh, builds the workload's pool of inputs and
warms up on the pool's first groups, traced so that assignments and
allocation invariants can be checked too.  With ``--trace 0`` it runs
``SETUP_REPS`` times, once before measuring and then after each of the first
traversals, so the repetitions sample the machine at different moments.
Each is scaled to the reference speed (below) by kernel runs just before
and after it, and the median is ``setup_s``.

``--trace 0`` then traverses the pool, each time in a new order drawn from
the seed, until ``--seconds`` of measured time have passed, with tracing off.
Every operation is timed on every traversal.  Before each one the fixed
kernel of ``calibration.py`` runs, about once per 25 ms of measured calls,
and each operation's time is scaled to the reference speed by the median
time of the four kernel runs just before it and the four just after.  The metrics are taken over the
whole run from each timed call's median scaled time: throughput is the
pool's units over the sum of those medians, and the percentiles are across
the pool's operations.  On a shared host the same code runs up to 1.7
times slower for tens of seconds at a time; the scaling takes that out, and
the wall-clock values are printed beside the scaled ones and kept in the
result record.

``--trace 1`` traverses the pool for ``--seconds``, running each group
untraced and then traced, and prints the per-layer metrics per traversal;
the fixed pool makes their counts repeat exactly.

Either way the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and a
full result record are written under ``bench/out/``.

``--write-reference`` recomputes ``reference.json`` from the pools.  Do that
only when a change to the program is meant to change those outputs.
"""

import os

# pinned before numpy is imported, so every BLAS/OpenMP pool has one thread
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import platform
import resource
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import calibration
import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"
MODULES = ("channel", "signaling", "tssolver", "soa", "baselines", "harness")
SETUP_REPS = 9
CALIBRATE_EVERY_S = 0.025   # about one kernel run per 25 ms of measured calls
NEAR_RUNS = 4               # kernel runs on each side of a sample set its speed
SETUP_KERNEL_RUNS = 10      # kernel runs before and after each set-up set its speed


def import_package():
    """Import smallcell from this checkout's src/, fresh, and return its modules."""
    for name in [m for m in sys.modules if m == "smallcell" or m.startswith("smallcell.")]:
        del sys.modules[name]
    pkg = importlib.import_module("smallcell")
    if Path(pkg.__file__).resolve().parent != (SRC / "smallcell").resolve():
        raise ImportError(f"smallcell imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"smallcell.{m}") for m in MODULES})


def environment():
    """What a result depends on besides the code: commit, versions, CPU, thread pins."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in _THREAD_VARS},
    }


def git_commit():
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Tally:
    """Operations attempted and failed; a failure prints its reason to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {label}: " + "; ".join(problems[:5]), file=sys.stderr)


def first_difference(got, want, path="$"):
    if type(got) is not type(want):
        return f"{path}: {got!r} != {want!r}"
    if isinstance(got, dict):
        for key in sorted(set(got) | set(want)):
            if key not in got or key not in want:
                return f"{path}.{key} missing on one side"
            if got[key] != want[key]:
                return first_difference(got[key], want[key], f"{path}.{key}")
    if isinstance(got, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        for i, (a, b) in enumerate(zip(got, want)):
            if a != b:
                return first_difference(a, b, f"{path}[{i}]")
    return f"{path}: {got!r} != {want!r}"


def reference_problems(digest, reference, index):
    """Compare an operation's digest with the fields the reference holds for it."""
    want = reference[index] if index < len(reference) else None
    if want is None:
        return [f"no reference for operation {index}"]
    want = {key: want[key] for key in digest if key in want}
    got = json.loads(json.dumps(digest))
    return [] if got == want else ["differs from reference: " + first_difference(got, want)]


class Measurement:
    def __init__(self, calibrate=False):
        self.calibrate = calibrate
        self.samples = []      # (op index, or -1 - g for group g's summary, start, wall seconds)
        self.kernel = []       # (start, wall seconds) of each calibration kernel run
        self.elapsed = 0.0     # wall seconds in samples
        self.units = {}        # op index -> trials or protocol slots it completes
        self.quality = {}      # op index -> (numerator, denominator)
        self._last_s = 0.0

    def time_kernel(self):
        """Before each timed call: calibration runs, about one per CALIBRATE_EVERY_S of calls."""
        if self.calibrate:
            self.kernel += calibration.timed_runs(1 + int(self._last_s / CALIBRATE_EVERY_S))

    def add(self, index, t0, dt):
        self.samples.append((index, t0, dt))
        self.elapsed += dt
        self._last_s = dt

    def reference_seconds(self):
        """Each sample's time at the reference speed, with the speed it ran at.

        A sample's speed is REFERENCE_S over the median of the NEAR_RUNS
        kernel runs just before it and the NEAR_RUNS just after it: the host's
        load changes within a second, so only the nearest kernel runs say how
        fast this sample ran.
        """
        starts = np.array([t for t, _ in self.kernel])
        kernel_s = np.array([dt for _, dt in self.kernel])
        out = []
        for index, t0, dt in self.samples:
            before = np.searchsorted(starts, t0)
            after = np.searchsorted(starts, t0 + dt)
            near = np.concatenate([kernel_s[max(0, before - NEAR_RUNS):before],
                                   kernel_s[after:after + NEAR_RUNS]])
            speed = calibration.REFERENCE_S / float(np.median(near))
            out.append((index, dt * speed, speed))
        return out


def run_group(sc, wl, g, group, m, tally, reference, tracer=None):
    """Run one group of operations, timing each, then check the outputs.

    With a tracer the whole group runs traced and the captured calls are
    checked as well; without one nothing but the clock surrounds the calls.
    """
    if tracer:
        tracer.install()
    try:
        _run_group(sc, wl, g, group, m, tally, reference, tracer)
    finally:
        if tracer:
            tracer.uninstall()


def _run_group(sc, wl, g, group, m, tally, reference, tracer):
    outs = []
    for index, cfg in group:
        first = len(tracer.calls) if tracer else 0
        m.time_kernel()
        t0 = time.perf_counter()
        try:
            out = wl.run(sc, cfg)
        except Exception as exc:  # an operation that raises counts as failed
            m.add(index, t0, time.perf_counter() - t0)
            traceback.print_exc()
            tally.record(f"{wl.name} op {index}", [f"raised {exc!r}"])
            continue
        m.add(index, t0, time.perf_counter() - t0)
        m.units[index] = wl.units(out)
        problems = wl.check(cfg, out)
        digest, more = wl.digest(cfg, out, tracer.calls[first:] if tracer else None)
        problems += more + reference_problems(digest, reference, index)
        tally.record(f"{wl.name} op {index} (seed {cfg.rng_seed}, {cfg.num_links} links)", problems)
        m.quality[index] = wl.quality(out)
        outs.append(out)
    if wl.finish and outs:
        m.time_kernel()
        t0 = time.perf_counter()
        try:
            finished = wl.finish(sc, outs, OUT)
        except Exception as exc:  # an operation that raises counts as failed
            traceback.print_exc()
            tally.record(f"{wl.name} group {g} summary", [f"raised {exc!r}"])
        else:
            m.add(-1 - g, t0, time.perf_counter() - t0)
            tally.record(f"{wl.name} group {g} summary", wl.check_finish(outs, finished))


def set_up(wl, reference, tally):
    """Import the package fresh, build the pool and warm up on its first groups, traced.

    Returns the modules, the pool and the seconds it took.
    """
    t0 = time.perf_counter()
    sc = import_package()
    pool = wl.pool(sc)
    m = Measurement()
    for g in range(wl.warmup_groups):
        run_group(sc, wl, g, pool[g], m, tally, reference, tracing.Tracer(sc))
    return sc, pool, time.perf_counter() - t0


def kernel_speed():
    """REFERENCE_S over the median of SETUP_KERNEL_RUNS kernel runs: the machine's speed now."""
    times = [dt for _, dt in calibration.timed_runs(SETUP_KERNEL_RUNS)]
    return calibration.REFERENCE_S / float(np.median(times))


def measure(wl, orders, tally, reference, seconds):
    """Traverse the pool, tracing off, until `seconds` of measured time have passed.

    Set-up repeats after each traversal until it has run SETUP_REPS times,
    each scaled to the reference speed by kernel runs just before and after.
    Returns the measurement and the set-up times, scaled and as measured.
    """
    kernel_speed()  # warm the kernel before its first timed run
    setup, setup_wall = [], []
    m = Measurement(calibrate=True)
    while True:
        before = kernel_speed()
        sc, pool, setup_s = set_up(wl, reference, tally)
        setup.append(setup_s * (before + kernel_speed()) / 2)
        setup_wall.append(setup_s)
        gc.collect()
        if len(setup) >= SETUP_REPS:
            break
        for g in next(orders):
            run_group(sc, wl, g, pool[g], m, tally, reference)
    while m.elapsed < seconds:
        for g in next(orders):
            run_group(sc, wl, g, pool[g], m, tally, reference)
    return m, setup, setup_wall


def measure_traced(wl, orders, tally, reference, seconds):
    """Traverse the pool, each group untraced and then traced, until `seconds` have passed.

    Pairing the two passes group by group exposes both to the same inputs and
    the same background load, so their ratio is the tracing overhead.
    Returns both measurements, the tracer and the number of traversals.
    """
    sc, pool, _ = set_up(wl, reference, tally)
    untraced, traced, tr = Measurement(), Measurement(), tracing.Tracer(sc)
    traversals = 0
    gc.collect()
    while untraced.elapsed + traced.elapsed < seconds:
        for g in next(orders):
            run_group(sc, wl, g, pool[g], untraced, tally, reference)
            run_group(sc, wl, g, pool[g], traced, tally, reference, tr)
        traversals += 1
    return untraced, traced, tr, traversals


def timings(samples, units):
    """Throughput and the p50 and p90 in ms, from each timed call's median time in the run.

    `samples` are (key, seconds): an op index, or -1 - g for group g's
    summary.  A call's median over its repetitions is robust to a burst of
    load, where a mean or a pooled percentile lets the run's few slowest
    samples move it.  Throughput is the pool's units over the sum of its
    calls' medians; the percentiles are across the pool's operations.
    """
    per_call = defaultdict(list)
    for key, seconds in samples:
        per_call[key].append(seconds)
    median = {key: float(np.median(times)) for key, times in per_call.items()}
    op_ms = [1e3 * s for key, s in median.items() if key >= 0] or [0.0]  # every op raised
    throughput = sum(units.get(key, 0) for key in median) / sum(median.values())
    return throughput, float(np.percentile(op_ms, 50)), float(np.percentile(op_ms, 90))


def end_to_end(m, setup):
    """End-to-end metrics at the reference speed, over the whole run."""
    samples = m.reference_seconds()
    throughput, p50, p90 = timings(((key, ref_s) for key, ref_s, _ in samples), m.units)
    num = sum(q[0] for q in m.quality.values())
    den = sum(q[1] for q in m.quality.values())
    return {
        "setup_s": (float(np.median(setup)), "s"),
        "throughput_per_s": (throughput, "1/s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_p90": (p90, "ms"),
        "quality_ratio": (num / den if den else 0.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def wall_clock(m):
    """The same timings as measured, before scaling, and the speed the run ran at."""
    speed = [speed for _, _, speed in m.reference_seconds()]
    throughput, p50, p90 = timings(((key, dt) for key, _, dt in m.samples), m.units)
    return {
        "throughput_per_s": throughput,
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "speed_p10": float(np.percentile(speed, 10)),
        "speed_p50": float(np.median(speed)),
        "speed_p90": float(np.percentile(speed, 90)),
        "kernel_runs": len(m.kernel),
        "kernel_s": sum(dt for _, dt in m.kernel),
    }


def human_lines(wl, metrics, m, wall, tally):
    """The same numbers under the workload's own names, with sample counts and wall-clock values."""
    alias = {
        "throughput_per_s": f"{wl.unit_label}_per_s",
        "op_ms_p50": f"{wl.op_label}_ms_p50",
        "op_ms_p90": f"{wl.op_label}_ms_p90",
        "quality_ratio": wl.quality_label,
    }
    ops = sum(1 for index, _, _ in m.samples if index >= 0)
    pool = len({index for index, _, _ in m.samples if index >= 0})
    lines = []
    for name, (value, unit) in metrics.items():
        label = alias.get(name, name)
        note = f"  [{name}]" if label != name else ""
        if name == "throughput_per_s":
            note += (f"  {sum(m.units.values())} {wl.unit_label} per traversal,"
                     f" {m.elapsed:.2f} s measured;"
                     f" wall clock {wall[name]:.6g}")
        elif name.startswith("op_ms"):
            note += (f"  across {pool} {wl.op_label}s' medians, {ops} timed;"
                     f" wall clock {wall[name]:.6g}")
        elif name == "setup_s":
            note += f"  median of {SETUP_REPS}; wall clock {wall[name]:.6g}"
        lines.append(f"# {label:<28} {value:>14.6g} {unit}{note}")
    lines.append(f"# {'speed vs reference':<28} {wall['speed_p50']:>14.6g} x    "
                 f"p10 {wall['speed_p10']:.3g}, p90 {wall['speed_p90']:.3g};"
                 f" {wall['kernel_runs']} kernel runs, {wall['kernel_s']:.2f} s")
    frac = tally.failed / tally.attempted if tally.attempted else 0.0
    lines.append(f"# {'failed_frac':<28} {frac:>14.6g} ratio  {tally.failed}/{tally.attempted} operations")
    return lines


def write_reference():
    sc = import_package()
    reference = {}
    for name, wl in workloads.WORKLOADS.items():
        digests = []
        for group in wl.pool(sc):
            for index, cfg in group:
                with tracing.Tracer(sc) as tr:
                    out = wl.run(sc, cfg)
                problems = wl.check(cfg, out)
                digest, more = wl.digest(cfg, out, tr.calls)
                if problems + more:
                    print(f"{name} op {index}: {(problems + more)[:5]}", file=sys.stderr)
                    return 1
                digests.append(digest)
        reference[name] = digests
    # one operation per line keeps the file small and its diffs readable
    blocks = [f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(d, separators=(",", ":")) for d in digests)
              + "\n]" for name, digests in reference.items()]
    REFERENCE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {REFERENCE}")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "smallcell" / "__init__.py").is_file():
        print(f"no smallcell package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.write_reference:
        return write_reference()

    wl = workloads.WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())[wl.name]
    tally = Tally()
    orders = workloads.traversal_orders(wl.name, args.seed)
    env = environment()
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}
    if args.trace == 0:
        m, setup, setup_wall = measure(wl, orders, tally, reference, args.seconds)
        metrics = end_to_end(m, setup)
        wall = wall_clock(m)
        wall["setup_s"] = float(np.median(setup_wall))
        lines = human_lines(wl, metrics, m, wall, tally)
        record.update(setup_runs_s=setup, setup_runs_wall_s=setup_wall, elapsed_s=m.elapsed,
                      wall_clock=wall)
    else:
        untraced, traced, tr, traversals = measure_traced(wl, orders, tally, reference, args.seconds)
        metrics = tracing.layer_metrics(tr, untraced.elapsed, traced.elapsed, traversals)
        spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.csv.gz"
        tracing.write_spans(tr.spans, spans_path)
        lines = [f"# {name:<30} {value:>14.6g} {unit}" for name, (value, unit) in metrics.items()]
        lines.append(f"# counts and busy times are per traversal of the pool; {traversals} traversals,"
                     f" {len(tr.spans)} spans written to {spans_path.relative_to(ROOT)}")
        record.update(traversals=traversals, untraced_s=untraced.elapsed, traced_s=traced.elapsed)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(f"# workload {wl.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("# env " + json.dumps(env))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
