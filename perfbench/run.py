"""aqldb benchmark: end-to-end metrics, a traced per-layer split, a size sweep.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload point-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload contended-small --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 5
    python3 perfbench/run.py --sweep --seed 1

With --trace 0 the workload is set up several times (the median set-up
time is reported), then runs whole steps for --seconds seconds, and its
outputs are checked. With --trace 1 a fixed amount of work runs untraced,
traced and untraced again from one seed; every run must pass the
correctness gate and end in the same state, and the per-layer metrics come
from the traced one. The last line of standard output is one JSON object.
Any wrong output ends the run with exit code 1 and no JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set up at least this many times, and until this much time has gone by.
SETUP_REPEATS = 5
SETUP_BUDGET_S = 3.0
SWEEP_ROWS = (100, 1_000, 10_000)
# Work done by one traced run, fixed so that its counts repeat exactly.
TRACE_STEPS = {"point-large": 1, "contended-small": 6, "checker": 3}
SPANS_DIR = ".perfbench_out"
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "commit_tps": "1/s",
    "peak_rss_mb": "MB",
}


def load_library() -> None:
    """Put the checkout's src/ first on the import path, or stop."""
    src = ROOT / "src"
    if not (src / "aqldb" / "__init__.py").is_file():
        sys.exit(f"perfbench: no aqldb sources at {src}; run from a repository checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    here = str(Path(__file__).resolve().parent)
    if here not in sys.path:
        sys.path.insert(0, here)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(cls, seed: int, seconds: float) -> dict:
    """Untraced run: median set-up time, then whole steps until the time is
    up. Times are read from a clock that runs at reference speed (see
    calib.py and README, Noise)."""
    from calib import KERNEL_REF_S, RefClock
    from workloads import p95

    setups = []
    workload = None
    while len(setups) < SETUP_REPEATS or (sum(setups) < SETUP_BUDGET_S and len(setups) < 50):
        workload = None
        gc.collect()
        workload = cls(seed, ROOT)
        clock = workload.clock = RefClock()
        clock.calibrate(runs=5)
        t0 = clock()
        workload.setup()
        setups.append(clock() - t0)
    # Read before the loop: the cluster's commit log grows with the number
    # of transactions a run gets through, and a faster program should not
    # read as a bigger one.
    rss = peak_rss_mb()
    t = workload.tally
    commits, samples, kernel_s = t.commits, len(clock.samples), clock.kernel_s
    wall0 = time.perf_counter()
    deadline = wall0 + seconds
    t0 = clock()
    steps = 0
    while time.perf_counter() < deadline:
        workload.step()
        steps += 1
    ref_s = clock() - t0
    elapsed = time.perf_counter() - wall0
    workload.gate()
    commits = t.commits - commits
    kernel = statistics.median(clock.samples[samples:])
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(t.op_ms),
        "op_p95_ms": p95(t.op_ms),
        "commit_tps": commits / ref_s,
        "peak_rss_mb": rss,
    }
    info = {
        "steps": (steps, "count"),
        "ops": (len(t.op_ms), "count"),
        "measured_s": (elapsed, "s"),
        "wall_commit_tps": (commits / elapsed, "1/s"),
        "machine_speed": (KERNEL_REF_S / kernel, "ratio"),
        "kernel_share": ((clock.kernel_s - kernel_s) / elapsed, "ratio"),
        "end_peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info.update(workload.info())
    for kind, n in sorted(t.abort_kinds.items()):
        info[f"aborts.{kind}"] = (n, "count")
    return {
        "attempted": workload.attempted,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "info": info,
    }


def fixed_run(workload, steps: int, tracer=None) -> float:
    """Set up once, run a fixed number of steps, check the outputs; the
    wall time of all three."""
    workload.tracer = tracer
    t0 = time.perf_counter()
    workload.setup()
    for _ in range(steps):
        workload.step()
    workload.gate()
    return time.perf_counter() - t0


def traced(make, steps: int, spans_path: Path | None = None) -> dict:
    """Run the same fixed work untraced, traced, and untraced again; all
    three must pass the gate and end in the same state. make() builds a
    fresh workload. The overhead is taken against the mean of the two
    untraced runs, so warm-up and drift do not land on one side only."""
    from layers import install, layer_metrics
    from tracer import Tracer
    from workloads import BenchFailure

    def plain_run():
        workload = make()
        seconds = fixed_run(workload, steps)
        return workload.fingerprint(), seconds

    expected, before_s = plain_run()
    gc.collect()
    tracer = Tracer()
    install(tracer)
    try:
        workload = make()
        traced_s = fixed_run(workload, steps, tracer)
    finally:
        tracer.uninstall()
    after, after_s = plain_run()
    if workload.fingerprint() != expected or after != expected:
        raise BenchFailure("the traced and untraced runs of one seed ended in different states")
    plain_s = (before_s + after_s) / 2
    info = {
        "untraced_s": (plain_s, "s"),
        "traced_s": (traced_s, "s"),
        "spans": (len(tracer.start), "count"),
    }
    if spans_path is not None:
        tracer.write(spans_path)
    return {
        "attempted": workload.attempted,
        "metrics": layer_metrics(tracer, traced_s, plain_s),
        "info": info,
    }


def sweep(seed: int) -> dict:
    """One point-large deck at several table sizes: per-operation p50 (ms)."""
    from workloads import PointLarge

    table = {}
    for rows in SWEEP_ROWS:
        workload = PointLarge(seed, ROOT, rows=rows)
        t0 = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - t0
        workload.step()
        workload.gate()
        t = workload.tally
        row = {"setup_s": round(setup_s, 4), "txn_p50_ms": round(statistics.median(t.op_ms), 4)}
        for kind in ("begin", "select", "update", "insert", "delete", "commit"):
            if t.kind_ms.get(kind):
                row[f"{kind}_p50_ms"] = round(statistics.median(t.kind_ms[kind]), 4)
        table[rows] = row
        print(f"rows={rows:>6} " + " ".join(f"{k}={v}" for k, v in row.items()), flush=True)
    return table


def emit(result: dict) -> None:
    for name, (value, unit) in result["info"].items():
        print(f"info   {name:<24} {value:>14.6g} {unit}")
    for name, m in result["metrics"].items():
        print(f"metric {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": 0,
        "metrics": result["metrics"],
    }), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true", help="informational table-size sweep")
    args = parser.parse_args(argv)

    load_library()
    from workloads import WORKLOADS, BenchFailure

    if args.sweep:
        print(json.dumps({"sweep_p50_ms": sweep(args.seed)}))
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]}; choose from {', '.join(WORKLOADS)} or all")
    for name in names:
        print(f"== {name} seed={args.seed} trace={args.trace}", flush=True)
        try:
            if args.trace:
                spans = ROOT / SPANS_DIR / f"spans-{name}-seed{args.seed}.csv.gz"
                cls = WORKLOADS[name]
                result = traced(lambda: cls(args.seed, ROOT), TRACE_STEPS[name], spans)
                print(f"spans written to {spans.relative_to(ROOT)}")
            else:
                result = measure(WORKLOADS[name], args.seed, args.seconds)
        except BenchFailure as err:
            print(f"perfbench: {name}: incorrect output: {err}", file=sys.stderr)
            return 1
        emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
