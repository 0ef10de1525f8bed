"""indoor-fusion pipeline benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload run-transfer --seed 42 \
        --seconds 50 --trace 0

Each workload is a closed loop of one client: ops run one at a time, each in
child processes of the indoor-fusion CLI.  One untimed warm-up op runs
first; then ops run until the next one would end past ``--seconds``.
Every op's outputs, the warm-up's too, pass a correctness gate or the op
counts as failed.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced ops and
reports the per-layer metrics of the traced ones, plus the tracing overhead.
See perfbench/BASELINE.md for what each metric measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

from layers import PER_LAYER, layer_metrics
from workloads import GUARD_RTOL, OP_TIMEOUT_S, WORKLOADS, Context, DURATION_S

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# no op starts past this, so that even an op that runs into its timeout
# ends the run inside 180 s
RUN_BUDGET_S = 170.0 - OP_TIMEOUT_S
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "INDOOR_FUSION_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "records_per_s": "records/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
}


def environment() -> dict:
    """Machine and environment facts, recorded next to every result."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        # as found; the benchmark never sets them
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile_note(n: int) -> str:
    """Which percentile above the median n samples support (ten beyond it)."""
    if n < 20:
        return f"median of {n} ops; no percentile above it has 10 ops beyond it"
    best = max(p for p in (50, 90, 95, 99) if n * (100 - p) / 100 >= 10)
    return f"{n} ops support up to p{best}"


def report_op(op, kind: str) -> None:
    print(f"op {op.op_id} {kind} wall={op.wall:.3f}s cpu={op.cpu:.3f}s "
          f"rss={op.rss_mib:.1f}MiB "
          + ("FAILED: " + "; ".join(op.problems) if op.failed else "ok"), flush=True)


def end_to_end(setups: list[float], ops) -> dict[str, float]:
    good = [op for op in ops if not op.failed] or ops
    return {
        "setup_s": median(setups),
        "wall_s": median([op.wall for op in good]),
        "records_per_s": median([op.records / op.wall for op in good]),
        "cpu_s": median([op.cpu for op in good]),
        "peak_rss_mib": median([op.rss_mib for op in good]),
    }


def per_layer(ops) -> dict[str, float]:
    traced = [layer_metrics(op.spans) for op in ops if op.traced and op.spans is not None]
    values = {name: median([m[name] for m in traced])
              for name in PER_LAYER if name != "trace.overhead_s"}
    untraced = [op.wall for op in ops if not op.traced and not op.failed]
    traced_walls = [op.wall for op in ops if op.traced and not op.failed]
    values["trace.overhead_s"] = (median(traced_walls) - median(untraced)
                                  if untraced and traced_walls else 0.0)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--duration", type=float, default=DURATION_S,
                        help="campaign length in seconds (tests shrink it)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "indoor_fusion" / "cli.py").is_file():
        print(f"error: no indoor_fusion package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(args, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path, started: float) -> int:
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    ctx = Context(ROOT, work, args.seed, args.duration)
    workload = WORKLOADS[args.workload](ctx)
    try:
        setups = [workload.setup(rep) for rep in range(SETUP_REPEATS)]
    except RuntimeError as exc:
        print(f"error: setup failed: {exc}", file=sys.stderr)
        return 1
    print(f"setup_s runs {[round(s, 4) for s in setups]}", flush=True)

    # The first op of a run was up to 45% slower than the rest, with the
    # CLI's imports and inputs not yet warm.  It is gated and counted like
    # any other op, but not timed.
    warmup = workload.op(0, traced=False)
    report_op(warmup, "warm-up")
    ops = []
    window_start = time.perf_counter()
    min_ops = 2 if args.trace else 1
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        op = workload.op(len(ops) + 1, traced)
        ops.append(op)
        report_op(op, "traced" if traced else "untraced")
        now = time.perf_counter()
        next_traced = bool(args.trace) and len(ops) % 2 == 1
        typical = median([o.wall for o in ops if o.traced == next_traced] or [op.wall])
        if len(ops) >= min_ops and (now + typical - window_start > args.seconds
                                    or now + typical - started > RUN_BUDGET_S):
            break

    attempted = [warmup, *ops]
    failed = sum(op.failed for op in attempted)
    guards = next((op.guards for op in attempted if op.guards), {})
    if guards:
        source = ("recorded baseline" if workload.baseline is not None
                  else "no recorded baseline for this seed: checked against the first op")
        print(f"guards {json.dumps(guards, sort_keys=True)} (m; {source}; "
              f"rtol {GUARD_RTOL:g})")
    print(f"failed_ops_frac {failed / len(attempted):.4f} fraction "
          f"({failed} of {len(attempted)})")
    walls = [op.wall for op in ops if not op.failed and not op.traced]
    if walls:
        print(f"wall_s {percentile_note(len(walls))}; max {max(walls):.4f} s")

    if args.trace:
        values, units = per_layer(ops), PER_LAYER
    else:
        values, units = end_to_end(setups, ops), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")

    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "duration_s": args.duration, "env": env,
              "setup_s": setups, "guards": guards, "metrics": metrics,
              "ops": [{"op": op.op_id, "traced": op.traced, "wall_s": op.wall,
                       "cpu_s": op.cpu, "rss_mib": op.rss_mib, "records": op.records,
                       "problems": op.problems} for op in attempted]}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(json.dumps({"correct": failed == 0, "attempted": len(attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
