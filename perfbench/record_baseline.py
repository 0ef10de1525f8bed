"""Record the outputs the correctness gate compares every op against.

Usage (from the repository root)::

    python3 perfbench/record_baseline.py --seeds 0-99

Runs one op of every workload per seed at the benchmark's campaign length
and writes the counts and accuracy guards to perfbench/baseline.json.  Run it
again only when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from spread import parse_seeds
from workloads import BASELINE_PATH, DURATION_S, FUSION_EPOCHS, WORKLOADS, Context

ROOT = Path(__file__).resolve().parent.parent


def record_seed(seed: int, work: Path) -> dict:
    outputs = {}
    for name, cls in WORKLOADS.items():
        ctx = Context(ROOT, work / f"{name}-seed{seed}", seed, DURATION_S)
        workload = cls(ctx)
        workload.reference = None  # record afresh, whatever is on file
        try:
            workload.setup(0)
            op = workload.op(0, traced=False)
        finally:
            shutil.rmtree(ctx.work, ignore_errors=True)
        if op.failed:
            raise RuntimeError(f"{name} seed {seed}: {op.problems}")
        outputs[name] = workload.reference
    return outputs


def dump(doc: dict) -> str:
    """JSON with one line per seed, so a re-recording diffs by seed."""
    seeds = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(outputs, sort_keys=True)}"
                        for seed, outputs in doc["seeds"].items())
    head = json.dumps({k: v for k, v in doc.items() if k != "seeds"}, sort_keys=True)
    return head[:-1] + ', "seeds": {\n' + seeds + "\n}}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-99")
    args = parser.parse_args(argv)
    doc = {"duration_s": DURATION_S, "fusion_epochs": FUSION_EPOCHS, "seeds": {}}
    work = ROOT / ".perfbench" / "record-baseline"
    for seed in parse_seeds(args.seeds):
        doc["seeds"][str(seed)] = record_seed(seed, work)
        print(f"seed {seed} recorded", flush=True)
        BASELINE_PATH.write_text(dump(doc), encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
