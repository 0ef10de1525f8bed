"""The benchmark's workloads: how each builds its inputs, runs one op and
checks that op's outputs.

Every op runs the indoor-fusion CLI in child processes, so the op's wall
time, CPU time and ``ru_maxrss`` belong to that op alone.  The children get
the benchmark's own environment unchanged, apart from ``PYTHONPATH``
pointing at the checkout's ``src``; thread settings are never set.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE_PATH = HERE / "baseline.json"

# Campaign length (s) of every workload.  At 30 s one campaign is about
# 9 000 records and 224 frames; an ingest-roundtrip op takes about 2.6 s and
# a run-transfer op about 3.6 s on 2 cores, so a 50 s run times 12-21 ops.
DURATION_S = 30.0
# run-transfer trains a fixed 10 epochs: below the early-stopping patience
# of 10, so every seed trains the same number of epochs.  With the default
# of 60, the epochs run differ by seed (119 to 165 over seeds 1-5), and the
# op time with them.
FUSION_EPOCHS = 10
# Accuracy guards must match the recorded baseline to this relative
# tolerance: a last-ulp change passes, a changed result does not.
GUARD_RTOL = 1e-3
# Criterion 5: fitted clock offsets within 1 ms of the injected ones.
CLOCK_TOL_S = 1e-3
# The room is 8 m x 6 m; a p50 beyond its diagonal is not a localization.
ROOM_DIAGONAL_M = 10.0
OP_TIMEOUT_S = 60.0

_SIM_LINE = re.compile(r"wrote (\d+) records to dataset1\.jsonl, (\d+) to dataset2\.jsonl")


# ---------------------------------------------------------------------------
# Child processes

@dataclass
class Proc:
    """One finished child process."""

    code: int
    wall: float
    cpu: float
    rss_mib: float
    stdout: str
    stderr: str


@dataclass
class Context:
    """What every setup and op of one benchmark run shares."""

    root: Path
    work: Path
    seed: int
    duration: float = DURATION_S
    env: dict = field(default_factory=dict)

    def __post_init__(self):
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.env = env

    def run(self, argv: list[str], log: Path) -> Proc:
        """Run a child to completion; its stdout/stderr go to ``log``.*."""
        out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.root)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0,
                    out_path.read_text(encoding="utf-8", errors="replace"),
                    err_path.read_text(encoding="utf-8", errors="replace"))

    def cli(self, args: list[str], log: Path, spans: Path | None = None,
            op_id: int = 0) -> Proc:
        """Run ``indoor-fusion args``; traced when ``spans`` is given."""
        if spans is None:
            argv = [sys.executable, "-m", "indoor_fusion.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), str(op_id),
                    "--", *args]
        return self.run(argv, log)

    def simulate(self, out: Path, log: Path, spans: Path | None = None,
                 op_id: int = 0) -> tuple[Proc, tuple[int, int] | None]:
        proc = self.cli(["simulate", "--seed", str(self.seed), "--duration",
                         f"{self.duration:g}", "--out", str(out)], log, spans, op_id)
        found = _SIM_LINE.search(proc.stdout)
        return proc, (int(found[1]), int(found[2])) if found else None


@dataclass
class OpResult:
    """One op: its cost, its outputs' checks and, when traced, its spans."""

    op_id: int
    traced: bool
    wall: float
    cpu: float
    rss_mib: float
    records: int
    problems: list[str]
    spans: list[dict] | None = None
    guards: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _merge(procs: list[Proc]) -> tuple[float, float, float]:
    return (sum(p.wall for p in procs), sum(p.cpu for p in procs),
            max(p.rss_mib for p in procs))


def _load_spans(paths: list[Path]) -> list[dict]:
    """Concatenate the span logs of one op's processes, renumbering ids."""
    merged, offset = [], 0
    for path in paths:
        spans = json.loads(path.read_text(encoding="utf-8"))
        for s in spans:
            s["id"] += offset
            if s["parent"] is not None:
                s["parent"] += offset
        offset = max([offset, *(s["id"] for s in spans)])
        merged.extend(spans)
    return merged


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def _load_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_baseline(seed: int, duration: float, workload: str) -> dict | None:
    """This commit's recorded outputs for (seed, workload), if recorded."""
    if not BASELINE_PATH.is_file():
        return None
    doc = _load_json(BASELINE_PATH)
    if doc.get("duration_s") != duration or doc.get("fusion_epochs") != FUSION_EPOCHS:
        return None
    return doc.get("seeds", {}).get(str(seed), {}).get(workload)


def compare(name: str, got, want, rtol: float = 0.0) -> list[str]:
    """Problems found comparing a value (or a dict of them) to a reference."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{name}: keys {sorted(got) if isinstance(got, dict) else got} "
                    f"!= {sorted(want)}"]
        return [p for key in sorted(want)
                for p in compare(f"{name}.{key}", got[key], want[key], rtol)]
    if rtol and isinstance(want, float):
        if not (isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=rtol)):
            return [f"{name}: {got!r} differs from {want!r} by more than {rtol:g}"]
        return []
    return [] if got == want else [f"{name}: {got!r} != {want!r}"]


# ---------------------------------------------------------------------------
# Workloads

class Workload:
    """A closed loop of one client: one op at a time, each in child processes."""

    name = ""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.baseline = load_baseline(ctx.seed, ctx.duration, self.name)
        # what every op must reproduce: the baseline, else the first good op
        self.reference: dict | None = self.baseline

    def setup(self, rep: int) -> float:
        """Build the inputs once; returns the wall time it took."""
        raise NotImplementedError

    def op(self, op_id: int, traced: bool) -> OpResult:
        raise NotImplementedError

    def check_reproduces(self, outputs: dict, problems: list[str],
                         guards: dict[str, float] | None = None) -> None:
        """Compare counts exactly and guards within GUARD_RTOL to the reference."""
        if guards is not None:
            outputs = {**outputs, "guards": guards}
        if self.reference is None:
            if not problems:
                self.reference = outputs
            return
        problems.extend(compare("counts", outputs.get("counts"),
                                self.reference.get("counts")))
        if guards is not None:
            problems.extend(compare("guards", guards, self.reference.get("guards"),
                                    GUARD_RTOL))


class IngestRoundtrip(Workload):
    name = "ingest-roundtrip"

    def setup(self, rep: int) -> float:
        # nothing to build: the op simulates its own campaigns
        self.ctx.work.mkdir(parents=True, exist_ok=True)
        proc = self.ctx.run([sys.executable, "-c", "import indoor_fusion.cli"],
                            self.ctx.work / f"setup{rep}")
        if proc.code != 0:
            raise RuntimeError(f"importing indoor_fusion failed: {proc.stderr.strip()}")
        return proc.wall

    def op(self, op_id: int, traced: bool) -> OpResult:
        out = self.ctx.work / f"op{op_id}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        spans = [out / "simulate.spans.json", out / "ingest.spans.json"] if traced else None
        sim, counts = self.ctx.simulate(out, out / "simulate",
                                        spans[0] if traced else None, op_id)
        procs, problems = [sim], []
        if sim.code != 0 or counts is None:
            problems.append(f"simulate exited {sim.code}: {sim.stderr.strip()[-300:]}")
        else:
            ingest = self.ctx.cli(["ingest", "--out", str(out)], out / "ingest",
                                  spans[1] if traced else None, op_id)
            procs.append(ingest)
            if ingest.code != 0:
                problems.append(f"ingest exited {ingest.code}: {ingest.stderr.strip()[-300:]}")
            else:
                self.check(out, counts, problems)
        wall, cpu, rss = _merge(procs)
        result = OpResult(op_id, traced, wall, cpu, rss, counts[0] if counts else 0,
                          problems)
        if traced and not problems:
            result.spans = _load_spans(spans)
        shutil.rmtree(out, ignore_errors=True)
        return result

    def check(self, out: Path, counts: tuple[int, int], problems: list[str]) -> None:
        """The gate: counts agree across files, clocks are recovered, outputs repeat."""
        n1, n2 = counts
        for name, want in (("dataset1.jsonl", n1), ("dataset2.jsonl", n2)):
            got = _count_lines(out / name)
            if got != want:
                problems.append(f"{name} holds {got} records, simulate reported {want}")
        summary = _load_json(out / "ingest.json")
        frame_lines = _count_lines(out / "frames1.jsonl")
        if not summary["frames"] == frame_lines == summary["streams"].get("csi"):
            problems.append(f"ingest.json frames {summary['frames']}, frames1.jsonl "
                            f"{frame_lines} lines, csi ticks {summary['streams'].get('csi')}")
        injected = _load_json(out / "scenario.json")["config"]["clocks"]
        if set(summary["clocks"]) != set(injected):
            problems.append(f"fitted clocks {sorted(summary['clocks'])} != "
                            f"injected {sorted(injected)}")
        for sensor, fit in summary["clocks"].items():
            want = injected.get(sensor, [0.0])[0]
            if not abs(fit["offset_s"] - want) <= CLOCK_TOL_S:
                problems.append(f"{sensor} clock offset {fit['offset_s']:.6f} s is more "
                                f"than {CLOCK_TOL_S * 1e3:g} ms from {want:.6f} s")
        self.check_reproduces({"counts": {"records": [n1, n2], "frames": summary["frames"],
                                          "streams": summary["streams"],
                                          "dropped": summary["dropped_records"]}},
                              problems)


class RunWorkload(Workload):
    """``run --transfer`` over a method set on a pair simulated during setup."""

    methods: tuple[str, ...] = ()
    extra_args: tuple[str, ...] = ()

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.data: Path | None = None
        self.records = 0

    def setup(self, rep: int) -> float:
        out = self.ctx.work / f"setup{rep}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        proc, counts = self.ctx.simulate(out, out / "simulate")
        if proc.code != 0 or counts is None:
            raise RuntimeError(f"simulate exited {proc.code}: {proc.stderr.strip()[-300:]}")
        if self.data is None:
            self.data, self.records = out, sum(counts)
        else:
            shutil.rmtree(out)
        return proc.wall

    def op(self, op_id: int, traced: bool) -> OpResult:
        report_path = self.data / "report.json"
        report_path.unlink(missing_ok=True)
        spans = self.ctx.work / f"op{op_id}.spans.json" if traced else None
        proc = self.ctx.cli(["run", "--out", str(self.data), "--seed", str(self.ctx.seed),
                             "--transfer", "--methods", ",".join(self.methods),
                             *self.extra_args],
                            self.ctx.work / f"op{op_id}", spans, op_id)
        problems: list[str] = []
        guards: dict[str, float] = {}
        if proc.code != 0:
            problems.append(f"run exited {proc.code}: {proc.stderr.strip()[-300:]}")
        elif not report_path.is_file():
            problems.append("run wrote no report.json")
        else:
            guards = self.check(_load_json(report_path), problems)
        result = OpResult(op_id, traced, proc.wall, proc.cpu, proc.rss_mib, self.records,
                          problems, guards=guards)
        if traced and not problems:
            result.spans = _load_spans([spans])
        if spans is not None:
            spans.unlink(missing_ok=True)
        return result

    @staticmethod
    def guards(report: dict) -> dict[str, float]:
        raise NotImplementedError

    def check(self, report: dict, problems: list[str]) -> dict[str, float]:
        """The gate for one report.json; returns the accuracy guards."""
        if report.get("failures"):
            problems.append(f"methods failed: {report['failures']}")
            return {}
        missing = [m for m in self.methods if m not in report.get("methods", {})
                   or m not in report.get("generalization", {})]
        if missing:
            problems.append(f"report.json lacks methods {missing}")
            return {}
        counts = {m: {k: v for k, v in entry.items()
                      if k in ("ticks_used", "ticks_degenerate", "ticks_skipped",
                               "train_frames", "test_frames", "train_samples",
                               "test_samples", "cells", "input_width", "epochs_run")}
                  | {"count": entry["summary"]["count"],
                     "transfer_count": report["generalization"][m]["transfer"]["count"]}
                  for m, entry in report["methods"].items()}
        guards = self.guards(report)
        for name, value in guards.items():
            if not (isinstance(value, (int, float)) and 0.0 < value <= ROOM_DIAGONAL_M):
                problems.append(f"guard {name} = {value!r} is outside (0, "
                                f"{ROOM_DIAGONAL_M:g}] m")
        self.check_extra(report, problems)
        self.check_reproduces({"counts": counts}, problems, guards)
        return guards

    def check_extra(self, report: dict, problems: list[str]) -> None:
        pass


def _p50(report: dict, method: str) -> float:
    return report["methods"][method]["summary"]["p50_m"]


def _transfer_p50(report: dict, method: str) -> float:
    return report["generalization"][method]["transfer"]["p50_m"]


class RunTransfer(RunWorkload):
    """The classical and the neural methods in one ``run --transfer``."""

    name = "run-transfer"
    methods = ("uwb-trilat", "rssi-trilat", "rssi-fp", "csi-fp",
               "nn:csi", "nn:csi-phase", "nn-fusion:csi+imu")
    extra_args = ("--epochs", str(FUSION_EPOCHS))

    @staticmethod
    def guards(report: dict) -> dict[str, float]:
        return {"uwb_trilat_p50_m": _p50(report, "uwb-trilat"),
                "rssi_trilat_p50_m": _p50(report, "rssi-trilat"),
                "csi_fp_p50_m": _p50(report, "csi-fp"),
                "csi_fp_transfer_p50_m": _transfer_p50(report, "csi-fp"),
                "nn_csi_p50_m": _p50(report, "nn:csi"),
                "fusion_p50_m": _p50(report, "nn-fusion:csi+imu"),
                "nn_csi_transfer_p50_m": _transfer_p50(report, "nn:csi")}

    def check_extra(self, report: dict, problems: list[str]) -> None:
        # criterion 7: phase features do not survive the session change
        gen = report["generalization"]
        phase, magnitude = gen["nn:csi-phase"]["degradation"], gen["nn:csi"]["degradation"]
        if not phase > magnitude:
            problems.append(f"nn:csi-phase degradation {phase:.3f} is not above "
                            f"nn:csi degradation {magnitude:.3f}")


WORKLOADS = {w.name: w for w in (IngestRoundtrip, RunTransfer)}
