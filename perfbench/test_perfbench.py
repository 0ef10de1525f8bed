"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

They shrink the campaigns to 20 s so that each run takes seconds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import run
import tracer
import workloads
from workloads import GUARD_RTOL, Context, RunTransfer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE = ["--seconds", "1", "--duration", "20"]


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--trace", trace, *SMOKE],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _bench()["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in declared:
        assert re.search(rf"^{re.escape(m['name'])} \S+ {re.escape(m['unit'])}$",
                         proc.stdout, re.M), m["name"]


def test_bench_json_matches_the_workloads():
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "run-transfer", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.fixture(scope="module")
def run_transfer(tmp_path_factory):
    ctx = Context(ROOT, tmp_path_factory.mktemp("run-transfer"), seed=3, duration=20.0)
    workload = RunTransfer(ctx)
    workload.setup(0)
    first = workload.op(0, traced=False)
    assert not first.failed, first.problems
    return workload


def _tamper(monkeypatch, edit):
    load = workloads._load_json

    def tampered(path):
        doc = load(path)
        if Path(path).name == "report.json":
            edit(doc)
        return doc

    monkeypatch.setattr(workloads, "_load_json", tampered)


def test_gate_rejects_an_injected_method_failure(run_transfer, monkeypatch):
    _tamper(monkeypatch, lambda doc: doc["failures"].update(
        {"csi-fp": "InsufficientData: injected"}))
    op = run_transfer.op(1, traced=False)
    assert op.failed
    assert any("methods failed" in p for p in op.problems)


def test_gate_rejects_a_p50_moved_past_the_tolerance(run_transfer, monkeypatch):
    def move(doc):
        doc["methods"]["uwb-trilat"]["summary"]["p50_m"] *= 1.0 + 3 * GUARD_RTOL

    _tamper(monkeypatch, move)
    op = run_transfer.op(2, traced=False)
    assert op.failed
    assert any("guards.uwb_trilat_p50_m" in p for p in op.problems)


def test_gate_accepts_a_move_within_the_tolerance(run_transfer, monkeypatch):
    def nudge(doc):
        doc["methods"]["uwb-trilat"]["summary"]["p50_m"] *= 1.0 + GUARD_RTOL / 10

    _tamper(monkeypatch, nudge)
    op = run_transfer.op(3, traced=False)
    assert not op.failed, op.problems


def test_a_failed_op_is_counted_in_the_result(monkeypatch, capsys):
    _tamper(monkeypatch, lambda doc: doc["failures"].update(
        {"uwb-trilat": "InsufficientData: injected"}))
    assert run.main(["--workload", "run-transfer", "--seed", "3", "--trace", "0",
                     *SMOKE]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


_BINDINGS_SCRIPT = """
import sys
import tracer
import indoor_fusion.cli
originals = {}
for module_name, attribute, _ in tracer.TRACED:
    if "." not in attribute:
        originals[id(getattr(sys.modules[module_name], attribute))] = attribute
recorder = tracer.Recorder(0)
installed = tracer.install(recorder)
left = [(m.__name__, k) for m in tracer._package_modules() for k, v in vars(m).items()
        if id(v) in originals]
print(len(installed), len(tracer.TRACED), left)
"""


def test_wrappers_replace_every_binding():
    env = {**Context(ROOT, ROOT, 0).env}
    env["PYTHONPATH"] = str(HERE) + os.pathsep + env["PYTHONPATH"]
    proc = subprocess.run([sys.executable, "-c", _BINDINGS_SCRIPT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    installed, listed, left = proc.stdout.split(" ", 2)
    assert installed == listed
    assert left.strip() == "[]"


def test_recorder_keeps_every_span_under_thread_contention():
    recorder = tracer.Recorder(7)
    inner = recorder.wrap("inner", lambda: None)
    outer = recorder.wrap("outer", lambda: [inner() for _ in range(20)])
    threads = [threading.Thread(target=lambda: [outer() for _ in range(50)])
               for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    spans = recorder.spans
    assert len(spans) == 8 * 50 * 21
    assert len({s["id"] for s in spans}) == len(spans)
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["name"] == "inner":
            parent = by_id[s["parent"]]
            assert parent["name"] == "outer" and parent["thread"] == s["thread"]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
        else:
            assert s["parent"] is None
