"""Run one indoor-fusion CLI command with every traced call recorded as a span.

Usage::

    python3 perfbench/tracer.py SPANS.json OP_ID -- <indoor-fusion arguments>

The wrappers are installed from outside the package, before the CLI starts.
Each wrapped function is replaced at every module binding of the package:
``cli``, ``fingerprint`` and ``evaluate`` import functions such as
``read_records``, ``locate_from_ranges`` and ``train_arrays`` by name, and
``ingest_run`` and ``locate_from_ranges`` look their callees up in their own
module's globals, so patching only the defining module would miss calls.
Spans are kept in memory and written to SPANS.json when the command ends.
The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

# (defining module, attribute, span name).  Several attributes may share a
# span name when they do the same job for a layer; "Class.method" wraps a
# method on its class.  Names missing from the package are skipped, so the
# table survives refactors that remove a function.
TRACED = (
    ("indoor_fusion.simulate", "simulate_run", "simulate.run"),
    ("indoor_fusion.simulate", "write_dataset", "records.write"),
    ("indoor_fusion.records", "write_records", "records.write"),
    ("indoor_fusion.records", "read_records", "records.read"),
    ("indoor_fusion.ingest", "ingest_run", "ingest.run"),
    ("indoor_fusion.ingest", "estimate_clock_offset", "ingest.clock_fit"),
    ("indoor_fusion.ingest", "correct_clock", "ingest.clock_fit"),
    ("indoor_fusion.ingest", "label_with_groundtruth", "ingest.label"),
    ("indoor_fusion.ingest", "build_fusion_frames", "ingest.frames"),
    ("indoor_fusion.ingest", "select_blocks", "ingest.select"),
    ("indoor_fusion.ingest", "write_frames", "ingest.frames_write"),
    ("indoor_fusion.geometry", "locate_from_ranges", "geometry.solve"),
    ("indoor_fusion.geometry", "degenerate_estimate", "geometry.fallback"),
    ("indoor_fusion.fingerprint", "calibrate_rssi_offset", "fingerprint.calibrate"),
    ("indoor_fusion.fingerprint", "rssi_snapshot_positions", "fingerprint.snapshot"),
    ("indoor_fusion.fingerprint", "build_map", "fingerprint.build_map"),
    ("indoor_fusion.fingerprint", "locate", "fingerprint.locate"),
    ("indoor_fusion.mlp", "train_arrays", "mlp.train"),
    ("indoor_fusion.mlp", "Mlp.forward", "mlp.forward"),
    ("indoor_fusion.mlp", "Mlp.loss_and_grad", "mlp.grad"),
    ("indoor_fusion.evaluate", "error_report", "evaluate.report"),
    ("indoor_fusion.evaluate", "run_generalization", "evaluate.generalization"),
    ("indoor_fusion.evaluate", "emit_plot", "evaluate.plot"),
    # cli: the subcommand handlers, and the private helpers that carry the
    # per-campaign and per-method time (no public function does)
    ("indoor_fusion.cli", "cmd_simulate", "cli.simulate"),
    ("indoor_fusion.cli", "cmd_ingest", "cli.ingest"),
    ("indoor_fusion.cli", "cmd_run", "cli.run"),
    ("indoor_fusion.cli", "_load_campaign", "cli.load"),
    ("indoor_fusion.cli", "_prepare_campaign", "cli.prepare"),
    ("indoor_fusion.cli", "_run_method", "cli.method"),
)


def _file_bytes(args, kwargs, result) -> dict:
    path = args[0] if args else kwargs.get("path")
    return {"bytes": os.path.getsize(path)}


def _record_count(args, kwargs, result) -> dict:
    return {"records": len(result)}


def _ingest_counts(args, kwargs, result) -> dict:
    return {"frames": len(result.frames), "dropped": int(result.dropped),
            "ticks": {m: len(s.samples) for m, s in result.streams.items()}}


def _training_counts(args, kwargs, result) -> dict:
    x_train = args[0] if args else kwargs["x_train"]
    epochs = len(result[1])
    return {"epochs": epochs, "samples": len(x_train) * epochs}


def _method_name(args, kwargs, result) -> dict:
    return {"tag": args[0] if args else kwargs["method"]}


# Counts read off a call's arguments or result, keyed by span name.
ATTRIBUTES = {
    "records.write": _file_bytes,
    "records.read": _file_bytes,
    "simulate.run": _record_count,
    "ingest.run": _ingest_counts,
    "mlp.train": _training_counts,
    "cli.method": _method_name,
}


class Recorder:
    """Thread-safe in-memory span log for one CLI process.

    A span's parent is the innermost open span of its own thread.  A span
    opened on a pool thread with nothing open yet takes the innermost open
    span of the main thread, which is the command that submitted the work.
    """

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = (self._main_stack
                     if threading.current_thread() is threading.main_thread() else [])
            self._local.stack = stack
        return stack

    def _record(self, span: dict) -> None:
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, fn):
        attributes = ATTRIBUTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a slice is one atomic read of a list another thread may pop
            parent = stack[-1] if stack else (self._main_stack[-1:] or [None])[0]
            with self._lock:
                span_id = next(self._ids)
            span = {"id": span_id, "name": name, "parent": parent, "op": self.op_id,
                    "thread": threading.get_ident()}
            stack.append(span_id)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["end"] = time.perf_counter()
                span["error"] = type(exc).__name__
                self._record(span)
                raise
            finally:
                stack.pop()
            span["end"] = time.perf_counter()
            if attributes is not None:
                try:
                    span.update(attributes(args, kwargs, result))
                except (AttributeError, KeyError, IndexError, TypeError, OSError):
                    span["counts_missing"] = True  # the result changed shape
            self._record(span)
            return result

        return traced


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "indoor_fusion" or n.startswith("indoor_fusion."))]


def install(recorder: Recorder) -> list[str]:
    """Wrap every TRACED function at every binding; returns what was wrapped."""
    import indoor_fusion.cli  # noqa: F401  (imports every module of the package)

    modules = _package_modules()
    installed = []
    for module_name, attribute, span_name in TRACED:
        owner = sys.modules.get(module_name)
        if owner is None:
            continue
        if "." in attribute:
            class_name, method = attribute.split(".")
            cls = getattr(owner, class_name, None)
            if cls is None or method not in vars(cls):
                continue
            setattr(cls, method, recorder.wrap(span_name, vars(cls)[method]))
            installed.append(attribute)
            continue
        original = getattr(owner, attribute, None)
        if original is None:
            continue
        wrapped = recorder.wrap(span_name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
        installed.append(attribute)
    return installed


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS.json OP_ID -- <indoor-fusion arguments>",
              file=sys.stderr)
        return 2
    spans_path, op_id, cli_args = Path(argv[0]), int(argv[1]), argv[3:]
    recorder = Recorder(op_id)
    install(recorder)
    from indoor_fusion import cli

    try:
        return recorder.wrap("cli.main", cli.main)(cli_args)
    finally:
        spans_path.write_text(json.dumps(recorder.spans), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
