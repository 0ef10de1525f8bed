"""Per-layer metrics computed from the spans of one traced op.

A layer's busy time sums the spans of its outermost calls (a call nested in
a call of the same name is not counted twice).  Self time is a span's length
minus the part of it that its child spans cover, children on pool threads
included.  Metrics of a layer the op never entered read 0.
"""

from __future__ import annotations

from collections import defaultdict

# The workloads' method sets; metric names may not hold ":" or "+".
METHODS = ("uwb-trilat", "rssi-trilat", "rssi-fp", "csi-fp",
           "nn:csi", "nn:csi-phase", "nn-fusion:csi+imu")
MODALITIES = ("csi", "rssi", "uwb", "imu")


def method_metric(method: str) -> str:
    return "cli.method_s." + method.replace(":", "_").replace("+", "_")


# name -> unit, in reporting order; trace.overhead_s is filled in by run.py
PER_LAYER = {
    "simulate.run_s": "s",
    "simulate.records": "count",
    "records.write_s": "s",
    "records.read_s": "s",
    "records.bytes": "bytes",
    "records.write_mb_per_s": "MB/s",
    "records.read_mb_per_s": "MB/s",
    "ingest.clock_fit_s": "s",
    "ingest.label_s": "s",
    "ingest.label_calls": "count",
    "ingest.frames_s": "s",
    "ingest.select_s": "s",
    "ingest.frames_write_s": "s",
    "ingest.frames": "count",
    **{f"ingest.ticks.{m}": "count" for m in MODALITIES},
    "ingest.dropped": "count",
    "geometry.solves": "count",
    "geometry.solve_s": "s",
    "geometry.fallbacks": "count",
    "geometry.fallback_ratio": "ratio",
    "fingerprint.calibrate_s": "s",
    "fingerprint.calibrations": "count",
    "fingerprint.snapshot_s": "s",
    "fingerprint.snapshot_calls": "count",
    "fingerprint.build_map_s": "s",
    "fingerprint.locate_s": "s",
    "fingerprint.queries": "count",
    "mlp.trainings": "count",
    "mlp.train_s": "s",
    "mlp.epochs": "count",
    "mlp.epoch_s": "s",
    "mlp.grad_s": "s",
    "mlp.forward_s": "s",
    "mlp.update_s": "s",
    "mlp.samples_per_s": "1/s",
    "evaluate.report_s": "s",
    "evaluate.generalization_s": "s",
    "evaluate.plot_s": "s",
    "cli.load_s": "s",
    "cli.methods_s": "s",
    **{method_metric(m): "s" for m in METHODS},
    "cli.method_wait_s": "s",
    "cli.workers": "count",
    "cli.parallelism": "ratio",
    "cli.write_s": "s",
    "trace.overhead_s": "s",
}


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


class SpanIndex:
    """Lookups over one op's spans."""

    def __init__(self, spans: list[dict]):
        self.by_id = {s["id"]: s for s in spans}
        self.by_name: dict[str, list[dict]] = defaultdict(list)
        self.children: dict[int, list[dict]] = defaultdict(list)
        for s in spans:
            self.by_name[s["name"]].append(s)
            if s["parent"] is not None:
                self.children[s["parent"]].append(s)

    def outer(self, name: str) -> list[dict]:
        """Spans of ``name`` with no ancestor of the same name."""
        out = []
        for s in self.by_name.get(name, []):
            parent = self.by_id.get(s["parent"])
            while parent is not None and parent["name"] != name:
                parent = self.by_id.get(parent["parent"])
            if parent is None:
                out.append(s)
        return out

    def count(self, name: str) -> int:
        return len(self.outer(name))

    def busy(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.outer(name))

    def total(self, name: str, key: str) -> float:
        return sum(s.get(key, 0) for s in self.outer(name))

    def self_time(self, name: str) -> float:
        out = 0.0
        for s in self.outer(name):
            inside = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                      for c in self.children.get(s["id"], [])]
            out += (s["end"] - s["start"]) - _covered([iv for iv in inside if iv[1] > iv[0]])
        return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_s, for one op."""
    ix = SpanIndex(spans)
    m: dict[str, float] = {}

    m["simulate.run_s"] = ix.busy("simulate.run")
    m["simulate.records"] = ix.total("simulate.run", "records")

    write_s, read_s = ix.busy("records.write"), ix.busy("records.read")
    write_b, read_b = ix.total("records.write", "bytes"), ix.total("records.read", "bytes")
    m["records.write_s"] = write_s
    m["records.read_s"] = read_s
    m["records.bytes"] = write_b + read_b
    m["records.write_mb_per_s"] = _ratio(write_b / 1e6, write_s)
    m["records.read_mb_per_s"] = _ratio(read_b / 1e6, read_s)

    m["ingest.clock_fit_s"] = ix.busy("ingest.clock_fit")
    m["ingest.label_s"] = ix.busy("ingest.label")
    m["ingest.label_calls"] = ix.count("ingest.label")
    m["ingest.frames_s"] = ix.busy("ingest.frames")
    m["ingest.select_s"] = ix.busy("ingest.select")
    m["ingest.frames_write_s"] = ix.busy("ingest.frames_write")
    m["ingest.frames"] = ix.total("ingest.run", "frames")
    for modality in MODALITIES:
        m[f"ingest.ticks.{modality}"] = sum(s.get("ticks", {}).get(modality, 0)
                                            for s in ix.outer("ingest.run"))
    m["ingest.dropped"] = ix.total("ingest.run", "dropped")

    solves = ix.count("geometry.solve")
    fallbacks = len(ix.by_name.get("geometry.fallback", []))
    m["geometry.solves"] = solves
    m["geometry.solve_s"] = ix.busy("geometry.solve")
    m["geometry.fallbacks"] = fallbacks
    m["geometry.fallback_ratio"] = _ratio(fallbacks, solves)

    m["fingerprint.calibrate_s"] = ix.busy("fingerprint.calibrate")
    m["fingerprint.calibrations"] = ix.count("fingerprint.calibrate")
    m["fingerprint.snapshot_s"] = ix.busy("fingerprint.snapshot")
    m["fingerprint.snapshot_calls"] = ix.count("fingerprint.snapshot")
    m["fingerprint.build_map_s"] = ix.busy("fingerprint.build_map")
    m["fingerprint.locate_s"] = ix.busy("fingerprint.locate")
    m["fingerprint.queries"] = ix.count("fingerprint.locate")

    train_s = ix.busy("mlp.train")
    epochs = ix.total("mlp.train", "epochs")
    m["mlp.trainings"] = ix.count("mlp.train")
    m["mlp.train_s"] = train_s
    m["mlp.epochs"] = epochs
    m["mlp.epoch_s"] = _ratio(train_s, epochs)
    m["mlp.grad_s"] = ix.busy("mlp.grad")
    m["mlp.forward_s"] = ix.busy("mlp.forward")
    m["mlp.update_s"] = ix.self_time("mlp.train")
    m["mlp.samples_per_s"] = _ratio(ix.total("mlp.train", "samples"), train_s)

    m["evaluate.report_s"] = ix.busy("evaluate.report")
    m["evaluate.generalization_s"] = ix.self_time("evaluate.generalization")
    m["evaluate.plot_s"] = ix.busy("evaluate.plot")

    m["cli.load_s"] = _ratio(ix.busy("cli.load"), ix.count("cli.load"))
    methods = ix.outer("cli.method")
    method_total = sum(s["end"] - s["start"] for s in methods)
    window = (max(s["end"] for s in methods) - min(s["start"] for s in methods)
              if methods else 0.0)
    m["cli.methods_s"] = window
    for method in METHODS:
        m[method_metric(method)] = sum(s["end"] - s["start"] for s in methods
                                       if s.get("tag") == method)
    # methods are submitted together once the campaigns are prepared
    prepared = ix.outer("cli.prepare") or ix.outer("cli.load")
    pool_start = max((s["end"] for s in prepared), default=None)
    m["cli.method_wait_s"] = (sum(max(s["start"] - pool_start, 0.0) for s in methods)
                              if pool_start is not None else 0.0)
    m["cli.workers"] = len({s["thread"] for s in methods})
    m["cli.parallelism"] = _ratio(method_total, window)
    # the handler's own time: assembling and writing report.json / ingest.json
    m["cli.write_s"] = ix.self_time("cli.run") + ix.self_time("cli.ingest")
    return m
