"""Readers of the files the command line writes, for tests.

``read_frames`` reads ``frames1.jsonl`` back into arrays; ``load_report``
loads a ``report.json`` and checks that it holds every key of the report
schema that README documents.
"""

from __future__ import annotations

import json

import numpy as np

from indoor_fusion.errors import MalformedLine


def read_frames(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read a frames file back as its (t, features, mask, labels) arrays.

    The file does not record the layout; ``Frames(*read_frames(path),
    layout)`` rebuilds the frames when it is known.  A line that is not a
    frame as wide as the first raises MalformedLine naming ``path:line``.
    """
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    doc = json.loads(line)
                    row = (float(doc["t"]), np.asarray(doc["features"], dtype=np.float64),
                           np.asarray(doc["mask"], dtype=np.float64),
                           (float(doc["label"][0]), float(doc["label"][1])))
                    if rows and (row[1].shape, row[2].shape) != (rows[0][1].shape,
                                                                 rows[0][2].shape):
                        raise ValueError("frame is not as wide as the first frame")
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    raise MalformedLine(f"{path}:{lineno}: {exc}") from exc
                rows.append(row)
    except UnicodeDecodeError as exc:
        raise MalformedLine(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not rows:
        return np.zeros(0), np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 2))
    t, features, mask, labels = zip(*rows)
    return np.asarray(t), np.stack(features), np.stack(mask), np.asarray(labels)


# The keys every report.json holds: at the top level, in each summary, in
# each method's entry by the kind of method, and in a generalization entry.
REPORT_KEYS = {"config", "sim_config", "methods", "failures"}
SUMMARY_KEYS = {"count", "mean_m", "p50_m", "p95_m", "p99_m", "fraction_within_0.3m",
                "fraction_within_1m"}
METHOD_KEYS = {
    "uwb-trilat": {"ticks_used", "ticks_degenerate", "ticks_skipped", "fallbacks",
                   "outside_room"},
    "rssi-trilat": {"beta_db", "calibration_median_m", "fallbacks", "outside_room"},
    "fp": {"cells", "train_samples", "test_samples"},
    "nn": {"epochs_run", "train_frames", "test_frames", "input_width", "history",
           "best_epoch", "stop_reason"},
}
GENERALIZATION_KEYS = {"self", "transfer", "degradation"}


def _kind(method: str) -> str:
    if method.endswith("-fp"):
        return "fp"
    return "nn" if method.startswith("nn") else method


def _missing(doc: dict, keys: set, where: str) -> list[str]:
    return [f"{where}: {key}" for key in sorted(keys - set(doc))]


def check_report(report: dict) -> None:
    """Assert that ``report`` holds every required key of the schema."""
    missing = _missing(report, REPORT_KEYS, "report")
    if report.get("config", {}).get("transfer"):  # an entry for every method that ran
        missing += _missing(report, {"generalization"}, "report under --transfer")
        missing += _missing(report.get("generalization", {}), set(report.get("methods", {})),
                            "generalization")
    for method, entry in report.get("methods", {}).items():
        missing += _missing(entry, {"summary", *METHOD_KEYS[_kind(method)]}, method)
        missing += _missing(entry.get("summary", {}), SUMMARY_KEYS, f"{method} summary")
    for method, entry in report.get("generalization", {}).items():
        missing += _missing(entry, GENERALIZATION_KEYS, f"generalization {method}")
        for side in ("self", "transfer"):
            missing += _missing(entry.get(side, {}), SUMMARY_KEYS,
                                f"generalization {method} {side}")
    assert not missing, f"report.json lacks {missing}"


def load_report(path) -> dict:
    """``report.json`` at ``path``, checked against the schema."""
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    check_report(report)
    return report
