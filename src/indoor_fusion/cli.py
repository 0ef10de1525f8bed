"""Command-line front end tying the pipeline together.

Subcommands: ``simulate`` (write a two-campaign dataset pair), ``ingest``
(clock-correct, label and frame one dataset), ``calibrate`` (receiver gain
sweep), ``run`` (every requested localization method plus reports and
plots), ``plot`` (re-render the CDF figure from its CSV).

Exit codes: 0 success, 2 usage/config, 3 I/O, 4 numerical failure.  Options
may come from a flat ``key=value`` config file (``--config``); explicit
flags win.  ``INDOOR_FUSION_THREADS`` caps how many methods ``run``
evaluates concurrently; importing the package sets OpenBLAS to one thread
unless ``OPENBLAS_NUM_THREADS`` is set, so the report is the same on any core count.

``ingest``, ``calibrate`` and ``run`` read each dataset's sensor tables
through ``_read_tables``: it loads them from ``datasetN.tables.npz`` beside
the JSONL when that cache is keyed on a SHA-256 of the file's bytes and of
the ``records`` module's source, and parses the JSONL otherwise.
``simulate`` leaves such a cache beside each dataset it writes, and a parse
leaves one too.  A stale, damaged or unwritable cache only costs a parse,
and deleting it is always safe.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    EmptyReport,
    IndoorFusionError,
    InsufficientData,
    InvalidOverride,
    MalformedLine,
    NegativeTime,
    SchemaViolation,
)
from .evaluate import (
    ErrorReport,
    blocks_for_method,
    degradation,
    emit_plot,
    error_report,
    fit_and_score,
    read_cdf_csv,
    run_generalization,
    write_cdf_svg,
)
from .fingerprint import (
    DEFAULT_K,
    DEFAULT_RESOLUTION,
    build_map,
    calibrate_rssi_offset,
    locate,
    rssi_snapshot_fixes,
)
from .geometry import trilaterate_batch
from .ingest import (
    DEFAULT_WINDOW_S,
    AlignedStream,
    FrameLayout,
    Frames,
    IngestResult,
    build_fusion_frames,
    groundtruth_interpolator,
    ingest_run,
    label_with_groundtruth,
    write_frames,
)
from .mlp import MlpConfig, SplitSpec, split_dataset
from .records import (SensorOffset, SensorTable, load_table_cache, read_records,
                      round_trips, save_table_cache, write_records)
from .simulate import (
    DEFAULT_PERTURBATION,
    NoiseConfig,
    Scenario,
    SimConfig,
    perturb_scenario,
    build_scenario,
    read_sidecar,
    sim_config_to_dict,
    simulate_run,
    write_sidecar,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

STANDARD_METHODS = (
    "uwb-trilat", "rssi-trilat", "rssi-fp", "csi-fp",
    "nn:csi", "nn:rssi", "nn:uwb", "nn:imu", "nn:csi-phase", "nn-fusion",
)
DEFAULT_METHODS = STANDARD_METHODS


def validate_method(name: str) -> str:
    if name in STANDARD_METHODS:
        return name
    if name.startswith("nn-fusion:"):
        try:
            blocks_for_method(name)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return name
    raise ConfigError(f"unknown method {name!r}; valid methods: "
                      f"{', '.join(STANDARD_METHODS)}, nn-fusion:<m1+m2+...>")


# ---------------------------------------------------------------------------
# Option resolution (defaults < config file < flags)

def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_CONFIG_KEYS = {
    "seed": int,
    "duration": float,
    "out": str,
    "methods": str,
    "transfer": _parse_bool,
    "window": float,
    "grid": float,
    "k": int,
    "epochs": int,
    "noiseless": _parse_bool,
    "log_x": _parse_bool,
}


def read_config_file(path) -> dict:
    """Flat key=value file; blank lines and #-comments ignored.

    A file that is not UTF-8 text raises ConfigError naming the path.
    """
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} "
                              f"(valid: {', '.join(sorted(_CONFIG_KEYS))})")
        try:
            values[key] = _CONFIG_KEYS[key](value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


@dataclass(frozen=True)
class RunConfig:
    """Resolved options shared by all subcommands."""

    out: Path = Path(".")
    seed: int = 0
    duration: float = 600.0
    methods: tuple[str, ...] = DEFAULT_METHODS
    transfer: bool = False
    window: float = DEFAULT_WINDOW_S
    grid: float = DEFAULT_RESOLUTION
    k: int = DEFAULT_K
    epochs: int = 60
    noiseless: bool = False
    log_x: bool = False

    def __post_init__(self):
        if not self.methods:
            raise ConfigError("method set must be non-empty")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not math.isfinite(self.duration) or self.duration <= 0:
            raise ConfigError(f"duration must be a positive duration in seconds, "
                              f"got {self.duration}")
        if not math.isfinite(self.window) or self.window <= 0:
            raise ConfigError(f"window must be a positive number of seconds, got {self.window}")
        if not math.isfinite(self.grid) or self.grid <= 0:
            raise ConfigError(f"grid must be a positive cell size in meters, got {self.grid}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")

    def as_dict(self) -> dict:
        return {
            "out": str(self.out),
            "seed": self.seed,
            "duration": self.duration,
            "methods": list(self.methods),
            "transfer": self.transfer,
            "window": self.window,
            "grid": self.grid,
            "k": self.k,
            "epochs": self.epochs,
            "noiseless": self.noiseless,
            "log_x": self.log_x,
        }


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(read_config_file(args.config))
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if "methods" in values:
        tokens = [t.strip() for t in str(values["methods"]).split(",") if t.strip()]
        values["methods"] = tuple(validate_method(t) for t in tokens)
    if "out" in values:
        values["out"] = Path(values["out"])
    return RunConfig(**values)


def _max_workers(n_methods: int) -> int:
    workers = min(n_methods, os.cpu_count() or 1)
    env = os.environ.get("INDOOR_FUSION_THREADS")
    if env:
        try:
            cap = int(env)
        except ValueError as exc:
            raise ConfigError(f"INDOOR_FUSION_THREADS must be an integer, "
                              f"got {env!r}") from exc
        if cap < 1:
            raise ConfigError(f"INDOOR_FUSION_THREADS must be >= 1, got {cap}")
        workers = min(workers, cap)
    return max(workers, 1)


# ---------------------------------------------------------------------------
# simulate / ingest / calibrate

def cmd_simulate(cfg: RunConfig) -> int:
    scenario = build_scenario(cfg.seed)
    noise = NoiseConfig.zero() if cfg.noiseless else NoiseConfig()
    sim_config = SimConfig(duration=cfg.duration, noise=noise)
    shortest = 2.0 / sim_config.rates["gt"]  # the trajectory needs two poses
    if cfg.duration < shortest:
        raise ConfigError(f"duration must be >= {shortest:g} s, two ground-truth periods, "
                          f"got {cfg.duration:g}")
    # second campaign: perturbed layout, fresh measurement noise
    scenario2 = replace(perturb_scenario(scenario, DEFAULT_PERTURBATION, cfg.seed + 1),
                        seed=cfg.seed + 1)
    cfg.out.mkdir(parents=True, exist_ok=True)
    n1 = _write_tables(cfg.out / "dataset1.jsonl", simulate_run(scenario, sim_config))
    n2 = _write_tables(cfg.out / "dataset2.jsonl", simulate_run(scenario2, sim_config))
    write_sidecar(cfg.out / "scenario.json", scenario, sim_config, scenario2)
    print(f"wrote {n1} records to dataset1.jsonl, {n2} to dataset2.jsonl "
          f"(seed {cfg.seed}, {cfg.duration:g} s) in {cfg.out}")
    return EXIT_OK


def _sha256(path: Path) -> str:
    """A SHA-256 of the file's bytes: the key of its table cache."""
    import hashlib  # loads OpenSSL: only commands that hash a dataset pay for it

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_tables(path: Path, tables: dict[str, SensorTable]) -> int:
    """``write_records(path, tables)``, leaving the tables cached beside the
    file when ``read_records`` would give back exactly them, so that
    ``_read_tables`` parses nothing."""
    n = write_records(path, tables)
    if round_trips(tables):
        save_table_cache(path.with_suffix(".tables.npz"), _sha256(path), tables)
    return n


def _read_tables(path: Path) -> dict[str, SensorTable]:
    """``read_records(path)``, served from ``<dataset>.tables.npz`` beside it when
    that cache holds the tables of this very content.

    The key is a SHA-256 of the file's bytes, so an edited dataset is parsed
    again however its size or mtime look; ``records`` adds a digest of its
    own source, so a changed parser parses again too.  A miss parses the
    file, which validates every line, and caches the tables only if the
    file still hashes to the key afterwards.
    """
    cache = path.with_suffix(".tables.npz")
    before = _sha256(path)
    tables = load_table_cache(cache, before)
    if tables is None:
        tables = read_records(path)
        if _sha256(path) == before:
            save_table_cache(cache, before, tables)
    return tables


def _load_campaign(cfg: RunConfig, sidecar: tuple[Scenario, SimConfig, Scenario | None],
                   which: int) -> tuple[Scenario, IngestResult]:
    """Read and ingest one campaign; ``sidecar`` is what read_sidecar returns."""
    scenario1, sim_config, scenario2 = sidecar
    if which == 1:
        scenario = scenario1
    else:
        if scenario2 is None:
            raise ConfigError("scenario.json records no second campaign; "
                              "re-run simulate")
        scenario = scenario2
    tables = _read_tables(cfg.out / f"dataset{which}.jsonl")
    result = ingest_run(tables, scenario.sensor_offsets, sim_config.rates,
                        sim_config.duration, window=cfg.window)
    return scenario, result


def cmd_ingest(cfg: RunConfig) -> int:
    _, result = _load_campaign(cfg, read_sidecar(cfg.out / "scenario.json"), 1)
    n = write_frames(cfg.out / "frames1.jsonl", result.frames)
    summary = {
        "frames": n,
        "dropped_records": result.dropped,
        "window_s": cfg.window,
        "clocks": {s: {"offset_s": c.offset, "drift": c.drift}
                   for s, c in sorted(result.clock_estimates.items())},
        "blocks": [{"modality": b.modality, "width": b.width}
                   for b in result.frames.layout.blocks],
        "streams": {m: len(s) for m, s in sorted(result.streams.items())},
    }
    with open(cfg.out / "ingest.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"aligned {n} frames "
          f"({', '.join(f'{m}:{c}' for m, c in sorted(summary['streams'].items()))}) "
          f"-> frames1.jsonl")
    return EXIT_OK


def cmd_calibrate(cfg: RunConfig) -> int:
    scenario, result = _load_campaign(cfg, read_sidecar(cfg.out / "scenario.json"), 1)
    stream = result.streams.get("rssi")
    if stream is None:
        raise InsufficientData("dataset carries no rssi records to calibrate on")
    cal = calibrate_rssi_offset(stream, list(scenario.wifi_anchors))
    doc = {"beta_db": cal.beta, "median_error_m": cal.error_m,
           "sweep": [[b, e] for b, e in cal.sweep_errors]}
    with open(cfg.out / "calibration.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"receiver gain beta = {cal.beta:+.0f} dB "
          f"(median error {cal.error_m:.3f} m) -> calibration.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# run: method runners

@dataclass
class _Campaign:
    """What the methods read of one campaign; no sensor table is kept."""

    scenario: Scenario
    streams: dict[str, AlignedStream]
    frames: Frames
    phase: Frames | None = None  # CSI phase frames, for nn:csi-phase


def _prepare_campaign(cfg: RunConfig, sidecar: tuple[Scenario, SimConfig, Scenario | None],
                      which: int, need_phase: bool) -> _Campaign:
    scenario, result = _load_campaign(cfg, sidecar, which)
    phase = None
    if need_phase and "csi" in result.tables:
        stream = label_with_groundtruth(
            result.tables["csi"], groundtruth_interpolator(result.tables["gt"]),
            scenario.sensor_offsets.get("csi", SensorOffset()), csi_features="phase")
        phase = build_fusion_frames([stream], window=cfg.window)
    # the corrected tables are freed with ``result`` once the phase relabel is done
    return _Campaign(scenario, result.streams, result.frames, phase)


def _stream_or_raise(camp: _Campaign, modality: str) -> AlignedStream:
    stream = camp.streams.get(modality)
    if stream is None or not len(stream):
        raise InsufficientData(f"dataset carries no {modality} records")
    return stream


def _solver_counts(est: np.ndarray, fallback: np.ndarray, scenario: Scenario) -> dict:
    """Fixes answered with the anchor centroid, and fixes outside the room."""
    inside = scenario.bounds.contains(est[:, 0], est[:, 1])
    return {"fallbacks": int(fallback.sum()), "outside_room": int((~inside).sum())}


def _uwb_trilat_report(camp: _Campaign) -> tuple[ErrorReport, dict]:
    stream = _stream_or_raise(camp, "uwb")
    anchors = {a.id: a.position for a in camp.scenario.uwb_anchors}
    missing = [c for c in stream.columns if c not in anchors]
    if missing:
        raise InsufficientData(f"no anchor positions for {missing}")
    geometry = np.asarray([(anchors[c].x, anchors[c].y) for c in stream.columns])
    usable = stream.features >= 0.0
    kept = usable.any(axis=1)
    if not kept.any():
        raise EmptyReport(f"none of the {len(stream)} uwb ticks has a usable (>= 0) range")
    used, usable = stream.take(kept), usable[kept]
    est, fallback = trilaterate_batch(np.broadcast_to(geometry, (len(used), *geometry.shape)),
                                      used.features, usable)
    return error_report(est, used.labels), {
        "ticks_used": len(used),
        # dropout below three anchors falls back to a degenerate estimate,
        # which is what gives the CDF its two-regime shape
        "ticks_degenerate": int((usable.sum(axis=1) < 3).sum()),
        "ticks_skipped": int((~kept).sum()),
        **_solver_counts(est, fallback, camp.scenario)}


def _rssi_trilat_report(camp: _Campaign, beta: float) -> tuple[ErrorReport, dict]:
    stream = _stream_or_raise(camp, "rssi")
    positions = {a.id: a.position for a in camp.scenario.wifi_anchors}
    est, fallback = rssi_snapshot_fixes(stream, positions, beta)
    return error_report(est, stream.labels), _solver_counts(est, fallback, camp.scenario)


def _fp_errors(stream: AlignedStream, radio_map, k: int) -> ErrorReport:
    return error_report(locate(stream.features, radio_map, k), stream.labels)


def _fp_report(camp: _Campaign, camp2: _Campaign | None, modality: str,
               cfg: RunConfig) -> tuple[ErrorReport, dict, dict | None]:
    stream = _stream_or_raise(camp, modality)
    train_rows, test_rows = split_dataset(np.arange(len(stream)),
                                          SplitSpec(shuffle_seed=cfg.seed))
    # sorted rows keep tick order: the map sums each cell's rows in time order
    radio_map = build_map(stream.take(np.sort(train_rows)), cfg.grid)
    report = _fp_errors(stream.take(np.sort(test_rows)), radio_map, cfg.k)
    extras = {"cells": len(radio_map), "train_samples": len(train_rows),
              "test_samples": len(test_rows)}
    gen = None
    if camp2 is not None:
        transfer = _fp_errors(_stream_or_raise(camp2, modality), radio_map, cfg.k)
        gen = _generalization_entry(report, transfer)
    return report, extras, gen


def _nn_input(camp: _Campaign, method: str) -> tuple[Frames, FrameLayout]:
    """The frames a neural method reads, and the layout of its blocks."""
    if method == "nn:csi-phase":
        if camp.phase is None:
            raise InsufficientData("phase-featurized frames were not prepared")
        return camp.phase, camp.phase.layout
    wanted = blocks_for_method(method)
    if method == "nn-fusion":
        wanted = [m for m in wanted if m in camp.frames.layout.modalities()]
    return camp.frames, camp.frames.layout.select(wanted)


def _nn_report(camp: _Campaign, camp2: _Campaign | None, method: str,
               cfg: RunConfig) -> tuple[ErrorReport, dict, dict | None]:
    # rows are split, then each input is gathered once from the shared frames
    frames, layout = _nn_input(camp, method)
    train_rows, test_rows = split_dataset(np.arange(len(frames)),
                                          SplitSpec(shuffle_seed=cfg.seed))
    model_config = MlpConfig.for_input(layout.feature_width + layout.mask_width,
                                       epochs=cfg.epochs, seed=cfg.seed)
    if camp2 is not None:
        frames2, layout2 = _nn_input(camp2, method)
        result = run_generalization(frames, train_rows, test_rows, frames2,
                                    model_config, layout, layout2)
        report = result.self_report
        history = result.history
        gen = _generalization_entry(result.self_report, result.transfer_report)
    else:
        _, report, history = fit_and_score(frames, train_rows, test_rows,
                                           model_config, layout)
        gen = None
    extras = {"epochs_run": len(history), "train_frames": len(train_rows),
              "test_frames": len(test_rows),
              "input_width": model_config.layer_sizes[0],
              "history": history,
              # the restored weights are the first epoch with the least test error
              "best_epoch": min(history, key=lambda row: row[2])[0],
              "stop_reason": "patience" if len(history) < cfg.epochs else "max_epochs"}
    return report, extras, gen


def _summary(report: ErrorReport) -> dict:
    return {
        "count": report.count,
        "mean_m": report.mean,
        "p50_m": report.percentiles["p50"],
        "p95_m": report.percentiles["p95"],
        "p99_m": report.percentiles["p99"],
        "fraction_within_0.3m": report.fraction_within(0.3),
        "fraction_within_1m": report.fraction_within(1.0),
    }


def _generalization_entry(self_report: ErrorReport,
                          transfer_report: ErrorReport) -> dict:
    return {
        "self": _summary(self_report),
        "transfer": _summary(transfer_report),
        "degradation": degradation(self_report, transfer_report),
    }


def _run_method(method: str, camp1: _Campaign, camp2: _Campaign | None,
                cfg: RunConfig) -> tuple[ErrorReport, dict, dict | None]:
    if method == "uwb-trilat":
        report, extras = _uwb_trilat_report(camp1)
        gen = None
        if camp2 is not None:
            transfer, _ = _uwb_trilat_report(camp2)
            gen = _generalization_entry(report, transfer)
        return report, extras, gen
    if method == "rssi-trilat":
        cal = calibrate_rssi_offset(_stream_or_raise(camp1, "rssi"),
                                    list(camp1.scenario.wifi_anchors))
        report, counts = _rssi_trilat_report(camp1, cal.beta)
        extras = {"beta_db": cal.beta, "calibration_median_m": cal.error_m, **counts}
        gen = None
        if camp2 is not None:
            # same receiver, same calibration: reuse campaign-1 beta
            gen = _generalization_entry(report, _rssi_trilat_report(camp2, cal.beta)[0])
        return report, extras, gen
    if method in ("rssi-fp", "csi-fp"):
        return _fp_report(camp1, camp2, method.split("-", 1)[0], cfg)
    return _nn_report(camp1, camp2, method, cfg)


def cmd_run(cfg: RunConfig) -> int:
    methods = sorted(set(cfg.methods))
    need_phase = "nn:csi-phase" in methods
    sidecar = read_sidecar(cfg.out / "scenario.json")
    camp1 = _prepare_campaign(cfg, sidecar, 1, need_phase)
    camp2 = _prepare_campaign(cfg, sidecar, 2, need_phase) if cfg.transfer else None

    outcomes: dict[str, tuple] = {}
    failures: dict[str, str] = {}

    def worker(name: str):
        try:
            outcomes[name] = _run_method(name, camp1, camp2, cfg)
        except Exception as exc:  # recorded, not fatal to other methods
            failures[name] = f"{type(exc).__name__}: {exc}"

    with ThreadPoolExecutor(max_workers=_max_workers(len(methods))) as pool:
        list(pool.map(worker, methods))

    named_reports = [(name, outcomes[name][0]) for name in methods
                     if name in outcomes]
    report_doc = {
        "config": {**cfg.as_dict(), "methods": methods},
        "sim_config": sim_config_to_dict(sidecar[1]),
        "methods": {},
        "failures": dict(sorted(failures.items())),
    }
    generalization = {}
    for name in methods:
        if name not in outcomes:
            continue
        report, extras, gen = outcomes[name]
        report_doc["methods"][name] = {"summary": _summary(report), **extras}
        if gen is not None:
            generalization[name] = gen
    if cfg.transfer:
        report_doc["generalization"] = generalization

    with open(cfg.out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report_doc, fh, indent=1, sort_keys=False)
        fh.write("\n")
    if named_reports:
        emit_plot(named_reports, cfg.out / "cdf", log_x=cfg.log_x)

    for name in methods:
        if name in outcomes:
            s = _summary(outcomes[name][0])
            line = (f"{name:18s} p50={s['p50_m']:.3f} m  p95={s['p95_m']:.3f} m  "
                    f"p99={s['p99_m']:.3f} m  n={s['count']}")
            if cfg.transfer and name in generalization:
                line += f"  transfer-p50={generalization[name]['transfer']['p50_m']:.3f} m"
            print(line)
        else:
            print(f"{name:18s} FAILED: {failures[name]}")
    if not outcomes:
        raise IndoorFusionError(f"all {len(methods)} methods failed: {failures}")
    return EXIT_OK


def cmd_plot(cfg: RunConfig) -> int:
    series = read_cdf_csv(cfg.out / "cdf.csv")
    write_cdf_svg(series, cfg.out / "cdf.svg", log_x=cfg.log_x)
    print(f"rendered {cfg.out / 'cdf.svg'} ({len(series)} series)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indoor-fusion",
        description="Simulate, align and localize a multi-sensor indoor run.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--out", default=None, help="dataset/artifact directory")
        p.add_argument("--config", default=None,
                       help="flat key=value option file (flags override)")

    p = sub.add_parser("simulate", help="write dataset1/dataset2 + scenario.json")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--duration", type=float, default=None, help="run length (s)")
    p.add_argument("--noiseless", action="store_true", default=None,
                   help="zero all measurement noise")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("ingest", help="clock-correct, label and frame dataset1")
    common(p)
    p.add_argument("--window", type=float, default=None,
                   help="causal staleness window (s)")
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("calibrate", help="sweep the RSSI receiver gain")
    common(p)
    p.add_argument("--window", type=float, default=None)
    p.set_defaults(handler=cmd_calibrate)

    p = sub.add_parser("run", help="evaluate localization methods")
    common(p)
    p.add_argument("--seed", type=int, default=None,
                   help="split/init seed for learned methods")
    p.add_argument("--methods", default=None,
                   help=f"comma list (default: {','.join(DEFAULT_METHODS)})")
    p.add_argument("--transfer", action="store_true", default=None,
                   help="also score every method on dataset2")
    p.add_argument("--window", type=float, default=None)
    p.add_argument("--grid", type=float, default=None,
                   help="fingerprint cell size (m)")
    p.add_argument("--k", type=int, default=None, help="fingerprint neighbors")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--log-x", dest="log_x", action="store_true", default=None)
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("plot", help="re-render cdf.svg from cdf.csv")
    common(p)
    p.add_argument("--log-x", dest="log_x", action="store_true", default=None)
    p.set_defaults(handler=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return args.handler(cfg)
    except (ConfigError, InvalidOverride) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MalformedLine, SchemaViolation, NegativeTime,
            json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (IndoorFusionError, np.linalg.LinAlgError, FloatingPointError,
            ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
