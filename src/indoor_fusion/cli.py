"""Command-line front end tying the pipeline together.

Subcommands: ``simulate`` (write a two-campaign dataset pair), ``ingest``
(clock-correct, label and frame one dataset), ``run`` (one driver fits each
requested method on campaign 1 and scores its estimates there and, with
``--transfer``, on campaign 2, then writes ``report.json``, ``cdf.csv`` and
``cdf.svg``).

Exit codes: 0 success, 2 usage/config, 3 I/O, 4 numerical failure.  Every
option is a flag.  ``INDOOR_FUSION_THREADS`` caps how many methods ``run``
evaluates concurrently; importing the package sets OpenBLAS to one thread
unless ``OPENBLAS_NUM_THREADS`` is set, so the report is the same on any core count.

``ingest`` and ``run`` read each dataset's sensor tables
through ``_read_tables``: it loads them from ``datasetN.tables.npz`` beside
the JSONL when that cache is keyed on a SHA-256 of the file's bytes and of
the ``records`` module's source, and parses the JSONL otherwise.
``simulate`` leaves such a cache beside each dataset it writes, keyed on
the bytes as they are written, and a parse leaves one too.  A stale,
damaged or unwritable cache only costs a parse, and deleting it is always
safe.

Importing this module loads neither numpy nor any stage module (see the
package docstring), and a command runs only the modules it calls:
``simulate`` runs ``errors``, ``records``, ``geometry`` and ``simulate``;
``ingest`` adds ``ingest``; ``run`` runs every module on the main thread
before its pool starts, and prepares each campaign on a pool thread.
Stage functions are looked up on their modules when called, so a function
replaced on its defining module is the one the CLI calls.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import _EXPORTS, errors, evaluate, fingerprint, geometry, ingest, mlp, records, simulate
from .defaults import DEFAULT_K, DEFAULT_RESOLUTION, DEFAULT_WINDOW_S

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
            evaluate.blocks_for_method(name)
        except ValueError as exc:
            raise errors.ConfigError(str(exc)) from exc
        return name
    raise errors.ConfigError(f"unknown method {name!r}; valid methods: "
                             f"{', '.join(STANDARD_METHODS)}, nn-fusion:<m1+m2+...>")


# ---------------------------------------------------------------------------
# Option resolution (defaults < flags)

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
            raise errors.ConfigError("method set must be non-empty")
        if self.seed < 0:
            raise errors.ConfigError(f"seed must be >= 0, got {self.seed}")
        if not math.isfinite(self.duration) or self.duration <= 0:
            raise errors.ConfigError(f"duration must be a positive duration in seconds, "
                                     f"got {self.duration}")
        if not math.isfinite(self.window) or self.window <= 0:
            raise errors.ConfigError(f"window must be a positive number of seconds, "
                                     f"got {self.window}")
        if not math.isfinite(self.grid) or self.grid <= 0:
            raise errors.ConfigError(f"grid must be a positive cell size in meters, "
                                     f"got {self.grid}")
        if self.k < 1:
            raise errors.ConfigError(f"k must be >= 1, got {self.k}")
        if self.epochs < 1:
            raise errors.ConfigError(f"epochs must be >= 1, got {self.epochs}")

    def as_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**doc, "out": str(self.out), "methods": list(self.methods)}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Each ``RunConfig`` field from its flag when the command has one and it
    was given, else its default."""
    values = {f.name: getattr(args, f.name) for f in fields(RunConfig)
              if getattr(args, f.name, None) is not None}
    if "methods" in values:
        tokens = [t.strip() for t in values["methods"].split(",") if t.strip()]
        values["methods"] = tuple(validate_method(t) for t in tokens)
    return RunConfig(**values)


def _max_workers(n_methods: int) -> int:
    workers = min(n_methods, os.cpu_count() or 1)
    env = os.environ.get("INDOOR_FUSION_THREADS")
    if env:
        try:
            cap = int(env)
        except ValueError as exc:
            raise errors.ConfigError(f"INDOOR_FUSION_THREADS must be an integer, "
                                     f"got {env!r}") from exc
        if cap < 1:
            raise errors.ConfigError(f"INDOOR_FUSION_THREADS must be >= 1, got {cap}")
        workers = min(workers, cap)
    return max(workers, 1)


# ---------------------------------------------------------------------------
# simulate / ingest

def cmd_simulate(cfg: RunConfig) -> int:
    scenario = simulate.build_scenario(cfg.seed)
    noise = simulate.NoiseConfig.zero() if cfg.noiseless else simulate.NoiseConfig()
    sim_config = simulate.SimConfig(duration=cfg.duration, noise=noise)
    shortest = 2.0 / sim_config.rates["gt"]  # the trajectory needs two poses
    if cfg.duration < shortest:
        raise errors.ConfigError(f"duration must be >= {shortest:g} s, two ground-truth periods, "
                                 f"got {cfg.duration:g}")
    # second campaign: perturbed layout, fresh measurement noise
    scenario2 = replace(simulate.perturb_scenario(scenario, simulate.DEFAULT_PERTURBATION,
                                                  cfg.seed + 1), seed=cfg.seed + 1)
    try:
        tables = simulate.simulate_run(scenario, sim_config)
        cfg.out.mkdir(parents=True, exist_ok=True)  # only once campaign 1 is built
        n1 = _write_tables(cfg.out / "dataset1.jsonl", tables)
        del tables  # not held while campaign 2 is built
        n2 = _write_tables(cfg.out / "dataset2.jsonl", simulate.simulate_run(scenario2, sim_config))
    except MemoryError as exc:
        raise errors.ConfigError(f"duration {cfg.duration:g} s does not fit in memory: {exc}")
    simulate.write_sidecar(cfg.out / "scenario.json", scenario, sim_config, scenario2)
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


def _write_tables(path: Path, tables: dict[str, records.SensorTable]) -> int:
    """``write_records(path, tables)``, leaving the tables cached beside the
    file when ``read_records`` would give back exactly them, so that
    ``_read_tables`` parses nothing.  The key is hashed from the bytes as
    they are written: the file is not read back."""
    import hashlib  # loads OpenSSL: only commands that hash a dataset pay for it

    digest = hashlib.sha256()
    n = records.write_records(path, tables, digest=digest)
    if records.round_trips(tables):
        records.save_table_cache(path.with_suffix(".tables.npz"), digest.hexdigest(), tables)
    return n


def _read_tables(path: Path) -> dict[str, records.SensorTable]:
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
    tables = records.load_table_cache(cache, before)
    if tables is None:
        tables = records.read_records(path)
        if _sha256(path) == before:
            records.save_table_cache(cache, before, tables)
    return tables


def _load_campaign(cfg: RunConfig,
                   sidecar: tuple[simulate.Scenario, simulate.SimConfig, simulate.Scenario | None],
                   which: int, phase: bool = False,
                   ) -> tuple[simulate.Scenario, ingest.IngestResult]:
    """Read and ingest one campaign; ``sidecar`` is what read_sidecar returns."""
    scenario1, sim_config, scenario2 = sidecar
    scenario = scenario1 if which == 1 else scenario2
    if scenario is None:
        raise errors.ConfigError("scenario.json records no second campaign; re-run simulate")
    tables = _read_tables(cfg.out / f"dataset{which}.jsonl")
    result = ingest.ingest_run(tables, scenario.sensor_offsets, sim_config.rates,
                               sim_config.duration, window=cfg.window, phase=phase)
    return scenario, result


def cmd_ingest(cfg: RunConfig) -> int:
    _, result = _load_campaign(cfg, simulate.read_sidecar(cfg.out / "scenario.json"), 1)
    n = ingest.write_frames(cfg.out / "frames1.jsonl", result.frames)
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


# ---------------------------------------------------------------------------
# run: method runners

def _prepare_campaign(cfg: RunConfig,
                      sidecar: tuple[simulate.Scenario, simulate.SimConfig,
                                     simulate.Scenario | None],
                      which: int, need_phase: bool,
                      ) -> tuple[simulate.Scenario, ingest.IngestResult]:
    """A campaign as the methods read it; no sensor table outlives this call."""
    return _load_campaign(cfg, sidecar, which, phase=need_phase)


def _stream_or_raise(result: ingest.IngestResult, modality: str,
                     rows=None) -> ingest.AlignedStream:
    """The ``rows`` of a campaign's stream (default: every tick)."""
    stream = result.streams.get(modality)
    if stream is None or not len(stream):
        raise errors.InsufficientData(f"dataset carries no {modality} records")
    return stream if rows is None else stream.take(rows)


def _solver_counts(est: np.ndarray, fallback: np.ndarray,
                   scenario: simulate.Scenario) -> dict:
    """Fixes answered with the anchor centroid, and fixes outside the room."""
    inside = scenario.bounds.contains(est[:, 0], est[:, 1])
    return {"fallbacks": int(fallback.sum()), "outside_room": int((~inside).sum())}


def _split(n: int, cfg: RunConfig):
    """Train and test row indices of n rows, each in split order."""
    import numpy as np

    return mlp.split_dataset(np.arange(n), mlp.SplitSpec(shuffle_seed=cfg.seed))


# A method fitted on campaign 1 is ``(estimate, rows, extras)``, as each
# ``_fit_*`` returns it (``uwb-trilat`` fits nothing): ``estimate(scenario,
# result, rows)`` gives the (N, 2) estimates for those rows of a campaign (None: all
# of them), their labels and the solver counts; ``rows`` are the campaign-1
# rows it is scored on; ``extras`` is what the fit reports.

def _uwb_estimate(scenario: simulate.Scenario, result: ingest.IngestResult,
                  rows) -> tuple[np.ndarray, np.ndarray, dict]:
    import numpy as np

    stream = _stream_or_raise(result, "uwb", rows)
    anchor_xy = geometry.anchor_positions(scenario.uwb_anchors, stream.columns)
    usable = stream.features >= 0.0
    kept = usable.any(axis=1)
    if not kept.any():
        raise errors.EmptyReport(f"none of the {len(stream)} uwb ticks has a usable (>= 0) range")
    used, usable = stream.take(kept), usable[kept]
    est, fallback = geometry.locate_from_ranges(
        np.broadcast_to(anchor_xy, (len(used), *anchor_xy.shape)), used.features, usable)
    return est, used.labels, {
        "ticks_used": len(used),
        # dropout below three anchors falls back to a degenerate estimate,
        # which is what gives the CDF its two-regime shape
        "ticks_degenerate": int((usable.sum(axis=1) < 3).sum()),
        "ticks_skipped": int((~kept).sum()),
        **_solver_counts(est, fallback, scenario)}


def _fit_rssi_trilat(scenario1: simulate.Scenario, result1: ingest.IngestResult):
    cal = fingerprint.calibrate_rssi_offset(_stream_or_raise(result1, "rssi"),
                                            scenario1.wifi_anchors)

    def estimate(scenario, result, rows):
        # same receiver, same calibration: every campaign takes campaign-1 beta
        stream = _stream_or_raise(result, "rssi", rows)
        est, fallback = fingerprint.rssi_snapshot_positions(stream, scenario.wifi_anchors,
                                                            cal.beta)
        return est, stream.labels, _solver_counts(est, fallback, scenario)

    return estimate, None, {"beta_db": cal.beta, "calibration_median_m": cal.error_m}


def _fit_fp(scenario1: simulate.Scenario, result1: ingest.IngestResult, modality: str,
            cfg: RunConfig):
    import numpy as np

    stream = _stream_or_raise(result1, modality)
    train_rows, test_rows = _split(len(stream), cfg)
    # sorted rows keep tick order: the map sums each cell's rows in time order
    radio_map = fingerprint.build_map(stream.take(np.sort(train_rows)), cfg.grid)
    centres, room = (radio_map.keys + 0.5) * radio_map.resolution, scenario1.bounds
    if outside := np.count_nonzero(~room.contains(*centres.T)):  # an estimate averages them
        raise errors.ConfigError(f"grid {cfg.grid!r} m puts {outside} of {len(radio_map)} cell "
                                 f"centres outside the {room.width:g} x {room.height:g} m room")

    def estimate(scenario, result, rows):
        stream = _stream_or_raise(result, modality, rows)
        return fingerprint.locate(stream.features, radio_map, cfg.k), stream.labels, {}

    return estimate, np.sort(test_rows), {"cells": len(radio_map),
                                          "train_samples": len(train_rows),
                                          "test_samples": len(test_rows)}


def _nn_input(result: ingest.IngestResult,
              method: str) -> tuple[ingest.Frames, ingest.FrameLayout]:
    """The frames a neural method reads, and the layout of its blocks."""
    frames = result.phase if method == "nn:csi-phase" else result.frames
    if frames is None:
        raise errors.InsufficientData("phase-featurized frames were not prepared")
    wanted = evaluate.blocks_for_method(method)  # nn:csi-phase reads the phases' csi block
    if method == "nn-fusion":
        wanted = [m for m in wanted if m in frames.layout.modalities()]
    return frames, ingest.select_blocks(frames.layout, wanted)


def _fit_nn(result1: ingest.IngestResult, method: str, cfg: RunConfig):
    # rows are split, then each input is gathered once from the shared frames
    frames, layout = _nn_input(result1, method)
    train_rows, test_rows = _split(len(frames), cfg)
    model_config = mlp.MlpConfig.for_input(layout.feature_width + layout.mask_width,
                                           epochs=cfg.epochs, seed=cfg.seed)
    model, history = evaluate.fit_network(frames, train_rows, test_rows, model_config, layout)

    def estimate(scenario, result, rows):
        frames, layout = _nn_input(result, method)
        return (*evaluate.network_estimates(model, frames, rows, layout), {})

    return estimate, test_rows, {
        "epochs_run": len(history), "train_frames": len(train_rows),
        "test_frames": len(test_rows), "input_width": model_config.layer_sizes[0],
        "history": history,
        # the restored weights are the first epoch with the least test error
        "best_epoch": min(history, key=lambda row: row[2])[0],
        "stop_reason": "patience" if len(history) < cfg.epochs else "max_epochs"}


def _summary(report: evaluate.ErrorReport) -> dict:
    return {
        "count": report.count,
        "mean_m": report.mean,
        "p50_m": report.percentiles["p50"],
        "p95_m": report.percentiles["p95"],
        "p99_m": report.percentiles["p99"],
        "fraction_within_0.3m": report.fraction_within(0.3),
        "fraction_within_1m": report.fraction_within(1.0),
    }


def _run_method(method: str, camp1: tuple[simulate.Scenario, ingest.IngestResult],
                camp2: tuple[simulate.Scenario, ingest.IngestResult] | None,
                cfg: RunConfig) -> tuple[evaluate.ErrorReport, dict, dict | None]:
    """Fit ``method`` once on campaign 1 and score its estimates on its
    campaign-1 rows (the test split for fp and nn, every tick for the
    trilaterations) and, when ``camp2`` is given, on all of campaign 2.
    Returns the self report, the fit's extras with campaign 1's solver
    counts, and the generalization entry (None without ``camp2``).  A
    campaign is the (scenario, IngestResult) pair ``_prepare_campaign`` gives."""
    scenario, result = camp1
    if method == "uwb-trilat":
        estimate, rows, extras = _uwb_estimate, None, {}
    elif method == "rssi-trilat":
        estimate, rows, extras = _fit_rssi_trilat(scenario, result)
    elif method in ("rssi-fp", "csi-fp"):
        estimate, rows, extras = _fit_fp(scenario, result, method.split("-", 1)[0], cfg)
    else:
        estimate, rows, extras = _fit_nn(result, method, cfg)
    est, labels, counts = estimate(scenario, result, rows)
    report, gen = evaluate.error_report(est, labels), None
    if camp2 is not None:
        transfer = evaluate.error_report(*estimate(*camp2, None)[:2])
        gen = {"self": _summary(report), "transfer": _summary(transfer),
               "degradation": evaluate.degradation(report, transfer)}
    return report, {**extras, **counts}, gen


def cmd_run(cfg: RunConfig) -> int:
    from concurrent.futures import ThreadPoolExecutor

    methods = sorted(set(cfg.methods))
    need_phase = "nn:csi-phase" in methods
    sidecar = simulate.read_sidecar(cfg.out / "scenario.json")
    outcomes: dict[str, tuple] = {}
    failures: dict[str, str] = {}

    def second_campaign():
        first.result()  # one load at a time: two at once cost more CPU than they save
        return _prepare_campaign(cfg, sidecar, 2, need_phase)

    def worker(name: str):
        try:
            outcomes[name] = _run_method(name, camp1, camp2, cfg)
        except Exception as exc:  # recorded, not fatal to other methods
            failures[name] = f"{type(exc).__name__}: {exc}"

    # LazyLoader's first access is not thread-safe on CPython 3.11: run every
    # stage module here, before the pool starts
    for stage in _EXPORTS:
        vars(sys.modules[f"{__package__}.{stage}"])
    with ThreadPoolExecutor(max_workers=_max_workers(len(methods))) as pool:
        # each campaign is prepared on a pool thread: the memory a preparation
        # frees stays in that thread's malloc arena, where its trainings reuse it
        first = pool.submit(_prepare_campaign, cfg, sidecar, 1, need_phase)
        second = pool.submit(second_campaign) if cfg.transfer else None
        camp1 = first.result()
        camp2 = second.result() if second is not None else None
        list(pool.map(worker, methods))

    done = [name for name in methods if name in outcomes]
    report_doc = {
        "config": {**cfg.as_dict(), "methods": methods},
        "sim_config": simulate.sim_config_to_dict(sidecar[1]),
        "methods": {name: {"summary": _summary(outcomes[name][0]), **outcomes[name][1]}
                    for name in done},
        "failures": dict(sorted(failures.items())),
    }
    if cfg.transfer:
        report_doc["generalization"] = {name: outcomes[name][2] for name in done}

    with open(cfg.out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report_doc, fh, indent=1, sort_keys=False)
        fh.write("\n")
    if done:
        evaluate.emit_plot([(name, outcomes[name][0]) for name in done], cfg.out / "cdf",
                           log_x=cfg.log_x)

    for name in methods:
        if name not in outcomes:
            print(f"{name:18s} FAILED: {failures[name]}")
            continue
        s, gen = report_doc["methods"][name]["summary"], outcomes[name][2]
        line = (f"{name:18s} p50={s['p50_m']:.3f} m  p95={s['p95_m']:.3f} m  "
                f"p99={s['p99_m']:.3f} m  n={s['count']}")
        if gen is not None:
            line += f"  transfer-p50={gen['transfer']['p50_m']:.3f} m"
        print(line)
    if not outcomes:
        raise errors.IndoorFusionError(f"all {len(methods)} methods failed: {failures}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indoor-fusion",
        description="Simulate, align and localize a multi-sensor indoor run.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--out", type=Path, default=None, help="dataset/artifact directory")

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
    return parser


def _linalg_error() -> tuple[type, ...]:
    """numpy's LinAlgError once numpy is loaded; before that none can be raised."""
    linalg = sys.modules.get("numpy.linalg")
    return () if linalg is None else (linalg.LinAlgError,)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return args.handler(cfg)
    except (errors.ConfigError, errors.InvalidOverride) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (errors.MalformedLine, errors.SchemaViolation, errors.NegativeTime,
            json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (errors.IndoorFusionError, *_linalg_error(), FloatingPointError,
            ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
