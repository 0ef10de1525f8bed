"""End-to-end checks of the command-line pipeline and its exit codes."""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
import types
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from artifacts import load_report, read_cdf_csv, read_frames

import indoor_fusion
from indoor_fusion import cli, records, simulate
from indoor_fusion.cli import (
    DEFAULT_METHODS,
    EXIT_NUMERIC,
    RunConfig,
    _prepare_campaign,
    _run_method,
    build_parser,
    main,
    resolve_config,
    validate_method,
)
from indoor_fusion.errors import ConfigError, IndoorFusionError, UndefinedDegradation
from indoor_fusion.evaluate import error_report
from indoor_fusion.ingest import (
    MIN_OVERLAP_S,
    AlignedStream,
    IngestResult,
    frames_to_arrays,
    ingest_run,
    select_blocks,
)
from indoor_fusion.mlp import MlpConfig, SplitSpec, split_dataset, train_arrays
from indoor_fusion.records import SensorTable, read_records
from indoor_fusion.simulate import NoiseConfig, build_scenario, read_sidecar


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _resolve(argv):
    return resolve_config(build_parser().parse_args(argv))


# ---------------------------------------------------------------------------
# simulate

def test_simulate_writes_the_dataset_pair(cli_campaign):
    for name in ("dataset1.jsonl", "dataset2.jsonl", "scenario.json"):
        assert (cli_campaign / name).stat().st_size > 0
    scenario, sim_config, scenario2 = read_sidecar(cli_campaign / "scenario.json")
    assert scenario.seed == 7
    assert sim_config.duration == 45.0
    assert sim_config.rates == {"gt": 5.0, "uwb": 9.0, "csi": 7.5, "imu": 76.93}
    # second campaign: new seed, perturbed layout
    assert scenario2 is not None
    assert scenario2.seed == 8
    assert scenario2.session_phase != scenario.session_phase
    assert scenario2.sensor_offsets != scenario.sensor_offsets


def test_simulate_is_byte_deterministic(cli_campaign, tmp_path):
    assert main(["simulate", "--seed", "7", "--duration", "45",
                 "--out", str(tmp_path)]) == 0
    for name in ("dataset1.jsonl", "dataset2.jsonl", "scenario.json"):
        assert (tmp_path / name).read_bytes() == (cli_campaign / name).read_bytes()


def test_simulate_noiseless_flag_zeroes_the_noise(tmp_path):
    assert main(["simulate", "--seed", "2", "--duration", "2", "--noiseless",
                 "--out", str(tmp_path)]) == 0
    _, sim_config, _ = read_sidecar(tmp_path / "scenario.json")
    assert sim_config.noise == NoiseConfig.zero()


# ---------------------------------------------------------------------------
# option resolution

def test_defaults_apply_when_nothing_is_given():
    cfg = _resolve(["run"])
    assert cfg.methods == DEFAULT_METHODS
    assert str(cfg.out) == "."
    assert cfg.seed == 0 and cfg.duration == 600.0 and not cfg.transfer


# every RunConfig field, the flag that sets it and the value it sets
FLAGS = {
    "out": (["ingest", "--out", "elsewhere"], Path("elsewhere")),
    "seed": (["simulate", "--seed", "3"], 3),
    "duration": (["simulate", "--duration", "5"], 5.0),
    "methods": (["run", "--methods", "uwb-trilat, nn-fusion:csi+uwb,"],
                ("uwb-trilat", "nn-fusion:csi+uwb")),
    "transfer": (["run", "--transfer"], True),
    "window": (["ingest", "--window", "0.25"], 0.25),
    "grid": (["run", "--grid", "0.5"], 0.5),
    "k": (["run", "--k", "3"], 3),
    "epochs": (["run", "--epochs", "4"], 4),
    "noiseless": (["simulate", "--noiseless"], True),
    "log_x": (["run", "--log-x"], True),
}


@pytest.mark.parametrize("field", list(FLAGS))
def test_each_option_is_set_by_its_flag_alone(field):
    # the only way to set an option, so a field without a flag is one nobody can set
    assert sorted(FLAGS) == sorted(f.name for f in fields(RunConfig))
    argv, value = FLAGS[field]
    cfg = _resolve(argv)
    assert getattr(cfg, field) == value
    assert replace(cfg, **{field: getattr(RunConfig(), field)}) == RunConfig()


@pytest.mark.parametrize("argv, message", [
    (["plot"], "invalid choice: 'plot'"),
    (["calibrate"], "invalid choice: 'calibrate'"),
    (["run", "--config", "x"], "unrecognized arguments: --config x"),
    (["ingest", "--config", "x"], "unrecognized arguments: --config x"),
    (["simulate", "--config", "x"], "unrecognized arguments: --config x"),
])
def test_removed_commands_and_options_exit_usage(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main([*argv, "--out", str(tmp_path)])
    assert info.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kwargs", [
    {"methods": ()},
    {"duration": 0.0},
    {"duration": float("nan")},
    {"window": 0.0},
    {"window": float("nan")},
    {"window": float("inf")},
    {"grid": -0.25},
    {"grid": float("nan")},
    {"grid": float("inf")},
    {"k": 0},
    {"epochs": 0},
    {"seed": -1},
])
def test_run_config_validation(kwargs):
    with pytest.raises(ConfigError):
        RunConfig(**kwargs)


def test_method_name_validation():
    assert validate_method("uwb-trilat") == "uwb-trilat"
    assert validate_method("nn-fusion:csi+imu") == "nn-fusion:csi+imu"
    with pytest.raises(ConfigError):
        validate_method("nn-fusion:sonar")
    # only nn:csi-phase reads the phase frames: the suffix is unknown anywhere else
    for method in ("nn-fusion:csi-phase", "nn-fusion:uwb-phase"):
        with pytest.raises(ConfigError, match="unknown modality '(csi|uwb)-phase'"):
            validate_method(method)
    with pytest.raises(ConfigError, match="valid methods"):
        validate_method("dead-reckoning")


# ---------------------------------------------------------------------------
# exit codes

def test_bad_duration_exits_config(tmp_path, capsys):
    assert main(["simulate", "--duration", "0", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    # under two ground-truth periods at 5 Hz the trajectory has one pose
    assert main(["simulate", "--duration", "0.3", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("error: duration must be >= 0.4 s, two "
                                       "ground-truth periods, got 0.3\n")
    assert not any(tmp_path.iterdir())


def test_a_duration_too_long_to_fit_in_memory_exits_config(tmp_path, capsys):
    # the trajectory's first allocation asks for petabytes and fails at once,
    # before the output directory is made
    out = tmp_path / "new"
    assert main(["simulate", "--duration", "1e15", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: duration 1e+15 s does not fit in memory: ")
    assert not out.exists()


def test_ingest_of_a_campaign_too_short_to_fit_clocks_says_so(tmp_path, capsys):
    # simulate accepts 2 s (two ground-truth poses); ingest needs 10 s of overlap
    assert main(["simulate", "--duration", "2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["ingest", "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: csi: sensor/ground-truth overlap is ")
    assert err.rstrip().endswith(f"; the campaign lasts 2 s, shorter than the "
                                 f"{MIN_OVERLAP_S:g} s that ingest needs")


def test_unknown_method_exits_config(tmp_path, capsys):
    assert main(["run", "--methods", "warp", "--out", str(tmp_path)]) == 2
    assert "valid methods" in capsys.readouterr().err


def test_unknown_fusion_block_exits_config(tmp_path):
    assert main(["run", "--methods", "nn-fusion:sonar", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv", [
    ["run"], ["ingest"],
])
def test_missing_artifacts_exit_io(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path / "nowhere")]) == 3


@pytest.mark.parametrize("argv, name", [
    (["ingest"], "scenario.json"), (["ingest"], "dataset1.jsonl"),
    (["run", "--methods", "uwb-trilat"], "scenario.json"),
    (["run", "--methods", "uwb-trilat"], "dataset1.jsonl"),
    (["run", "--methods", "uwb-trilat", "--transfer"], "dataset2.jsonl"),
])
def test_a_missing_artifact_exits_io_naming_it(cli_campaign, tmp_path, capsys, argv, name):
    out = tmp_path / "campaign"
    shutil.copytree(cli_campaign, out)
    (out / name).unlink()  # its table cache stays: the key is the file's bytes
    assert main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out / name) in err
    assert not (out / "report.json").exists() and not (out / "ingest.json").exists()


@pytest.mark.parametrize("command, key", [("ingest", "window"), ("run", "window"),
                                          ("run", "grid")])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_window_or_grid_exits_config(tmp_path, capsys, command, key, value):
    assert main([command, f"--{key}={value}", "--out", str(tmp_path)]) == 2
    assert f"error: {key} must be" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists() and not (tmp_path / "ingest.json").exists()


def test_truncated_final_line_exits_io_naming_the_line(cli_campaign, tmp_path, capsys):
    shutil.copy(cli_campaign / "scenario.json", tmp_path / "scenario.json")
    lines = (cli_campaign / "dataset1.jsonl").read_text(encoding="utf-8").splitlines()
    lines[-1] = lines[-1][:len(lines[-1]) // 2]
    (tmp_path / "dataset1.jsonl").write_text("\n".join(lines), encoding="utf-8")
    assert main(["ingest", "--out", str(tmp_path)]) == 3
    assert f"dataset1.jsonl:{len(lines)}:" in capsys.readouterr().err


@pytest.mark.parametrize("digits", [400, 5000])
def test_integer_beyond_float64_exits_io_naming_the_line(cli_campaign, tmp_path, capsys,
                                                        digits):
    # 400 digits overflow float(); 5000 pass the json module's digit limit
    shutil.copy(cli_campaign / "scenario.json", tmp_path / "scenario.json")
    lines = (cli_campaign / "dataset1.jsonl").read_text(encoding="utf-8").splitlines()
    lines[4] = re.sub(r'^\{"t":[^,]*,', '{"t":1' + "0" * digits + ",", lines[4])
    (tmp_path / "dataset1.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["ingest", "--out", str(tmp_path)]) == 3
    assert "dataset1.jsonl:5:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest", "run"])
def test_bytes_that_are_not_utf8_exit_io_naming_the_file(cli_campaign, tmp_path, capsys,
                                                         command):
    for name in ("scenario.json", "dataset1.jsonl"):
        shutil.copy(cli_campaign / name, tmp_path / name)
    with open(tmp_path / "dataset1.jsonl", "ab") as fh:
        fh.write(b"\xff\xfe")
    methods = ["--methods", "uwb-trilat"] if command == "run" else []
    assert main([command, "--out", str(tmp_path), *methods]) == 3
    assert "dataset1.jsonl: not UTF-8 text" in capsys.readouterr().err


def _campaign_copy(cli_campaign, out):
    """The CLI campaign's datasets linked into ``out``, with its own scenario.json."""
    for name in ("dataset1.jsonl", "dataset2.jsonl"):
        (out / name).symlink_to(cli_campaign / name)
    shutil.copy(cli_campaign / "scenario.json", out / "scenario.json")
    return out / "scenario.json"


def _missing_magnetic_field(path):
    doc = _load(path)
    del doc["scenario"]["magnetic_field"]
    path.write_text(json.dumps(doc), encoding="utf-8")


def _not_utf8(path):
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe")


def _sidecar_edit(edit, entry="scenario"):
    """A damage that applies ``edit`` to one scenario.json entry: the first
    campaign's scenario, or with ``entry="config"`` the sim config."""
    def damage(path):
        doc = _load(path)
        edit(doc[entry])
        path.write_text(json.dumps(doc), encoding="utf-8")
    damage.__name__ = edit.__name__
    return damage


def _short_csi_offset(scenario):
    scenario["sensor_offsets"]["csi"] = [-0.1]


def _one_bound(scenario):
    scenario["bounds"] = [8.0]


def _anchor_outside(scenario):
    scenario["uwb_anchors"][0]["position"] = [-1.0, 1.0]


def _no_subcarriers(scenario):
    scenario["subcarriers"] = 0


def _long_bump_center(scenario):
    scenario["magnetic_field"]["bumps"][0]["center"] = [1.0, 2.0, 3.0]


def _nan_duration(config):
    config["duration"] = math.nan


def _infinite_speed(config):
    config["speed"] = math.inf


def _no_uwb_rate(config):
    del config["rates"]["uwb"]


def _nan_uwb_rate(config):
    config["rates"]["uwb"] = math.nan


def _infinite_uwb_rate(config):
    config["rates"]["uwb"] = math.inf


@pytest.mark.parametrize("command", ["ingest", "run"])
@pytest.mark.parametrize("damage, message", [
    (_not_utf8, "scenario.json: not UTF-8 JSON"),
    (_missing_magnetic_field, "scenario.json: missing key 'magnetic_field'"),
    (_sidecar_edit(_short_csi_offset),
     "scenario.json: csi sensor offset must hold 3 values, got 1"),
    (_sidecar_edit(_one_bound), "scenario.json: bounds must hold 2 values, got 1"),
    (_sidecar_edit(_anchor_outside), "scenario.json: anchor u0 at (-1.0, 1.0) is outside"),
    (_sidecar_edit(_no_subcarriers), "scenario.json: subcarriers must be >= 1"),
    (_sidecar_edit(_long_bump_center), "scenario.json: bump center must hold 2 values, got 3"),
    (_sidecar_edit(_nan_duration, "config"),
     "scenario.json: duration must be finite and > 0, got nan"),
    (_sidecar_edit(_infinite_speed, "config"),
     "scenario.json: speed must be finite and > 0, got inf"),
    (_sidecar_edit(_no_uwb_rate, "config"), "scenario.json: rates lack uwb"),
    (_sidecar_edit(_nan_uwb_rate, "config"),
     "scenario.json: rate for 'uwb' must be finite and > 0, got nan"),
    (_sidecar_edit(_infinite_uwb_rate, "config"),
     "scenario.json: rate for 'uwb' must be finite and > 0, got inf"),
])
def test_malformed_sidecar_exits_io_naming_the_file(cli_campaign, tmp_path, capsys,
                                                    command, damage, message):
    damage(_campaign_copy(cli_campaign, tmp_path))
    methods = ["--methods", "uwb-trilat"] if command == "run" else []
    assert main([command, "--out", str(tmp_path), *methods]) == 3
    assert message in capsys.readouterr().err


def test_run_reads_the_sidecar_once(cli_campaign, tmp_path, monkeypatch):
    _campaign_copy(cli_campaign, tmp_path)
    calls = []

    def counting(path):
        calls.append(path)
        return read_sidecar(path)

    monkeypatch.setattr(simulate, "read_sidecar", counting)
    assert main(["run", "--out", str(tmp_path), "--methods", "uwb-trilat",
                 "--transfer"]) == 0
    assert calls == [tmp_path / "scenario.json"]


def _without_campaign_2(scenario):
    doc = _load(scenario)
    del doc["scenario2"]
    scenario.write_text(json.dumps(doc), encoding="utf-8")


def _truncated_dataset_2(scenario):
    path = scenario.parent / "dataset2.jsonl"
    text = path.read_text(encoding="utf-8")
    path.unlink()  # the copy's own file, with no cache beside it: the load parses it
    path.with_suffix(".tables.npz").unlink(missing_ok=True)
    path.write_text(text[:len(text) - 40], encoding="utf-8")


@pytest.mark.parametrize("damage, code, message", [
    (_without_campaign_2, 2, "scenario.json records no second campaign; re-run simulate"),
    (_truncated_dataset_2, 3, "dataset2.jsonl:"),
])
def test_a_campaign_that_fails_on_a_pool_thread_keeps_its_exit_code(cli_campaign, tmp_path,
                                                                    capsys, damage, code,
                                                                    message):
    damage(_campaign_copy(cli_campaign, tmp_path))
    assert main(["run", "--out", str(tmp_path), "--methods", "uwb-trilat,nn:uwb",
                 "--epochs", "1", "--transfer"]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("cap", ["1", "2"])
def test_run_prepares_each_campaign_on_a_pool_thread(cli_campaign, tmp_path, monkeypatch,
                                                     cap):
    _campaign_copy(cli_campaign, tmp_path)
    prepare, threads = cli._prepare_campaign, {}

    def recording(cfg, sidecar, which, need_phase):
        threads[which] = threading.current_thread()
        return prepare(cfg, sidecar, which, need_phase)

    monkeypatch.setattr(cli, "_prepare_campaign", recording)
    monkeypatch.setenv("INDOOR_FUSION_THREADS", cap)
    assert main(["run", "--out", str(tmp_path), "--methods", "uwb-trilat,rssi-fp",
                 "--transfer"]) == 0
    assert threading.main_thread() not in threads.values() and len(threads) == 2
    # on two workers campaign 2 waits for campaign 1 on the other thread
    assert (threads[1] is threads[2]) == (cli._max_workers(2) == 1)


@pytest.mark.parametrize("value", ["zero", "0", "-3"])
def test_bad_thread_cap_exits_config(cli_campaign, monkeypatch, value):
    monkeypatch.setenv("INDOOR_FUSION_THREADS", value)
    assert main(["run", "--methods", "uwb-trilat",
                 "--out", str(cli_campaign)]) == 2


# ---------------------------------------------------------------------------
# ingest artifacts

def test_ingest_writes_frames_and_summary(cli_campaign):
    assert main(["ingest", "--out", str(cli_campaign)]) == 0
    summary = _load(cli_campaign / "ingest.json")
    t, _, _, _ = read_frames(cli_campaign / "frames1.jsonl")
    assert summary["frames"] == len(t) > 100
    assert summary["window_s"] == 0.15
    # timestamps carry no measurement noise, so recovery is near exact
    expected = {"uwb": 0.002, "csi": -0.003, "rssi": -0.003, "imu": 0.001}
    for sensor, clock in summary["clocks"].items():
        assert abs(clock["offset_s"] - expected[sensor]) < 1e-6
        assert abs(clock["drift"]) < 1e-7
    assert [(b["modality"], b["width"]) for b in summary["blocks"]] == [
        ("csi", 676), ("rssi", 13), ("uwb", 3), ("imu", 9)]
    assert set(summary["streams"]) == set(expected)
    assert all(count > 0 for count in summary["streams"].values())


# ---------------------------------------------------------------------------
# run

def test_run_reports_each_method(cli_campaign, capsys):
    assert main(["run", "--out", str(cli_campaign), "--seed", "7", "--epochs", "3",
                 "--methods", "uwb-trilat,rssi-trilat,csi-fp,nn:uwb"]) == 0
    report = load_report(cli_campaign / "report.json")
    assert report["config"]["methods"] == ["csi-fp", "nn:uwb", "rssi-trilat", "uwb-trilat"]
    assert report["config"]["seed"] == 7
    assert report["sim_config"]["duration"] == 45.0
    assert report["failures"] == {}
    for name, entry in report["methods"].items():
        summary = entry["summary"]
        assert summary["count"] > 0
        assert 0.0 <= summary["p50_m"] <= summary["p95_m"] <= summary["p99_m"]
        assert 0.0 <= summary["fraction_within_0.3m"] <= summary["fraction_within_1m"] <= 1.0
    assert report["methods"]["uwb-trilat"]["ticks_used"] > 300
    assert report["methods"]["rssi-trilat"]["beta_db"] == pytest.approx(0.0, abs=2.0)
    assert report["methods"]["csi-fp"]["cells"] > 10
    for name in ("uwb-trilat", "rssi-trilat"):
        entry = report["methods"][name]
        count = entry["summary"]["count"]
        assert 0 <= entry["fallbacks"] <= count
        assert 0 <= entry["outside_room"] <= count
    # every degenerate uwb tick is answered with the centroid
    uwb = report["methods"]["uwb-trilat"]
    assert uwb["fallbacks"] >= uwb["ticks_degenerate"]
    # the training history: one [epoch, train mse, test median m] row per epoch
    nn = report["methods"]["nn:uwb"]
    assert [row[0] for row in nn["history"]] == list(range(nn["epochs_run"])) == [0, 1, 2]
    assert all(row[1] > 0.0 and row[2] >= 0.0 for row in nn["history"])
    test_errors = [row[2] for row in nn["history"]]
    assert nn["best_epoch"] == test_errors.index(min(test_errors))
    assert nn["stop_reason"] == "max_epochs"

    names = [name for name, _ in read_cdf_csv(cli_campaign / "cdf.csv")]
    assert names == ["csi-fp", "nn:uwb", "rssi-trilat", "uwb-trilat"]
    assert (cli_campaign / "cdf.svg").stat().st_size > 0

    out = capsys.readouterr().out
    assert "uwb-trilat" in out and "p50=" in out


@pytest.fixture(scope="module")
def imu_free_campaign(cli_campaign, tmp_path_factory):
    """Copy of the CLI campaign with every imu record removed from dataset1."""
    out = tmp_path_factory.mktemp("no-imu")
    shutil.copy(cli_campaign / "dataset2.jsonl", out / "dataset2.jsonl")
    shutil.copy(cli_campaign / "scenario.json", out / "scenario.json")
    with open(cli_campaign / "dataset1.jsonl", "r", encoding="utf-8") as fh:
        lines = [line for line in fh if json.loads(line)["sensor"] != "imu"]
    (out / "dataset1.jsonl").write_text("".join(lines))
    return out


def test_run_survives_a_failing_method(imu_free_campaign, capsys):
    assert main(["run", "--out", str(imu_free_campaign),
                 "--methods", "uwb-trilat,nn:imu", "--epochs", "1"]) == 0
    report = load_report(imu_free_campaign / "report.json")
    assert "uwb-trilat" in report["methods"]
    assert "nn:imu" not in report["methods"]
    assert "LayoutMismatch" in report["failures"]["nn:imu"]
    assert "FAILED" in capsys.readouterr().out


def test_run_reports_a_grid_too_fine_for_the_cell_indices(cli_campaign, tmp_path):
    for name in ("dataset1.jsonl", "dataset2.jsonl", "scenario.json"):
        shutil.copy(cli_campaign / name, tmp_path / name)
    assert main(["run", "--out", str(tmp_path), "--grid", "1e-300",
                 "--methods", "uwb-trilat,rssi-fp,csi-fp"]) == 0
    report = load_report(tmp_path / "report.json")
    assert set(report["methods"]) == {"uwb-trilat"}
    for method in ("rssi-fp", "csi-fp"):
        assert report["failures"][method].startswith("ConfigError: grid 1e-300 m")


@pytest.mark.parametrize("grid", ["20", "1e300"])
def test_run_reports_a_grid_coarser_than_the_room(cli_campaign, tmp_path, grid):
    # every estimate averages cell centres: the one cell's centre, outside
    # the 8 x 6 m room, gave a p50 beyond the room's diagonal, or of 7e299 m
    for name in ("dataset1.jsonl", "dataset2.jsonl", "scenario.json"):
        shutil.copy(cli_campaign / name, tmp_path / name)
    assert main(["run", "--out", str(tmp_path), "--grid", grid,
                 "--methods", "uwb-trilat,rssi-fp,csi-fp"]) == 0
    report = load_report(tmp_path / "report.json")
    assert set(report["methods"]) == {"uwb-trilat"}
    for method in ("rssi-fp", "csi-fp"):
        assert report["failures"][method] == (
            f"ConfigError: grid {float(grid)!r} m puts 1 of 1 cell centres outside "
            f"the 8 x 6 m room")


def test_run_accepts_a_coarse_grid_whose_centres_are_in_the_room(cli_campaign, tmp_path):
    for name in ("dataset1.jsonl", "dataset2.jsonl", "scenario.json"):
        shutil.copy(cli_campaign / name, tmp_path / name)
    assert main(["run", "--out", str(tmp_path), "--grid", "3",
                 "--methods", "rssi-fp,csi-fp"]) == 0
    report = load_report(tmp_path / "report.json")
    assert report["failures"] == {}
    for method in ("rssi-fp", "csi-fp"):  # centres at 1.5 and 4.5 m, and 7.5 m in x
        assert report["methods"][method]["summary"]["p50_m"] < 10.0  # the room's diagonal


# every snapshot of the 45 s seed-7 campaign inverts to ranges of 0 m
_NO_RSSI_RANGE = ("EmptyObservations: rssi: 336 of the 336 snapshots have no reading whose "
                  "range is finite and > 0")


def _rename(payload, anchor):
    if payload["anchor_id"] == anchor:
        payload["anchor_id"] = "zz9"


# A fault in every line of one sensor: (sensor, damage to its payload on a
# line, how the failure of each method that fails starts)
PAYLOAD_FAULTS = {
    "uwb anchor unknown to the scenario": (
        "uwb", lambda payload, line: _rename(payload, "u0"),
        {"uwb-trilat": "InsufficientData: no anchor positions for ['zz9']"}),
    "every rssi reading near 1e300 dBm": (  # one apart from the other: no distance is 0
        "rssi", lambda payload, line: payload.update(rssi_db=1e300 * (1.0 + line / 1e4)),
        {"rssi-fp": "NonFiniteDistance: feature distances from query 0 to ",
         "rssi-trilat": _NO_RSSI_RANGE}),
    "every rssi reading at 1e300 dBm": (  # each query's own cells stay at a finite distance
        "rssi", lambda payload, line: payload.update(rssi_db=1e300),
        {"rssi-fp": "NonFiniteDistance: feature distances from query 0 to ",
         "rssi-trilat": _NO_RSSI_RANGE}),
    "every uwb range negative": (
        "uwb", lambda payload, line: payload.update(range_m=-1.0),
        {"uwb-trilat": "EmptyReport: none of the 402 uwb ticks has a usable (>= 0) range"}),
}


@pytest.mark.filterwarnings("error")  # a numpy warning on the way is a failure too
@pytest.mark.parametrize("fault", list(PAYLOAD_FAULTS))
def test_a_faulty_sensor_fails_its_method_with_a_typed_error(cli_campaign, tmp_path, fault):
    sensor, damage, messages = PAYLOAD_FAULTS[fault]
    shutil.copy(cli_campaign / "scenario.json", tmp_path / "scenario.json")
    with open(cli_campaign / "dataset1.jsonl", "r", encoding="utf-8") as fh:
        docs = [json.loads(line) for line in fh]
    for line, doc in enumerate(docs, start=1):
        if doc["sensor"] == sensor:
            damage(doc["payload"], line)
    (tmp_path / "dataset1.jsonl").write_text("".join(json.dumps(doc) + "\n" for doc in docs),
                                             encoding="utf-8")
    assert main(["run", "--out", str(tmp_path),
                 "--methods", "uwb-trilat,rssi-trilat,rssi-fp"]) == 0
    failures = load_report(tmp_path / "report.json")["failures"]
    assert list(failures) == sorted(messages)
    for method, message in messages.items():
        assert failures[method].startswith(message), failures[method]


# ---------------------------------------------------------------------------
# ROADMAP item 3's fault matrix: the dataset faults of its probe table whose
# outcome is known, each written into campaign 1 of one 30 s campaign

@pytest.fixture(scope="module")
def fault_campaign(tmp_path_factory):
    """A 30 s seed-42 campaign: its scenario.json and the lines of each dataset."""
    out = tmp_path_factory.mktemp("fault_campaign")
    assert main(["simulate", "--seed", "42", "--duration", "30", "--out", str(out)]) == 0
    lines = {}
    for which in (1, 2):
        with open(out / f"dataset{which}.jsonl", "r", encoding="utf-8") as fh:
            lines[which] = fh.readlines()
    return out / "scenario.json", lines


def _each(sensor, change):
    """A fault that calls ``change(doc, i)`` on the i-th record of ``sensor``."""
    def fault(docs):
        for i, doc in enumerate(d for d in docs if d["sensor"] == sensor):
            change(doc, i)
        return docs
    return fault


def _without(sensor, keep=lambda i: False):
    """A fault that drops each i-th record of ``sensor`` for which ``keep(i)`` is false."""
    def fault(docs):
        count = itertools.count()
        return [d for d in docs if d["sensor"] != sensor or keep(next(count))]
    return fault


def _repeat_gt_line(change=lambda payload: None):
    """A fault that repeats the 10th gt line (t = 2 s) after it, the copy's
    payload changed by ``change``."""
    def fault(docs):
        at = [i for i, d in enumerate(docs) if d["sensor"] == "gt"][10]
        copy = json.loads(json.dumps(docs[at]))
        change(copy["payload"])
        return docs[:at + 1] + [copy] + docs[at + 1:]
    return fault


def _swap_two_imu_stamps(docs):
    a, b = [d for d in docs if d["sensor"] == "imu"][10:12]
    a["t"], b["t"] = b["t"], a["t"]
    return docs


FAULT_MATRIX = {
    "1 us of jitter on every uwb stamp": _each(
        "uwb", lambda doc, i: doc.update(t=doc["t"] + 1e-6 * (-1) ** i)),
    "3 duplicated lines": lambda docs: [
        d for i, d in enumerate(docs) for _ in range(2 if i in (100, 2000, 5000) else 1)],
    "every 7th imu line dropped": _without("imu", lambda i: i % 7 != 6),
    "one gt line duplicated": _repeat_gt_line(),
    "two gt poses at one time": _repeat_gt_line(lambda payload: payload.update(x=1.0)),
    "two imu stamps swapped": _swap_two_imu_stamps,
    "imu clock +0.5 s": _each("imu", lambda doc, i: doc.update(t=doc["t"] + 0.5)),
    "no uwb records": _without("uwb"),
    "no imu records": _without("imu"),
    "no csi records": _without("csi"),
    "no gt records": _without("gt"),
    "a uwb anchor that scenario.json lacks": _each(
        "uwb", lambda doc, i: _rename(doc["payload"], "u0")),
    "every rssi reading at 1e300 dBm": _each(
        "rssi", lambda doc, i: doc["payload"].update(rssi_db=1e300)),
    "every uwb range negated": _each(
        "uwb", lambda doc, i: doc["payload"].update(range_m=-doc["payload"]["range_m"])),
    "campaign 2: an rssi anchor that its scenario lacks": _each(
        "rssi", lambda doc, i: _rename(doc["payload"], "w00")),
}


# the exit code, the start of the message on stderr and the failures (the
# start of each failing method's message; None: no report.json) of each
# fault whose outcome is pinned; every other fault may end in any typed way
FAULT_OUTCOMES = {
    "1 us of jitter on every uwb stamp": (
        EXIT_NUMERIC, "error: uwb: duplicate or non-monotonic sensor ticks after dedup", None),
    "campaign 2: an rssi anchor that its scenario lacks": (0, "", {
        "rssi-trilat": "InsufficientData: no anchor positions for ['zz9']"}),
    "one gt line duplicated": (0, "", {}),
    "two gt poses at one time": (
        EXIT_NUMERIC, "error: gt: two different poses at t = 2.0 s", None),
    "every rssi reading at 1e300 dBm": (0, "", {
        "nn-fusion": "Divergence: the spread of 13 of 705 input features overflows float64",
        "rssi-fp": "NonFiniteDistance: feature distances from query 0 to ",
        "rssi-trilat": ("EmptyObservations: rssi: 223 of the 223 snapshots have no reading "
                        "whose range is finite and > 0")}),
}


def _error_names(cls=IndoorFusionError):
    return {cls.__name__}.union(*(_error_names(c) for c in cls.__subclasses__()))


def _numbers(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [n for item in doc for n in _numbers(item)]
    return [doc] if isinstance(doc, (int, float)) else []


@pytest.mark.parametrize("fault", list(FAULT_MATRIX))
def test_a_damaged_dataset_ends_in_a_result_or_a_typed_error(fault_campaign, tmp_path, fault,
                                                            capsys):
    scenario, lines = fault_campaign
    shutil.copy(scenario, tmp_path / "scenario.json")
    which = 2 if fault.startswith("campaign 2: ") else 1  # campaign 2 is scored by --transfer
    docs = FAULT_MATRIX[fault]([json.loads(line) for line in lines[which]])
    (tmp_path / f"dataset{which}.jsonl").write_text(
        "".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")
    if which == 2:
        (tmp_path / "dataset1.jsonl").write_text("".join(lines[1]), encoding="utf-8")
    code = main(["run", "--out", str(tmp_path), "--epochs", "1",
                 "--methods", "uwb-trilat,rssi-trilat,rssi-fp,csi-fp,nn-fusion",
                 *(["--transfer"] if which == 2 else [])])
    assert code in (0, 2, 3, 4)
    if fault in FAULT_OUTCOMES:
        want_code, want_message, want_failures = FAULT_OUTCOMES[fault]
        err = capsys.readouterr().err
        assert code == want_code and err.startswith(want_message), (code, err)
        assert (tmp_path / "report.json").exists() == (want_failures is not None)
        if want_failures is not None:
            failures = load_report(tmp_path / "report.json")["failures"]
            assert list(failures) == sorted(want_failures)
            for method, message in want_failures.items():
                assert failures[method].startswith(message), failures[method]
    if (tmp_path / "report.json").exists():
        report = load_report(tmp_path / "report.json")
        for failure in report["failures"].values():
            assert failure.split(":", 1)[0] in _error_names()
        if code == 0:
            assert all(math.isfinite(n) for n in _numbers(report))


def test_run_with_no_surviving_method_exits_numeric(imu_free_campaign, capsys):
    assert main(["run", "--out", str(imu_free_campaign),
                 "--methods", "nn:imu", "--epochs", "1"]) == 4
    assert "all 1 methods failed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ROADMAP item 8's metamorphic relations: a change to the input that must not
# change the output

_RELATION_RUN = ["--transfer", "--epochs", "1", "--methods",
                 "uwb-trilat,rssi-trilat,rssi-fp,csi-fp,nn:csi-phase,nn-fusion"]


def _relation_campaign(fault_campaign, out, dataset1):
    """``out`` holding the fault campaign with ``dataset1`` as its first dataset's lines."""
    scenario, lines = fault_campaign
    out.mkdir()
    shutil.copy(scenario, out / "scenario.json")
    (out / "dataset1.jsonl").write_text("".join(dataset1), encoding="utf-8")
    (out / "dataset2.jsonl").write_text("".join(lines[2]), encoding="utf-8")
    return out


@pytest.fixture(scope="module")
def in_order_run(fault_campaign, tmp_path_factory):
    """The fault campaign as simulate wrote it, ingested and run."""
    out = _relation_campaign(fault_campaign, tmp_path_factory.mktemp("relations") / "in_order",
                             fault_campaign[1][1])
    assert main(["ingest", "--out", str(out)]) == 0
    assert main(["run", "--out", str(out), *_RELATION_RUN]) == 0
    return out


def _reports_but_out(*outs):
    """The ``report.json`` of each directory, without ``config.out``."""
    reports = [load_report(out / "report.json") for out in outs]
    for report in reports:
        del report["config"]["out"]
    return reports


def test_shuffled_lines_change_no_output_and_no_peak(fault_campaign, in_order_run, tmp_path):
    # a dataset's line order is no input: each table is numbered in sorted
    # id order when read and labelled where its rows lie
    scenario, lines = fault_campaign
    shuffled = list(lines[1])
    random.Random(0).shuffle(shuffled)
    out = _relation_campaign(fault_campaign, tmp_path / "shuffled", shuffled)
    assert main(["ingest", "--out", str(out)]) == 0
    assert main(["run", "--out", str(out), *_RELATION_RUN]) == 0
    runs = [in_order_run, out]
    for name in ("ingest.json", "frames1.jsonl"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
    reports = _reports_but_out(*runs)
    assert reports[0] == reports[1]

    # and it costs no memory: no stage holds a sorted copy of a table
    sidecar = read_sidecar(scenario)
    campaign = (sidecar[0].sensor_offsets, sidecar[1].rates, sidecar[1].duration)
    in_order, rows_shuffled = (cli._read_tables(out / "dataset1.jsonl") for out in runs)
    assert np.any(np.diff(rows_shuffled["csi"].t) < 0)  # rows out of time order
    ingest_run(in_order, *campaign, phase=True)  # warm-up, untimed

    def peak(tables):
        tracemalloc.start()
        try:
            ingest_run(tables, *campaign, phase=True)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(rows_shuffled) <= 1.1 * peak(in_order)


def test_duplicated_lines_change_no_report(fault_campaign, in_order_run, tmp_path):
    # a record read twice is one record: every tick folds its copies
    doubled = [line for line in fault_campaign[1][1] for _ in range(2)]
    out = _relation_campaign(fault_campaign, tmp_path / "doubled", doubled)
    assert main(["run", "--out", str(out), *_RELATION_RUN]) == 0
    reports = _reports_but_out(in_order_run, out)
    assert reports[0] == reports[1]


def _reachable(root):
    """Every object reachable from ``root``, not following types, modules or functions."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        yield obj
        stack.extend(gc.get_referents(obj))


def test_a_prepared_campaign_holds_no_sensor_table(cli_campaign):
    camp = _prepare_campaign(RunConfig(out=cli_campaign),
                             read_sidecar(cli_campaign / "scenario.json"), 1, need_phase=True)
    _, result = camp
    assert result.phase is not None and "csi" in result.streams
    assert not any(isinstance(obj, SensorTable) for obj in _reachable(camp))


@pytest.mark.parametrize("duration", ["30", "120"])
def test_preparing_a_campaign_peaks_near_what_it_loads_and_keeps(tmp_path, duration):
    # the phase frames are scattered from the one labelling of the csi table,
    # each block in bounded steps: no table-sized temporary, no second copy
    assert main(["simulate", "--seed", "42", "--duration", duration, "--out", str(tmp_path)]) == 0
    sidecar = read_sidecar(tmp_path / "scenario.json")
    tables = cli._read_tables(tmp_path / "dataset1.jsonl")
    loaded = sum(getattr(table, name).nbytes for table in tables.values()
                 for name in ("t", "values", "source", "anchor", "line"))
    del tables
    gc.collect()
    tracemalloc.start()
    try:
        camp = _prepare_campaign(RunConfig(out=tmp_path), sidecar, 1, need_phase=True)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert camp[1].phase is not None
    assert peak <= 1.15 * (loaded + kept), (peak, loaded, kept)


def test_nn_path_holds_one_copy_of_each_input(short_campaign):
    # bound: the train and test inputs once each plus what train_arrays
    # allocates alone; then, once training has freed them, the transfer
    # input once plus what scoring it allocates alone
    result = short_campaign.result
    camp = (short_campaign.scenario, result)
    cfg = RunConfig(epochs=3)
    frames = result.frames
    layout = select_blocks(frames.layout, ["csi"])
    width = layout.feature_width + layout.mask_width
    train_rows, test_rows = split_dataset(np.arange(len(frames)),
                                          SplitSpec(shuffle_seed=cfg.seed))
    x_train, y_train = frames_to_arrays(frames, train_rows, layout)
    x_test, y_test = frames_to_arrays(frames, test_rows, layout)
    x_transfer, y_transfer = frames_to_arrays(frames, layout=layout)
    tracemalloc.start()
    try:
        model, _ = train_arrays(x_train, y_train, x_test, y_test,
                                MlpConfig.for_input(width, epochs=cfg.epochs, seed=cfg.seed))
        training = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        error_report(model.forward(x_transfer), y_transfer)
        scoring = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del x_train, y_train, x_test, y_test, x_transfer, y_transfer
    inputs = len(frames) * (width + 2) * 8  # x and y of train + test, or of transfer

    tracemalloc.start()
    try:
        _run_method("nn:csi", camp, camp, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= inputs + max(training, scoring) + 64 * 1024


def test_transfer_scores_the_second_campaign(cli_campaign, capsys):
    assert main(["run", "--out", str(cli_campaign), "--seed", "7",
                 "--methods", "nn:uwb", "--epochs", "2", "--transfer"]) == 0
    report = load_report(cli_campaign / "report.json")
    entry = report["generalization"]["nn:uwb"]
    assert set(entry) == {"self", "transfer", "degradation"}
    assert entry["degradation"] == pytest.approx(
        entry["transfer"]["p50_m"] / entry["self"]["p50_m"])
    assert entry["degradation"] > 0.0
    assert "transfer-p50=" in capsys.readouterr().out


def test_generalization_entry_over_a_zero_self_median_is_a_typed_error():
    # every tick at the center of one cell with one fingerprint: each fix is
    # exact; the scenario gives the room the cell centres must lie in
    stream = AlignedStream("rssi", np.arange(20.0), np.full((20, 1), -50.0),
                           np.full((20, 2), 0.25), ("w0",))
    camp = (build_scenario(0), IngestResult({"rssi": stream}, None, None, {}, 0))
    with pytest.raises(UndefinedDegradation) as info:
        _run_method("rssi-fp", camp, camp, RunConfig(grid=0.5, k=1))
    assert isinstance(info.value, IndoorFusionError)  # exit code 4 in main


def test_thread_cap_does_not_change_the_report(cli_campaign, monkeypatch):
    methods = ["run", "--out", str(cli_campaign), "--seed", "7",
               "--methods", "uwb-trilat,nn:uwb", "--epochs", "2"]
    monkeypatch.setenv("INDOOR_FUSION_THREADS", "1")
    assert main(methods) == 0
    serial = load_report(cli_campaign / "report.json")["methods"]
    monkeypatch.setenv("INDOOR_FUSION_THREADS", "3")
    assert main(methods) == 0
    threaded = load_report(cli_campaign / "report.json")["methods"]
    assert serial == threaded


def test_training_stopped_by_patience_says_so(cli_campaign):
    # phase features stop improving on the held-out split early in training
    assert main(["run", "--out", str(cli_campaign), "--seed", "7", "--epochs", "40",
                 "--methods", "nn:csi-phase"]) == 0
    nn = load_report(cli_campaign / "report.json")["methods"]["nn:csi-phase"]
    assert nn["stop_reason"] == "patience"
    # patience (10) epochs without a better test error follow the best one
    assert len(nn["history"]) == nn["epochs_run"] == nn["best_epoch"] + 11 < 40


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_importing_the_package_defaults_openblas_to_one_thread(preset, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = str(Path(indoor_fusion.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, indoor_fusion; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == expected


# Prints which package modules have run (an unexecuted stage module is still
# LazyLoader's stand-in, not a plain module) and which costly modules loaded.
_LOADED = """
import sys, types
ran = sorted(n for n, m in sys.modules.items()
             if n.startswith("indoor_fusion.") and type(m) is types.ModuleType)
costly = ("numpy", "hashlib", "_hashlib", "fractions", "decimal", "concurrent.futures")
print(ran, [m for m in costly if m in sys.modules])
"""
_STAGES = ["errors", "evaluate", "fingerprint", "geometry", "ingest", "mlp", "records",
           "simulate"]


def _fresh_process(code: str) -> str:
    """What ``code`` prints, run in a fresh interpreter on this package."""
    env = dict(os.environ)
    src = str(Path(indoor_fusion.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout.strip()


def _modules(*names: str) -> str:
    return repr(sorted(f"indoor_fusion.{n}" for n in names))


@pytest.mark.parametrize("module, ran", [("indoor_fusion", ()),
                                         ("indoor_fusion.cli", ("cli", "defaults"))],
                         ids=["package", "cli"])
def test_importing_loads_no_stage_module(module, ran):
    # the import is every command's start-up: numpy, OpenSSL and the
    # writer's number modules load only in the commands that use them, and
    # each stage module waits, registered, until a command calls into it
    out = _fresh_process(f"import sys, {module}\n{_LOADED}\n"
                         "print(sorted(n for n in sys.modules if n.startswith('indoor_fusion.')))\n"
                         "print(indoor_fusion.records._by_exponent.cache_info().currsize)")
    assert out.splitlines() == [f"{_modules(*ran)} []", _modules(*_STAGES, *ran), "0"]


def test_every_public_name_resolves_through_the_package():
    # an export left behind by a deletion fails here, not at its first use
    unresolved = []
    for name in indoor_fusion.__all__:
        try:
            getattr(indoor_fusion, name)
        except AttributeError:
            unresolved.append(name)
    assert unresolved == []


def test_each_command_runs_only_the_modules_it_calls(tmp_path):
    def command(*argv):
        return _fresh_process(f"from indoor_fusion.cli import main\n"
                              f"assert main({[*argv, '--out', str(tmp_path)]!r}) == 0\n"
                              f"{_LOADED}").splitlines()[-1]

    simulated = ("cli", "defaults", "errors", "geometry", "records", "simulate")
    assert command("simulate", "--duration", "12") == (
        f"{_modules(*simulated)} ['numpy', 'hashlib', '_hashlib']")
    assert command("ingest") == (
        f"{_modules(*simulated, 'ingest')} ['numpy', 'hashlib', '_hashlib']")


@pytest.mark.parametrize("argv", [
    ["simulate", "--duration", "12"], ["ingest"],
    ["run", "--transfer", "--methods", "uwb-trilat,rssi-trilat,csi-fp,nn:csi", "--epochs", "1"],
], ids=["simulate", "ingest", "run"])
def test_no_command_loads_numpy_ma(tmp_path, argv):
    # np.median and np.unique without index flags import numpy.ma on their
    # first call, 10-16 ms and 1.3 MiB in a process that already has numpy
    if argv[0] != "simulate":
        assert main(["simulate", "--duration", "12", "--out", str(tmp_path)]) == 0
    out = _fresh_process(f"import sys\nfrom indoor_fusion.cli import main\n"
                         f"assert main({[*argv, '--out', str(tmp_path)]!r}) == 0\n"
                         f"print('numpy.ma' in sys.modules)")
    assert out.splitlines()[-1] == "False"


def test_run_executes_every_stage_module_before_its_pool_starts(cli_campaign, tmp_path):
    # LazyLoader's first access is not thread-safe on CPython 3.11, so no
    # stage module may run for the first time on a pool thread
    _campaign_copy(cli_campaign, tmp_path)
    out = _fresh_process(
        "import concurrent.futures, sys, types\n"
        "from indoor_fusion.cli import main\n"
        "start = concurrent.futures.ThreadPoolExecutor.__init__\n"
        "def checked(self, *args, **kwargs):\n"
        "    print(sorted(n for n, m in sys.modules.items() if n.startswith('indoor_fusion.')\n"
        "                 and type(m) is not types.ModuleType))\n"
        "    start(self, *args, **kwargs)\n"
        "concurrent.futures.ThreadPoolExecutor.__init__ = checked\n"
        f"assert main(['run', '--out', {str(tmp_path)!r}, '--methods', 'uwb-trilat,nn:csi-phase',"
        f" '--epochs', '1', '--transfer']) == 0\n")
    assert out.splitlines()[0] == "[]"


def test_a_linalg_error_inside_a_command_exits_numeric(tmp_path, monkeypatch, capsys):
    def singular(seed):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(simulate, "build_scenario", singular)
    assert main(["simulate", "--out", str(tmp_path)]) == 4
    assert "error: Singular matrix" in capsys.readouterr().err


def test_noiseless_trilateration_is_exact_end_to_end(tmp_path):
    assert main(["simulate", "--seed", "1", "--duration", "40", "--noiseless",
                 "--out", str(tmp_path)]) == 0
    assert main(["run", "--out", str(tmp_path), "--methods", "uwb-trilat"]) == 0
    summary = load_report(tmp_path / "report.json")["methods"]["uwb-trilat"]["summary"]
    assert summary["p99_m"] <= 1e-6
    assert summary["fraction_within_0.3m"] == 1.0


# ---------------------------------------------------------------------------
# the sensor-table cache beside each dataset

_FAST_RUN = ["--methods", "uwb-trilat,rssi-fp", "--seed", "7"]


def _fresh_copy(cli_campaign, out):
    """The CLI campaign's files copied into ``out``, with no table cache yet."""
    for name in ("dataset1.jsonl", "dataset2.jsonl", "scenario.json"):
        shutil.copy(cli_campaign / name, out / name)
    return out


@pytest.fixture
def parses(monkeypatch):
    """The names of the datasets the CLI parses, in call order."""
    calls = []

    def counting(path, *args, **kwargs):
        calls.append(Path(path).name)
        return read_records(path, *args, **kwargs)

    monkeypatch.setattr(records, "read_records", counting)
    return calls


def test_a_warm_run_reports_what_the_cold_run_did_without_parsing(cli_campaign, tmp_path,
                                                                   parses):
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    for out in (cold, warm):
        out.mkdir()
    _fresh_copy(cli_campaign, cold)
    assert main(["run", "--out", str(cold), "--transfer", *_FAST_RUN]) == 0
    assert parses == ["dataset1.jsonl", "dataset2.jsonl"]
    for name in ("dataset1.jsonl", "dataset2.jsonl", "scenario.json",
                 "dataset1.tables.npz", "dataset2.tables.npz"):
        shutil.copy(cold / name, warm / name)
    assert main(["run", "--out", str(warm), "--transfer", *_FAST_RUN]) == 0
    assert parses == ["dataset1.jsonl", "dataset2.jsonl"]  # the warm run parsed nothing
    reports = [load_report(out / "report.json") for out in (cold, warm)]
    for report in reports:
        del report["config"]["out"]
    assert reports[0] == reports[1]
    assert (cold / "cdf.csv").read_bytes() == (warm / "cdf.csv").read_bytes()


def test_ingest_and_run_parse_the_dataset_once(cli_campaign, tmp_path, parses):
    out = _fresh_copy(cli_campaign, tmp_path)
    for argv in (["ingest"], ["run", *_FAST_RUN]):
        assert main([*argv, "--out", str(out)]) == 0
    assert parses == ["dataset1.jsonl"]
    assert not (out / "dataset2.tables.npz").exists()  # no command read dataset2


def test_a_flipped_digit_is_parsed_again(cli_campaign, tmp_path, parses):
    out = _fresh_copy(cli_campaign, tmp_path)
    path = out / "dataset1.jsonl"
    assert main(["ingest", "--out", str(out)]) == 0
    data = bytearray(path.read_bytes())
    at = data.index(b'"range_m":') + len(b'"range_m":') + 2  # first digit after the point
    assert chr(data[at]).isdigit()
    data[at] = ord("5") if data[at] != ord("5") else ord("6")
    before = path.stat()
    path.write_bytes(data)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))  # same size, same mtime
    assert main(["ingest", "--out", str(out)]) == 0
    assert parses == ["dataset1.jsonl", "dataset1.jsonl"]
    assert main(["ingest", "--out", str(out)]) == 0  # the cache now holds the new content
    assert parses == ["dataset1.jsonl", "dataset1.jsonl"]


def test_a_changed_parser_parses_again(cli_campaign, tmp_path, parses, monkeypatch):
    out = _fresh_copy(cli_campaign, tmp_path)
    assert main(["ingest", "--out", str(out)]) == 0
    source = Path(records.__file__).read_bytes()
    assert records._format_digest() == hashlib.sha256(source).hexdigest()
    monkeypatch.setattr(records, "_format_digest", lambda: "0" * 64)  # records.py edited
    assert main(["ingest", "--out", str(out)]) == 0
    assert main(["ingest", "--out", str(out)]) == 0  # cached again, under the new digest
    assert parses == ["dataset1.jsonl", "dataset1.jsonl"]


def test_a_broken_line_behind_a_cache_exits_io_naming_it(cli_campaign, tmp_path, capsys):
    out = _fresh_copy(cli_campaign, tmp_path)
    assert main(["ingest", "--out", str(out)]) == 0
    lines = (out / "dataset1.jsonl").read_text(encoding="utf-8").splitlines()
    lines[9] = lines[9][:-2]
    (out / "dataset1.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["ingest", "--out", str(out)]) == 3
    assert "dataset1.jsonl:10:" in capsys.readouterr().err


def _truncated(cache):
    cache.write_bytes(cache.read_bytes()[:cache.stat().st_size // 2])


def _garbage(cache):
    cache.write_bytes(b"not a cache\n")


def _rewrite(cache, change):
    """Write the cache's arrays back after ``change``, keeping its key."""
    with np.load(cache) as npz:
        arrays = dict(npz)
    change(arrays)
    with open(cache, "wb") as fh:
        np.savez(fh, **arrays)


def _retyped(cache):
    _rewrite(cache, lambda a: a.update({"uwb.t": a["uwb.t"].astype(np.float32)}))


def _short_column(cache):
    _rewrite(cache, lambda a: a.update({"gt.line": a["gt.line"][:-1]}))


def _missing_column(cache):
    _rewrite(cache, lambda a: a.pop("csi.values"))


def _lone_array(cache):
    with open(cache, "wb") as fh:
        np.save(fh, np.zeros(3))


def _index_past_its_ids(cache):  # every id still used, one row numbered past them
    def change(a):
        a["uwb.source"][0] = len(a["uwb.source_ids"])
    _rewrite(cache, change)


@pytest.mark.parametrize("damage", [_truncated, _garbage, _retyped, _short_column,
                                    _missing_column, _lone_array, _index_past_its_ids])
def test_a_damaged_cache_is_parsed_past_and_rewritten(cli_campaign, tmp_path, parses,
                                                      damage):
    out = _fresh_copy(cli_campaign, tmp_path)
    argv = ["run", "--out", str(out), *_FAST_RUN]
    assert main(argv) == 0
    want = load_report(out / "report.json")
    damage(out / "dataset1.tables.npz")
    assert main(argv) == 0
    assert load_report(out / "report.json") == want
    assert main(argv) == 0  # served from the rewritten cache
    assert parses == ["dataset1.jsonl", "dataset1.jsonl"]


def test_a_directory_at_the_cache_path_is_left_alone(cli_campaign, tmp_path, parses):
    out = _fresh_copy(cli_campaign, tmp_path)
    (out / "dataset1.tables.npz").mkdir()
    for _ in range(2):
        assert main(["ingest", "--out", str(out)]) == 0
    assert parses == ["dataset1.jsonl", "dataset1.jsonl"]
    assert sorted(p.name for p in out.iterdir()) == [
        "dataset1.jsonl", "dataset1.tables.npz", "dataset2.jsonl", "frames1.jsonl",
        "ingest.json", "scenario.json"]
    assert not any((out / "dataset1.tables.npz").iterdir())


def test_cached_tables_match_the_parse_bit_for_bit(cli_campaign, tmp_path, monkeypatch):
    path = _fresh_copy(cli_campaign, tmp_path) / "dataset1.jsonl"
    want = read_records(path)
    cli._read_tables(path)  # parses, then writes the cache

    def no_parse(*args, **kwargs):
        raise AssertionError("the cache was not used")

    monkeypatch.setattr(records, "read_records", no_parse)
    got = cli._read_tables(path)
    assert list(got) == list(want)
    assert got["imu"].anchor_ids == () == got["gt"].anchor_ids
    for sensor, table in want.items():
        cached = got[sensor]
        assert (cached.sensor, cached.source_ids, cached.anchor_ids) == (
            table.sensor, table.source_ids, table.anchor_ids)
        for name in ("t", "values", "source", "anchor", "line"):
            a, b = getattr(cached, name), getattr(table, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()
            assert not a.flags.writeable


def test_nothing_parses_a_campaign_that_simulate_wrote(tmp_path, parses):
    sim, fresh = tmp_path / "sim", tmp_path / "fresh"
    assert main(["simulate", "--seed", "7", "--duration", "30", "--out", str(sim)]) == 0
    fresh.mkdir()
    _fresh_copy(sim, fresh)
    for out in (sim, fresh):
        for argv in (["ingest"], ["run", "--transfer", *_FAST_RUN]):
            assert main([*argv, "--out", str(out)]) == 0
        if out == sim:
            assert parses == []
    assert parses == ["dataset1.jsonl", "dataset2.jsonl"]  # only the copy was parsed
    for name in ("frames1.jsonl", "ingest.json", "cdf.csv"):
        assert (sim / name).read_bytes() == (fresh / name).read_bytes(), name
    reports = [load_report(out / "report.json") for out in (sim, fresh)]
    for report in reports:
        del report["config"]["out"]
    assert reports[0] == reports[1]


def test_simulate_reads_no_dataset_back(tmp_path, monkeypatch):
    # the cache key is hashed from the bytes as they are written
    reads, real_open = [], open

    def recording_open(file, mode="r", *args, **kwargs):
        if "r" in mode and str(file).startswith(str(tmp_path)):
            reads.append(Path(file).name)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", recording_open)
    monkeypatch.setattr(cli, "_sha256", lambda path: reads.append(f"hash {path.name}"))
    assert main(["simulate", "--seed", "7", "--duration", "30", "--out", str(tmp_path)]) == 0
    assert reads == []
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dataset1.jsonl", "dataset1.tables.npz", "dataset2.jsonl", "dataset2.tables.npz",
        "scenario.json"]


def test_a_flipped_digit_in_a_simulated_dataset_is_parsed_again(tmp_path, parses):
    assert main(["simulate", "--seed", "7", "--duration", "30", "--out", str(tmp_path)]) == 0
    path = tmp_path / "dataset1.jsonl"
    assert path.with_suffix(".tables.npz").exists()
    data = bytearray(path.read_bytes())
    at = data.index(b'"range_m":') + len(b'"range_m":') + 2  # first digit after the point
    data[at] = ord("5") if data[at] != ord("5") else ord("6")
    path.write_bytes(data)
    assert main(["ingest", "--out", str(tmp_path)]) == 0
    assert parses == ["dataset1.jsonl"]
