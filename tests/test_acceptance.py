"""Acceptance gate: one test per shipped guarantee, at its frozen tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Tolerances and seeds are commitments; loosening one is an API
change, not a test fix.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from artifacts import load_report
from sensor_rows import assert_same_tables, emission_truth, tables_of
from test_records import records as record_strategy

from indoor_fusion.cli import main as cli_main
from indoor_fusion.evaluate import error_report, run_generalization
from indoor_fusion.fingerprint import calibrate_rssi_offset
from indoor_fusion.geometry import locate_from_ranges
from indoor_fusion.ingest import (
    AlignedStream,
    build_fusion_frames,
    estimate_clock_offset,
    frame_layout,
    ingest_run,
    select_blocks,
)
from indoor_fusion.mlp import (
    Mlp,
    MlpConfig,
    SplitSpec,
    gradient_check,
    split_dataset,
    train_arrays,
)
from indoor_fusion.records import ClockModel, read_records, write_records
from indoor_fusion.simulate import (
    NoiseConfig,
    Perturbation,
    SimConfig,
    build_scenario,
    generate_trajectory,
    perturb_scenario,
    sample_sensors,
    simulate_run,
)


# ---------------------------------------------------------------------------
# 1. Trilateration recovers a noiseless position exactly.

def test_criterion_1_trilateration_exact_on_noiseless_ranges():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    solved = 0
    while solved < 100:
        corners = rng.uniform(0.0, 20.0, (3, 2))
        u, v = corners[1] - corners[0], corners[2] - corners[0]
        area = 0.5 * abs(u[0] * v[1] - u[1] * v[0])
        if area < 1.0:  # redraw near-collinear layouts
            continue
        target = rng.uniform(0.0, 20.0, 2)
        distances = [float(np.hypot(*(target - c))) for c in corners]
        est, fallback = locate_from_ranges(corners[None], np.asarray([distances]))
        assert not fallback[0]
        assert np.hypot(est[0, 0] - target[0], est[0, 1] - target[1]) <= 1e-7
        solved += 1
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 2. Noiseless simulate -> ingest closes on the true sensor positions.

def test_criterion_2_noiseless_ingest_reproduces_sensor_positions():
    scenario = build_scenario(5)
    config = SimConfig(duration=600.0, noise=NoiseConfig.zero())
    trajectory = generate_trajectory(scenario, config.duration, config.speed,
                                     rate=config.rates["gt"])
    tables = sample_sensors(scenario, config, trajectory)
    result = ingest_run(tables, scenario.sensor_offsets, config.rates,
                        config.duration)

    checked = 0
    for modality, stream in result.streams.items():
        # one true (x, y) per emission tick; every anchor of a tick shares it
        t_true, xy = emission_truth(tables[modality], scenario, config, trajectory)
        times, first = np.unique(t_true, return_index=True)
        where = xy[first]
        t_ref = stream.t
        labels = stream.labels
        # nearest true emission tick to each reconstructed tick
        hi = np.clip(np.searchsorted(times, t_ref), 0, len(times) - 1)
        lo = np.maximum(hi - 1, 0)
        nearest = np.where(np.abs(times[lo] - t_ref) <= np.abs(times[hi] - t_ref),
                           lo, hi)
        assert np.abs(times[nearest] - t_ref).max() < 1e-6
        err = np.hypot(labels[:, 0] - where[nearest, 0],
                       labels[:, 1] - where[nearest, 1])
        assert err.max() <= 1e-6
        checked += len(err)
    assert checked > 50_000


# ---------------------------------------------------------------------------
# 3. Backprop agrees with central finite differences.

def test_criterion_3_backprop_matches_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    for trial in range(3):
        d_in = int(rng.integers(2, 9))
        hidden = tuple(int(rng.integers(4, 24))
                       for _ in range(int(rng.integers(1, 3))))
        config = MlpConfig(layer_sizes=(d_in, *hidden, 2), seed=trial)
        model = Mlp(config)
        x = rng.normal(0.0, 1.0, (12, d_in))
        y = rng.normal(0.0, 1.0, (12, 2))
        assert gradient_check(model, x, y, samples=20, rng=rng) <= 1e-6
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 4. The gain sweep recovers an injected receiver miscalibration.

def test_criterion_4_rssi_calibration_recovers_injected_gain():
    config = SimConfig(duration=240.0)
    for injected in (10.0, 20.0):
        scenario = build_scenario(17, rssi_p0_dbm=-40.0 - injected)
        tables = simulate_run(scenario, config)
        result = ingest_run(tables, scenario.sensor_offsets, config.rates,
                            config.duration)
        cal = calibrate_rssi_offset(result.streams["rssi"],
                                    list(scenario.wifi_anchors))
        assert abs(cal.beta - injected) <= 1.0
        sweep = dict(cal.sweep_errors)
        assert sweep[cal.beta] == min(sweep.values())


# ---------------------------------------------------------------------------
# 5. Clock offsets in [-10, +10] ms come back within 1 ms.

def test_criterion_5_clock_offsets_recovered_within_a_millisecond():
    scenario = build_scenario(23)
    for injected in (-0.010, -0.006, -0.002, 0.0, 0.003, 0.007, 0.010):
        config = SimConfig(duration=60.0,
                           clocks={"uwb": ClockModel(offset=injected),
                                   "imu": ClockModel(offset=injected)})
        tables = simulate_run(scenario, config)
        for sensor in ("uwb", "imu"):
            est = estimate_clock_offset(tables[sensor].t, tables["gt"].t,
                                        config.rates[sensor], config.duration)
            assert abs(est.offset - injected) <= 1e-3, (sensor, injected)


# ---------------------------------------------------------------------------
# 6. End-to-end benchmark, thresholds frozen at seed 42 / 600 s.

def test_criterion_6_end_to_end_benchmark(tmp_path):
    start = time.perf_counter()
    assert cli_main(["simulate", "--seed", "42", "--duration", "600",
                     "--out", str(tmp_path)]) == 0
    singles = ("nn:csi", "nn:rssi", "nn:uwb", "nn:imu")
    methods = ",".join(("uwb-trilat", "nn-fusion:csi+imu") + singles)
    assert cli_main(["run", "--out", str(tmp_path), "--seed", "42",
                     "--methods", methods]) == 0

    report = load_report(tmp_path / "report.json")
    assert report["failures"] == {}
    entries = report["methods"]
    frames = (entries["nn:csi"]["train_frames"] + entries["nn:csi"]["test_frames"])
    assert 4400 <= frames <= 4500

    # (a) fusing CSI with IMU beats every single-modality network
    fused = entries["nn-fusion:csi+imu"]["summary"]["p50_m"]
    assert fused <= min(entries[m]["summary"]["p50_m"] for m in singles)

    # (b) dropout forces degenerate fallbacks, yet the sharp regime keeps at
    # least a fifth of the ticks within 0.3 m
    uwb = entries["uwb-trilat"]
    assert uwb["ticks_degenerate"] > 0
    assert uwb["summary"]["fraction_within_0.3m"] >= 0.2
    assert time.perf_counter() - start <= 600.0


# ---------------------------------------------------------------------------
# 7. Generalization: magnitude features transfer, phase features don't.

def test_criterion_7_generalization_separates_magnitude_from_phase():
    scenario = build_scenario(1234)
    config = SimConfig(duration=240.0)
    identical = replace(perturb_scenario(scenario, Perturbation(), 4321),
                        seed=4321)  # same layout and phases, fresh noise
    reseeded = perturb_scenario(
        scenario, Perturbation(session_phase_reseed=True), 4321)

    def csi_frames(sc, want_phase):
        tables = simulate_run(sc, config)
        result = ingest_run(tables, sc.sensor_offsets, config.rates,
                            config.duration, phase=want_phase)
        mag = (result.frames, select_blocks(result.frames.layout, ["csi"]))
        if not want_phase:
            return mag, None
        return mag, (result.phase, result.phase.layout)

    mag_a, phase_a = csi_frames(scenario, want_phase=True)
    mag_identical, _ = csi_frames(identical, want_phase=False)
    mag_reseeded, phase_reseeded = csi_frames(reseeded, want_phase=True)

    nn_config = MlpConfig.for_input(mag_a[1].feature_width + 1, epochs=40, seed=0)
    spec = SplitSpec(shuffle_seed=0)

    def degradation(a, b):
        (frames_a, layout_a), (frames_b, layout_b) = a, b
        train_rows, test_rows = split_dataset(np.arange(len(frames_a)), spec)
        out = run_generalization(frames_a, train_rows, test_rows, frames_b, nn_config,
                                 layout=layout_a, transfer_layout=layout_b)
        return (out.transfer_report.percentiles["p50"]
                / out.self_report.percentiles["p50"])

    assert 0.8 <= degradation(mag_a, mag_identical) <= 1.2
    assert degradation(mag_a, mag_reseeded) <= 2.0
    assert degradation(phase_a, phase_reseeded) > 2.0


# ---------------------------------------------------------------------------
# 8. Invariant property suites, >= 100 cases each, under a minute total.

def _report_from(errors):
    estimates = np.zeros((len(errors), 2))
    estimates[:, 0] = errors
    return error_report(estimates, np.zeros((len(errors), 2)))


_error_lists = st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40)


@settings(max_examples=100)
@given(rows=st.lists(record_strategy(), min_size=1, max_size=8))
def _record_roundtrip_suite(rows):
    tables = tables_of(rows)
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "stream.jsonl"
        write_records(path, tables)
        assert_same_tables(read_records(path), tables)


@settings(max_examples=100)
@given(errors=_error_lists)
def _cdf_monotone_suite(errors):
    cdf = _report_from(errors).cdf
    xs = [x for x, _ in cdf]
    ys = [y for _, y in cdf]
    assert xs == sorted(xs)
    assert all(b >= a for a, b in zip(ys, ys[1:]))
    assert ys[-1] == 1.0


@settings(max_examples=100)
@given(errors=_error_lists, p=st.floats(0.001, 1.0), q=st.floats(0.001, 1.0))
def _percentile_ordering_suite(errors, p, q):
    report = _report_from(errors)
    lo, hi = sorted((p, q))
    assert report.percentile(lo) <= report.percentile(hi)


@settings(max_examples=100)
@given(
    anchor_ticks=st.lists(st.floats(0.5, 50.0), min_size=1, max_size=8,
                          unique=True),
    other_times=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=12,
                         unique=True),
    window=st.floats(0.05, 2.0),
)
def _frame_causality_suite(anchor_ticks, other_times, window):
    csi_t = np.asarray(sorted(anchor_ticks))
    uwb_t = np.asarray(sorted(other_times))
    csi = AlignedStream("csi", csi_t, np.ones((len(csi_t), 1)),
                        np.zeros((len(csi_t), 2)), ("w0",))
    uwb = AlignedStream("uwb", uwb_t, (uwb_t + 1.0)[:, None],
                        np.zeros((len(uwb_t), 2)), ("a0",))
    frames = build_fusion_frames([csi, uwb], window=window)
    layout = frame_layout([csi, uwb])
    col = layout.feature_slice("uwb").start
    bit = layout.mask_index("uwb")
    times = uwb_t
    for t_ref, features, mask in zip(frames.t, frames.features, frames.mask):
        eligible = times[(times <= t_ref)
                         & (t_ref - times <= window)]
        if mask[bit] == 1.0:
            assert eligible.size > 0
            assert features[col] == eligible[-1] + 1.0  # newest, causal
        else:
            assert eligible.size == 0
            assert features[col] == 0.0


@settings(max_examples=100)
@given(seed=st.integers(0, 2**16), duration=st.floats(0.8, 1.6))
def _simulate_determinism_suite(seed, duration):
    scenario = build_scenario(seed)
    config = SimConfig(duration=duration)
    with tempfile.TemporaryDirectory() as folder:
        first, again = Path(folder) / "first.jsonl", Path(folder) / "again.jsonl"
        write_records(first, simulate_run(scenario, config))
        write_records(again, simulate_run(scenario, config))
        assert first.read_bytes() == again.read_bytes()


@settings(max_examples=100)
@given(seed=st.integers(0, 2**10))
def _train_determinism_suite(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (16, 3))
    y = rng.normal(0.0, 1.0, (16, 2))
    config = MlpConfig(layer_sizes=(3, 6, 2), epochs=3, batch_size=8, seed=seed)
    model_1, history_1 = train_arrays(x[:12], y[:12], x[12:], y[12:], config)
    model_2, history_2 = train_arrays(x[:12], y[:12], x[12:], y[12:], config)
    assert history_1 == history_2
    assert all(np.array_equal(a, b)
               for a, b in zip(model_1.weights, model_2.weights))
    assert all(np.array_equal(a, b)
               for a, b in zip(model_1.biases, model_2.biases))


def test_criterion_8_invariant_property_suites():
    start = time.perf_counter()
    _record_roundtrip_suite()
    _cdf_monotone_suite()
    _percentile_ordering_suite()
    _frame_causality_suite()
    _simulate_determinism_suite()
    _train_determinism_suite()
    assert time.perf_counter() - start < 60.0
