"""Clock recovery, ground-truth labeling, and fusion-frame assembly."""

import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artifacts import read_frames
from sensor_rows import tables_of

from indoor_fusion import ingest
from indoor_fusion.errors import (
    ClockFitError,
    EmptyGroundTruth,
    InsufficientOverlap,
    LayoutMismatch,
    MalformedLine,
)
from indoor_fusion.ingest import (
    DEFAULT_WINDOW_S,
    MODALITY_ORDER,
    RSSI_FLOOR_DB,
    UWB_MISSING_RANGE,
    AlignedStream,
    BlockDef,
    FrameLayout,
    Frames,
    build_fusion_frames,
    correct_clock,
    estimate_clock_offset,
    frame_layout,
    frames_to_arrays,
    groundtruth_interpolator,
    ingest_run,
    label_with_groundtruth,
    select_blocks,
    sensor_rate,
    write_frames,
)
from indoor_fusion.mlp import SplitSpec, split_dataset
from indoor_fusion.records import (
    ClockModel,
    SensorOffset,
    read_records,
    write_records,
)
from indoor_fusion.simulate import generate_trajectory


def _uwb(t, anchor="u0", rng=1.0, source="tag0"):
    return ("uwb", t, source, anchor, [rng, -50.0])


def _gt_line(duration, rate=5.0, speed=0.1):
    """Robot walking +x from the origin at constant heading 0."""
    n = int(duration * rate)
    return [("gt", k / rate, "robot", None, [speed * k / rate, 0.0, 0.0]) for k in range(n)]


def _gt_times(duration):
    return tables_of(_gt_line(duration))["gt"].t


def _interp(duration):
    return groundtruth_interpolator(tables_of(_gt_line(duration))["gt"])


def _label(rows, duration, offset=SensorOffset()):
    """The ticks of one sensor's rows against ``_gt_line(duration)``."""
    (table,) = tables_of(rows).values()
    return label_with_groundtruth(table, _interp(duration), offset)


def _ticks(duration, rate):
    n = int(math.floor(duration * rate + 1e-9))
    return (np.arange(n) + 1.0) / rate


def test_sensor_rate_rssi_rides_on_csi():
    rates = {"gt": 5.0, "csi": 7.5, "uwb": 9.0}
    assert sensor_rate(rates, "uwb") == 9.0
    assert sensor_rate(rates, "rssi") == 7.5
    with pytest.raises(KeyError):
        sensor_rate(rates, "imu")


def test_correct_clock_inverts_the_skew_and_drops_negative_times():
    clock = ClockModel(offset=0.005, drift=5e-5)
    rows = [_uwb(t * (1.0 + clock.drift) + clock.offset) for t in (0.0, 1.0, 2.0)]
    rows.insert(0, _uwb(0.001))  # corrects to a pre-epoch time
    out = correct_clock(tables_of(rows)["uwb"], clock)
    assert len(out) == 3
    np.testing.assert_allclose(out.t, [0.0, 1.0, 2.0], rtol=0.0, atol=1e-12)
    assert out.line.tolist() == [2, 3, 4]


# ---------------------------------------------------------------------------
# Clock estimation

@pytest.mark.parametrize("offset", [-0.010, -0.004, 0.0, 0.003, 0.010])
def test_clock_offset_sweep_on_a_complete_stream(offset):
    rate, duration = 9.0, 60.0
    clock = estimate_clock_offset(_ticks(duration, rate) + offset, _gt_times(duration), rate,
                                  duration)
    assert clock.offset == pytest.approx(offset, abs=1e-9)
    assert clock.drift == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("offset", [-0.010, 0.010])
def test_clock_offset_beyond_half_period_needs_completeness(offset):
    # 76.93 Hz: a 10 ms offset exceeds half the 13 ms tick period, so the
    # absolute grid position is only recoverable from stream completeness
    rate, duration = 76.93, 30.0
    clock = estimate_clock_offset(_ticks(duration, rate) + offset, _gt_times(duration), rate,
                                  duration)
    assert clock.offset == pytest.approx(offset, abs=1e-9)


def test_clock_offset_survives_dropout():
    rate, duration, offset = 9.0, 60.0, 0.007
    ts = _ticks(duration, rate)
    kept = ts[np.arange(len(ts)) % 5 != 2]  # drop every fifth tick
    clock = estimate_clock_offset(kept + offset, _gt_times(duration), rate, duration)
    assert clock.offset == pytest.approx(offset, abs=1e-9)


def test_clock_offset_survives_losing_the_first_ticks():
    rate, duration, offset = 9.0, 60.0, -0.006
    clock = estimate_clock_offset(_ticks(duration, rate)[3:] + offset, _gt_times(duration),
                                  rate, duration)
    assert clock.offset == pytest.approx(offset, abs=1e-9)


def test_clock_drift_recovery():
    rate, duration, offset, drift = 9.0, 120.0, 0.002, 5e-5
    t = _ticks(duration, rate) * (1.0 + drift) + offset
    clock = estimate_clock_offset(t, _gt_times(duration), rate, duration)
    assert clock.drift == pytest.approx(drift, abs=1e-9)
    assert clock.offset == pytest.approx(offset, abs=1e-7)


def test_clock_drift_at_the_model_boundary_is_clamped():
    rate, duration = 9.0, 60.0
    t = _ticks(duration, rate) * (1.0 + 1e-4)
    clock = estimate_clock_offset(t, _gt_times(duration), rate, duration)
    assert abs(clock.drift) <= 1e-4


def test_clock_drift_beyond_the_model_is_rejected():
    rate, duration = 9.0, 60.0
    t = _ticks(duration, rate) * (1.0 + 2e-4)
    with pytest.raises(ClockFitError, match="exceeds the clock model range"):
        estimate_clock_offset(t, _gt_times(duration), rate, duration)


def test_clock_estimation_needs_overlap_and_ticks():
    rate = 9.0
    with pytest.raises(InsufficientOverlap):
        estimate_clock_offset(np.zeros(0), _gt_times(60.0), rate)
    with pytest.raises(InsufficientOverlap):
        estimate_clock_offset(_ticks(5.0, rate), _gt_times(5.0), rate)
    # three ticks spread over a long span is still too sparse
    with pytest.raises(InsufficientOverlap):
        estimate_clock_offset(np.asarray([1.0, 20.0, 40.0]), _gt_times(60.0), rate)


def test_clock_estimation_rejects_sub_period_spacing():
    t = np.asarray([1.0, 1.0001, 2.0] + [float(t) for t in range(3, 40)])
    with pytest.raises(ClockFitError, match="non-monotonic sensor ticks"):
        estimate_clock_offset(t, _gt_times(40.0), 1.0)


# ---------------------------------------------------------------------------
# Labeling

def test_groundtruth_interpolator_takes_a_gt_table_in_any_row_order():
    table = tables_of(_gt_line(10.0))["gt"]
    interp = groundtruth_interpolator(table.take(np.arange(len(table))[::-1]))
    np.testing.assert_allclose(interp.position_at([1.0]), [[0.1, 0.0]], atol=1e-12)
    with pytest.raises(EmptyGroundTruth):
        groundtruth_interpolator(table.take([0]))


def test_groundtruth_interpolator_folds_repeated_rows_and_names_a_conflict():
    rows = _gt_line(10.0)
    interp = groundtruth_interpolator(tables_of(rows[:5] + rows[3:])["gt"])
    np.testing.assert_array_equal(interp.t, _interp(10.0).t)
    np.testing.assert_array_equal(interp.xy, _interp(10.0).xy)
    sensor, t, source, anchor, (x, y, phi) = rows[3]
    with pytest.raises(EmptyGroundTruth, match=r"^gt: two different poses at t = 0\.6 s$"):
        groundtruth_interpolator(tables_of(rows + [(sensor, t, source, anchor,
                                                    [x + 1.0, y, phi])])["gt"])
    with pytest.raises(EmptyGroundTruth):  # one pose, twice
        groundtruth_interpolator(tables_of(rows[:1] * 2)["gt"])
    # headings pi and -pi are one pose once wrapped: they fold, as one -pi
    turned = [(s, t, src, a, [x, y, math.pi]) for s, t, src, a, (x, y, _) in rows]
    twice = turned[:4] + [(s, t, src, a, [x, y, -math.pi]) for s, t, src, a, (x, y, _)
                          in turned[3:]]
    interp = groundtruth_interpolator(tables_of(twice)["gt"])
    np.testing.assert_array_equal(interp.t, _interp(10.0).t)
    np.testing.assert_array_equal(interp.phi, np.full(len(rows), -math.pi))


def test_labeling_translates_to_the_sensor_mount():
    # _gt_line: heading 0 along +x at 0.1 m/s
    stream = _label([_uwb(t) for t in _ticks(19.0, 2.0)], 20.0,
                    SensorOffset(0.0, 0.25, 0.0)).stream()
    assert stream.modality == "uwb"
    for t, (x, y) in zip(stream.t, stream.labels):
        assert x == pytest.approx(0.1 * t, abs=1e-12)
        assert y == pytest.approx(0.25, abs=1e-12)


def test_labeling_drops_records_outside_the_groundtruth_span():
    # _gt_line(10.0): last pose at t = 1.8
    stream = _label([_uwb(1.0), _uwb(5.0), _uwb(25.0)], 10.0).stream()
    assert len(stream) == 2
    assert stream.dropped == 1
    assert stream.record_count == 2


def test_uwb_and_rssi_feature_layout_marks_missing_anchors():
    stream = _label([_uwb(1.0, "u0", 2.0), _uwb(1.0, "u1", 3.0), _uwb(2.0, "u1", 4.0)],
                    20.0).stream()
    assert stream.columns == ("u0", "u1")
    np.testing.assert_array_equal(stream.features[0], [2.0, 3.0])
    np.testing.assert_array_equal(stream.features[1], [UWB_MISSING_RANGE, 4.0])

    rstream = _label([("rssi", 1.0, "esp0", "w00", [-41.0]),
                      ("rssi", 2.0, "esp0", "w01", [-52.0])], 20.0).stream()
    np.testing.assert_array_equal(rstream.features[0], [-41.0, RSSI_FLOOR_DB])
    np.testing.assert_array_equal(rstream.features[1], [RSSI_FLOOR_DB, -52.0])


def test_csi_feature_layout_variants():
    mags = np.asarray([1.0, 2.0, 3.0])
    phases = np.asarray([0.1, 0.2, 0.3])
    rows = [("csi", 1.0, "esp0", "w00", [*mags, *phases]),
            ("csi", 2.0, "esp0", "w01", [*(2 * mags), *(-phases)])]

    ticks = _label(rows, 20.0)
    mag_stream = ticks.stream()
    assert mag_stream.columns == ("w00",) * 3 + ("w01",) * 3
    np.testing.assert_array_equal(mag_stream.features[0],
                                  [1.0, 2.0, 3.0, 0.0, 0.0, 0.0])

    # each reading's phases follow its magnitudes, as ingest_run reads them
    phase_stream = replace(ticks, values=ticks.values[:, ticks.width:]).stream()
    assert phase_stream.columns == mag_stream.columns
    np.testing.assert_array_equal(phase_stream.features[1],
                                  [0.0, 0.0, 0.0, -0.1, -0.2, -0.3])


def test_imu_features_take_the_newest_record_in_a_tick():
    first = ("imu", 1.0, "imu0", None, [1, 0, 9.81, 0, 0, 0.1, 19, 4, -45])
    second = ("imu", 1.0, "imu0", None, [2, 0, 9.81, 0, 0, 0.2, 19, 4, -45])
    stream = _label([first, second], 20.0).stream()
    assert stream.columns[:3] == ("accel_x", "accel_y", "accel_z")
    assert stream.features[0, 0] == 2.0
    assert stream.features[0, 5] == 0.2


def test_align_all_splits_by_modality():
    # ingest labels each sensor's table on its own, against the one gt table
    rows = (_gt_line(20.0) + [_uwb(t) for t in _ticks(20.0, 9.0)]
            + [("rssi", t, "esp0", "w00", [-50.0]) for t in _ticks(20.0, 7.5)])
    result = ingest_run(tables_of(rows), {"uwb": SensorOffset(0.1, 0, 0)},
                        {"uwb": 9.0, "csi": 7.5}, 20.0)
    assert set(result.streams) == {"uwb", "rssi"}
    uwb, rssi = result.streams["uwb"], result.streams["rssi"]
    # 0.1 m/s along +x; the uwb mount sits 0.1 m ahead of the robot center
    np.testing.assert_allclose(uwb.labels[:, 0], 0.1 * uwb.t + 0.1, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(rssi.labels[:, 0], 0.1 * rssi.t, rtol=0.0, atol=1e-12)


def _reference_label(rows, interp, offset, csi_features):
    """Per-row labeling: ticks in a dict keyed by exact time, anchors in
    per-tick dicts (so the last row of an anchor wins), one feature
    vector per tick."""
    ticks = {}
    for row in rows:
        if interp.t[0] <= row[1] <= interp.t[-1]:
            ticks.setdefault(row[1], []).append(row)
    anchors = sorted({row[3] for tick in ticks.values() for row in tick if row[3] is not None})
    times = np.asarray(sorted(ticks))
    out = []
    for t, pos in zip(times, interp.sensor_position_at(times, offset)):
        tick = ticks[float(t)]
        sensor = tick[0][0]
        if sensor == "imu":
            features = np.asarray(tick[-1][4], dtype=np.float64)
        elif sensor == "csi":
            by = {row[3]: np.asarray(row[4], dtype=np.float64) for row in tick}
            half = len(tick[0][4]) // 2
            pick = slice(0, half) if csi_features == "magnitude" else slice(half, None)
            features = np.concatenate([by[a][pick] if a in by else np.zeros(half)
                                       for a in anchors])
        else:
            missing = UWB_MISSING_RANGE if sensor == "uwb" else RSSI_FLOOR_DB
            by = {row[3]: row[4][0] for row in tick}
            features = np.asarray([by.get(a, missing) for a in anchors])
        out.append((float(t), features, float(pos[0]), float(pos[1])))
    return out


@st.composite
def tick_records(draw, sensors=("uwb", "rssi", "csi", "imu")):
    """One modality's rows on few ticks and anchors, so both collide."""
    sensor = draw(st.sampled_from(sensors))
    n = draw(st.integers(1, 25))
    out = []
    for _ in range(n):
        t = draw(st.sampled_from([0.5, 1.0, 1.25, 3.0, 7.5, 12.0]))
        source = draw(st.sampled_from(["a", "b"]))
        anchor = draw(st.sampled_from(["w2", "w0", "w1"]))
        v = draw(st.floats(-100.0, 100.0))
        values = {"uwb": [v, -50.0], "rssi": [v], "csi": [v, v + 1.0, -v, 0.5],
                  "imu": [v, 0.0, 9.81, 0.0, v, 0.0, 19.0, 4.0, v]}[sensor]
        out.append((sensor, t, source, None if sensor == "imu" else anchor, values))
    return out


@given(st.data(), st.sampled_from(["magnitude", "phase"]))
@settings(max_examples=150)
def test_label_table_matches_per_record_labeling(data, csi_features):
    interp = _interp(10.0)  # t in [0, 1.8]: later ticks are dropped
    offset = SensorOffset(0.1, -0.2, 0.3)
    step = mock.patch.object(ingest, "_GATHER_ROWS", data.draw(st.integers(1, 4)))
    if csi_features == "magnitude":
        rows = data.draw(tick_records())
        (table,) = tables_of(rows).values()
        with step:  # cells scattered a few at a time
            stream = label_with_groundtruth(table, interp, offset).stream()
        got = (stream.t, stream.features, stream.labels)
    else:  # ingest_run's phase frames, on a clock that corrects nothing
        rows = data.draw(tick_records(sensors=("csi",)))
        tables = tables_of(rows + _gt_line(10.0))
        with step, mock.patch.object(ingest, "estimate_clock_offset",
                                     return_value=ClockModel()):
            result = ingest_run(tables, {"csi": offset}, {"csi": 1.0}, 10.0, phase=True)
        rows = sorted(rows, key=lambda row: row[1:3])  # corrected order: (t, source id)
        stream, frames = result.streams["csi"], result.phase
        assert frames.layout.modalities() == ("csi",) and np.all(frames.mask == 1.0)
        got = (frames.t, frames.features, frames.labels)
    expected = _reference_label(rows, interp, offset, csi_features)
    assert len(got[0]) == len(expected)
    for s_t, s_features, s_label, (t, features, x, y) in zip(
            got[0].tolist(), got[1], got[2].tolist(), expected):
        assert s_t == t and s_label == [x, y]
        np.testing.assert_array_equal(s_features, features)
    kept = sum(interp.t[0] <= row[1] <= interp.t[-1] for row in rows)
    assert (stream.record_count, stream.dropped) == (kept, len(rows) - kept)


def test_correct_table_sorts_by_time_then_source_keeping_ties_in_order():
    rows = [_uwb(2.0, "u0", 1.0), _uwb(1.0, "u0", 2.0, source="z"),
            _uwb(1.0, "u1", 3.0, source="a"), _uwb(1.0, "u2", 4.0),
            _uwb(1.0, "u3", 5.0), _uwb(0.001, "u4", 6.0)]
    out = correct_clock(tables_of(rows)["uwb"], ClockModel(offset=0.002))
    # the 0.001 s record corrects to before the epoch
    assert out.values[:, 0].tolist() == [3.0, 4.0, 5.0, 2.0, 1.0]
    assert [out.source_ids[s] for s in out.source] == ["a", "tag0", "tag0", "z", "tag0"]
    np.testing.assert_array_equal(out.t, [0.998, 0.998, 0.998, 0.998, 1.998])
    assert out.line.tolist() == [3, 4, 5, 2, 1]


def test_ingest_tables_of_a_file_match_ingest_run_of_its_records(short_campaign, tmp_path):
    # ingesting the written file gives what ingesting the simulated tables gave
    c = short_campaign
    path = tmp_path / "dataset1.jsonl"
    write_records(path, c.tables)
    result = ingest_run(read_records(path), c.scenario.sensor_offsets, c.config.rates,
                        c.config.duration)
    expected = c.result
    assert result.clock_estimates == expected.clock_estimates
    assert result.dropped == expected.dropped
    assert len(result.frames) == len(expected.frames)
    for name in ("t", "labels", "features", "mask"):
        np.testing.assert_array_equal(getattr(result.frames, name),
                                      getattr(expected.frames, name))
    for m, stream in result.streams.items():
        assert stream.columns == expected.streams[m].columns
        np.testing.assert_array_equal(stream.features, expected.streams[m].features)


def test_aligned_stream_requires_finite_nonempty_features():
    stream = AlignedStream("uwb", [0.0], np.ones((1, 2)), np.zeros((1, 2)), ("a", "b"))
    with pytest.raises(ValueError):
        stream.features[0, 0] = 5.0  # read-only
    # no ticks, no columns: the empty stream of a sensor that never reported
    assert len(AlignedStream("uwb", np.zeros(0), np.zeros((0, 0)), np.zeros((0, 2)), ())) == 0
    with pytest.raises(ValueError):
        AlignedStream("uwb", [0.0], np.zeros((1, 0)), np.zeros((1, 2)), ())
    with pytest.raises(ValueError):
        AlignedStream("uwb", [0.0], [[np.inf]], np.zeros((1, 2)), ("a",))
    with pytest.raises(ValueError):
        AlignedStream("uwb", [0.0], [[1.0]], [[np.nan, 0.0]], ("a",))


def test_aligned_stream_requires_increasing_times():
    with pytest.raises(ValueError):
        AlignedStream("uwb", [1.0, 0.5], np.ones((2, 2)), np.zeros((2, 2)), ("a", "b"))


# ---------------------------------------------------------------------------
# Fusion frames

def _mini_stream(modality, ticks, width, fill):
    cols = tuple(f"{modality}{i}" for i in range(width))
    t = np.asarray(ticks, dtype=np.float64)
    features = np.repeat(float(fill) + np.arange(len(t), dtype=np.float64)[:, None], width,
                         axis=1)
    labels = np.stack([t, np.zeros_like(t)], axis=1)
    return AlignedStream(modality, t, features, labels, cols)


def test_frame_layout_follows_the_canonical_order():
    streams = [_mini_stream("imu", [1.0], 9, 0.0), _mini_stream("csi", [1.0], 6, 1.0),
               _mini_stream("uwb", [1.0], 3, 2.0)]
    layout = frame_layout(streams)
    assert layout.modalities() == ("csi", "uwb", "imu")
    assert layout.feature_width == 18
    assert layout.mask_width == 3
    assert layout.feature_slice("uwb") == slice(6, 9)
    assert layout.mask_index("imu") == 2
    assert layout.block("uwb").width == 3
    for lookup in (layout.block, layout.feature_slice, layout.mask_index):
        with pytest.raises(LayoutMismatch,
                           match=r"^no 'rssi' block; layout has \('csi', 'uwb', 'imu'\)$"):
            lookup("rssi")
    with pytest.raises(LayoutMismatch):
        frame_layout([_mini_stream("uwb", [1.0], 3, 0), _mini_stream("uwb", [2.0], 3, 0)])


def test_fusion_frames_take_the_newest_sample_in_the_causal_window():
    csi = _mini_stream("csi", [1.0, 2.0], 2, 10.0)
    uwb = _mini_stream("uwb", [0.8, 0.92, 1.95, 2.05], 1, 0.0)
    frames = build_fusion_frames([csi, uwb], window=0.15)
    assert len(frames) == 2
    layout = frame_layout([csi, uwb])

    assert frames.layout == layout
    assert frames.t[0] == 1.0
    np.testing.assert_array_equal(frames.mask[0], [1.0, 1.0])
    # newest uwb sample at or before t=1.0 within 0.15 s is the one at 0.92
    assert frames.features[0, layout.feature_slice("uwb")][0] == 1.0
    assert tuple(frames.labels[0]) == (1.0, 0.0)

    # the 2.05 sample is in the future; 1.95 wins
    assert frames.features[1, layout.feature_slice("uwb")][0] == 2.0
    np.testing.assert_array_equal(frames.mask[1], [1.0, 1.0])


def test_fusion_frames_zero_fill_stale_blocks():
    csi = _mini_stream("csi", [1.0, 5.0], 2, 10.0)
    uwb = _mini_stream("uwb", [0.9], 1, 7.0)
    frames = build_fusion_frames([csi, uwb], window=0.15)
    layout = frame_layout([csi, uwb])
    np.testing.assert_array_equal(frames.features[1, layout.feature_slice("uwb")], [0.0])
    np.testing.assert_array_equal(frames.mask[1], [1.0, 0.0])
    np.testing.assert_array_equal(frames.features[0, layout.feature_slice("uwb")], [7.0])


def test_fusion_frames_need_a_positive_window_and_an_anchor():
    csi = _mini_stream("csi", [1.0], 2, 0.0)
    with pytest.raises(ValueError):
        build_fusion_frames([csi], window=0.0)
    assert len(build_fusion_frames([_mini_stream("uwb", [1.0], 1, 0.0)])) == 0


def _reference_frames(streams, window):
    """The per-tick assembly loop: one frame per csi tick, each other
    block filled from its stream's newest tick in the causal window."""
    layout = frame_layout(streams)
    by_modality = {s.modality: s for s in streams}
    anchor = by_modality.get("csi")
    rows = []
    for i, t in enumerate([] if anchor is None else anchor.t.tolist()):
        features = np.zeros(layout.feature_width)
        mask = np.zeros(layout.mask_width)
        for block in layout.blocks:
            stream = by_modality[block.modality]
            if block.modality == "csi":
                j = i
            else:
                j = int(np.searchsorted(stream.t, t, side="right")) - 1
                if j < 0 or t - stream.t[j] > window:
                    continue
            features[layout.feature_slice(block.modality)] = stream.features[j]
            mask[layout.mask_index(block.modality)] = 1.0
        rows.append((t, features, mask, anchor.labels[i]))
    return rows


# dyadic ticks and windows, so a tick is often exactly one window old
_grid_ticks = st.sampled_from([k / 8.0 for k in range(33)]) | st.floats(0.0, 4.0)
_windows = st.sampled_from([0.125, 0.25, 0.5]) | st.floats(0.01, 2.0)


@st.composite
def fusion_streams(draw):
    """A csi anchor stream and up to three others, any of them empty."""
    streams = []
    modalities = ["csi"] + draw(st.lists(st.sampled_from(["rssi", "uwb", "imu"]),
                                         unique=True, max_size=3))
    for modality in modalities:
        ticks = sorted(draw(st.lists(_grid_ticks, max_size=8, unique=True)))
        width = draw(st.integers(1, 3))
        values = draw(st.lists(st.floats(-10.0, 10.0), min_size=len(ticks) * width,
                               max_size=len(ticks) * width))
        labels = draw(st.lists(st.floats(-5.0, 5.0), min_size=2 * len(ticks),
                               max_size=2 * len(ticks)))
        streams.append(AlignedStream(
            modality, np.asarray(ticks, dtype=np.float64),
            np.asarray(values, dtype=np.float64).reshape(len(ticks), width),
            np.asarray(labels, dtype=np.float64).reshape(len(ticks), 2),
            tuple(f"{modality}{j}" for j in range(width))))
    return streams


@given(fusion_streams(), _windows)
# a uwb tick exactly one window old, and one at the anchor's own time
@example([_mini_stream("csi", [1.0, 2.0], 2, 1.0), _mini_stream("uwb", [0.75, 2.0], 1, 5.0)],
         0.25)
# an empty non-anchor stream
@example([_mini_stream("csi", [1.0], 2, 1.0), _mini_stream("imu", [], 9, 0.0)], 0.25)
# a stream with no anchor ticks
@example([_mini_stream("csi", [], 2, 1.0), _mini_stream("uwb", [1.0], 1, 5.0)], 0.25)
@settings(max_examples=200)
def test_fusion_frames_match_the_per_tick_loop_bit_for_bit(streams, window):
    frames = build_fusion_frames(streams, window=window)
    expected = _reference_frames(streams, window)
    assert frames.layout == frame_layout(streams)
    assert len(frames) == len(expected)
    for i, (t, features, mask, label) in enumerate(expected):
        assert frames.t[i] == t
        assert frames.features[i].tobytes() == features.tobytes()
        assert frames.mask[i].tobytes() == mask.tobytes()
        assert frames.labels[i].tobytes() == label.tobytes()


def test_select_blocks_restricts_features_and_layout():
    csi = _mini_stream("csi", [1.0], 2, 10.0)
    uwb = _mini_stream("uwb", [0.95], 1, 5.0)
    imu = _mini_stream("imu", [0.99], 9, 0.0)
    frames = build_fusion_frames([csi, uwb, imu], window=0.15)

    layout = select_blocks(frames.layout, ["imu", "csi"])
    assert layout.modalities() == ("csi", "imu")
    assert layout.feature_width == 11
    x, y = frames_to_arrays(frames, layout=layout)
    assert x[0].shape == (11 + 2,)  # the blocks' features, then their mask bits
    np.testing.assert_array_equal(x[0, :2], [10.0, 10.0])
    np.testing.assert_array_equal(x[0, 11:], [1.0, 1.0])
    assert y[0, 0] == frames.labels[0, 0]

    with pytest.raises(LayoutMismatch):
        select_blocks(frames.layout, ["rssi"])


def test_frames_to_arrays_appends_mask_bits():
    csi = _mini_stream("csi", [1.0, 2.0], 2, 1.0)
    frames = build_fusion_frames([csi], window=0.15)
    x, y = frames_to_arrays(frames)
    assert x.shape == (2, 3)
    np.testing.assert_array_equal(x[:, 2], [1.0, 1.0])
    np.testing.assert_array_equal(x[:, :2], frames.features)
    np.testing.assert_array_equal(y[:, 0], [1.0, 2.0])
    with pytest.raises(ValueError):
        frames_to_arrays(frames.take([]))


def test_frames_to_arrays_rejects_a_block_the_frames_do_not_hold():
    frames = build_fusion_frames([_mini_stream("csi", [1.0], 2, 1.0)], window=0.15)
    other = FrameLayout((BlockDef("csi", 3, ("w0", "w0", "w0")),))
    with pytest.raises(LayoutMismatch):
        frames_to_arrays(frames, layout=other)
    with pytest.raises(LayoutMismatch):
        select_blocks(frames.layout, ["imu"])


def _reference_select_blocks(frames, modalities):
    """The column copy ``select_blocks`` made before the one-copy gather."""
    layout = frames.layout
    keep = [b for b in layout.blocks if b.modality in modalities]
    columns = [np.arange(layout.feature_width)[layout.feature_slice(b.modality)]
               for b in keep]
    return Frames(frames.t, frames.features[:, np.concatenate(columns)],
                  frames.mask[:, [layout.mask_index(b.modality) for b in keep]],
                  frames.labels, FrameLayout(tuple(keep)))


def _reference_arrays(frames):
    """The stacking ``frames_to_arrays`` did before it gathered rows."""
    return np.hstack([frames.features, frames.mask]), np.array(frames.labels)


def _bits(a):
    # the reference's full selection is Fortran-ordered (a fancy column index
    # lays it out so); tobytes() reads either layout in C order
    return a.shape, a.dtype, a.tobytes()


@pytest.fixture(scope="module")
def gather_inputs(short_campaign):
    """The conftest campaign's frames and its csi phase frames."""
    c = short_campaign
    result = ingest_run(c.tables, c.scenario.sensor_offsets, c.config.rates,
                        c.config.duration, phase=True)
    return {"frames": result.frames, "phase": result.phase}


@settings(max_examples=30)
@given(case=st.sampled_from([("frames", ("csi",)), ("frames", ("csi", "imu")),
                             ("frames", ("uwb", "rssi")), ("phase", ("csi",))]),
       shuffle_seed=st.integers(0, 2**32 - 1),
       train_fraction=st.floats(0.05, 0.95),
       gather_rows=st.integers(1, 200))
def test_one_copy_gather_matches_select_split_stack_bit_for_bit(
        gather_inputs, case, shuffle_seed, train_fraction, gather_rows):
    # csi alone is one contiguous column range, csi+imu and uwb+rssi are not
    name, modalities = case
    frames = gather_inputs[name]
    spec = SplitSpec(train_fraction, shuffle_seed)
    want = [_reference_arrays(part)
            for part in split_dataset(_reference_select_blocks(frames, modalities), spec)]
    layout = select_blocks(frames.layout, modalities)
    with mock.patch.object(ingest, "_GATHER_ROWS", gather_rows):  # chunk boundaries
        got = [frames_to_arrays(frames, rows, layout)
               for rows in split_dataset(np.arange(len(frames)), spec)]
        # the transfer set: every row, in order
        want.append(_reference_arrays(_reference_select_blocks(frames, modalities)))
        got.append(frames_to_arrays(frames, layout=layout))
    for (x, y), (x_want, y_want) in zip(got, want):
        assert x.flags.c_contiguous
        assert _bits(x) == _bits(x_want)
        assert _bits(y) == _bits(y_want)


def test_gather_holds_one_copy_of_its_output(gather_inputs):
    frames = gather_inputs["frames"]
    layout = select_blocks(frames.layout, ["csi", "imu"])
    rows = np.arange(len(frames))[::-1]
    chunk = 16 * frames.features.shape[1] * 8  # one chunk of every column, at most
    with mock.patch.object(ingest, "_GATHER_ROWS", 16):
        tracemalloc.start()
        try:
            x, y = frames_to_arrays(frames, rows, layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= x.nbytes + y.nbytes + chunk


def test_csi_stream_is_a_read_only_view_of_the_frames(short_campaign):
    result = short_campaign.result
    features = result.streams["csi"].features
    assert np.shares_memory(features, result.frames.features)
    assert not features.flags.writeable
    assert features.tobytes() == result.frames.features[
        :, result.frames.layout.feature_slice("csi")].tobytes()


def test_frames_jsonl_roundtrip_is_exact(tmp_path):
    layout = FrameLayout((BlockDef("csi", 2, ("w0", "w0")),))
    frames = Frames([1.0 / 3.0, 2.0 / 3.0], [[0.1, -2.5e-7], [4.0, 5.0]], [[1.0], [0.0]],
                    [[1.23456789012345, -0.5], [0.0, 0.0]], layout)
    path = tmp_path / "frames.jsonl"
    assert write_frames(path, frames) == 2
    back = Frames(*read_frames(path), layout)
    assert len(back) == 2
    for name in ("t", "features", "mask", "labels"):
        np.testing.assert_array_equal(getattr(frames, name), getattr(back, name))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=6, max_size=6), st.integers(1, 9))
@example([0.0, -0.0, 5e-324, 1e300, -1e-300, 1e23], 5)
def test_frames_file_gives_back_every_float_bit_for_bit(tmp_path_factory, values, n):
    # n frames, more than one write step for n > 4, of the six drawn floats shifted by row
    layout = FrameLayout((BlockDef("csi", 2, ("w0", "w0")),))
    grid = np.array([np.roll(values, i) for i in range(n)])
    frames = Frames(grid[:, 0], grid[:, 1:3], grid[:, 3:4], grid[:, 4:6], layout)
    path = tmp_path_factory.mktemp("frames") / "frames.jsonl"
    assert write_frames(path, frames) == n
    back = read_frames(path)
    for name, got in zip(("t", "features", "mask", "labels"), back):
        want = getattr(frames, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    first = path.read_bytes().split(b"\n")[0].decode()
    assert first == ('{"t": %.16e, "features": [%.16e, %.16e], "mask": [%.16e], '
                     '"label": [%.16e, %.16e]}' % tuple(grid[0]))


def test_frames_file_spells_non_finite_floats_as_json_does(tmp_path):
    layout = FrameLayout((BlockDef("csi", 2, ("w0", "w0")),))
    frames = Frames([1.0], [[math.nan, math.inf]], [[-math.inf]], [[0.0, 1.0]], layout)
    path = tmp_path / "frames.jsonl"
    write_frames(path, frames)
    assert b'"features": [NaN, Infinity], "mask": [-Infinity]' in path.read_bytes()
    _, features, mask, _ = read_frames(path)
    assert np.isnan(features[0, 0]) and features[0, 1] == math.inf and mask[0, 0] == -math.inf


def test_read_frames_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 1.0, "features": [1.0]}\n', encoding="utf-8")
    with pytest.raises(MalformedLine):
        read_frames(path)
    line = '{"t": 1.0, "features": [1.0], "mask": [1.0], "label": [0.0, 0.0]}\n'
    path.write_text(line + line.replace("[1.0]", "[1.0, 2.0]", 1), encoding="utf-8")
    with pytest.raises(MalformedLine, match=":2: frame is not as wide"):
        read_frames(path)
    path.write_bytes(line.encode() + b"\xff\xfe\n")
    with pytest.raises(MalformedLine, match=r"bad\.jsonl: not UTF-8 text"):
        read_frames(path)


# ---------------------------------------------------------------------------
# Whole-run pipeline

def test_ingest_run_recovers_the_configured_clocks(short_campaign):
    result = short_campaign.result
    for sensor, clock in short_campaign.config.clocks.items():
        est = result.clock_estimates[sensor]
        assert est.offset == pytest.approx(clock.offset, abs=1e-6), sensor
        assert est.drift == pytest.approx(clock.drift, abs=1e-7), sensor


def test_ingest_run_produces_the_full_layout(short_campaign):
    result = short_campaign.result
    assert set(result.streams) == {"csi", "rssi", "uwb", "imu"}
    assert result.frames.layout.modalities() == MODALITY_ORDER
    assert len(result.frames) > 100
    assert result.dropped == sum(s.dropped for s in result.streams.values())
    widths = {b.modality: b.width for b in result.frames.layout.blocks}
    assert widths["csi"] == 13 * 52
    assert widths["rssi"] == 13
    assert widths["uwb"] == 3
    assert widths["imu"] == 9


def test_ingest_run_labels_match_true_sensor_positions(short_campaign):
    # measurement noise perturbs payloads, never timestamps, so labels must
    # land on the true mount positions up to clock-fit rounding
    scenario, config = short_campaign.scenario, short_campaign.config
    traj = generate_trajectory(scenario, config.duration, config.speed,
                               rate=config.rates["gt"])
    from indoor_fusion.simulate import TrajectoryInterpolator

    interp = TrajectoryInterpolator([t for t, _ in traj], [(p.x, p.y) for _, p in traj],
                                    [p.phi for _, p in traj])
    for modality, stream in short_campaign.result.streams.items():
        true_pos = interp.sensor_position_at(stream.t, scenario.sensor_offsets[modality])
        err = np.hypot(*(stream.labels - true_pos).T)
        assert float(err.max()) < 1e-6, modality


def test_ingest_run_names_the_sensor_whose_clock_fits_no_model():
    # two anchors per tick, their stamps 2 us apart: two distinct ticks 2 us apart
    stamps = [(t, anchor) for t in _ticks(30.0, 9.0) for anchor in ("u0", "u1")]
    jittered = [_uwb(t + 1e-6 * (-1) ** i, anchor) for i, (t, anchor) in enumerate(stamps)]
    with pytest.raises(ClockFitError, match="^uwb: duplicate or non-monotonic sensor ticks"):
        ingest_run(tables_of(jittered + _gt_line(30.0)), {}, {"uwb": 9.0}, 30.0)


def test_ingest_run_requires_ground_truth():
    with pytest.raises(EmptyGroundTruth):
        ingest_run(tables_of([_uwb(t) for t in _ticks(30.0, 9.0)]), {}, {"uwb": 9.0}, 30.0)
