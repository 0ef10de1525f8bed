"""Clock recovery, ground-truth labeling, and fusion-frame assembly."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indoor_fusion import ingest
from indoor_fusion.errors import (
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
    align_all,
    build_fusion_frames,
    correct_clock,
    correct_table,
    estimate_clock_offset,
    frame_layout,
    frames_to_arrays,
    groundtruth_interpolator,
    ingest_run,
    ingest_tables,
    label_table,
    label_with_groundtruth,
    read_frames,
    select_blocks,
    sensor_rate,
    write_frames,
)
from indoor_fusion.mlp import SplitSpec, split_dataset
from indoor_fusion.records import (
    ClockModel,
    CsiPayload,
    GtPayload,
    ImuPayload,
    Pose,
    Position2D,
    Record,
    RssiPayload,
    SensorOffset,
    UwbPayload,
    read_tables,
    tables_from_records,
    write_records,
)
from indoor_fusion.simulate import generate_trajectory


def _uwb(t, anchor="u0", rng=1.0):
    return Record(t, "uwb", "tag0", UwbPayload(anchor, rng, -50.0))


def _gt_line(duration, rate=5.0, speed=0.1):
    """Robot walking +x from the origin at constant heading 0."""
    n = int(duration * rate)
    return [Record(k / rate, "gt", "robot", GtPayload(speed * k / rate, 0.0, 0.0))
            for k in range(n)]


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
    recs = [_uwb(t * (1.0 + clock.drift) + clock.offset) for t in (0.0, 1.0, 2.0)]
    recs.insert(0, _uwb(0.001))  # corrects to a pre-epoch time
    out = correct_clock(recs, clock)
    assert len(out) == 3
    for rec, t_true in zip(out, (0.0, 1.0, 2.0)):
        assert rec.t == pytest.approx(t_true, abs=1e-12)


# ---------------------------------------------------------------------------
# Clock estimation

@pytest.mark.parametrize("offset", [-0.010, -0.004, 0.0, 0.003, 0.010])
def test_clock_offset_sweep_on_a_complete_stream(offset):
    rate, duration = 9.0, 60.0
    recs = [_uwb(t + offset) for t in _ticks(duration, rate)]
    clock = estimate_clock_offset(recs, _gt_line(duration), rate, duration)
    assert clock.offset == pytest.approx(offset, abs=1e-9)
    assert clock.drift == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("offset", [-0.010, 0.010])
def test_clock_offset_beyond_half_period_needs_completeness(offset):
    # 76.93 Hz: a 10 ms offset exceeds half the 13 ms tick period, so the
    # absolute grid position is only recoverable from stream completeness
    rate, duration = 76.93, 30.0
    recs = [_uwb(t + offset) for t in _ticks(duration, rate)]
    clock = estimate_clock_offset(recs, _gt_line(duration), rate, duration)
    assert clock.offset == pytest.approx(offset, abs=1e-9)


def test_clock_offset_survives_dropout():
    rate, duration, offset = 9.0, 60.0, 0.007
    ts = _ticks(duration, rate)
    kept = [t for i, t in enumerate(ts) if i % 5 != 2]  # drop every fifth tick
    recs = [_uwb(t + offset) for t in kept]
    clock = estimate_clock_offset(recs, _gt_line(duration), rate, duration)
    assert clock.offset == pytest.approx(offset, abs=1e-9)


def test_clock_offset_survives_losing_the_first_ticks():
    rate, duration, offset = 9.0, 60.0, -0.006
    recs = [_uwb(t + offset) for t in _ticks(duration, rate)[3:]]
    clock = estimate_clock_offset(recs, _gt_line(duration), rate, duration)
    assert clock.offset == pytest.approx(offset, abs=1e-9)


def test_clock_drift_recovery():
    rate, duration, offset, drift = 9.0, 120.0, 0.002, 5e-5
    recs = [_uwb(t * (1.0 + drift) + offset) for t in _ticks(duration, rate)]
    clock = estimate_clock_offset(recs, _gt_line(duration), rate, duration)
    assert clock.drift == pytest.approx(drift, abs=1e-9)
    assert clock.offset == pytest.approx(offset, abs=1e-7)


def test_clock_drift_at_the_model_boundary_is_clamped():
    rate, duration = 9.0, 60.0
    recs = [_uwb(t * (1.0 + 1e-4)) for t in _ticks(duration, rate)]
    clock = estimate_clock_offset(recs, _gt_line(duration), rate, duration)
    assert abs(clock.drift) <= 1e-4


def test_clock_drift_beyond_the_model_is_rejected():
    rate, duration = 9.0, 60.0
    recs = [_uwb(t * (1.0 + 2e-4)) for t in _ticks(duration, rate)]
    with pytest.raises(MalformedLine):
        estimate_clock_offset(recs, _gt_line(duration), rate, duration)


def test_clock_estimation_needs_overlap_and_ticks():
    rate = 9.0
    with pytest.raises(InsufficientOverlap):
        estimate_clock_offset([], _gt_line(60.0), rate)
    with pytest.raises(InsufficientOverlap):
        estimate_clock_offset([_uwb(t) for t in _ticks(5.0, rate)], _gt_line(5.0), rate)
    # three ticks spread over a long span is still too sparse
    with pytest.raises(InsufficientOverlap):
        estimate_clock_offset([_uwb(1.0), _uwb(20.0), _uwb(40.0)], _gt_line(60.0), rate)


def test_clock_estimation_rejects_sub_period_spacing():
    recs = [_uwb(1.0), _uwb(1.0001), _uwb(2.0)] + [_uwb(float(t)) for t in range(3, 40)]
    with pytest.raises(MalformedLine):
        estimate_clock_offset(recs, _gt_line(40.0), 1.0)


# ---------------------------------------------------------------------------
# Labeling

def test_groundtruth_interpolator_accepts_records_and_pairs():
    recs = _gt_line(10.0)
    interp = groundtruth_interpolator(recs)
    np.testing.assert_allclose(interp.position_at([1.0]), [[0.1, 0.0]], atol=1e-12)
    pairs = [(0.0, Pose(0, 0, 0)), (1.0, Pose(1, 0, 0))]
    interp2 = groundtruth_interpolator(pairs)
    np.testing.assert_allclose(interp2.position_at([0.5]), [[0.5, 0.0]], atol=1e-12)
    with pytest.raises(EmptyGroundTruth):
        groundtruth_interpolator(pairs[:1])
    # non-gt records are ignored, so alone they are not enough
    with pytest.raises(EmptyGroundTruth):
        groundtruth_interpolator([_uwb(0.0), _uwb(1.0)])


def test_labeling_translates_to_the_sensor_mount():
    gt = _gt_line(20.0, speed=0.1)  # heading 0 along +x
    recs = [_uwb(t) for t in _ticks(19.0, 2.0)]
    stream = label_with_groundtruth(recs, gt, SensorOffset(0.0, 0.25, 0.0))
    assert stream.modality == "uwb"
    for t, (x, y) in zip(stream.t, stream.labels):
        assert x == pytest.approx(0.1 * t, abs=1e-12)
        assert y == pytest.approx(0.25, abs=1e-12)


def test_labeling_drops_records_outside_the_groundtruth_span():
    gt = _gt_line(10.0)  # last pose at t = 1.8
    recs = [_uwb(1.0), _uwb(5.0), _uwb(25.0)]
    stream = label_with_groundtruth(recs, gt, SensorOffset())
    assert len(stream) == 2
    assert stream.dropped == 1
    assert stream.record_count == 2


def test_labeling_rejects_mixed_modalities():
    gt = _gt_line(20.0)
    recs = [_uwb(1.0), Record(1.0, "rssi", "esp0", RssiPayload("w00", -50.0))]
    with pytest.raises(ValueError, match="mix"):
        label_with_groundtruth(recs, gt, SensorOffset())
    with pytest.raises(ValueError, match="csi_features"):
        label_with_groundtruth([_uwb(1.0)], gt, SensorOffset(), csi_features="bogus")


def test_uwb_and_rssi_feature_layout_marks_missing_anchors():
    gt = _gt_line(20.0)
    recs = [_uwb(1.0, "u0", 2.0), _uwb(1.0, "u1", 3.0), _uwb(2.0, "u1", 4.0)]
    stream = label_with_groundtruth(recs, gt, SensorOffset())
    assert stream.columns == ("u0", "u1")
    np.testing.assert_array_equal(stream.features[0], [2.0, 3.0])
    np.testing.assert_array_equal(stream.features[1], [UWB_MISSING_RANGE, 4.0])

    rrecs = [Record(1.0, "rssi", "esp0", RssiPayload("w00", -41.0)),
             Record(2.0, "rssi", "esp0", RssiPayload("w01", -52.0))]
    rstream = label_with_groundtruth(rrecs, gt, SensorOffset())
    np.testing.assert_array_equal(rstream.features[0], [-41.0, RSSI_FLOOR_DB])
    np.testing.assert_array_equal(rstream.features[1], [RSSI_FLOOR_DB, -52.0])


def test_csi_feature_layout_variants():
    gt = _gt_line(20.0)
    mags = np.asarray([1.0, 2.0, 3.0])
    phases = np.asarray([0.1, 0.2, 0.3])
    recs = [Record(1.0, "csi", "esp0", CsiPayload("w00", mags, phases)),
            Record(2.0, "csi", "esp0", CsiPayload("w01", 2 * mags, -phases))]

    mag_stream = label_with_groundtruth(recs, gt, SensorOffset())
    assert mag_stream.columns == ("w00",) * 3 + ("w01",) * 3
    np.testing.assert_array_equal(mag_stream.features[0],
                                  [1.0, 2.0, 3.0, 0.0, 0.0, 0.0])

    phase_stream = label_with_groundtruth(recs, gt, SensorOffset(), csi_features="phase")
    np.testing.assert_array_equal(phase_stream.features[1],
                                  [0.0, 0.0, 0.0, -0.1, -0.2, -0.3])

    both = label_with_groundtruth(recs, gt, SensorOffset(), csi_features="both")
    assert len(both.columns) == 12
    np.testing.assert_array_equal(both.features[0],
                                  [1, 2, 3, 0.1, 0.2, 0.3, 0, 0, 0, 0, 0, 0])


def test_imu_features_take_the_newest_record_in_a_tick():
    gt = _gt_line(20.0)
    first = Record(1.0, "imu", "imu0", ImuPayload((1, 0, 9.81), (0, 0, 0.1), (19, 4, -45)))
    second = Record(1.0, "imu", "imu0", ImuPayload((2, 0, 9.81), (0, 0, 0.2), (19, 4, -45)))
    stream = label_with_groundtruth([first, second], gt, SensorOffset())
    assert stream.columns[:3] == ("accel_x", "accel_y", "accel_z")
    assert stream.features[0, 0] == 2.0
    assert stream.features[0, 5] == 0.2


def test_align_all_splits_by_modality():
    gt = _gt_line(20.0)
    recs = gt + [_uwb(1.0), Record(1.5, "rssi", "esp0", RssiPayload("w00", -50.0))]
    streams = align_all(recs, {"uwb": SensorOffset(0.1, 0, 0)})
    assert set(streams) == {"uwb", "rssi"}
    assert streams["uwb"].labels[0, 0] == pytest.approx(0.2, abs=1e-12)


def _reference_label(records, interp, offset, csi_features):
    """Per-record labeling: ticks in a dict keyed by exact time, anchors in
    per-tick dicts (so the last record of an anchor wins), one feature
    vector per tick."""
    ticks = {}
    for rec in records:
        if interp.t[0] <= rec.t <= interp.t[-1]:
            ticks.setdefault(rec.t, []).append(rec)
    anchors = sorted({r.payload.anchor_id for recs in ticks.values() for r in recs
                      if hasattr(r.payload, "anchor_id")})
    times = np.asarray(sorted(ticks))
    out = []
    for t, pos in zip(times, interp.sensor_position_at(times, offset)):
        recs = ticks[float(t)]
        p = recs[0].payload
        if isinstance(p, ImuPayload):
            p = recs[-1].payload
            features = np.concatenate([p.accel, p.gyro, p.mag])
        elif isinstance(p, CsiPayload):
            by = {r.payload.anchor_id: r.payload for r in recs}
            width = len(p.magnitudes) * (2 if csi_features == "both" else 1)
            features = np.concatenate([
                np.zeros(width) if a not in by else
                {"magnitude": by[a].magnitudes, "phase": by[a].phases,
                 "both": np.concatenate([by[a].magnitudes, by[a].phases])}[csi_features]
                for a in anchors])
        else:
            field = "range_m" if isinstance(p, UwbPayload) else "rssi_db"
            missing = UWB_MISSING_RANGE if isinstance(p, UwbPayload) else RSSI_FLOOR_DB
            by = {r.payload.anchor_id: getattr(r.payload, field) for r in recs}
            features = np.asarray([by.get(a, missing) for a in anchors])
        out.append((float(t), features, float(pos[0]), float(pos[1])))
    return out


@st.composite
def tick_records(draw):
    """One modality's records on few ticks and anchors, so both collide."""
    sensor = draw(st.sampled_from(["uwb", "rssi", "csi", "imu"]))
    n = draw(st.integers(1, 25))
    out = []
    for _ in range(n):
        t = draw(st.sampled_from([0.5, 1.0, 1.25, 3.0, 7.5, 12.0]))
        source = draw(st.sampled_from(["a", "b"]))
        anchor = draw(st.sampled_from(["w2", "w0", "w1"]))
        v = draw(st.floats(-100.0, 100.0))
        if sensor == "uwb":
            payload = UwbPayload(anchor, v, -50.0)
        elif sensor == "rssi":
            payload = RssiPayload(anchor, v)
        elif sensor == "csi":
            payload = CsiPayload(anchor, np.asarray([v, v + 1.0]), np.asarray([-v, 0.5]))
        else:
            payload = ImuPayload((v, 0.0, 9.81), (0.0, v, 0.0), (19.0, 4.0, v))
        out.append(Record(t, sensor, source, payload))
    return out


@given(tick_records(), st.sampled_from(["magnitude", "phase", "both"]))
@settings(max_examples=150)
def test_label_table_matches_per_record_labeling(records, csi_features):
    gt = _gt_line(10.0)  # t in [0, 1.8]: later ticks are dropped
    interp = groundtruth_interpolator(gt)
    offset = SensorOffset(0.1, -0.2, 0.3)
    stream = label_with_groundtruth(records, gt, offset, csi_features)
    expected = _reference_label(records, interp, offset, csi_features)
    assert len(stream) == len(expected)
    for s_t, s_features, s_label, (t, features, x, y) in zip(
            stream.t.tolist(), stream.features, stream.labels.tolist(), expected):
        assert s_t == t and s_label == [x, y]
        np.testing.assert_array_equal(s_features, features)
    kept = sum(interp.t[0] <= r.t <= interp.t[-1] for r in records)
    assert (stream.record_count, stream.dropped) == (kept, len(records) - kept)


def test_correct_table_sorts_by_time_then_source_keeping_ties_in_order():
    recs = [_uwb(2.0, "u0", 1.0), Record(1.0, "uwb", "z", UwbPayload("u0", 2.0, 0.0)),
            Record(1.0, "uwb", "a", UwbPayload("u1", 3.0, 0.0)), _uwb(1.0, "u2", 4.0),
            _uwb(1.0, "u3", 5.0), _uwb(0.001, "u4", 6.0)]
    (table,) = tables_from_records(recs).values()
    out = correct_table(table, ClockModel(offset=0.002))
    # the 0.001 s record corrects to before the epoch
    assert out.values[:, 0].tolist() == [3.0, 4.0, 5.0, 2.0, 1.0]
    assert [out.source_ids[s] for s in out.source] == ["a", "tag0", "tag0", "z", "tag0"]
    np.testing.assert_array_equal(out.t, [0.998, 0.998, 0.998, 0.998, 1.998])
    assert out.line.tolist() == [3, 4, 5, 2, 1]


def test_ingest_tables_of_a_file_match_ingest_run_of_its_records(short_campaign, tmp_path):
    c = short_campaign
    path = tmp_path / "dataset1.jsonl"
    write_records(path, c.records)
    result = ingest_tables(read_tables(path), c.scenario.sensor_offsets, c.config.rates,
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


def test_ingest_result_materializes_its_records(short_campaign):
    result, records = short_campaign.result, short_campaign.records
    assert result.gt_records == [r for r in records if r.sensor == "gt"]
    corrected = result.corrected
    keys = [(r.t, r.sensor, r.source_id) for r in corrected]
    assert keys == sorted(keys)
    assert len(corrected) == sum(len(t) for t in result.tables.values())
    # the phase relabel of the corrected CSI records is the table's relabel
    interp = groundtruth_interpolator(result.tables["gt"])
    offset = short_campaign.scenario.sensor_offsets["csi"]
    via_records = label_with_groundtruth([r for r in corrected if r.sensor == "csi"],
                                         result.gt_records, offset, csi_features="phase")
    via_table = label_table(result.tables["csi"], interp, offset, csi_features="phase")
    np.testing.assert_array_equal(via_records.features, via_table.features)
    np.testing.assert_array_equal(via_records.labels, via_table.labels)


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


def _reference_frames(streams, window, anchor_modality="csi"):
    """The per-tick assembly loop: one frame per anchor tick, each other
    block filled from its stream's newest tick in the causal window."""
    layout = frame_layout(streams)
    by_modality = {s.modality: s for s in streams}
    anchor = by_modality.get(anchor_modality)
    rows = []
    for i, t in enumerate([] if anchor is None else anchor.t.tolist()):
        features = np.zeros(layout.feature_width)
        mask = np.zeros(layout.mask_width)
        for block in layout.blocks:
            stream = by_modality[block.modality]
            if block.modality == anchor_modality:
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

    sub = select_blocks(frames, ["imu", "csi"])
    assert sub.layout.modalities() == ("csi", "imu")
    assert sub.features[0].shape == (11,)
    np.testing.assert_array_equal(sub.features[0, :2], [10.0, 10.0])
    np.testing.assert_array_equal(sub.mask[0], [1.0, 1.0])
    assert sub.labels[0, 0] == frames.labels[0, 0]

    with pytest.raises(LayoutMismatch):
        select_blocks(frames, ["rssi"])


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
        frames.layout.select(["imu"])


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
    result = short_campaign.result
    phase = label_table(result.tables["csi"], groundtruth_interpolator(result.tables["gt"]),
                        short_campaign.scenario.sensor_offsets["csi"], csi_features="phase")
    return {"frames": result.frames, "phase": build_fusion_frames([phase])}


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
    layout = frames.layout.select(modalities)
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
    layout = frames.layout.select(["csi", "imu"])
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

    interp = TrajectoryInterpolator(traj)
    for modality, stream in short_campaign.result.streams.items():
        true_pos = interp.sensor_position_at(stream.t, scenario.sensor_offsets[modality])
        err = np.hypot(*(stream.labels - true_pos).T)
        assert float(err.max()) < 1e-6, modality


def test_ingest_run_requires_ground_truth():
    with pytest.raises(EmptyGroundTruth):
        ingest_run([_uwb(t) for t in _ticks(30.0, 9.0)], {}, {"uwb": 9.0}, 30.0)
