"""Wire schema: bit-exact round-trips, strict parsing, angle helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indoor_fusion.errors import MalformedLine, NegativeTime, SchemaViolation
from indoor_fusion.records import (
    Anchor,
    ClockModel,
    CsiPayload,
    GtPayload,
    ImuPayload,
    LabeledSample,
    Pose,
    Position2D,
    Record,
    RssiPayload,
    SensorOffset,
    UwbPayload,
    angle_difference,
    interpolate_heading,
    normalize_angle,
    parse_record,
    read_records,
    serialize_record,
    write_records,
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
times = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
vec3 = st.tuples(finite, finite, finite)
ids = st.text(alphabet=st.characters(codec="ascii", categories=["L", "N"]),
              min_size=0, max_size=8)


@st.composite
def records(draw):
    sensor = draw(st.sampled_from(["uwb", "rssi", "csi", "imu", "gt"]))
    t = draw(times)
    source = draw(ids)
    if sensor == "uwb":
        payload = UwbPayload(draw(ids), draw(finite), draw(finite))
    elif sensor == "rssi":
        payload = RssiPayload(draw(ids), draw(finite))
    elif sensor == "csi":
        n = draw(st.integers(min_value=1, max_value=8))
        payload = CsiPayload(draw(ids),
                             np.asarray(draw(st.lists(finite, min_size=n, max_size=n))),
                             np.asarray(draw(st.lists(finite, min_size=n, max_size=n))))
    elif sensor == "imu":
        payload = ImuPayload(draw(vec3), draw(vec3), draw(vec3))
    else:
        payload = GtPayload(draw(finite), draw(finite), draw(finite))
    return Record(t, sensor, source, payload)


@given(records())
@settings(max_examples=200)
def test_serialize_parse_roundtrip_is_bit_exact(record):
    assert parse_record(serialize_record(record)) == record


def test_serialized_key_order_is_fixed():
    line = serialize_record(Record(1.5, "gt", "robot", GtPayload(0.0, 1.0, 2.0)))
    assert line.index('"t"') < line.index('"sensor"') < line.index('"id"') \
        < line.index('"payload"')
    # floats carry 17 significant digits
    assert "1.5000000000000000e+00" in line


def test_float_rendering_survives_awkward_values():
    r = Record(0.1, "uwb", "t", UwbPayload("a", 1.0 / 3.0, -123.456789012345678))
    assert parse_record(serialize_record(r)) == r


@pytest.mark.parametrize("line,err", [
    ("not json", MalformedLine),
    ("", MalformedLine),
    ("[1,2]", SchemaViolation),
    ('{"t": 1.0, "sensor": "gt", "id": "r"}', SchemaViolation),  # missing payload
    ('{"t": 1.0, "sensor": "gt", "id": "r", "payload": {"x":0,"y":0,"phi":0}, "extra": 1}',
     SchemaViolation),
    ('{"t": -0.5, "sensor": "gt", "id": "r", "payload": {"x":0,"y":0,"phi":0}}',
     NegativeTime),
    ('{"t": true, "sensor": "gt", "id": "r", "payload": {"x":0,"y":0,"phi":0}}',
     SchemaViolation),
    ('{"t": 1.0, "sensor": "sonar", "id": "r", "payload": {}}', SchemaViolation),
    ('{"t": 1.0, "sensor": "gt", "id": 7, "payload": {"x":0,"y":0,"phi":0}}',
     SchemaViolation),
    ('{"t": 1.0, "sensor": "imu", "id": "r", "payload": [1,2,3]}', SchemaViolation),
    ('{"t": 1.0, "sensor": "csi", "id": "r", '
     '"payload": {"anchor_id":"a","magnitudes":[1],"phases":[1,2]}}', SchemaViolation),
    ('{"t": 1.0, "sensor": "gt", "id": "r", "payload": {"x":"0","y":0,"phi":0}}',
     SchemaViolation),
])
def test_parse_rejects_off_schema_lines(line, err):
    with pytest.raises(err):
        parse_record(line)


def test_parse_pins_subcarrier_count():
    rec = Record(1.0, "csi", "e", CsiPayload("a", np.ones(4), np.zeros(4)))
    line = serialize_record(rec)
    assert parse_record(line, subcarriers=4) == rec
    with pytest.raises(SchemaViolation):
        parse_record(line, subcarriers=52)


def test_write_read_records_roundtrip(tmp_path):
    recs = [
        Record(0.0, "gt", "robot", GtPayload(1.0, 2.0, 0.5)),
        Record(0.1, "uwb", "tag0", UwbPayload("u0", 3.25, -55.0)),
        Record(0.2, "rssi", "esp0", RssiPayload("w00", -60.5)),
        Record(0.2, "csi", "esp0", CsiPayload("w00", np.linspace(0.1, 1, 5),
                                              np.linspace(-3, 3, 5))),
        Record(0.3, "imu", "imu0", ImuPayload((0.0, 0.1, 9.81),
                                              (0.0, 0.0, 0.02), (19.0, 4.0, -45.0))),
    ]
    path = tmp_path / "stream.jsonl"
    assert write_records(path, recs) == len(recs)
    assert read_records(path) == recs


def test_read_records_reports_the_offending_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t":1.0,"sensor":"gt","id":"r","payload":{"x":0,"y":0,"phi":0}}\n'
                    "garbage\n", encoding="utf-8")
    with pytest.raises(MalformedLine, match=":2:"):
        read_records(path)


def test_read_records_reports_a_truncated_final_line(tmp_path):
    path = tmp_path / "dataset1.jsonl"
    line = serialize_record(Record(0.1, "uwb", "tag0", UwbPayload("u0", 3.25, -55.0)))
    # a writer cut off mid-line: no closing brace, no final newline
    path.write_text(line + "\n" + line + "\n" + line[:len(line) // 2], encoding="utf-8")
    with pytest.raises(MalformedLine, match=r"dataset1\.jsonl:3:"):
        read_records(path)


# ---------------------------------------------------------------------------
# Angles

@given(st.floats(min_value=-1e6, max_value=1e6))
@settings(max_examples=200)
def test_normalize_angle_range_and_idempotence(phi):
    wrapped = normalize_angle(phi)
    assert -math.pi <= wrapped < math.pi
    assert normalize_angle(wrapped) == wrapped


@given(st.floats(min_value=-20, max_value=20), st.integers(-3, 3))
def test_normalize_angle_is_2pi_periodic(phi, k):
    assert normalize_angle(phi + 2.0 * math.pi * k) == pytest.approx(
        normalize_angle(phi), abs=1e-9)


@given(st.floats(min_value=-10, max_value=10), st.floats(min_value=-10, max_value=10))
def test_angle_difference_is_shortest_arc(a, b):
    d = angle_difference(a, b)
    assert -math.pi <= d < math.pi
    assert normalize_angle(b + d) == pytest.approx(normalize_angle(a), abs=1e-9)


def test_interpolate_heading_crosses_the_wrap():
    # from +3 rad to -3 rad the short way is through pi, not through zero
    mid = interpolate_heading(3.0, -3.0, 0.5)
    assert abs(normalize_angle(mid - math.pi)) < 1e-12
    assert interpolate_heading(3.0, -3.0, 0.0) == pytest.approx(3.0)
    assert interpolate_heading(3.0, -3.0, 1.0) == pytest.approx(-3.0)


# ---------------------------------------------------------------------------
# Value types

def test_pose_normalizes_heading():
    assert Pose(0.0, 0.0, 3.0 * math.pi).phi == pytest.approx(math.pi - 2 * math.pi)


def test_position_rejects_non_finite():
    with pytest.raises(ValueError):
        Position2D(float("nan"), 0.0)


def test_anchor_kind_is_checked():
    with pytest.raises(ValueError):
        Anchor("a", "sonar", Position2D(0, 0))


def test_clock_model_drift_bound():
    ClockModel(offset=0.01, drift=1e-4)
    with pytest.raises(ValueError):
        ClockModel(drift=2e-4)


def test_record_rejects_mismatched_payload_and_negative_time():
    with pytest.raises(ValueError):
        Record(1.0, "uwb", "t", GtPayload(0, 0, 0))
    with pytest.raises(ValueError):
        Record(-1.0, "gt", "r", GtPayload(0, 0, 0))


def test_csi_payload_validation_and_equality():
    with pytest.raises(ValueError):
        CsiPayload("a", np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        CsiPayload("a", np.ones(0), np.ones(0))
    p = CsiPayload("a", np.ones(3), np.zeros(3))
    assert p == CsiPayload("a", np.ones(3), np.zeros(3))
    assert p != CsiPayload("a", np.ones(3), np.ones(3))
    with pytest.raises(ValueError):
        p.magnitudes[0] = 5.0  # read-only


def test_labeled_sample_requires_finite_nonempty_features():
    LabeledSample(0.0, np.ones(2), Position2D(0, 0), "uwb")
    with pytest.raises(ValueError):
        LabeledSample(0.0, np.asarray([]), Position2D(0, 0), "uwb")
    with pytest.raises(ValueError):
        LabeledSample(0.0, np.asarray([np.inf]), Position2D(0, 0), "uwb")


def test_sensor_offset_defaults_to_center():
    off = SensorOffset()
    assert (off.x_off, off.y_off, off.phi_off) == (0.0, 0.0, 0.0)
