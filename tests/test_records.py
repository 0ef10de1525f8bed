"""Wire schema: bit-exact round-trips, strict parsing, column tables, angle helpers."""

import dataclasses
import json
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
    read_tables,
    serialize_record,
    tables_from_records,
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


@pytest.mark.parametrize("tail", [b"\xff\xfe\n", b"\xc3"])
def test_bytes_that_are_not_utf8_are_a_malformed_line_naming_the_path(tmp_path, tail):
    path = tmp_path / "dataset1.jsonl"
    write_records(path, [Record(0.1, "uwb", "tag0", UwbPayload("u0", 3.25, -55.0))] * 3)
    with open(path, "ab") as fh:
        fh.write(tail)  # a stray byte pair, or a character cut off at the end
    for read in (read_tables, read_records):
        with pytest.raises(MalformedLine, match=r"dataset1\.jsonl: not UTF-8 text"):
            read(path)


@pytest.mark.parametrize("literal", ["1" + "0" * 400, "-" + "9" * 400, "1" * 5000])
def test_integer_beyond_float64_is_a_schema_violation(tmp_path, literal):
    # 400 digits overflow float(); 5000 pass the json module's digit limit
    line = '{"t": %s, "sensor": "gt", "id": "r", "payload": {"x":0,"y":0,"phi":0}}'
    with pytest.raises(SchemaViolation):
        parse_record(line % literal)
    good = line % "1.0"
    payload = '{"t": 1.0, "sensor": "uwb", "id": "r", "payload": ' \
        '{"anchor_id": "u0", "range_m": %s, "power_db": -50.0}}' % literal
    path = tmp_path / "dataset1.jsonl"
    for bad in (line % literal, payload):
        path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(SchemaViolation, match=r"dataset1\.jsonl:2:"):
            read_records(path)


# Awkward values: a third, negative zero, the smallest subnormal, the largest
# double, empty and quoted ids.  The bytes are pinned: the writer's output is
# the on-disk spec.
GOLDEN = [
    Record(1.0 / 3.0, "gt", "", GtPayload(-0.0, 5e-324, 1.7976931348623157e308)),
    Record(0.0, "uwb", "", UwbPayload("", 1.0 / 3.0, -0.0)),
    Record(5e-324, "rssi", 'esp"0', RssiPayload("", -1.7976931348623157e308)),
    Record(1.7976931348623157e308, "csi", "", CsiPayload(
        "", np.asarray([1.0 / 3.0, -0.0, 5e-324]),
        np.asarray([1.7976931348623157e308, -1.0 / 3.0, 0.1]))),
    Record(2.5, "csi", "esp0", CsiPayload("w01", np.asarray([-5e-324, 2.0, 0.5]),
                                          np.asarray([1e-300, -0.0, 7.0]))),
    Record(2.5, "imu", "", ImuPayload((1.0 / 3.0, -0.0, 5e-324),
                                      (1.7976931348623157e308, -1.0, 0.0),
                                      (1e-300, -2.5e-7, 123456789.0))),
]
GOLDEN_BYTES = (
    b'{"t":3.3333333333333331e-01,"sensor":"gt","id":"","payload":{"x":-0.0000000000000000e+00,'
    b'"y":4.9406564584124654e-324,"phi":1.7976931348623157e+308}}\n'
    b'{"t":0.0000000000000000e+00,"sensor":"uwb","id":"","payload":{"anchor_id":"",'
    b'"range_m":3.3333333333333331e-01,"power_db":-0.0000000000000000e+00}}\n'
    b'{"t":4.9406564584124654e-324,"sensor":"rssi","id":"esp\\"0","payload":{"anchor_id":"",'
    b'"rssi_db":-1.7976931348623157e+308}}\n'
    b'{"t":1.7976931348623157e+308,"sensor":"csi","id":"","payload":{"anchor_id":"",'
    b'"magnitudes":[3.3333333333333331e-01,-0.0000000000000000e+00,4.9406564584124654e-324],'
    b'"phases":[1.7976931348623157e+308,-3.3333333333333331e-01,1.0000000000000001e-01]}}\n'
    b'{"t":2.5000000000000000e+00,"sensor":"csi","id":"esp0","payload":{"anchor_id":"w01",'
    b'"magnitudes":[-4.9406564584124654e-324,2.0000000000000000e+00,5.0000000000000000e-01],'
    b'"phases":[1.0000000000000000e-300,-0.0000000000000000e+00,7.0000000000000000e+00]}}\n'
    b'{"t":2.5000000000000000e+00,"sensor":"imu","id":"","payload":[3.3333333333333331e-01,'
    b'-0.0000000000000000e+00,4.9406564584124654e-324,1.7976931348623157e+308,'
    b'-1.0000000000000000e+00,0.0000000000000000e+00,1.0000000000000000e-300,'
    b'-2.4999999999999999e-07,1.2345678900000000e+08]}\n'
)


def test_written_bytes_are_pinned(tmp_path):
    path = tmp_path / "golden.jsonl"
    assert write_records(path, GOLDEN) == len(GOLDEN)
    assert path.read_bytes() == GOLDEN_BYTES
    assert [_bits(r) for r in read_records(path)] == [_bits(r) for r in GOLDEN]


def test_tables_hold_one_row_per_record_in_file_order(tmp_path):
    path = tmp_path / "golden.jsonl"
    write_records(path, GOLDEN)
    tables = read_tables(path)
    assert set(tables) == {"gt", "uwb", "rssi", "csi", "imu"}
    csi = tables["csi"]
    assert csi.values.shape == (2, 6)
    assert csi.line.tolist() == [4, 5]
    assert [csi.anchor_ids[a] for a in csi.anchor] == ["", "w01"]
    assert [csi.source_ids[s] for s in csi.source] == ["", "esp0"]
    assert tables["imu"].anchor.tolist() == [-1]
    with pytest.raises(ValueError):
        csi.values[0, 0] = 1.0  # read-only
    from_records = tables_from_records(GOLDEN)
    for sensor, table in tables.items():
        other = from_records[sensor]
        np.testing.assert_array_equal(table.values.view(np.int64), other.values.view(np.int64))
        np.testing.assert_array_equal(table.t.view(np.int64), other.t.view(np.int64))


def test_reader_refuses_a_change_of_subcarrier_count(tmp_path):
    path = tmp_path / "dataset1.jsonl"
    recs = [Record(0.1, "csi", "e", CsiPayload("a", np.ones(4), np.zeros(4))),
            Record(0.2, "uwb", "t", UwbPayload("u0", 1.0, -50.0)),
            Record(0.3, "csi", "e", CsiPayload("a", np.ones(5), np.zeros(5)))]
    write_records(path, recs)
    with pytest.raises(SchemaViolation, match=r"dataset1\.jsonl:3: csi payload has 5 subcarriers"):
        read_records(path)


def test_a_line_nested_too_deep_is_malformed(tmp_path):
    path = tmp_path / "dataset1.jsonl"
    good = serialize_record(Record(0.1, "uwb", "tag0", UwbPayload("u0", 3.25, -55.0)))
    path.write_text(good + "\n" + "[" * 100_000 + "\n", encoding="utf-8")
    with pytest.raises(MalformedLine, match=r"dataset1\.jsonl:2: invalid JSON"):
        read_records(path)


def test_reader_reports_the_first_faulty_line(tmp_path):
    # a non-finite value, found by the whole-table check, still comes before
    # a later line's schema fault
    good = '{"t": 1.0, "sensor": "rssi", "id": "e", "payload": {"anchor_id": "a", "rssi_db": %s}}'
    path = tmp_path / "dataset1.jsonl"
    path.write_text("\n".join([good % "-50", good % "NaN", good % "true", good % "-1e999"]) + "\n",
                    encoding="utf-8")
    with pytest.raises(SchemaViolation, match=r"dataset1\.jsonl:2: rssi_db: non-finite"):
        read_records(path)
    path.write_text("\n".join([good % "-50", good % "true", good % "NaN"]) + "\n",
                    encoding="utf-8")
    with pytest.raises(SchemaViolation, match=r"dataset1\.jsonl:2: rssi_db: expected a number"):
        read_records(path)


# ---------------------------------------------------------------------------
# The table reader against the one-line parser

N_SUB = 3
_numbers = st.one_of(finite, st.integers(-10**6, 10**6))


def _bits(rec):
    """Every field of a record, floats as their exact bits."""
    p = rec.payload
    if isinstance(p, CsiPayload):
        anchor, values = p.anchor_id, [*p.magnitudes.tolist(), *p.phases.tolist()]
    elif isinstance(p, ImuPayload):
        anchor, values = None, [*p.accel, *p.gyro, *p.mag]
    else:
        fields = dataclasses.asdict(p)
        anchor, values = fields.pop("anchor_id", None), list(fields.values())
    return (type(rec.t), rec.t.hex(), rec.sensor, rec.source_id, anchor,
            [(type(v), float(v).hex()) for v in values])


@st.composite
def wire_docs(draw, sensor=None):
    """One valid line as a JSON document; ints stand in for some floats."""
    sensor = sensor or draw(st.sampled_from(["uwb", "rssi", "csi", "imu", "gt"]))
    if sensor == "uwb":
        payload = {"anchor_id": draw(ids), "range_m": draw(_numbers), "power_db": draw(_numbers)}
    elif sensor == "rssi":
        payload = {"anchor_id": draw(ids), "rssi_db": draw(_numbers)}
    elif sensor == "csi":
        vec = st.lists(_numbers, min_size=N_SUB, max_size=N_SUB)
        payload = {"anchor_id": draw(ids), "magnitudes": draw(vec), "phases": draw(vec)}
    elif sensor == "imu":
        payload = draw(st.lists(_numbers, min_size=9, max_size=9))
    else:
        payload = {"x": draw(_numbers), "y": draw(_numbers), "phi": draw(_numbers)}
    doc = {"t": draw(st.one_of(times, st.integers(0, 10**6))), "sensor": sensor,
           "id": draw(ids), "payload": payload}
    return {k: doc[k] for k in draw(st.permutations(list(doc)))}


def _number_slots(doc):
    """(container, key) of every number in a document."""
    slots = [(doc, "t")]
    payload = doc["payload"]
    if isinstance(payload, list):
        return slots + [(payload, i) for i in range(len(payload))]
    for key, value in payload.items():
        if isinstance(value, list):
            slots += [(value, i) for i in range(len(value))]
        elif key != "anchor_id":
            slots.append((payload, key))
    return slots


CORRUPTIONS = ("bool", "non-finite", "huge int", "imu arity", "csi lengths",
               "unknown key", "missing key", "negative t", "subcarriers", "truncated")
EXPECTED = {**{kind: SchemaViolation for kind in CORRUPTIONS},
            "negative t": NegativeTime, "truncated": MalformedLine}


@st.composite
def corrupted_line(draw, kind):
    if kind == "bool":
        doc = draw(wire_docs())
        container, key = draw(st.sampled_from(_number_slots(doc)))
        container[key] = draw(st.booleans())
    elif kind == "non-finite":  # NaN, Infinity and -Infinity tokens
        doc = draw(wire_docs())
        container, key = draw(st.sampled_from(_number_slots(doc)))
        container[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "huge int":
        doc = draw(wire_docs())
        container, key = draw(st.sampled_from(_number_slots(doc)))
        container[key] = draw(st.sampled_from([1, -1])) * 10 ** draw(st.integers(309, 600))
    elif kind == "imu arity":
        doc = draw(wire_docs("imu"))
        n = draw(st.sampled_from([0, 3, 8, 10]))
        doc["payload"] = (doc["payload"] * 2)[:n]
    elif kind == "csi lengths":
        doc = draw(wire_docs("csi"))
        doc["payload"][draw(st.sampled_from(["magnitudes", "phases"]))].pop()
    elif kind == "unknown key":
        doc = draw(wire_docs())
        target = doc["payload"] if isinstance(doc["payload"], dict) and draw(st.booleans()) \
            else doc
        target["extra"] = 1
    elif kind == "missing key":
        doc = draw(wire_docs())
        target = doc["payload"] if isinstance(doc["payload"], dict) and draw(st.booleans()) \
            else doc
        del target[draw(st.sampled_from(sorted(target)))]
    elif kind == "negative t":
        doc = draw(wire_docs())
        doc["t"] = -draw(st.floats(min_value=5e-324, max_value=1e9))
    elif kind == "subcarriers":  # equally long, but not the pinned count
        doc = draw(wire_docs("csi"))
        extra = draw(st.integers(1, 3))
        doc["payload"]["magnitudes"] += [1.0] * extra
        doc["payload"]["phases"] += [0.0] * extra
    else:  # truncated: a prefix of a valid line
        line = json.dumps(draw(wire_docs()))
        return line[:draw(st.integers(1, len(line) - 1))]
    return json.dumps(doc)


@given(st.lists(wire_docs(), min_size=1, max_size=12))
@settings(max_examples=150)
def test_table_reader_agrees_with_parse_record(tmp_path_factory, docs):
    lines = [json.dumps(d) for d in docs]
    path = tmp_path_factory.mktemp("agree") / "stream.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = [_bits(parse_record(line)) for line in lines]
    assert [_bits(r) for r in read_records(path)] == expected
    assert [_bits(r) for r in read_records(path, subcarriers=N_SUB)] == expected


@given(st.lists(wire_docs(), min_size=0, max_size=6), st.data(),
       st.sampled_from(CORRUPTIONS))
@settings(max_examples=300)
def test_table_reader_fails_like_parse_record(tmp_path_factory, docs, data, kind):
    lines = [json.dumps(d) for d in docs]
    bad = data.draw(corrupted_line(kind))
    at = len(lines) if kind == "truncated" else data.draw(st.integers(0, len(lines)))
    lines.insert(at, bad)
    path = tmp_path_factory.mktemp("fail") / "stream.jsonl"
    path.write_text("\n".join(lines) + ("" if kind == "truncated" else "\n"),
                    encoding="utf-8")
    with pytest.raises((MalformedLine, SchemaViolation)) as direct:
        parse_record(bad, subcarriers=N_SUB)
    with pytest.raises((MalformedLine, SchemaViolation)) as read:
        read_records(path, subcarriers=N_SUB)
    assert type(direct.value) is EXPECTED[kind]
    assert type(read.value) is type(direct.value)
    assert str(read.value).startswith(f"{path}:{at + 1}: ")


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


def test_sensor_offset_defaults_to_center():
    off = SensorOffset()
    assert (off.x_off, off.y_off, off.phi_off) == (0.0, 0.0, 0.0)
