"""Wire schema: bit-exact round-trips, strict parsing, column tables, value types."""

import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sensor_rows import assert_same_tables, bits, rows_of, tables_of

from indoor_fusion.errors import MalformedLine, NegativeTime, SchemaViolation
from indoor_fusion.records import (
    Anchor,
    ClockModel,
    Position2D,
    SensorOffset,
    SensorTable,
    _format_floats,
    load_table_cache,
    read_records,
    round_trips,
    save_table_cache,
    sorted_unique,
    write_records,
)
from indoor_fusion.simulate import NoiseConfig, SimConfig, build_scenario, simulate_run

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
times = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
ids = st.text(alphabet=st.characters(codec="ascii", categories=["L", "N"]),
              min_size=0, max_size=8)


WIDTHS = {"uwb": 2, "rssi": 1, "csi": 6, "imu": 9, "gt": 3}  # csi: 3 subcarriers


@st.composite
def records(draw, names=ids):
    """One row of any sensor, as ``sensor_rows`` spells it; ids drawn from ``names``."""
    sensor = draw(st.sampled_from(list(WIDTHS)))
    anchor = draw(names) if sensor in ("uwb", "rssi", "csi") else None
    values = draw(st.lists(finite, min_size=WIDTHS[sensor], max_size=WIDTHS[sensor]))
    return sensor, draw(times), draw(names), anchor, values


def _roundtrip(path, tables):
    """The tables written to ``path`` and read back."""
    assert write_records(path, tables) == sum(len(t) for t in tables.values())
    return read_records(path)


@given(st.lists(records(), min_size=1, max_size=8))
@settings(max_examples=200)
def test_serialize_parse_roundtrip_is_bit_exact(tmp_path_factory, rows):
    tables = tables_of(rows)
    path = tmp_path_factory.mktemp("roundtrip") / "stream.jsonl"
    assert_same_tables(_roundtrip(path, tables), tables)


@given(seed=st.integers(0, 2**16), duration=st.floats(0.4, 3.0), dropout=st.booleans())
@example(seed=3, duration=0.4, dropout=False)
@example(seed=5, duration=2.0, dropout=True)
@settings(max_examples=40)
def test_simulated_tables_roundtrip_through_the_file_bit_for_bit(
        tmp_path_factory, seed, duration, dropout):
    noise = NoiseConfig(uwb_dropout_prob=1.0) if dropout else NoiseConfig()
    tables = simulate_run(build_scenario(seed), SimConfig(duration=duration, noise=noise))
    assert ("uwb" in tables) is not dropout
    assert round_trips(tables)
    path = tmp_path_factory.mktemp("simulated") / "dataset1.jsonl"
    back = _roundtrip(path, tables)
    assert path.read_bytes() == _reference_bytes(tables)
    assert_same_tables(back, tables)
    again = path.with_name("again.jsonl")
    write_records(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_serialized_key_order_is_fixed(tmp_path):
    path = tmp_path / "gt.jsonl"
    write_records(path, tables_of([("gt", 1.5, "robot", None, [0.0, 1.0, 2.0])]))
    line = path.read_text(encoding="utf-8")
    assert line.index('"t"') < line.index('"sensor"') < line.index('"id"') \
        < line.index('"payload"')
    # floats carry 17 significant digits
    assert "1.5000000000000000e+00" in line


def test_float_rendering_survives_awkward_values(tmp_path):
    tables = tables_of([("uwb", 0.1, "t", "a", [1.0 / 3.0, -123.456789012345678])])
    assert_same_tables(_roundtrip(tmp_path / "uwb.jsonl", tables), tables)


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
def test_parse_rejects_off_schema_lines(tmp_path, line, err):
    path = tmp_path / "line.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(err, match=r"line\.jsonl:1: "):
        read_records(path)


def test_parse_pins_subcarrier_count(tmp_path):
    tables = tables_of([("csi", 1.0, "e", "a", [1.0] * 4 + [0.0] * 4)])
    path = tmp_path / "csi.jsonl"
    write_records(path, tables)
    assert_same_tables(read_records(path, subcarriers=4), tables)
    with pytest.raises(SchemaViolation):
        read_records(path, subcarriers=52)


def test_write_read_records_roundtrip(tmp_path):
    tables = tables_of([
        ("gt", 0.0, "robot", None, [1.0, 2.0, 0.5]),
        ("uwb", 0.1, "tag0", "u0", [3.25, -55.0]),
        ("rssi", 0.2, "esp0", "w00", [-60.5]),
        ("csi", 0.2, "esp0", "w00", [*np.linspace(0.1, 1, 5), *np.linspace(-3, 3, 5)]),
        ("imu", 0.3, "imu0", None, [0.0, 0.1, 9.81, 0.0, 0.0, 0.02, 19.0, 4.0, -45.0]),
    ])
    assert_same_tables(_roundtrip(tmp_path / "stream.jsonl", tables), tables)


def test_read_records_reports_the_offending_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t":1.0,"sensor":"gt","id":"r","payload":{"x":0,"y":0,"phi":0}}\n'
                    "garbage\n", encoding="utf-8")
    with pytest.raises(MalformedLine, match=":2:"):
        read_records(path)


UWB_ROW = ("uwb", 0.1, "tag0", "u0", [3.25, -55.0])


def _uwb_line(tmp_path) -> str:
    """The line the writer makes of ``UWB_ROW``, without its newline."""
    path = tmp_path / "one.jsonl"
    write_records(path, tables_of([UWB_ROW]))
    return path.read_text(encoding="utf-8").rstrip("\n")


def test_read_records_reports_a_truncated_final_line(tmp_path):
    path = tmp_path / "dataset1.jsonl"
    line = _uwb_line(tmp_path)
    # a writer cut off mid-line: no closing brace, no final newline
    path.write_text(line + "\n" + line + "\n" + line[:len(line) // 2], encoding="utf-8")
    with pytest.raises(MalformedLine, match=r"dataset1\.jsonl:3:"):
        read_records(path)


@pytest.mark.parametrize("tail", [b"\xff\xfe\n", b"\xc3"])
def test_bytes_that_are_not_utf8_are_a_malformed_line_naming_the_path(tmp_path, tail):
    path = tmp_path / "dataset1.jsonl"
    write_records(path, tables_of([UWB_ROW] * 3))
    with open(path, "ab") as fh:
        fh.write(tail)  # a stray byte pair, or a character cut off at the end
    with pytest.raises(MalformedLine, match=r"dataset1\.jsonl: not UTF-8 text"):
        read_records(path)


@pytest.mark.parametrize("literal", ["1" + "0" * 400, "-" + "9" * 400, "1" * 5000])
def test_integer_beyond_float64_is_a_schema_violation(tmp_path, literal):
    # 400 digits overflow float(); 5000 pass the json module's digit limit
    line = '{"t": %s, "sensor": "gt", "id": "r", "payload": {"x":0,"y":0,"phi":0}}'
    good = line % "1.0"
    payload = '{"t": 1.0, "sensor": "uwb", "id": "r", "payload": ' \
        '{"anchor_id": "u0", "range_m": %s, "power_db": -50.0}}' % literal
    path = tmp_path / "dataset1.jsonl"
    for lines, at in (([line % literal], 1), ([good, line % literal], 2), ([good, payload], 2)):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SchemaViolation, match=rf"dataset1\.jsonl:{at}:"):
            read_records(path)


# Awkward values: a third, negative zero, the smallest subnormal, the largest
# double, empty and quoted ids.  The bytes are pinned: the writer's output is
# the on-disk spec.
GOLDEN = [
    ("gt", 1.0 / 3.0, "", None, [-0.0, 5e-324, 1.7976931348623157e308]),
    ("uwb", 0.0, "", "", [1.0 / 3.0, -0.0]),
    ("rssi", 5e-324, 'esp"0', "", [-1.7976931348623157e308]),
    ("csi", 1.7976931348623157e308, "", "",
     [1.0 / 3.0, -0.0, 5e-324, 1.7976931348623157e308, -1.0 / 3.0, 0.1]),
    ("csi", 2.5, "esp0", "w01", [-5e-324, 2.0, 0.5, 1e-300, -0.0, 7.0]),
    ("imu", 2.5, "", None, [1.0 / 3.0, -0.0, 5e-324, 1.7976931348623157e308, -1.0, 0.0,
                            1e-300, -2.5e-7, 123456789.0]),
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
    assert write_records(path, tables_of(GOLDEN)) == len(GOLDEN)
    assert path.read_bytes() == GOLDEN_BYTES
    assert [bits(r) for r in rows_of(read_records(path))] == [bits(r) for r in GOLDEN]


def test_tables_hold_one_row_per_record_in_file_order(tmp_path):
    path = tmp_path / "golden.jsonl"
    write_records(path, tables_of(GOLDEN))
    tables = read_records(path)
    assert set(tables) == {"gt", "uwb", "rssi", "csi", "imu"}
    csi = tables["csi"]
    assert csi.values.shape == (2, 6)
    assert csi.line.tolist() == [4, 5]
    assert [csi.anchor_ids[a] for a in csi.anchor] == ["", "w01"]
    assert [csi.source_ids[s] for s in csi.source] == ["", "esp0"]
    assert tables["imu"].anchor.tolist() == [-1]
    with pytest.raises(ValueError):
        csi.values[0, 0] = 1.0  # read-only
    assert_same_tables(tables, tables_of(GOLDEN))


def test_ids_are_numbered_in_sorted_order_whatever_the_line_order(tmp_path):
    rows = [("uwb", 0.5, "z", "u2", [1.0, -50.0]), ("uwb", 0.5, "a", "u0", [2.0, -50.0]),
            ("uwb", 1.0, "z", "u1", [3.0, -50.0])]
    path = tmp_path / "stream.jsonl"
    path.write_text("".join(json.dumps({"t": t, "sensor": s, "id": i, "payload": {
        "anchor_id": a, "range_m": v[0], "power_db": v[1]}}) + "\n" for s, t, i, a, v in rows))
    uwb = read_records(path)["uwb"]
    assert (uwb.source_ids, uwb.anchor_ids) == (("a", "z"), ("u0", "u1", "u2"))
    assert (uwb.source.tolist(), uwb.anchor.tolist()) == ([1, 0, 1], [2, 0, 1])
    assert round_trips({"uwb": uwb})
    # the same rows numbered by first use, as the file lists them: not what a read gives
    first_use = replace(uwb, source=np.asarray([0, 1, 0], np.intp), source_ids=("z", "a"),
                        anchor=np.asarray([0, 1, 2], np.intp), anchor_ids=("u2", "u0", "u1"))
    assert not round_trips({"uwb": first_use})
    assert not round_trips({"uwb": replace(uwb, anchor=first_use.anchor,
                                           anchor_ids=first_use.anchor_ids)})


@pytest.mark.parametrize("column", ["source", "anchor"])
@pytest.mark.parametrize("value", [-1, "len", np.iinfo(np.intp).max])
def test_round_trips_refuses_an_index_outside_its_ids(tmp_path, column, value):
    # a range check, not a bincount's error or its array of 2**63 counts
    rows = [("uwb", 0.5, "a", "u0", [1.0, -50.0]), ("uwb", 1.0, "z", "u1", [2.0, -50.0]),
            ("uwb", 1.5, "a", "u1", [3.0, -50.0])]
    path = tmp_path / "stream.jsonl"
    path.write_text("".join(json.dumps({"t": t, "sensor": s, "id": i, "payload": {
        "anchor_id": a, "range_m": v[0], "power_db": v[1]}}) + "\n" for s, t, i, a, v in rows))
    uwb = read_records(path)["uwb"]
    assert round_trips({"uwb": uwb})
    index = getattr(uwb, column).copy()
    # the last row's id is used by another row too, so every id stays used
    index[-1] = len(getattr(uwb, f"{column}_ids")) if value == "len" else value
    assert round_trips({"uwb": replace(uwb, **{column: index})}) is False


@pytest.mark.parametrize("step", [1, 2, 4, 256])
def test_writer_merges_tables_in_line_order(tmp_path, step):
    # rows leave in ascending line order across tables, whatever their table
    # order, and however many rows one formatting step takes
    tables = tables_of(GOLDEN)
    shuffled = {s: tables[s].take(np.arange(len(tables[s]))[::-1]) for s in reversed(tables)}
    path = tmp_path / "shuffled.jsonl"
    with mock.patch("indoor_fusion.records._WRITE_ROWS", step):
        write_records(path, shuffled)
    assert path.read_bytes() == GOLDEN_BYTES


# ---------------------------------------------------------------------------
# The writer's float text against Python's, and the writer against one
# ``%.16e`` per float

def _reference_bytes(tables) -> bytes:
    """The bytes of the per-float writer: one ``%`` template per line, each
    float through Python's ``"%.16e"``."""
    def vec(values):
        return "[" + ",".join("%.16e" % v for v in values) + "]"

    out = []
    for sensor, t, source, anchor, values in rows_of(tables):
        if sensor == "uwb":
            payload = '{"anchor_id":%s,"range_m":%.16e,"power_db":%.16e}' % (
                json.dumps(anchor), *values)
        elif sensor == "rssi":
            payload = '{"anchor_id":%s,"rssi_db":%.16e}' % (json.dumps(anchor), *values)
        elif sensor == "csi":
            half = len(values) // 2
            payload = '{"anchor_id":%s,"magnitudes":%s,"phases":%s}' % (
                json.dumps(anchor), vec(values[:half]), vec(values[half:]))
        elif sensor == "imu":
            payload = vec(values)
        else:
            payload = '{"x":%.16e,"y":%.16e,"phi":%.16e}' % tuple(values)
        out.append('{"t":%.16e,"sensor":"%s","id":%s,"payload":%s}\n' % (
            t, sensor, json.dumps(source), payload))
    return "".join(out).encode("utf-8")


def test_reference_writer_makes_the_pinned_bytes():
    assert _reference_bytes(tables_of(GOLDEN)) == GOLDEN_BYTES


def _bits_of(*values):
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


# Zeros, the smallest subnormal and normal, the largest double, the two
# exact ties of a 17th digit (rounded half to even), and 1e23, which is
# 9.9999999999999992e+22
AWKWARD = _bits_of(0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                   -1.7976931348623157e308, 1234567890123456.25, 1234567890123456.75, 1e23)


def _at_powers_of_ten(test):
    """``test`` with an example for each power of ten in float64's range and
    its two neighbours, where the scaled digits meet 1e16 or 1e17."""
    for exponent in range(-307, 309):
        power = float(f"1e{exponent}")
        test = example(_bits_of(np.nextafter(power, 0.0), power,
                                np.nextafter(power, math.inf)))(test)
    return test


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
@example(AWKWARD)
@_at_powers_of_ten
@settings(max_examples=500)
def test_float_text_is_python_percent_e_for_every_bit_pattern(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)]
    assert _format_floats(values).tolist() == [b"%.16e" % v for v in values.tolist()]


@given(st.lists(records(st.text(max_size=4)), min_size=1, max_size=8))
@settings(max_examples=200)
def test_writer_matches_the_per_float_reference(tmp_path_factory, rows):
    # any ids, '%' and non-ASCII ones too: they go out JSON-escaped to ASCII
    tables = tables_of(rows)
    path = tmp_path_factory.mktemp("reference") / "stream.jsonl"
    write_records(path, tables)
    assert path.read_bytes() == _reference_bytes(tables)


def _doc(sensor, t, source, anchor, values):
    if sensor in ("uwb", "rssi", "gt"):
        fields = {"uwb": ("range_m", "power_db"), "rssi": ("rssi_db",),
                  "gt": ("x", "y", "phi")}[sensor]
        payload = dict(zip(fields, values))
        if anchor is not None:
            payload = {"anchor_id": anchor, **payload}
    elif sensor == "csi":
        half = len(values) // 2
        payload = {"anchor_id": anchor, "magnitudes": values[:half], "phases": values[half:]}
    else:
        payload = values
    return json.dumps({"t": t, "sensor": sensor, "id": source, "payload": payload})


def test_reader_refuses_a_change_of_subcarrier_count(tmp_path):
    path = tmp_path / "dataset1.jsonl"
    lines = [_doc("csi", 0.1, "e", "a", [1.0] * 4 + [0.0] * 4),
             _doc("uwb", 0.2, "t", "u0", [1.0, -50.0]),
             _doc("csi", 0.3, "e", "a", [1.0] * 5 + [0.0] * 5)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SchemaViolation, match=r"dataset1\.jsonl:3: csi payload has 5 subcarriers"):
        read_records(path)


def test_a_line_nested_too_deep_is_malformed(tmp_path):
    path = tmp_path / "dataset1.jsonl"
    path.write_text(_uwb_line(tmp_path) + "\n" + "[" * 100_000 + "\n", encoding="utf-8")
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("row, column, name", [(5, 3, r"imu payload"), (3, 1, r"magnitudes"),
                                               (1, None, r"t")])
def test_writer_refuses_a_non_finite_value_and_writes_no_file(tmp_path, bad, row, column,
                                                              name):
    # JSON cannot spell NaN or infinity: a bare ``nan`` would make a file
    # that read_records rejects as invalid JSON
    rows = [list(r) for r in GOLDEN]
    if column is None:
        rows[row][1] = bad
    else:
        rows[row][4] = [*rows[row][4][:column], bad, *rows[row][4][column + 1:]]
    path = tmp_path / "dataset1.jsonl"
    sensor = rows[row][0]
    with pytest.raises(SchemaViolation,
                       match=rf"dataset1\.jsonl:{row + 1}: {name}: non-finite value \({sensor}\)"):
        write_records(path, tables_of(rows))
    assert not path.exists()


# ---------------------------------------------------------------------------
# The table reader against the documents it reads, and against one-line reads

N_SUB = 3
_numbers = st.one_of(finite, st.integers(-10**6, 10**6))


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


def _doc_bits(doc):
    """The row a valid document stands for, floats as their exact bits."""
    payload = doc["payload"]
    if isinstance(payload, list):
        anchor, values = None, payload
    elif "magnitudes" in payload:
        anchor, values = payload["anchor_id"], payload["magnitudes"] + payload["phases"]
    else:
        fields = {k: v for k, v in payload.items() if k != "anchor_id"}
        order = {"uwb": ("range_m", "power_db"), "rssi": ("rssi_db",),
                 "gt": ("x", "y", "phi")}[doc["sensor"]]
        anchor, values = payload.get("anchor_id"), [fields[k] for k in order]
    return bits((doc["sensor"], doc["t"], doc["id"], anchor, values))


@given(st.lists(wire_docs(), min_size=1, max_size=12))
@settings(max_examples=150)
def test_table_reader_agrees_with_parse_record(tmp_path_factory, docs):
    lines = [json.dumps(d) for d in docs]
    path = tmp_path_factory.mktemp("agree") / "stream.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = [_doc_bits(d) for d in docs]
    assert [bits(r) for r in rows_of(read_records(path))] == expected
    assert [bits(r) for r in rows_of(read_records(path, subcarriers=N_SUB))] == expected
    assert round_trips(read_records(path))  # what the table cache loader relies on


@given(st.lists(wire_docs(), min_size=0, max_size=6), st.data(),
       st.sampled_from(CORRUPTIONS))
@settings(max_examples=300)
def test_table_reader_fails_like_parse_record(tmp_path_factory, docs, data, kind):
    # the faulty line fails the same way alone and among valid lines
    lines = [json.dumps(d) for d in docs]
    bad = data.draw(corrupted_line(kind))
    at = len(lines) if kind == "truncated" else data.draw(st.integers(0, len(lines)))
    lines.insert(at, bad)
    folder = tmp_path_factory.mktemp("fail")
    path, alone = folder / "stream.jsonl", folder / "alone.jsonl"
    path.write_text("\n".join(lines) + ("" if kind == "truncated" else "\n"),
                    encoding="utf-8")
    alone.write_text(bad, encoding="utf-8")
    with pytest.raises((MalformedLine, SchemaViolation)) as direct:
        read_records(alone, subcarriers=N_SUB)
    with pytest.raises((MalformedLine, SchemaViolation)) as read:
        read_records(path, subcarriers=N_SUB)
    assert type(direct.value) is EXPECTED[kind]
    assert type(read.value) is type(direct.value)
    assert str(read.value).startswith(f"{path}:{at + 1}: ")


# ---------------------------------------------------------------------------
# round_trips: the tables a write and a read give back unchanged, and the cache

def _pick(data, tables, fits=lambda table: True):
    """A sensor whose table ``fits``, drawn; None if no table does."""
    sensors = [s for s, table in tables.items() if fits(table)]
    return data.draw(st.sampled_from(sensors)) if sensors else None


def _change(tables, sensor, **columns):
    """``tables`` with columns of one table replaced, in the same dict order."""
    return {s: replace(t, **columns) if s == sensor else t for s, t in tables.items()}


def _edited(array, at, value):
    out = array.copy()
    out[at] = value
    return out


def _swapped_lines(tables, data):
    sensor = _pick(data, tables, lambda t: len(t) > 1)
    if sensor is None:
        return None
    line = tables[sensor].line
    return _change(tables, sensor, line=np.concatenate([line[1::-1], line[2:]]))


def _shifted_line(tables, data):  # a gap after it, or a clash with another table's line
    sensor = _pick(data, tables)
    line = tables[sensor].line
    return _change(tables, sensor, line=_edited(line, -1, line[-1] + 1))


def _unused_id(tables, data):
    sensor = _pick(data, tables)
    return _change(tables, sensor, source_ids=(*tables[sensor].source_ids, "unused"))


def _duplicate_id(tables, data):
    sensor = _pick(data, tables, lambda t: len(t.source_ids) > 1)
    if sensor is None:
        return None
    ids = tables[sensor].source_ids
    return _change(tables, sensor, source_ids=(ids[0], *ids[:-1]))


def _renumbered_ids(tables, data):  # the same rows, ids 0 and 1 out of sorted order
    sensor = _pick(data, tables, lambda t: len(t.source_ids) > 1)
    if sensor is None:
        return None
    source, ids = tables[sensor].source, tables[sensor].source_ids
    return _change(tables, sensor, source=np.where(source < 2, 1 - source, source),
                   source_ids=(ids[1], ids[0], *ids[2:]))


def _non_finite_value(tables, data):
    sensor = _pick(data, tables)
    table = tables[sensor]
    at = (data.draw(st.integers(0, len(table) - 1)),
          data.draw(st.integers(0, table.values.shape[1] - 1)))
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return _change(tables, sensor, values=_edited(table.values, at, bad))


def _bad_time(tables, data):
    sensor = _pick(data, tables)
    at = data.draw(st.integers(0, len(tables[sensor]) - 1))
    bad = data.draw(st.sampled_from([-1.0, -5e-324, math.nan, math.inf]))
    return _change(tables, sensor, t=_edited(tables[sensor].t, at, bad))


def _empty_table(tables, data):
    missing = [s for s in WIDTHS if s not in tables]
    if not missing:
        return None
    sensor = data.draw(st.sampled_from(missing))
    none = np.zeros(0, np.intp)
    return {**tables, sensor: SensorTable(sensor, np.zeros(0), np.zeros((0, WIDTHS[sensor])),
                                          none, (), none, (), none)}


def _wrong_width(tables, data):
    sensor = _pick(data, tables)
    return _change(tables, sensor, values=tables[sensor].values[:, :-1])


def _reordered_tables(tables, data):
    return dict(reversed(tables.items())) if len(tables) > 1 else None


def _retyped(tables, data):
    sensor = _pick(data, tables)
    name, dtype = data.draw(st.sampled_from([
        ("t", np.float32), ("values", np.float32), ("line", np.int32),
        ("t", np.dtype(np.float64).newbyteorder())]))
    with np.errstate(over="ignore"):  # a value beyond float32's range casts to inf
        column = getattr(tables[sensor], name).astype(dtype)
    return _change(tables, sensor, **{name: column})


def _wrong_anchor(tables, data):  # an anchor on imu or gt, or none on a radio
    sensor = _pick(data, tables)
    table = tables[sensor]
    if sensor in ("imu", "gt"):
        return _change(tables, sensor, anchor=np.zeros(len(table), np.intp), anchor_ids=("a",))
    return _change(tables, sensor, anchor=np.full(len(table), -1, np.intp), anchor_ids=())


def _unknown_sensor(tables, data):
    sensor = _pick(data, tables)
    return {("sonar" if s == sensor else s): t for s, t in tables.items()}


DAMAGES = [_swapped_lines, _shifted_line, _unused_id, _duplicate_id, _renumbered_ids,
           _non_finite_value, _bad_time, _empty_table, _wrong_width, _reordered_tables,
           _retyped, _wrong_anchor, _unknown_sensor]


@given(st.lists(records(st.sampled_from(["", "a", "b7"])), min_size=1, max_size=10),
       st.data(), st.sampled_from([None, *DAMAGES]))
@settings(max_examples=400)
def test_round_trips_holds_only_for_tables_a_write_and_read_give_back(tmp_path_factory, rows,
                                                                      data, damage):
    tables = tables_of(rows)
    if damage is not None:
        tables = damage(tables, data)
        assume(tables is not None)
    holds = round_trips(tables)
    assert holds == (damage is None)
    if holds:
        path = tmp_path_factory.mktemp("round_trips") / "stream.jsonl"
        write_records(path, tables)
        assert_same_tables(read_records(path), tables)


def test_table_cache_stores_strided_and_empty_columns(tmp_path):
    tables = tables_of(GOLDEN)
    wide = np.repeat(tables["csi"].values, 2, axis=1)
    tables["csi"] = replace(tables["csi"], values=wide[:, ::2])  # a strided view
    assert not tables["csi"].values.flags.c_contiguous
    assert tables["imu"].anchor_ids == ()  # stored as an array of no strings
    save_table_cache(tmp_path / "golden.tables.npz", "key", tables)
    assert_same_tables(load_table_cache(tmp_path / "golden.tables.npz", "key"), tables)
    assert load_table_cache(tmp_path / "golden.tables.npz", "other key") is None


# ---------------------------------------------------------------------------
# Value types

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


def test_sensor_offset_defaults_to_center():
    off = SensorOffset()
    assert (off.x_off, off.y_off, off.phi_off) == (0.0, 0.0, 0.0)


# its callers' arrays: source and anchor codes, and a sensor's finite times
@given(st.one_of(st.lists(st.integers(-3, 3), max_size=20).map(
                     lambda v: np.array(v, dtype=np.intp)),
                 st.lists(st.one_of(st.floats(allow_nan=False), st.sampled_from([0.0, -0.0])),
                          max_size=20).map(lambda v: np.array(v, dtype=np.float64))))
@settings(max_examples=300)
def test_sorted_unique_is_numpy_unique(a):
    got, want = sorted_unique(a), np.unique(a)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want), (a, got, want)
