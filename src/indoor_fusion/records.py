"""Domain types and the JSON-Lines wire schema.

Every stream in the toolkit is a sequence of timestamped sensor records,
one JSON object per line, UTF-8, LF terminated::

    {"t": <sec>, "sensor": <kind>, "id": <source id>, "payload": ...}

Payload layout per sensor kind:

* ``uwb``  -- ``{"anchor_id": str, "range_m": f, "power_db": f}``
* ``rssi`` -- ``{"anchor_id": str, "rssi_db": f}``
* ``csi``  -- ``{"anchor_id": str, "magnitudes": [f]*S, "phases": [f]*S}``
* ``imu``  -- flat array of 9 floats in accel(3), gyro(3), mag(3) order
* ``gt``   -- ``{"x": f, "y": f, "phi": f}``

Floats are rendered in scientific notation with 17 significant digits, so
``parse_record(serialize_record(r)) == r`` holds bit-exactly.  Units are
meters, seconds, radians and dBm throughout; ``t`` is the sender's clock.

Reading builds column tables, not objects: ``read_tables`` turns a file
into one ``SensorTable`` per sensor kind in a single pass (times, source and
anchor indices, a float64 payload matrix, the line of each row).  Each line
goes through one row validator (JSON shape, keys, types, arities, the sign
of ``t``); payload finiteness is checked once per table with
``np.isfinite``.  Every failure is reported as ``path:line:`` of the first
faulty line.  ``parse_record`` is a one-line table read, and
``read_records`` turns the tables into Records in file order.

All types here are immutable values and safe to share between threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import MalformedLine, NegativeTime, SchemaViolation

SENSOR_KINDS = ("uwb", "rssi", "csi", "imu", "gt")

_F = "%.16e"  # 17 significant digits: exact float64 round-trip

TWO_PI = 2.0 * math.pi


def normalize_angle(phi: float) -> float:
    """Wrap an angle to [-pi, pi). Idempotent."""
    return (phi + math.pi) % TWO_PI - math.pi


def angle_difference(a: float, b: float) -> float:
    """Shortest signed arc from ``b`` to ``a``, in [-pi, pi)."""
    return normalize_angle(a - b)


def interpolate_heading(phi0: float, phi1: float, w: float) -> float:
    """Interpolate a heading along the shortest arc (w=0 -> phi0, w=1 -> phi1)."""
    return normalize_angle(phi0 + w * angle_difference(phi1, phi0))


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class Position2D:
    """A point in the global frame, meters."""

    x: float
    y: float

    def __post_init__(self):
        _require_finite("Position2D", self.x, self.y)

    def distance_to(self, other: "Position2D") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Pose:
    """2D position plus heading (counter-clockwise from +x, wrapped to [-pi, pi))."""

    x: float
    y: float
    phi: float

    def __post_init__(self):
        _require_finite("Pose", self.x, self.y, self.phi)
        object.__setattr__(self, "phi", normalize_angle(self.phi))

    @property
    def position(self) -> Position2D:
        return Position2D(self.x, self.y)


@dataclass(frozen=True)
class Anchor:
    """A fixed radio node. ``kind`` is "uwb" or "wifi"."""

    id: str
    kind: str
    position: Position2D

    def __post_init__(self):
        if self.kind not in ("uwb", "wifi"):
            raise ValueError(f"anchor kind must be 'uwb' or 'wifi', got {self.kind!r}")


@dataclass(frozen=True)
class SensorOffset:
    """Mounting offset of a sensor in the robot frame.

    ``x_off``/``y_off`` are the measured sensor coordinates relative to the
    robot center; ``phi_off`` is an additional measured offset angle applied
    on top of the bearing implied by the coordinates.
    """

    x_off: float = 0.0
    y_off: float = 0.0
    phi_off: float = 0.0

    def __post_init__(self):
        _require_finite("SensorOffset", self.x_off, self.y_off, self.phi_off)


@dataclass(frozen=True)
class ClockModel:
    """Affine sender-clock model: t_recorded = t_true * (1 + drift) + offset."""

    offset: float = 0.0
    drift: float = 0.0

    def __post_init__(self):
        _require_finite("ClockModel", self.offset, self.drift)
        if abs(self.drift) > 1e-4:
            raise ValueError(f"|drift| must be <= 1e-4, got {self.drift}")


@dataclass(frozen=True)
class UwbPayload:
    anchor_id: str
    range_m: float
    power_db: float


@dataclass(frozen=True)
class RssiPayload:
    anchor_id: str
    rssi_db: float


@dataclass(frozen=True, eq=False)
class CsiPayload:
    """Per-subcarrier channel magnitudes and phases for one WiFi anchor."""

    anchor_id: str
    magnitudes: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        for name in ("magnitudes", "phases"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.magnitudes.shape != self.phases.shape or self.magnitudes.ndim != 1:
            raise ValueError("CSI magnitudes and phases must be 1D and equally long")
        if self.magnitudes.size == 0:
            raise ValueError("CSI payload must have at least one subcarrier")

    def __eq__(self, other):
        return (
            isinstance(other, CsiPayload)
            and self.anchor_id == other.anchor_id
            and np.array_equal(self.magnitudes, other.magnitudes)
            and np.array_equal(self.phases, other.phases)
        )


@dataclass(frozen=True)
class ImuPayload:
    """9-DoF inertial reading: accelerometer, gyroscope, magnetometer."""

    accel: tuple[float, float, float]
    gyro: tuple[float, float, float]
    mag: tuple[float, float, float]

    def __post_init__(self):
        for name in ("accel", "gyro", "mag"):
            vec = tuple(float(v) for v in getattr(self, name))
            if len(vec) != 3:
                raise ValueError(f"imu {name} must have 3 components")
            object.__setattr__(self, name, vec)


@dataclass(frozen=True)
class GtPayload:
    x: float
    y: float
    phi: float


_PAYLOAD_TYPES = {
    "uwb": UwbPayload,
    "rssi": RssiPayload,
    "csi": CsiPayload,
    "imu": ImuPayload,
    "gt": GtPayload,
}

Payload = UwbPayload | RssiPayload | CsiPayload | ImuPayload | GtPayload


@dataclass(frozen=True, eq=False)
class Record:
    """One timestamped sensor reading on the wire."""

    t: float
    sensor: str
    source_id: str
    payload: Payload

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        if not math.isfinite(self.t) or self.t < 0.0:
            raise ValueError(f"record time must be finite and >= 0, got {self.t}")
        expected = _PAYLOAD_TYPES.get(self.sensor)
        if expected is None:
            raise ValueError(f"unknown sensor kind {self.sensor!r}")
        if not isinstance(self.payload, expected):
            raise ValueError(f"payload {type(self.payload).__name__} does not match sensor {self.sensor!r}")

    def __eq__(self, other):
        return (
            isinstance(other, Record)
            and self.t == other.t
            and self.sensor == other.sensor
            and self.source_id == other.source_id
            and self.payload == other.payload
        )


@lru_cache(maxsize=None)
def _vec_template(n: int) -> str:
    return "[" + ",".join([_F] * n) + "]"


def _fmt_vec(values) -> str:
    """``[v,...]`` with 17 significant digits; one ``%`` call per vector."""
    values = tuple(values.tolist() if isinstance(values, np.ndarray) else values)
    return _vec_template(len(values)) % values


def serialize_record(record: Record) -> str:
    """Render a record as one JSON line (no trailing newline).

    Key order is fixed (t, sensor, id, payload) and floats carry 17
    significant digits so the line re-parses to a bit-identical record.
    """
    p = record.payload
    if record.sensor == "uwb":
        body = '{"anchor_id":%s,"range_m":%s,"power_db":%s}' % (
            json.dumps(p.anchor_id), _F % p.range_m, _F % p.power_db)
    elif record.sensor == "rssi":
        body = '{"anchor_id":%s,"rssi_db":%s}' % (json.dumps(p.anchor_id), _F % p.rssi_db)
    elif record.sensor == "csi":
        body = '{"anchor_id":%s,"magnitudes":%s,"phases":%s}' % (
            json.dumps(p.anchor_id), _fmt_vec(p.magnitudes), _fmt_vec(p.phases))
    elif record.sensor == "imu":
        body = _fmt_vec(p.accel + p.gyro + p.mag)
    else:  # gt
        body = '{"x":%s,"y":%s,"phi":%s}' % (_F % p.x, _F % p.y, _F % p.phi)
    return '{"t":%s,"sensor":"%s","id":%s,"payload":%s}' % (
        _F % record.t, record.sensor, json.dumps(record.source_id), body)


def write_records(path, records) -> int:
    """Write records as JSONL (UTF-8, LF). Returns the number of lines."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(serialize_record(rec))
            fh.write("\n")
            n += 1
    return n


# ---------------------------------------------------------------------------
# Column tables

@dataclass(frozen=True, eq=False)
class SensorTable:
    """One sensor kind's records as columns, one row per record.

    ``values`` is the float payload: uwb ``[range_m, power_db]``, rssi
    ``[rssi_db]``, csi ``[magnitudes..., phases...]``, imu the 9 floats in
    wire order, gt ``[x, y, phi]``.  ``source`` and ``anchor`` index
    ``source_ids`` and ``anchor_ids`` (``anchor`` is -1 for imu and gt).
    ``line`` is each row's 1-based line in its file, or its position in the
    record list the table was built from.  The arrays are read-only.
    """

    sensor: str
    t: np.ndarray
    values: np.ndarray
    source: np.ndarray
    source_ids: tuple[str, ...]
    anchor: np.ndarray
    anchor_ids: tuple[str, ...]
    line: np.ndarray

    def __post_init__(self):
        for arr in (self.t, self.values, self.source, self.anchor, self.line):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.t)

    def take(self, rows) -> "SensorTable":
        """The rows selected by an index array or a boolean mask."""
        return replace(self, t=self.t[rows], values=self.values[rows],
                       source=self.source[rows], anchor=self.anchor[rows],
                       line=self.line[rows])

    def records(self) -> list[Record]:
        """The rows as Records, in table order."""
        rows = self.values.tolist()
        out = []
        for i, (t, s, a) in enumerate(zip(self.t.tolist(), self.source.tolist(),
                                          self.anchor.tolist())):
            v = rows[i]
            anchor_id = self.anchor_ids[a] if a >= 0 else ""
            if self.sensor == "uwb":
                payload: Payload = UwbPayload(anchor_id, v[0], v[1])
            elif self.sensor == "rssi":
                payload = RssiPayload(anchor_id, v[0])
            elif self.sensor == "csi":
                half = len(v) // 2
                payload = CsiPayload(anchor_id, self.values[i, :half], self.values[i, half:])
            elif self.sensor == "imu":
                payload = ImuPayload(tuple(v[0:3]), tuple(v[3:6]), tuple(v[6:9]))
            else:
                payload = GtPayload(v[0], v[1], v[2])
            out.append(Record(t, self.sensor, self.source_ids[s], payload))
        return out


# Rows of pending payload floats are moved into numpy once this many gather.
_BLOCK_FLOATS = 1 << 16


class _TableBuilder:
    """Collects one sensor's rows; payload floats go to numpy in blocks.

    Each block is appended to one payload array grown in place and trimmed
    in ``build``, so the payload is never held twice: a list of blocks
    joined at the end would peak at twice its size.  The array grows by at
    least a quarter, so the copies a ``realloc`` may make stay linear in
    the payload.  The first row fixes the payload width.
    """

    def __init__(self, sensor: str):
        self.sensor = sensor
        self.width: int | None = None
        self.t: list[float] = []
        self.source: list[int] = []
        self.anchor: list[int] = []
        self.line: list[int] = []
        self.source_ids: dict[str, int] = {}
        self.anchor_ids: dict[str, int] = {}
        self.pending: list[float] = []
        self.values = np.empty(0)
        self.size = 0  # floats of ``values`` in use

    def add(self, line: int, t: float, source_id: str, anchor_id: str | None,
            values: list) -> None:
        if self.width is None:
            self.width = len(values)
        elif len(values) != self.width:  # only csi rows vary in width
            raise SchemaViolation(f"csi payload has {len(values) // 2} subcarriers, "
                                  f"expected {self.width // 2} as in the first csi record")
        self.t.append(t)
        self.line.append(line)
        self.source.append(self.source_ids.setdefault(source_id, len(self.source_ids)))
        self.anchor.append(-1 if anchor_id is None
                           else self.anchor_ids.setdefault(anchor_id, len(self.anchor_ids)))
        self.pending += values
        if len(self.pending) >= _BLOCK_FLOATS:
            self._flush()

    def _flush(self) -> None:
        if self.pending:
            end = self.size + len(self.pending)
            if end > self.values.size:
                # no view of the array is alive here, so the reference check is moot
                self.values.resize(max(end, self.values.size * 5 // 4), refcheck=False)
            self.values[self.size:end] = self.pending
            self.size = end
            self.pending = []

    def build(self) -> SensorTable:
        self._flush()
        self.values.resize(self.size, refcheck=False)
        values = self.values.reshape(-1, self.width)
        return SensorTable(self.sensor, np.array(self.t, dtype=np.float64), values,
                           np.array(self.source, dtype=np.intp), tuple(self.source_ids),
                           np.array(self.anchor, dtype=np.intp), tuple(self.anchor_ids),
                           np.array(self.line, dtype=np.intp))


def tables_from_records(records) -> dict[str, SensorTable]:
    """Column tables of in-memory Records, rows in list order."""
    builders: dict[str, _TableBuilder] = {}
    for i, rec in enumerate(records, start=1):
        p = rec.payload
        if rec.sensor == "uwb":
            anchor_id, values = p.anchor_id, [p.range_m, p.power_db]
        elif rec.sensor == "rssi":
            anchor_id, values = p.anchor_id, [p.rssi_db]
        elif rec.sensor == "csi":
            anchor_id, values = p.anchor_id, p.magnitudes.tolist() + p.phases.tolist()
        elif rec.sensor == "imu":
            anchor_id, values = None, [*p.accel, *p.gyro, *p.mag]
        else:
            anchor_id, values = None, [p.x, p.y, p.phi]
        builder = builders.get(rec.sensor)
        if builder is None:
            builder = builders[rec.sensor] = _TableBuilder(rec.sensor)
        builder.add(i, rec.t, rec.source_id, anchor_id, values)
    return {s: b.build() for s, b in builders.items()}


# ---------------------------------------------------------------------------
# Reading: one row validator, then whole-table finiteness checks

_KEYS = {
    "record": frozenset(("t", "sensor", "id", "payload")),
    "uwb payload": frozenset(("anchor_id", "range_m", "power_db")),
    "rssi payload": frozenset(("anchor_id", "rssi_db")),
    "csi payload": frozenset(("anchor_id", "magnitudes", "phases")),
    "gt payload": frozenset(("x", "y", "phi")),
}
_FIELDS = {"uwb": ("range_m", "power_db"), "rssi": ("rssi_db",), "gt": ("x", "y", "phi")}
_FLOAT_ONLY = {float}


def _number(obj, ctx: str) -> float:
    kind = type(obj)
    if kind is float:
        return obj
    if kind is int:
        try:
            return float(obj)
        except OverflowError:
            raise SchemaViolation(f"{ctx}: integer out of float64 range") from None
    raise SchemaViolation(f"{ctx}: expected a number, got {kind.__name__}")


def _numbers(obj, ctx: str) -> list:
    if not isinstance(obj, list):
        raise SchemaViolation(f"{ctx}: expected an array")
    if set(map(type, obj)) <= _FLOAT_ONLY:
        return obj
    return [_number(v, ctx) for v in obj]


def _check_keys(obj: dict, ctx: str) -> None:
    required = _KEYS[ctx]
    if obj.keys() == required:
        return
    missing = required - obj.keys()
    if missing:
        raise SchemaViolation(f"{ctx}: missing keys {sorted(missing)}")
    raise SchemaViolation(f"{ctx}: unknown keys {sorted(obj.keys() - required)}")


def _anchor_id(raw: dict) -> str:
    if not isinstance(raw["anchor_id"], str):
        raise SchemaViolation("anchor_id must be a string")
    return raw["anchor_id"]


def _row(obj, subcarriers: int | None) -> tuple[str, float, str, str | None, list]:
    """Check one decoded line against the wire schema.

    Returns ``(sensor, t, source_id, anchor_id, values)`` with ``anchor_id``
    None for imu and gt.  ``t`` is checked here, since a negative time is a
    NegativeTime however the rest of the line looks; the payload's
    finiteness is left to :func:`_check_finite`.
    """
    if not isinstance(obj, dict):
        raise SchemaViolation("record line must be a JSON object")
    _check_keys(obj, "record")
    t = _number(obj["t"], "t")
    if not 0.0 <= t < math.inf:
        if math.isfinite(t):
            raise NegativeTime(f"record time {t} < 0")
        raise SchemaViolation("t: non-finite value")
    sensor = obj["sensor"]
    if sensor not in SENSOR_KINDS:
        raise SchemaViolation(f"unknown sensor kind {sensor!r}")
    source_id = obj["id"]
    if not isinstance(source_id, str):
        raise SchemaViolation("id must be a string")

    raw = obj["payload"]
    if sensor == "imu":
        values = _numbers(raw, "imu payload")
        if len(values) != 9:
            raise SchemaViolation(f"imu payload must have 9 floats, got {len(values)}")
        return sensor, t, source_id, None, values
    if not isinstance(raw, dict):
        raise SchemaViolation(f"{sensor} payload must be an object")
    _check_keys(raw, f"{sensor} payload")
    if sensor == "csi":
        mags = _numbers(raw["magnitudes"], "magnitudes")
        phases = _numbers(raw["phases"], "phases")
        if len(mags) != len(phases) or not mags:
            raise SchemaViolation("csi magnitudes and phases must be non-empty and equally long")
        if subcarriers is not None and len(mags) != subcarriers:
            raise SchemaViolation(f"csi payload has {len(mags)} subcarriers, expected {subcarriers}")
        return sensor, t, source_id, _anchor_id(raw), mags + phases
    anchor_id = None if sensor == "gt" else _anchor_id(raw)
    return sensor, t, source_id, anchor_id, [_number(raw[f], f) for f in _FIELDS[sensor]]


def _column_name(sensor: str, column: int, width: int) -> str:
    if sensor == "csi":
        return "magnitudes" if column < width // 2 else "phases"
    if sensor == "imu":
        return "imu payload"
    return _FIELDS[sensor][column]


def _at_line(exc: Exception, line: int) -> Exception:
    exc.line = line
    return exc


def _check_finite(tables: dict[str, SensorTable]) -> None:
    """Raise SchemaViolation for the first line holding a non-finite payload value."""
    first = None  # (line, table, row)
    for table in tables.values():
        bad = np.flatnonzero(~np.isfinite(table.values).all(axis=1))
        if bad.size and (first is None or table.line[bad[0]] < first[0]):
            first = (int(table.line[bad[0]]), table, int(bad[0]))
    if first is not None:
        line, table, row = first
        column = int(np.argmin(np.isfinite(table.values[row])))
        name = _column_name(table.sensor, column, table.values.shape[1])
        raise _at_line(SchemaViolation(f"{name}: non-finite value"), line)


_scan = json.JSONDecoder().scan_once  # json.loads minus its whitespace handling


def _decode(line: str):
    try:
        return json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:  # also: nested too deep
        raise MalformedLine(f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # an integer literal past the digit limit
        raise SchemaViolation(f"number out of float64 range: {exc}") from exc


def _tables_from_lines(lines, subcarriers: int | None) -> dict[str, SensorTable]:
    """Parse lines into per-sensor tables in one pass.

    A failing line raises its typed error with ``.line`` set; a non-finite
    value on an earlier line is reported first, as the earlier fault.
    """
    builders: dict[str, _TableBuilder] = {}
    lineno = 0
    try:
        for lineno, line in enumerate(lines, start=1):
            try:
                obj, end = _scan(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = -1
            if end != len(line):  # not a bare JSON value: let json.loads judge it
                obj = _decode(line)
            sensor, t, source_id, anchor_id, values = _row(obj, subcarriers)
            builder = builders.get(sensor)
            if builder is None:
                builder = builders[sensor] = _TableBuilder(sensor)
            builder.add(lineno, t, source_id, anchor_id, values)
    except (MalformedLine, SchemaViolation) as exc:
        _check_finite({s: b.build() for s, b in builders.items()})
        raise _at_line(exc, lineno)
    tables = {s: b.build() for s, b in builders.items()}
    _check_finite(tables)
    return tables


def parse_record(line: str, subcarriers: int | None = None) -> Record:
    """Parse one JSON line into a Record, rejecting anything off-schema.

    ``subcarriers`` pins the expected CSI payload arity when the scenario
    is known; when None, magnitudes and phases only need matching lengths.
    A one-row table read.

    Raises MalformedLine, SchemaViolation or NegativeTime.
    """
    (table,) = _tables_from_lines((line,), subcarriers).values()
    return table.records()[0]


def read_tables(path, subcarriers: int | None = None) -> dict[str, SensorTable]:
    """Read a JSONL record stream into one SensorTable per sensor kind.

    Rows keep file order.  Blank lines are rejected, not skipped; every
    error names ``path:line:``, except bytes that are not UTF-8, which
    raise MalformedLine naming the path.  Without ``subcarriers``, the first csi
    record fixes the CSI width for the rest of the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return _tables_from_lines((line.rstrip("\n") for line in fh), subcarriers)
        except (MalformedLine, SchemaViolation) as exc:
            raise type(exc)(f"{path}:{exc.line}: {exc}") from exc
        except UnicodeDecodeError as exc:  # raised a decoder chunk ahead of its line
            raise MalformedLine(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read_records(path, subcarriers: int | None = None) -> list[Record]:
    """Read a JSONL record stream as Records, in file order."""
    tables = read_tables(path, subcarriers)
    out: list = [None] * sum(len(t) for t in tables.values())
    for table in tables.values():
        for line, rec in zip(table.line.tolist(), table.records()):
            out[line - 1] = rec
    return out
