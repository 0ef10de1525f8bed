"""The JSON-Lines wire schema, its column tables, and the value types.

Every stream in the toolkit is a sequence of timestamped sensor records,
one JSON object per line, UTF-8, LF terminated::

    {"t": <sec>, "sensor": <kind>, "id": <source id>, "payload": ...}

Payload layout per sensor kind:

* ``uwb``  -- ``{"anchor_id": str, "range_m": f, "power_db": f}``
* ``rssi`` -- ``{"anchor_id": str, "rssi_db": f}``
* ``csi``  -- ``{"anchor_id": str, "magnitudes": [f]*S, "phases": [f]*S}``
* ``imu``  -- flat array of 9 floats in accel(3), gyro(3), mag(3) order
* ``gt``   -- ``{"x": f, "y": f, "phi": f}``

Units are meters, seconds, radians and dBm throughout; ``t`` is the
sender's clock.

In memory a stream is one ``SensorTable`` per sensor kind: times, source
and anchor indices, a float64 payload matrix and the line of each row.
``write_records`` writes tables as lines in ``line`` order, floats in
scientific notation with 17 significant digits: the bytes of ``"%.16e"``,
made for each step of lines in one numpy pass.  Zeros, subnormals, values
beyond 1e270, values next to a power of ten and values next to a rounding
tie go to Python's ``%`` instead.  ``read_records`` parses a file into
tables in a single pass.  Tables written and read back are
bit-identical, and rewriting the tables of a written file reproduces its
bytes.  Each line goes through one row validator (JSON shape, keys, types,
arities, the sign of ``t``); payload finiteness is checked once per table
with ``np.isfinite``.  Every failure is reported as ``path:line:`` of the
first faulty line.

``save_table_cache`` and ``load_table_cache`` keep what ``read_records``
returns as numpy arrays, keyed also on a digest of this module's source.
``round_trips`` tells, without writing or reading a line, whether
``read_records`` would give back exactly the tables ``write_records`` was
handed; the ``simulate`` command caches each campaign it writes when it
does, so only a dataset that ``simulate`` did not write, or whose bytes
changed since, is parsed by the first command that reads it.

All types here are immutable values and safe to share between threads.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import MalformedLine, NegativeTime, SchemaViolation

SENSOR_KINDS = ("uwb", "rssi", "csi", "imu", "gt")


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


# ---------------------------------------------------------------------------
# Column tables

@dataclass(frozen=True, eq=False)
class SensorTable:
    """One sensor kind's records as columns, one row per record.

    ``values`` is the float payload: uwb ``[range_m, power_db]``, rssi
    ``[rssi_db]``, csi ``[magnitudes..., phases...]``, imu the 9 floats in
    wire order, gt ``[x, y, phi]``.  ``source`` and ``anchor`` index
    ``source_ids`` and ``anchor_ids`` (``anchor`` is -1 for imu and gt).
    ``line`` is each row's 1-based line in its file: where ``read_records``
    found the row, or where ``write_records`` puts it.  The arrays are
    read-only.
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


# ---------------------------------------------------------------------------
# Floats as text: ``b"%.16e" % v`` for a whole array in one numpy pass

# The decimal exponents k = floor(log10|v|) of the fast path, 1e-270 <= |v| <= 1e270,
# one off either way before the correction
_K_MIN, _K_MAX = -271, 271
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double into two halves


@lru_cache(maxsize=None)
def _by_exponent() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per exponent k in [_K_MIN, _K_MAX]: the scale 10**(16 - k) as a
    double-double (hi, lo), each rounded once from exact integer ratios,
    and the text ``e+kk`` in bytes 2 and up of a little-endian word.  Built
    on the first write, not at import."""
    hi, lo, tail = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        h = num / den  # int / int: correctly rounded
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
        tail.append(int.from_bytes(b"e%+03d" % k, "little") << 16)
    tables = np.array(hi), np.array(lo), np.array(tail, dtype=np.uint64)
    for table in tables:
        table.setflags(write=False)  # every write shares them
    return tables


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * x
    high = c - (c - x)
    return high, x - high


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**(16 - k)`` as ``p + r``: ``p`` the rounded product, ``r`` its
    error by Dekker's TwoProduct against hi, plus ``a * lo``.  Off the exact
    value by about 2**-47 where the product lies in [1e16, 1e17)."""
    hi, lo, _ = _by_exponent()
    ten = hi[k - _K_MIN]
    p = a * ten
    a_hi, a_lo = _split(a)
    t_hi, t_lo = _split(ten)
    e = ((a_hi * t_hi - p) + a_hi * t_lo + a_lo * t_hi) + a_lo * t_lo
    return p, e + a * lo[k - _K_MIN]


def _ascii8(x: np.ndarray) -> np.ndarray:
    """Integers below 10**8 as their 8 zero-padded ASCII digits, the first
    digit in the low byte of a uint64: split into lanes of 4, 2 and 1
    digits, 32, 16 and 8 bits wide, each split one multiply and shift."""
    x = x.astype(np.uint64)
    high = x // 10000
    x = high | (x - high * 10000) << 32
    high = (x * 5243 >> 19) & 0x0000_007F_0000_007F  # // 100, exact below 43 699
    x = high | (x - high * 100) << 16
    high = (x * 103 >> 10) & 0x000F_000F_000F_000F  # // 10, exact below 179
    return (high | (x - high * 10) << 8) + 0x3030_3030_3030_3030


def _format_floats(values: np.ndarray) -> np.ndarray:
    """``b"%.16e" % v`` of every value, as a flat ``S24`` array.

    Each value with 1e-270 <= |v| <= 1e270 is scaled to 17 integer digits,
    ``S = |v| * 10**(16 - k)`` in double-double, and ``S`` is rounded to
    the nearest integer: the correctly rounded digits dtoa gives.  A value
    whose ``S`` lies within 16 of 1e16 or 1e17 (powers of ten and their
    neighbours), or whose fraction lies within 1e-6 of a half (ties, which
    dtoa rounds to even), goes to Python, as do zeros, subnormals, huge and
    non-finite values.  That margin is over 10**8 times the error in ``S``.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    fast = (a >= 1e-270) & (a <= 1e270)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    p, r = _scaled(a, k)
    shift = (p >= 1e17).astype(np.intp) - (p < 1e16)  # log10 rounded across a power of ten
    fix = np.flatnonzero(shift)
    if fix.size:
        k[fix] += shift[fix]
        p[fix], r[fix] = _scaled(a[fix], k[fix])
    whole = np.floor(r)
    frac = r - whole
    fast &= (p > 1e16 + 16) & (p < 1e17 - 16) & (np.abs(frac - 0.5) > 1e-6)
    # p >= 2**53 is an integer, so the digits are p + round(r)
    digits = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)

    # The text in three little-endian words, NUL-padded as S24 reads it:
    # "d.dddddd" "dddddddd" "dde+kk", the digits as 8, 8 and 1.
    high = digits // 10 ** 9
    low = digits - high * 10 ** 9
    first, second = _ascii8(high), _ascii8(low // 10)
    last = (low % 10).astype(np.uint64) + ord("0")
    words = [first & 0xFF | (first & 0x00FF_FFFF_FFFF_FF00) << 8 | ord(".") << 8,
             first >> 56 | second << 8,
             second >> 56 | last << 8 | _by_exponent()[2][k - _K_MIN]]
    # a negative value's text moves one byte up, behind a "-"
    sign = np.signbit(v).astype(np.uint64)
    carry = sign * ord("-")
    text = np.empty((len(v), 3), "<u8")
    for i, word in enumerate(words):
        text[:, i] = word << (sign << 3) | carry
        carry = (word >> 56) * sign
    out = text.view("S24").ravel()
    slow = np.flatnonzero(~fast)
    if slow.size:
        out[slow] = [b"%.16e" % x for x in v[slow].tolist()]
    return out


# ---------------------------------------------------------------------------
# Writing: one ``%`` template per (source, anchor), rows in line order

# Rows formatted per step: bounds the text and arrays held at once, so
# writing adds nothing to the peak RSS.  128 simulated rows are about 4 800
# floats; at 256 the formatter's arrays left the heap 0.4 MiB higher for
# the second campaign's simulation, the peak of a ``simulate``.
_WRITE_ROWS = 1 << 7

_SLOT = "%s"  # one float of a template, filled with _format_floats' text


@lru_cache(maxsize=None)
def _vec_template(n: int) -> str:
    return "[" + ",".join([_SLOT] * n) + "]"


def _json_str(s: str) -> str:
    """A JSON string literal in ASCII, escaped for use inside a ``%`` template."""
    return json.dumps(s).replace("%", "%%")


def _payload_template(sensor: str, width: int, anchor_id: str) -> str:
    if sensor == "uwb":
        return '{"anchor_id":%s,"range_m":%s,"power_db":%s}' % (_json_str(anchor_id), _SLOT, _SLOT)
    if sensor == "rssi":
        return '{"anchor_id":%s,"rssi_db":%s}' % (_json_str(anchor_id), _SLOT)
    if sensor == "csi":
        vec = _vec_template(width // 2)
        return '{"anchor_id":%s,"magnitudes":%s,"phases":%s}' % (_json_str(anchor_id), vec, vec)
    if sensor == "imu":
        return _vec_template(width)
    return '{"x":%s,"y":%s,"phi":%s}' % (_SLOT, _SLOT, _SLOT)


def _row_templates(table: SensorTable) -> tuple[np.ndarray, dict[int, bytes]]:
    """Each row's template code, and the line template of every code used."""
    n_anchor = len(table.anchor_ids) + 1  # code 0 of an anchor: none (imu, gt)
    codes = table.source * n_anchor + table.anchor + 1
    templates = {}
    for code in np.unique(codes).tolist():
        source, anchor = divmod(code, n_anchor)
        payload = _payload_template(table.sensor, table.values.shape[1],
                                    table.anchor_ids[anchor - 1] if anchor else "")
        templates[code] = ('{"t":%s,"sensor":"%s","id":%s,"payload":%s}\n' % (
            _SLOT, table.sensor, _json_str(table.source_ids[source]), payload)).encode("utf-8")
    return codes, templates


def write_records(path, tables: dict[str, SensorTable], *, digest=None) -> int:
    """Write tables as JSONL (UTF-8, LF); returns the number of lines.

    Rows of all tables go out in ascending ``line`` order, ties in table
    order.  Floats carry 17 significant digits, so ``read_records`` gives
    the values back bit for bit.  Each step of ``_WRITE_ROWS`` lines formats
    its floats, every table's ``t`` and ``values``, in one
    ``_format_floats`` call.  ``digest``, a ``hashlib`` object, is updated
    with every byte written, so the file need not be read back to hash it.
    A time or value JSON cannot spell raises SchemaViolation; none is written.
    """
    try:
        _check_finite(tables)
    except SchemaViolation as exc:
        raise SchemaViolation(f"{path}:{exc.line}: {exc}") from None
    tables = list(tables.values())
    lines = np.concatenate([t.line for t in tables]) if tables else np.zeros(0, np.intp)
    position = np.empty(len(lines), dtype=np.intp)
    position[np.argsort(lines, kind="stable")] = np.arange(len(lines))
    parts, start = [], 0
    for table in tables:  # its rows in output order, their positions, their templates
        pos = position[start:start + len(table)]
        start += len(table)
        rows = np.argsort(pos)
        parts.append((table, rows, pos[rows], *_row_templates(table)))
    with open(path, "wb") as fh:
        for lo in range(0, len(lines), _WRITE_ROWS):
            out = [b""] * min(_WRITE_ROWS, len(lines) - lo)
            steps = []  # per table: its rows' slots, codes and (rows, 1 + W) floats
            for table, rows, pos, codes, templates in parts:
                a, b = np.searchsorted(pos, (lo, lo + len(out)))
                chunk = rows[a:b]
                steps.append((pos[a:b] - lo, codes[chunk], templates,
                              np.column_stack((table.t[chunk], table.values[chunk]))))
            text = _format_floats(np.concatenate([floats.ravel() for *_, floats in steps]))
            at = 0
            for slots, codes, templates, floats in steps:
                cells = text[at:at + floats.size].reshape(floats.shape).tolist()
                at += floats.size
                for slot, code, row in zip(slots.tolist(), codes.tolist(), cells):
                    out[slot] = templates[code] % tuple(row)
            chunk = b"".join(out)
            fh.write(chunk)
            if digest is not None:
                digest.update(chunk)
    return len(lines)


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
    """Raise SchemaViolation for the first line holding a non-finite time or value."""
    first = None  # (line, table, row)
    for table in tables.values():
        bad = np.flatnonzero(~(np.isfinite(table.t) & np.isfinite(table.values).all(axis=1)))
        if bad.size and (first is None or table.line[bad[0]] < first[0]):
            first = (int(table.line[bad[0]]), table, int(bad[0]))
    if first is not None:
        line, table, row = first
        column = int(np.argmin(np.isfinite(table.values[row])))
        name = ("t" if not math.isfinite(table.t[row])
                else _column_name(table.sensor, column, table.values.shape[1]))
        raise _at_line(SchemaViolation(f"{name}: non-finite value ({table.sensor})"), line)


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


def read_records(path, subcarriers: int | None = None) -> dict[str, SensorTable]:
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


# ---------------------------------------------------------------------------
# Which tables a write and a read give back as they were

# Each table column, with the dtype and rank read_records gives it.
_COLUMNS = {"t": (np.float64, 1), "values": (np.float64, 2), "source": (np.intp, 1),
            "anchor": (np.intp, 1), "line": (np.intp, 1)}
_WIDTHS = {"uwb": 2, "rssi": 1, "imu": 9, "gt": 3}  # csi: any even width > 0


def _numbered_by_first_use(index: np.ndarray, ids: tuple) -> bool:
    """Whether ``index`` numbers the distinct strings ``ids`` as ``read_records``
    does: each id used, in order of first appearance."""
    used, first = np.unique(index, return_index=True)
    return (type(ids) is tuple and all(type(i) is str for i in ids)
            and len(set(ids)) == len(ids) and np.array_equal(used, np.arange(len(ids)))
            and bool(np.all(np.diff(first) > 0)))


def _table_round_trips(sensor: str, table: SensorTable) -> bool:
    columns = [(getattr(table, name), dtype, ndim) for name, (dtype, ndim) in _COLUMNS.items()]
    if (sensor not in SENSOR_KINDS or table.sensor != sensor
            or any(a.dtype != dtype or a.ndim != ndim for a, dtype, ndim in columns)
            or len(table) == 0 or any(len(a) != len(table) for a, _, _ in columns)):
        return False
    width = table.values.shape[1]
    if (width == 0 or width % 2) if sensor == "csi" else width != _WIDTHS[sensor]:
        return False
    if sensor in ("imu", "gt"):
        anchors_ok = table.anchor_ids == () and bool(np.all(table.anchor == -1))
    else:
        anchors_ok = _numbered_by_first_use(table.anchor, table.anchor_ids)
    return (anchors_ok and _numbered_by_first_use(table.source, table.source_ids)
            and bool(np.all(np.diff(table.line) > 0))
            and bool(np.all(np.isfinite(table.t) & (table.t >= 0)))
            and bool(np.all(np.isfinite(table.values))))


def round_trips(tables: dict[str, SensorTable]) -> bool:
    """Whether ``read_records`` gives back exactly ``tables``, bit for bit and
    in dict order, from the bytes ``write_records`` writes for them.

    That takes non-empty tables of known sensors, keyed in order of their
    first lines; lines that are 1..N over all tables and rise within each;
    finite times >= 0 and finite payloads of the wire width; distinct source
    and anchor ids numbered by first appearance, and anchor -1 with no ids
    for imu and gt; and the dtypes ``read_records`` gives each column.
    """
    if not all(_table_round_trips(sensor, table) for sensor, table in tables.items()):
        return False
    if not tables:
        return True  # an empty file
    firsts = [int(table.line[0]) for table in tables.values()]
    lines = np.sort(np.concatenate([table.line for table in tables.values()]))
    return firsts == sorted(firsts) and np.array_equal(lines, np.arange(1, len(lines) + 1))


# ---------------------------------------------------------------------------
# The table cache: what read_records returns, as uncompressed numpy arrays

@lru_cache(maxsize=None)
def _format_digest() -> str:
    """A SHA-256 of this module's source, part of every cache's key: the
    parser, ``SensorTable`` and the cache layout all live here, so any change
    to them retires the caches written before it."""
    import hashlib

    with open(__file__, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_npz(fh, arrays: dict[str, np.ndarray]) -> None:
    """What ``np.savez(fh, **arrays)`` writes, each member straight from its
    array's buffer: ``np.savez`` copies every array out in 16 MiB chunks."""
    import zipfile

    with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED, allowZip64=True) as npz:
        for name, array in arrays.items():
            array = np.asarray(array, order="C")  # copies only a strided array
            with npz.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(
                    member, np.lib.format.header_data_from_array_1_0(array))
                if array.size:  # memoryview cannot cast a shape holding a 0
                    member.write(memoryview(array).cast("B"))


def save_table_cache(cache: Path, key: str, tables: dict[str, SensorTable]) -> None:
    """Store ``tables``, as ``read_records`` returns them, in ``cache`` under ``key``.

    The file is written beside ``cache`` and renamed over it; a cache that
    cannot be written is skipped and leaves no temp file behind.
    """
    arrays = {"key": np.array(f"{_format_digest()}:{key}"),
              "sensors": np.array(list(tables), dtype=str)}
    for sensor, table in tables.items():
        arrays.update({f"{sensor}.{name}": getattr(table, name) for name in _COLUMNS})
        arrays[f"{sensor}.source_ids"] = np.array(table.source_ids, dtype=str)
        arrays[f"{sensor}.anchor_ids"] = np.array(table.anchor_ids, dtype=str)
    tmp = cache.with_name(f".{cache.name}.{os.getpid()}.tmp")  # one per writing process
    try:
        with open(tmp, "wb") as fh:
            _write_npz(fh, arrays)
        os.replace(tmp, cache)
    except OSError:  # say a read-only directory, or a directory at the cache path
        with contextlib.suppress(OSError):  # on a read-only mount even this fails
            tmp.unlink(missing_ok=True)


def load_table_cache(cache: Path, key: str) -> dict[str, SensorTable] | None:
    """The tables ``save_table_cache`` stored in ``cache`` under ``key`` by this
    very module; None if it holds no sound ones."""
    import zipfile

    try:
        # opened here, since np.load leaks the handle of a file that is no sound zip
        with open(cache, "rb") as fh:
            npz = np.load(fh, allow_pickle=False)
            if (not isinstance(npz, np.lib.npyio.NpzFile)
                    or npz["key"].item() != f"{_format_digest()}:{key}"):
                return None  # a lone .npy array, or the tables of other bytes or code
            tables = {}
            for sensor in npz["sensors"].tolist():
                cols = {name: npz[f"{sensor}.{name}"] for name in _COLUMNS}
                ids = [npz[f"{sensor}.{name}"] for name in ("source_ids", "anchor_ids")]
                if any(a.dtype.kind != "U" or a.ndim != 1 for a in ids):
                    return None
                tables[sensor] = SensorTable(sensor, cols["t"], cols["values"],
                                             cols["source"], tuple(ids[0].tolist()),
                                             cols["anchor"], tuple(ids[1].tolist()),
                                             cols["line"])
            # all that read_records returns round-trips, so a cache that does not is damaged
            return tables if round_trips(tables) else None
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None
