"""Offline alignment of a recorded multi-rate stream.

The stream arrives as one column table per sensor (``records.SensorTable``)
and every stage works on its arrays.  Stages, in pipeline order:

1. clock estimation (``estimate_clock_offset``): each sensor stamps
   records with its own skewed clock; fitting the recorded timestamps
   against the sensor's expected emission grid recovers offset and drift,
2. clock correction (``correct_clock``): map recorded time back to
   reference (robot) time, drop pre-epoch rows, sort by (time, source id),
3. ground-truth labeling (``label_with_groundtruth``): group one sensor's
   rows into emission ticks (equal times) and label every tick in one call:
   the 5 Hz robot pose interpolated at the tick (position componentwise
   linear, heading shortest-arc) and translated to the sensor's mount.
   The ``Ticks`` it returns scatter each tick's readings into one row of a
   (ticks, width) feature matrix: a frame block, or the ``features`` (N, W)
   of an ``AlignedStream`` beside its ``t`` (N,) and ``labels`` (N, 2),
4. fusion-frame assembly (``build_fusion_frames``): one ``Frames`` value,
   a stacked (N, F) feature matrix over the CSI ticks with an (N, B)
   per-block presence mask, (N, 2) labels and the ``FrameLayout`` that maps
   the columns.  Each block is filled by one ``searchsorted`` over all
   anchor ticks: zero-filled when absent, and held to a causal freshness
   window for the non-anchoring modalities.

A regressor reads frames through one gather, ``frames_to_arrays(frames,
rows, layout)``; ``select_blocks`` names a subset of the blocks as a
``FrameLayout`` and copies nothing.

``ingest_run`` runs all four on one stream's tables, as ``records.read_records``
or ``simulate.simulate_run`` return them, labelling each sensor once: the CSI
ticks fill the frames' CSI block and, on request, the phase frames.

Per-tick feature layouts (column meaning is fixed and documented here):

- uwb:  one range per anchor id (sorted); missing anchor -> -1.0
- rssi: one dBm reading per anchor id (sorted); missing anchor -> -100.0
- csi:  per anchor id (sorted), S contiguous values: magnitudes in the
  frames and the stream, phases in the phase frames; missing anchor -> zeros
- imu:  [accel xyz, gyro xyz, mag xyz]
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .defaults import DEFAULT_WINDOW_S
from .errors import (
    ClockFitError,
    DimensionMismatch,
    EmptyGroundTruth,
    InsufficientOverlap,
    LayoutMismatch,
)
from .records import TWO_PI, ClockModel, SensorOffset, SensorTable, _format_floats
from .simulate import TrajectoryInterpolator

MIN_OVERLAP_S = 10.0
RSSI_FLOOR_DB = -100.0
UWB_MISSING_RANGE = -1.0
MODALITY_ORDER = ("csi", "rssi", "uwb", "imu")


def sensor_rate(rates: dict[str, float], sensor: str) -> float:
    """RSSI rides on the CSI radio, so it shares the CSI tick rate."""
    if sensor in rates:
        return rates[sensor]
    if sensor == "rssi" and "csi" in rates:
        return rates["csi"]
    raise KeyError(f"no rate known for sensor {sensor!r}")


def correct_clock(table: SensorTable, clock: ClockModel) -> SensorTable:
    """Clock-correct one sensor's table: t_ref = (t - offset) / (1 + drift).

    Rows whose corrected time lands before the reference epoch are dropped;
    the rest are sorted by (t_ref, source id), ties kept in table order.
    """
    t_ref = (table.t - clock.offset) / (1.0 + clock.drift)
    keep = np.flatnonzero(t_ref >= 0.0)
    ids = table.source_ids
    rank = np.empty(len(ids), dtype=np.intp)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    order = keep[np.lexsort((keep, rank[table.source[keep]], t_ref[keep]))]
    if np.array_equal(order, np.arange(len(table))):  # already in order: share the rows
        return replace(table, t=t_ref)
    return replace(table, t=t_ref).take(order)


def estimate_clock_offset(t: np.ndarray, gt_t: np.ndarray, rate: float,
                          duration: float | None = None) -> ClockModel:
    """Recover a sensor's clock model from its timestamps alone.

    The sensor emits on the grid (k+1)/rate in reference time; recorded
    timestamps are an affine image of that grid.  Tick indices are assigned
    by rounding consecutive gaps, the affine map is fit by least squares,
    and the absolute grid position of the first record follows either from
    stream completeness (when ``duration`` is known and no tick is missing)
    or from rounding the fitted intercept.  ``gt_t`` holds the ground-truth
    times, which bound the usable overlap.  Distinct ticks less than half a
    period apart, or a fitted drift beyond the model's 1e-4, raise
    ClockFitError.
    """
    if not t.size or not gt_t.size:
        raise InsufficientOverlap("need both sensor records and ground truth")
    ts = np.unique(t)
    overlap = min(ts[-1], gt_t.max()) - max(ts[0], gt_t.min())
    if overlap < MIN_OVERLAP_S or len(ts) < 4:
        raise InsufficientOverlap(
            f"sensor/ground-truth overlap is {max(overlap, 0.0):.3f} s, "
            f"need >= {MIN_OVERLAP_S:.0f} s")

    steps = np.rint(np.diff(ts) * rate).astype(np.int64)
    if np.any(steps < 1):
        raise ClockFitError("duplicate or non-monotonic sensor ticks after dedup")
    k = np.concatenate([[0], np.cumsum(steps)]).astype(np.float64)
    design = np.stack([k / rate, np.ones_like(k)], axis=1)
    (alpha, beta), *_ = np.linalg.lstsq(design, ts, rcond=None)

    complete = (duration is not None
                and bool(np.all(steps == 1))
                and len(ts) == int(math.floor(duration * rate + 1e-9)))
    if complete:
        k_first = 1
    else:
        k_first = max(int(round(beta * rate / alpha)), 1)

    offset = beta - alpha * k_first / rate
    drift = alpha - 1.0
    if abs(drift) > 1e-4:  # fp slack at the model's validity boundary
        if abs(drift) > 1e-4 + 1e-9:
            raise ClockFitError(f"estimated drift {drift:.3e} exceeds the clock model range")
        drift = math.copysign(1e-4, drift)
    return ClockModel(offset=float(offset), drift=float(drift))


# ---------------------------------------------------------------------------
# Labeling

@dataclass(frozen=True, eq=False)
class AlignedStream:
    """One sensor's clock-corrected, ground-truth-labeled tick stream.

    One row per emission tick: ``t`` (N,) reference times, strictly
    increasing, ``features`` (N, W) and ``labels`` (N, 2) sensor positions.
    ``columns`` documents the feature layout: one entry per feature column
    giving "anchor_id" (repeated S times for CSI) or the IMU channel name.
    ``dropped`` counts input records outside the ground-truth span;
    ``record_count`` counts the ones folded into ticks.  The arrays are
    read-only; features and labels must be finite.
    """

    modality: str
    t: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    columns: tuple[str, ...]
    dropped: int = 0
    record_count: int = 0

    def __post_init__(self):
        t, features, labels = _frozen(self, "t", "features", "labels")
        if features.shape != (len(t), len(self.columns)) or labels.shape != (len(t), 2):
            raise DimensionMismatch(
                f"{len(t)} ticks with features {features.shape} and labels "
                f"{labels.shape}; stream declares {len(self.columns)} columns")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("AlignedStream ticks must have strictly increasing t")
        if len(t) and (not self.columns or not np.isfinite(features).all()
                       or not np.isfinite(labels).all()):
            raise ValueError("features must be non-empty and finite, labels finite")

    def __len__(self) -> int:
        return len(self.t)

    def take(self, rows) -> "AlignedStream":
        """The ticks selected by an increasing index array or a boolean mask."""
        return replace(self, t=self.t[rows], features=self.features[rows],
                       labels=self.labels[rows])

    def scatter(self, out: np.ndarray) -> None:
        out[...] = self.features


def _frozen(obj, *names: str) -> list[np.ndarray]:
    """Set each named field of a frozen dataclass to a read-only float64 array."""
    out = []
    for name in names:
        arr = np.asarray(getattr(obj, name), dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)
        out.append(arr)
    return out


def groundtruth_interpolator(gt: SensorTable) -> TrajectoryInterpolator:
    """The robot's trajectory from a gt table: its rows in time order, exact
    repeats folded, headings wrapped as ``records.normalize_angle`` wraps
    them.  Two different poses at one time raise EmptyGroundTruth."""
    rows = np.column_stack((gt.t, gt.values))[np.argsort(gt.t, kind="stable")]
    rows[:, 3] = np.mod(rows[:, 3] + math.pi, TWO_PI) - math.pi
    # one time's rows are adjacent: a repeat is folded, any other pose clashes
    repeat = (rows[1:] == rows[:-1]).all(axis=1)
    clash = np.flatnonzero((rows[1:, 0] == rows[:-1, 0]) & ~repeat)
    if clash.size:
        raise EmptyGroundTruth(f"gt: two different poses at t = {float(rows[clash[0], 0])!r} s")
    rows = np.delete(rows, np.flatnonzero(repeat) + 1, axis=0)
    if len(rows) < 2:
        raise EmptyGroundTruth("need >= 2 ground-truth poses to interpolate")
    return TrajectoryInterpolator(rows[:, 0], rows[:, 1:3], rows[:, 3])


# Feature value of an anchor missing from a tick.
_MISSING = {"uwb": UWB_MISSING_RANGE, "rssi": RSSI_FLOOR_DB, "csi": 0.0, "imu": 0.0}
_IMU_COLUMNS = ("accel_x", "accel_y", "accel_z", "gyro_x", "gyro_y", "gyro_z",
                "mag_x", "mag_y", "mag_z")

# Rows gathered or scattered per step: bounds fancy indexing's temporary.
_GATHER_ROWS = 512


@dataclass(frozen=True, eq=False)
class Ticks:
    """One sensor's labelled ticks before their features are written: as
    ``AlignedStream``, but feature cell (``tick[i]``, ``slot[i]``) is the first
    ``width`` values of table payload row ``values[rows[i]]`` (for csi the
    magnitudes; the phases follow), every other cell the missing value."""

    modality: str
    t: np.ndarray
    labels: np.ndarray
    columns: tuple[str, ...]
    dropped: int
    values: np.ndarray
    width: int
    rows: np.ndarray
    tick: np.ndarray
    slot: np.ndarray

    def scatter(self, out: np.ndarray) -> None:
        """Write the (N, W) features into ``out``, ``_GATHER_ROWS`` cells a step."""
        cells = out.reshape(len(self.t), len(self.columns) // self.width, self.width)
        cells[...] = _MISSING[self.modality]
        for lo in range(0, len(self.rows), _GATHER_ROWS):
            step = slice(lo, lo + _GATHER_ROWS)
            cells[self.tick[step], self.slot[step]] = self.values[self.rows[step], :self.width]

    def stream(self, features: np.ndarray | None = None) -> AlignedStream:
        """The stream over ``features`` as ``scatter`` wrote them (default: a new array)."""
        if features is None:
            self.scatter(features := np.empty((len(self.t), len(self.columns))))
        return AlignedStream(self.modality, self.t, features, self.labels, self.columns,
                             self.dropped, len(self.values) - self.dropped)


def label_with_groundtruth(table: SensorTable, interp: TrajectoryInterpolator,
                           sensor_offset: SensorOffset) -> Ticks:
    """Group one sensor's clock-corrected table into ticks and label them.

    Rows are grouped by exact emission tick (equal ``t``); each tick's label
    is the interpolated pose translated to the sensor's mounting point.
    Within a tick the last row of each anchor (of the tick, for imu) wins.
    Rows outside the ground-truth span are dropped and counted.
    """
    modality = table.sensor
    if modality not in _MISSING:
        raise ValueError(f"cannot featurize modality {modality!r}")
    kept = np.flatnonzero((table.t >= interp.t[0]) & (table.t <= interp.t[-1]))
    times, tick = np.unique(table.t[kept], return_inverse=True)

    if modality == "imu":
        width, slots, columns = table.values.shape[1], 1, _IMU_COLUMNS
        slot = np.zeros(len(kept), dtype=np.intp)
    else:
        # csi: the magnitude half of each reading; uwb, rssi: range_m / rssi_db
        width = table.values.shape[1] // 2 if modality == "csi" else 1
        # one slot per anchor present, in sorted id order
        anchor = table.anchor[kept]
        codes = {table.anchor_ids[c]: c for c in np.unique(anchor).tolist()}
        anchor_ids = sorted(codes)
        slot_of = np.zeros(len(table.anchor_ids), dtype=np.intp)
        slot_of[[codes[a] for a in anchor_ids]] = np.arange(len(anchor_ids))
        slots, slot = len(anchor_ids), slot_of[anchor]
        columns = tuple(a for a in anchor_ids for _ in range(width))

    key = tick * slots + slot
    last = len(key) - 1 - np.unique(key[::-1], return_index=True)[1]
    return Ticks(modality, times, interp.sensor_position_at(times, sensor_offset), columns,
                 len(table) - len(kept), table.values, width, kept[last], tick[last],
                 slot[last])


# ---------------------------------------------------------------------------
# Fusion frames

@dataclass(frozen=True)
class BlockDef:
    """One modality's slot inside a frame."""

    modality: str
    width: int
    columns: tuple[str, ...]


@dataclass(frozen=True)
class FrameLayout:
    """Block order, widths and column meaning of assembled frames."""

    blocks: tuple[BlockDef, ...]
    # modality -> (mask index, feature offset, block), built once
    _offsets: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        offsets, start = {}, 0
        for i, b in enumerate(self.blocks):
            offsets.setdefault(b.modality, (i, start, b))
            start += b.width
        object.__setattr__(self, "_offsets", offsets)

    @property
    def feature_width(self) -> int:
        return sum(b.width for b in self.blocks)

    @property
    def mask_width(self) -> int:
        return len(self.blocks)

    def modalities(self) -> tuple[str, ...]:
        return tuple(b.modality for b in self.blocks)

    def _entry(self, modality: str) -> tuple[int, int, BlockDef]:
        entry = self._offsets.get(modality)
        if entry is None:
            raise LayoutMismatch(f"no {modality!r} block; layout has {self.modalities()}")
        return entry

    def block(self, modality: str) -> BlockDef:
        return self._entry(modality)[2]

    def feature_slice(self, modality: str) -> slice:
        _, start, b = self._entry(modality)
        return slice(start, start + b.width)

    def mask_index(self, modality: str) -> int:
        return self._entry(modality)[0]


def frame_layout(streams: list[AlignedStream]) -> FrameLayout:
    """Canonical layout over the provided streams: csi | rssi | uwb | imu."""
    by_modality = {s.modality: s for s in streams}
    if len(by_modality) != len(streams):
        raise LayoutMismatch("duplicate modality among streams")
    blocks = [BlockDef(m, len(by_modality[m].columns), by_modality[m].columns)
              for m in MODALITY_ORDER if m in by_modality]
    return FrameLayout(tuple(blocks))


@dataclass(frozen=True, eq=False)
class Frames:
    """Fusion frames on the anchoring tick grid, one row per frame.

    ``t`` (N,) holds the anchor ticks, ``features`` (N, F) each block's
    columns in ``layout`` order, ``mask`` (N, B) 1.0 where a block is
    present and ``labels`` (N, 2) the anchor stream's positions.  The
    arrays are read-only.
    """

    t: np.ndarray
    features: np.ndarray
    mask: np.ndarray
    labels: np.ndarray
    layout: FrameLayout

    def __post_init__(self):
        t, features, mask, labels = _frozen(self, "t", "features", "mask", "labels")
        n = len(t)
        if (features.shape != (n, self.layout.feature_width)
                or mask.shape != (n, self.layout.mask_width) or labels.shape != (n, 2)):
            raise LayoutMismatch(
                f"{n} frames with features {features.shape}, mask {mask.shape} and "
                f"labels {labels.shape} do not fit the layout of "
                f"{self.layout.feature_width} features and {self.layout.mask_width} blocks")

    def __len__(self) -> int:
        return len(self.t)

    def take(self, rows) -> "Frames":
        """The frames selected by an index array, a slice or a boolean mask."""
        return replace(self, t=self.t[rows], features=self.features[rows],
                       mask=self.mask[rows], labels=self.labels[rows])


def build_fusion_frames(streams: list[AlignedStream | Ticks],
                        window: float = DEFAULT_WINDOW_S) -> Frames:
    """Assemble stacked frames anchored on the csi stream's ticks.

    Every csi tick yields a frame labeled with that tick's position.  Each
    block holds its stream's newest tick from the causal window
    [t - window, t] (for the csi block, the tick itself); a stale or absent
    block is zero-filled with its mask bit cleared.  Without a csi stream
    there are no frames.  Csi ``Ticks`` are scattered straight into their block.
    """
    if window <= 0.0:
        raise ValueError(f"window must be > 0, got {window}")
    layout = frame_layout(streams)
    by_modality = {s.modality: s for s in streams}
    anchor = by_modality.get("csi")
    t = anchor.t if anchor is not None else np.zeros(0)
    features = np.zeros((len(t), layout.feature_width))
    mask = np.zeros((len(t), layout.mask_width))
    for block in layout.blocks:
        stream = by_modality[block.modality]
        columns = layout.feature_slice(block.modality)
        if stream is anchor:  # each frame's own tick: written with no temporary
            stream.scatter(features[:, columns])
            mask[:, layout.mask_index(block.modality)] = 1.0
            continue
        newest = np.searchsorted(stream.t, t, side="right") - 1
        rows = np.flatnonzero(newest >= 0)
        rows = rows[t[rows] - stream.t[newest[rows]] <= window]
        features[rows, columns] = stream.features[newest[rows]]
        mask[rows, layout.mask_index(block.modality)] = 1.0
    labels = anchor.labels if anchor is not None else np.zeros((0, 2))
    return Frames(t, features, mask, labels, layout)


def select_blocks(layout: FrameLayout, modalities) -> FrameLayout:
    """The layout of the named blocks alone, in ``layout``'s order.

    A name ``layout`` lacks raises LayoutMismatch.  Nothing is copied:
    ``frames_to_arrays`` gathers the blocks of the result from the frames.
    """
    for m in modalities:
        layout.block(m)  # raises LayoutMismatch on unknown names
    return FrameLayout(tuple(b for b in layout.blocks if b.modality in modalities))


def frames_to_arrays(frames: Frames, rows=None,
                     layout: FrameLayout | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) for a regressor: block features with the mask bits appended.

    ``rows`` picks frames in the given order (default: all), ``layout``
    the blocks, as ``select_blocks`` gives them (default: all).  X
    is one (rows, F + B) array filled in place, so selecting blocks and
    splitting rows copies each input once.
    """
    layout = frames.layout if layout is None else layout
    rows = np.arange(len(frames)) if rows is None else np.asarray(rows)
    if not len(rows):
        raise ValueError("no frames to stack")
    for b in layout.blocks:
        if frames.layout.block(b.modality) != b:
            raise LayoutMismatch(f"the {b.modality!r} block differs from the frames' own")
    # (destination, source) columns of each block, and the source mask bits
    pieces = [(layout.feature_slice(b.modality), frames.layout.feature_slice(b.modality))
              for b in layout.blocks]
    masks = [frames.layout.mask_index(b.modality) for b in layout.blocks]
    x = np.empty((len(rows), layout.feature_width + layout.mask_width))
    for start in range(0, len(rows), _GATHER_ROWS):
        chunk = rows[start:start + _GATHER_ROWS]
        out = x[start:start + len(chunk)]
        for dst, src in pieces:
            out[:, dst] = frames.features[chunk, src]
        out[:, layout.feature_width:] = frames.mask[np.ix_(chunk, masks)]
    return x, frames.labels[rows]


# Frames formatted per step: bounds the text held at once.  On a 30 s
# campaign (rows of 708 floats) 4 rows leave ``ingest``'s peak RSS where
# one row at a time through ``json.dumps`` left it; 8, 16 and 32 rows
# raised it by 0.4, 2.3 and 6.7 MiB.
_FRAME_ROWS = 4


def write_frames(path, frames: Frames) -> int:
    """Persist frames as JSONL: {"t", "features", "mask", "label"}.

    Floats are written as ``"%.16e"`` gives them, each step of
    ``_FRAME_ROWS`` frames in one ``records._format_floats`` call, so
    reading each float back with ``float`` gives the arrays bit for bit.
    """
    def floats(n: int) -> str:
        return "[" + ", ".join(["%s"] * n) + "]"

    line = ('{"t": %s, "features": ' + floats(frames.features.shape[1]) + ', "mask": '
            + floats(frames.mask.shape[1]) + ', "label": ' + floats(2) + "}\n").encode()
    with open(path, "wb") as fh:
        for lo in range(0, len(frames), _FRAME_ROWS):
            rows = slice(lo, lo + _FRAME_ROWS)
            values = np.column_stack((frames.t[rows], frames.features[rows],
                                      frames.mask[rows], frames.labels[rows]))
            text = _format_floats(values)
            odd = np.flatnonzero(~np.isfinite(values.ravel()))
            if odd.size:  # JSON's spelling, as json.dumps gives it: NaN, Infinity
                text[odd] = [json.dumps(v).encode() for v in values.ravel()[odd].tolist()]
            cells = text.reshape(values.shape).tolist()
            fh.write(b"".join([line % tuple(row) for row in cells]))
    return len(frames)


# ---------------------------------------------------------------------------
# Whole-run convenience

@dataclass(frozen=True)
class IngestResult:
    """Everything downstream stages need from one recorded run.

    The csi stream's ``features`` is a read-only view of the frames' csi
    block.  ``phase``, when asked for and the run has csi (else None), is the
    csi phases' frames: one block, sharing the frames' ``t`` and ``labels``.
    """

    streams: dict[str, AlignedStream]
    frames: Frames
    phase: Frames | None
    clock_estimates: dict[str, ClockModel]
    dropped: int


def ingest_run(tables: dict[str, SensorTable], sensor_offsets: dict[str, SensorOffset],
               rates: dict[str, float], duration: float | None,
               window: float = DEFAULT_WINDOW_S, phase: bool = False) -> IngestResult:
    """Run the full alignment pipeline on one recorded stream's tables,
    with the csi phase frames when ``phase``."""
    gt = tables.get("gt")
    if gt is None or len(gt) < 2:
        raise EmptyGroundTruth("stream carries no usable ground-truth records")

    estimates: dict[str, ClockModel] = {}
    ticks: dict[str, Ticks] = {}
    interp = groundtruth_interpolator(gt)
    for sensor in sorted(set(tables) - {"gt"}):
        try:
            clock = estimate_clock_offset(tables[sensor].t, gt.t, sensor_rate(rates, sensor),
                                          duration)
        except InsufficientOverlap as exc:
            short = duration is not None and duration < MIN_OVERLAP_S
            raise InsufficientOverlap(
                f"{sensor}: {exc}" + (f"; the campaign lasts {duration:g} s, shorter than "
                                      f"the {MIN_OVERLAP_S:g} s that ingest needs"
                                      if short else "")) from exc
        except ClockFitError as exc:
            raise ClockFitError(f"{sensor}: {exc}") from exc
        estimates[sensor] = clock
        table = correct_clock(tables[sensor], clock)
        if len(table):
            ticks[sensor] = label_with_groundtruth(table, interp,
                                                   sensor_offsets.get(sensor, SensorOffset()))

    csi = ticks.pop("csi", None)
    # each grouping is let go once its stream is written
    streams = {m: ticks.pop(m).stream() for m in sorted(ticks)}
    frames = build_fusion_frames([*streams.values(), *([csi] if csi else [])], window=window)
    if csi is not None:
        streams["csi"] = csi.stream(frames.features[:, frames.layout.feature_slice("csi")])
        csi = replace(csi, values=csi.values[:, csi.width:])  # phases follow magnitudes
    phase_frames = build_fusion_frames([csi], window=window) if phase and csi else None
    dropped = sum(s.dropped for s in streams.values())
    return IngestResult(streams, frames, phase_frames, estimates, dropped)
