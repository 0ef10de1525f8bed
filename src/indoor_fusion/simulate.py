"""Synthetic desk-scale measurement campaigns.

A Scenario pins everything physical: room bounds, anchor layout, the smooth
indoor magnetic field, per-anchor multipath rays for the WiFi channel, the
arbitrary per-session carrier phase of each WiFi node, and the mounting
offsets of the sensors on the robot platform.  A SimConfig pins everything
operational: run duration, per-sensor update rates, noise levels and clock
models.  :func:`generate_trajectory` samples the robot's 5 Hz ground truth
as the arrays ``t``, ``xy`` and ``phi`` of a :class:`TrajectoryInterpolator`.
Given all three, :func:`sample_sensors` emits the multi-rate record stream
as one ``records.SensorTable`` per sensor, whose ``line`` columns merge the
rows into file order; ``records.write_records`` writes them as JSONL.

Each payload is held once, from generator to table.  A sensor's table rows
are the stable order of its (recorded ``t``, generation index), worked out
from the times alone before any payload is copied.  CSI, over 90% of a
campaign's floats, has no dropout, so its rows are known before it is
generated: each anchor's magnitudes and phases are written straight into
the table's payload matrix.  Every other sensor's blocks are copied once
into a payload matrix allocated at its final size, each block dropped as
it is copied, and one stable sort of all tables' times sets ``line``.

Between ground-truth samples the robot is defined to move linearly (and to
turn along the shortest arc), so the emitted stream is exactly reproducible
from the 5 Hz ground truth alone.  Everything is deterministic given
``(scenario.seed, config)``: same inputs, byte-identical JSONL.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidOverride, MalformedLine, SchemaViolation
from .geometry import translate_sensor_pose
from .records import Anchor, ClockModel, Position2D, SensorOffset, SensorTable, write_records

SPEED_OF_LIGHT = 299_792_458.0
GRAVITY = 9.81

_WALLS = ("left", "right", "bottom", "top")


@dataclass(frozen=True)
class Bounds:
    """Axis-aligned room rectangle with its corner at the origin."""

    width: float = 8.0
    height: float = 6.0

    def contains(self, x: float, y: float) -> bool:
        """Also works elementwise on arrays of coordinates."""
        return (0.0 <= x) & (x <= self.width) & (0.0 <= y) & (y <= self.height)


@dataclass(frozen=True)
class MagneticBump:
    """One Gaussian disturbance of the indoor field (center in m, amplitude in uT)."""

    center: tuple[float, float]
    sigma: float
    amplitude: tuple[float, float, float]


@dataclass(frozen=True)
class MagneticFieldSpec:
    """Constant earth field plus a sum of Gaussian bumps."""

    earth: tuple[float, float, float] = (19.0, 4.0, -45.0)
    bumps: tuple[MagneticBump, ...] = ()

    def at(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the world-frame field in uT at (N, 2) positions -> (N, 3)."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        out = np.tile(np.asarray(self.earth), (len(pts), 1))
        for bump in self.bumps:
            d2 = np.sum((pts - np.asarray(bump.center)) ** 2, axis=1)
            out += np.exp(-d2 / (2.0 * bump.sigma**2))[:, None] * np.asarray(bump.amplitude)
        return out


@dataclass(frozen=True)
class MultipathRay:
    """One propagation path: direct (wall=None) or a single wall reflection."""

    wall: str | None
    gain: float
    extra_path_m: float


@dataclass(frozen=True)
class Scenario:
    """Full physical setup of one measurement campaign."""

    bounds: Bounds = Bounds()
    uwb_anchors: tuple[Anchor, ...] = ()
    wifi_anchors: tuple[Anchor, ...] = ()
    subcarriers: int = 52
    carrier_hz: float = 3.0e8
    subcarrier_spacing_hz: float = 5.0e6
    magnetic_field: MagneticFieldSpec = MagneticFieldSpec()
    multipath: dict[str, tuple[MultipathRay, ...]] = field(default_factory=dict)
    session_phase: dict[str, float] = field(default_factory=dict)
    sensor_offsets: dict[str, SensorOffset] = field(default_factory=dict)
    rssi_p0_dbm: float = -40.0
    rssi_d0_m: float = 1.0
    rssi_exponent: float = 2.2
    seed: int = 0

    def __post_init__(self):
        if self.subcarriers < 1:
            raise InvalidOverride("subcarriers must be >= 1")
        for anchor in self.uwb_anchors + self.wifi_anchors:
            if not self.bounds.contains(anchor.position.x, anchor.position.y):
                raise InvalidOverride(f"anchor {anchor.id} at "
                                      f"({anchor.position.x}, {anchor.position.y}) "
                                      f"is outside the {self.bounds.width}x{self.bounds.height} bounds")
        object.__setattr__(self, "session_phase",
                           {k: float(v) % (2.0 * math.pi) for k, v in self.session_phase.items()})


@dataclass(frozen=True)
class NoiseConfig:
    """Per-modality measurement noise. All sigmas >= 0, probabilities in [0, 1]."""

    uwb_sigma: float = 0.03
    uwb_nlos_prob: float = 0.05
    uwb_nlos_bias_m: float = 0.5
    uwb_dropout_prob: float = 0.1
    rssi_sigma_db: float = 2.0
    imu_accel_sigma: float = 0.05
    imu_gyro_sigma: float = 0.01
    mag_sigma: float = 0.5
    csi_mag_sigma_db: float = 1.0
    csi_phase_sigma: float = 0.05
    uwb_power_sigma_db: float = 1.0

    def __post_init__(self):
        for name in ("uwb_nlos_prob", "uwb_dropout_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        for name in ("uwb_sigma", "rssi_sigma_db", "imu_accel_sigma", "imu_gyro_sigma",
                     "mag_sigma", "csi_mag_sigma_db", "csi_phase_sigma",
                     "uwb_power_sigma_db"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")

    @classmethod
    def zero(cls) -> "NoiseConfig":
        return cls(*([0.0] * 11))


def default_rates() -> dict[str, float]:
    return {"gt": 5.0, "csi": 7.5, "uwb": 9.0, "imu": 76.93}


def default_clocks() -> dict[str, ClockModel]:
    return {
        "uwb": ClockModel(offset=0.002),
        "csi": ClockModel(offset=-0.003),
        "rssi": ClockModel(offset=-0.003),
        "imu": ClockModel(offset=0.001),
    }


@dataclass(frozen=True)
class SimConfig:
    """Operational parameters of one simulated run."""

    duration: float = 600.0
    rates: dict[str, float] = field(default_factory=default_rates)
    noise: NoiseConfig = NoiseConfig()
    clocks: dict[str, ClockModel] = field(default_factory=default_clocks)
    speed: float = 0.2

    def __post_init__(self):
        # the rates ``sample_sensors`` reads: rssi rides on the csi ticks
        missing = [s for s in ("gt", "csi", "uwb", "imu") if s not in self.rates]
        if missing:
            raise ValueError(f"rates lack {', '.join(missing)}")
        for name, value in (("duration", self.duration), ("speed", self.speed),
                            *((f"rate for {s!r}", r) for s, r in self.rates.items())):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")

    def clock_for(self, sensor: str) -> ClockModel:
        return self.clocks.get(sensor, ClockModel())


@dataclass(frozen=True)
class Perturbation:
    """What changes between the morning and the afternoon campaign."""

    sensor_offset_delta: SensorOffset = SensorOffset()
    anchor_jitter_sigma: float = 0.0
    session_phase_reseed: bool = False
    magnetic_drift: float = 1.0

    def __post_init__(self):
        if self.anchor_jitter_sigma < 0.0 or not math.isfinite(self.anchor_jitter_sigma):
            raise ValueError("anchor_jitter_sigma must be finite and >= 0")


DEFAULT_PERTURBATION = Perturbation(
    sensor_offset_delta=SensorOffset(0.04, 0.03, 0.08),
    anchor_jitter_sigma=0.05,
    session_phase_reseed=True,
    magnetic_drift=0.9,
)


def default_sensor_offsets() -> dict[str, SensorOffset]:
    return {
        "uwb": SensorOffset(0.12, 0.00, 0.0),
        "csi": SensorOffset(-0.10, 0.06, 0.2),
        "rssi": SensorOffset(-0.10, 0.06, 0.2),
        "imu": SensorOffset(0.02, -0.04, 0.0),
    }


def build_scenario(seed: int, **overrides) -> Scenario:
    """Deterministically instantiate a scenario from a seed.

    Keyword overrides replace generated fields after layout generation;
    an override that breaks a scenario invariant raises InvalidOverride.
    """
    bounds = overrides.pop("bounds", Bounds())
    ss = np.random.SeedSequence(seed)
    layout_rng, mag_rng, ray_rng, phase_rng = (np.random.default_rng(c) for c in ss.spawn(4))
    w, h = bounds.width, bounds.height

    base = [(0.1 * w, 0.12 * h), (0.9 * w, 0.12 * h), (0.5 * w, 0.9 * h)]
    uwb = tuple(
        Anchor(f"u{i}", "uwb",
               Position2D(min(max(x + layout_rng.uniform(-0.2, 0.2), 0.05), w - 0.05),
                          min(max(y + layout_rng.uniform(-0.2, 0.2), 0.05), h - 0.05)))
        for i, (x, y) in enumerate(base)
    )

    # 13 WiFi nodes on a jittered 4x4 grid (first 13 cells) for even coverage
    cells = [(c, r) for r in range(4) for c in range(4)][:13]
    wifi = []
    for i, (c, r) in enumerate(cells):
        x = (c + 0.5) / 4.0 * w + layout_rng.uniform(-0.35, 0.35)
        y = (r + 0.5) / 4.0 * h + layout_rng.uniform(-0.35, 0.35)
        wifi.append(Anchor(f"w{i:02d}", "wifi",
                           Position2D(min(max(x, 0.05), w - 0.05), min(max(y, 0.05), h - 0.05))))
    wifi = tuple(wifi)

    bumps = []
    for _ in range(12):
        center = (mag_rng.uniform(0.0, w), mag_rng.uniform(0.0, h))
        sigma = mag_rng.uniform(0.6, 1.6)
        direction = mag_rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        amp = tuple(direction * mag_rng.uniform(8.0, 20.0))
        bumps.append(MagneticBump(center, sigma, amp))
    magnetic = MagneticFieldSpec(bumps=tuple(bumps))

    multipath = {}
    for a in wifi:
        walls = list(_WALLS)
        ray_rng.shuffle(walls)
        rays = [MultipathRay(None, float(ray_rng.uniform(0.9, 1.1)), 0.0)]
        for wall in walls[:3]:
            rays.append(MultipathRay(wall, float(ray_rng.uniform(0.25, 0.65)),
                                     float(ray_rng.uniform(0.2, 1.5))))
        multipath[a.id] = tuple(rays)

    session_phase = {a.id: float(phase_rng.uniform(0.0, 2.0 * math.pi)) for a in wifi}

    fields = dict(
        bounds=bounds,
        uwb_anchors=uwb,
        wifi_anchors=wifi,
        magnetic_field=magnetic,
        multipath=multipath,
        session_phase=session_phase,
        sensor_offsets=default_sensor_offsets(),
        seed=seed,
    )
    fields.update(overrides)
    try:
        return Scenario(**fields)
    except TypeError as exc:
        raise InvalidOverride(str(exc)) from exc


def perturb_scenario(scenario: Scenario, perturbation: Perturbation, seed2: int) -> Scenario:
    """Derive the second-campaign analogue of a scenario.

    Shifts every sensor mounting offset, jitters anchor positions, optionally
    redraws the per-anchor session phases, and scales the magnetic bumps.
    Ground-truth labels are unaffected (they come from the trajectory).
    """
    ss = np.random.SeedSequence(seed2)
    jitter_rng, phase_rng = (np.random.default_rng(c) for c in ss.spawn(2))
    delta = perturbation.sensor_offset_delta

    offsets = {
        name: SensorOffset(off.x_off + delta.x_off, off.y_off + delta.y_off,
                           off.phi_off + delta.phi_off)
        for name, off in scenario.sensor_offsets.items()
    }

    def jitter(anchors: tuple[Anchor, ...]) -> tuple[Anchor, ...]:
        if perturbation.anchor_jitter_sigma == 0.0:
            return anchors
        out = []
        w, h = scenario.bounds.width, scenario.bounds.height
        for a in anchors:
            dx, dy = jitter_rng.normal(0.0, perturbation.anchor_jitter_sigma, size=2)
            out.append(replace(a, position=Position2D(
                min(max(a.position.x + dx, 0.05), w - 0.05),
                min(max(a.position.y + dy, 0.05), h - 0.05))))
        return tuple(out)

    uwb = jitter(scenario.uwb_anchors)
    wifi = jitter(scenario.wifi_anchors)

    phases = dict(scenario.session_phase)
    if perturbation.session_phase_reseed:
        phases = {a.id: float(phase_rng.uniform(0.0, 2.0 * math.pi)) for a in scenario.wifi_anchors}

    magnetic = scenario.magnetic_field
    if perturbation.magnetic_drift != 1.0:
        magnetic = MagneticFieldSpec(
            earth=magnetic.earth,
            bumps=tuple(
                MagneticBump(b.center, b.sigma,
                             tuple(perturbation.magnetic_drift * np.asarray(b.amplitude)))
                for b in magnetic.bumps
            ),
        )

    return replace(scenario, uwb_anchors=uwb, wifi_anchors=wifi,
                   session_phase=phases, sensor_offsets=offsets, magnetic_field=magnetic)


# ---------------------------------------------------------------------------
# Trajectory

class TrajectoryInterpolator:
    """Piecewise-linear position / shortest-arc heading between GT samples: times
    ``t`` (N,), strictly increasing, positions ``xy`` (N, 2) and headings ``phi`` (N,)."""

    def __init__(self, t, xy, phi):
        self.t, self.xy, self.phi = (np.asarray(a, dtype=np.float64) for a in (t, xy, phi))
        if len(self.t) < 2:
            raise ValueError("trajectory needs >= 2 samples to interpolate")
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("trajectory timestamps must be strictly increasing")

    def _weights(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        idx = np.clip(np.searchsorted(self.t, ts, side="right") - 1, 0, len(self.t) - 2)
        w = (ts - self.t[idx]) / (self.t[idx + 1] - self.t[idx])
        return idx, np.clip(w, 0.0, 1.0)  # clamp: robot rests at the path ends

    def position_at(self, ts: np.ndarray) -> np.ndarray:
        idx, w = self._weights(np.asarray(ts, dtype=np.float64))
        return self.xy[idx] + w[:, None] * (self.xy[idx + 1] - self.xy[idx])

    def heading_at(self, ts: np.ndarray) -> np.ndarray:
        idx, w = self._weights(np.asarray(ts, dtype=np.float64))
        dphi = np.mod(self.phi[idx + 1] - self.phi[idx] + np.pi, 2.0 * np.pi) - np.pi
        return np.mod(self.phi[idx] + w * dphi + np.pi, 2.0 * np.pi) - np.pi

    def sensor_position_at(self, ts: np.ndarray, offset: SensorOffset) -> np.ndarray:
        """Offset-translated sensor positions at arbitrary times -> (N, 2)."""
        return translate_sensor_pose(self.position_at(ts), self.heading_at(ts), offset)


# The sweep: rows SWEEP_SPACING m apart, SWEEP_MARGIN m in from the walls
# (both shrunk to fit a small room), each turn a semicircle of TURN_ARCS
# segments walked at TURN_SPEED times the speed.
SWEEP_SPACING = 0.35
SWEEP_MARGIN = 0.5
TURN_ARCS = 16
TURN_SPEED = 0.7


def _lawnmower_polyline(bounds: Bounds, margin: float,
                        spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense sweep polyline. Returns (points (M, 2), is_turn (M-1,))."""
    x0, x1 = margin, bounds.width - margin
    y0, y1 = margin, bounds.height - margin
    n_rows = max(int(math.floor((y1 - y0) / spacing)) + 1, 2)
    radius = spacing / 2.0

    pts: list[tuple[float, float]] = []
    turn: list[bool] = []
    for i in range(n_rows):
        y = y0 + i * spacing
        start, end = (x0, x1) if i % 2 == 0 else (x1, x0)
        if not pts:
            pts.append((start, y))
        pts.append((end, y))
        turn.append(False)
        if i + 1 < n_rows:
            # semicircular turn to the next row, bulging past the row end
            cx, cy = end, y + radius
            sign = 1.0 if i % 2 == 0 else -1.0
            for k in range(1, TURN_ARCS + 1):
                theta = -math.pi / 2.0 + k * math.pi / TURN_ARCS
                pts.append((cx + sign * radius * math.cos(theta), cy + radius * math.sin(theta)))
                turn.append(True)
    return np.asarray(pts), np.asarray(turn, dtype=bool)


def generate_trajectory(scenario: Scenario, duration: float, speed: float,
                        rate: float = 5.0) -> TrajectoryInterpolator:
    """Boustrophedon sweep sampled at the ground-truth rate, ticks ``k / rate``.

    The robot walks the sweep at ``speed`` (slowed on turn arcs), ping-pongs
    when it exhausts the path, and always stays within bounds.  Heading is
    the instantaneous direction of motion, wrapped to [-pi, pi).
    """
    if duration <= 0.0 or speed <= 0.0:
        raise ValueError("duration and speed must be > 0")
    margin = min(SWEEP_MARGIN, 0.25 * min(scenario.bounds.width, scenario.bounds.height))
    spacing = min(SWEEP_SPACING, scenario.bounds.height - 2.0 * margin)
    pts, turn = _lawnmower_polyline(scenario.bounds, margin, spacing)
    seg = np.diff(pts, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = cum[-1]

    n = int(math.floor(duration * rate + 1e-9))
    dt = 1.0 / rate
    xy, phi, backward = np.empty((n, 2)), np.empty(n), np.zeros(n, dtype=bool)
    s = 0.0
    direction = 1.0
    for k in range(n):
        idx = min(int(np.searchsorted(cum, s, side="right")) - 1, len(seg_len) - 1)
        idx = max(idx, 0)
        w = (s - cum[idx]) / seg_len[idx]
        xy[k] = pts[idx] + w * seg[idx]
        tangent = math.atan2(seg[idx, 1], seg[idx, 0])
        backward[k] = direction < 0.0
        phi[k] = tangent + math.pi if backward[k] else tangent
        step = speed * dt * (TURN_SPEED if turn[idx] else 1.0)
        s += direction * step
        if s >= total:
            s = total - (s - total)
            direction = -1.0
        elif s <= 0.0:
            s = -s
            direction = 1.0
    # wrapped to [-pi, pi) as Python's ``%`` wraps, a backward heading twice
    phi = np.mod(phi + np.pi, 2.0 * np.pi) - np.pi
    phi[backward] = np.mod(phi[backward] + np.pi, 2.0 * np.pi) - np.pi
    return TrajectoryInterpolator(np.arange(n) * dt, xy, phi)


# ---------------------------------------------------------------------------
# Sensor sampling

def _tick_times(duration: float, rate: float) -> np.ndarray:
    """Emission grid (k+1)/rate, k = 0..floor(duration*rate)-1."""
    n = int(math.floor(duration * rate + 1e-9))
    return (np.arange(n, dtype=np.float64) + 1.0) / rate


def _skew(t_true: np.ndarray, clock: ClockModel) -> np.ndarray:
    return t_true * (1.0 + clock.drift) + clock.offset


def _mirror(position: Position2D, wall: str | None, bounds: Bounds) -> tuple[float, float]:
    x, y = position.x, position.y
    if wall is None:
        return x, y
    if wall == "left":
        return -x, y
    if wall == "right":
        return 2.0 * bounds.width - x, y
    if wall == "bottom":
        return x, -y
    if wall == "top":
        return x, 2.0 * bounds.height - y
    raise ValueError(f"unknown wall {wall!r}")


def csi_channel(scenario: Scenario, anchor: Anchor, positions: np.ndarray) -> np.ndarray:
    """Noise-free complex channel (N, S) of one WiFi anchor at (N, 2) positions.

    Image-method multipath: each reflected ray sees the anchor mirrored
    across one wall, attenuated by its gain over the total path length.
    The per-session anchor phase is NOT included here.
    """
    rays = scenario.multipath[anchor.id]
    s_idx = np.arange(scenario.subcarriers, dtype=np.float64) - scenario.subcarriers / 2.0
    freqs = scenario.carrier_hz + s_idx * scenario.subcarrier_spacing_hz
    h = np.zeros((len(positions), scenario.subcarriers), dtype=np.complex128)
    for ray in rays:
        mx, my = _mirror(anchor.position, ray.wall, scenario.bounds)
        path = np.hypot(positions[:, 0] - mx, positions[:, 1] - my) + ray.extra_path_m
        amp = ray.gain / np.maximum(path, 0.3)
        h += amp[:, None] * np.exp(-2j * np.pi * np.outer(path, freqs) / SPEED_OF_LIGHT)
    return h


# The one source id of each sensor's records.
_SOURCE_IDS = {"gt": "robot", "uwb": "tag0", "rssi": "esp0", "csi": "esp0", "imu": "imu0"}


def sample_sensors(scenario: Scenario, config: SimConfig,
                   trajectory: TrajectoryInterpolator) -> dict[str, SensorTable]:
    """Emit one run's record stream as one SensorTable per sensor.

    Each sensor samples on its own emission grid and stamps records with its
    own (possibly offset and drifting) clock.  The tables' ``line`` column
    merges their rows in file order, sorted by ``(recorded t, sensor, source
    id)`` with generation order as the final tiebreaker, so identical inputs
    give byte-identical streams.  Each table's rows are in line order and
    its anchor ids in order of first appearance, as ``read_records`` gives
    them; a sensor that emits no rows has no table.
    """
    interp, t_gt = trajectory, trajectory.t
    noise = config.noise
    ss = np.random.SeedSequence(scenario.seed)
    uwb_rng, rssi_rng, csi_rng, imu_rng = (np.random.default_rng(c) for c in ss.spawn(4))

    # sensor -> its columns in table row order: (t_rec, anchor, anchor ids, values)
    columns: dict[str, tuple] = {}
    # sensor -> blocks of rows in generation order: (t_rec, values, anchor id)
    blocks: dict[str, list] = {}

    def emit(sensor: str, t_rec, values, anchor_id: str | None, keep=slice(None)):
        """Keep the rows ``keep`` of one block."""
        t_rec = t_rec[keep]
        if len(t_rec):
            blocks.setdefault(sensor, []).append((t_rec, values[keep], anchor_id))

    # ground truth: the robot's own stream on the reference clock
    emit("gt", t_gt, np.column_stack([interp.xy, interp.phi]), None)

    # UWB: per tick one range+power record per anchor, with NLOS and dropout
    t_uwb = _tick_times(config.duration, config.rates["uwb"])
    if len(t_uwb):
        pos = interp.sensor_position_at(t_uwb, scenario.sensor_offsets.get("uwb", SensorOffset()))
        t_rec = _skew(t_uwb, config.clock_for("uwb"))
        for anchor in sorted(scenario.uwb_anchors, key=lambda a: a.id):
            d = np.hypot(pos[:, 0] - anchor.position.x, pos[:, 1] - anchor.position.y)
            ranges = d + uwb_rng.normal(0.0, 1.0, len(d)) * noise.uwb_sigma
            nlos = uwb_rng.random(len(d)) < noise.uwb_nlos_prob
            ranges = np.maximum(ranges + nlos * noise.uwb_nlos_bias_m, 0.0)
            power = (-40.0 - 20.0 * np.log10(np.maximum(d, 0.1))
                     + uwb_rng.normal(0.0, 1.0, len(d)) * noise.uwb_power_sigma_db)
            keep = uwb_rng.random(len(d)) >= noise.uwb_dropout_prob
            emit("uwb", t_rec, np.column_stack([ranges, power]), anchor.id, keep)

    # ESP node: RSSI and CSI for every WiFi anchor at the CSI rate.  CSI has
    # no dropout, so its table rows are known before it is generated: each
    # anchor's magnitudes and phases go straight into the payload matrix.
    t_csi = _tick_times(config.duration, config.rates["csi"])
    wifi = sorted(scenario.wifi_anchors, key=lambda a: a.id)
    if len(t_csi) and wifi:
        pos_rssi = interp.sensor_position_at(t_csi, scenario.sensor_offsets.get("rssi", SensorOffset()))
        pos_csi = interp.sensor_position_at(t_csi, scenario.sensor_offsets.get("csi", SensorOffset()))
        rec_rssi = _skew(t_csi, config.clock_for("rssi"))
        rec_csi = np.tile(_skew(t_csi, config.clock_for("csi")), len(wifi))
        order, rows = _table_order(rec_csi)
        rows = rows.reshape(len(wifi), len(t_csi))  # each anchor's table rows
        s = scenario.subcarriers
        csi = np.empty((len(rec_csi), 2 * s))
        for anchor, at in zip(wifi, rows):
            d = np.hypot(pos_rssi[:, 0] - anchor.position.x, pos_rssi[:, 1] - anchor.position.y)
            rssi = (scenario.rssi_p0_dbm
                    - 10.0 * scenario.rssi_exponent
                    * np.log10(np.maximum(d, 1e-3) / scenario.rssi_d0_m)
                    + rssi_rng.normal(0.0, 1.0, len(d)) * noise.rssi_sigma_db)
            h = csi_channel(scenario, anchor, pos_csi)
            csi[at, :s] = np.abs(h) * 10.0 ** (csi_rng.normal(0.0, 1.0, h.shape)
                                              * noise.csi_mag_sigma_db / 20.0)
            phases = np.angle(h) + scenario.session_phase[anchor.id]
            del h  # complex, as large as the magnitudes and phases together
            phases += csi_rng.normal(0.0, 1.0, phases.shape) * noise.csi_phase_sigma
            csi[at, s:] = np.mod(phases + np.pi, 2.0 * np.pi) - np.pi
            emit("rssi", rec_rssi, rssi[:, None], anchor.id)
        anchor = np.repeat(np.arange(len(wifi)), len(t_csi))
        columns["csi"] = (rec_csi[order], anchor[order], tuple(a.id for a in wifi), csi)

    # IMU: finite-difference kinematics in the body frame plus the local field
    t_imu = _tick_times(config.duration, config.rates["imu"])
    if len(t_imu):
        off = scenario.sensor_offsets.get("imu", SensorOffset())
        pos = interp.sensor_position_at(t_imu, off)
        heading = interp.heading_at(t_imu)
        h_step = 1.0 / config.rates["imu"]
        p_fwd = interp.sensor_position_at(t_imu + h_step, off)
        p_bwd = interp.sensor_position_at(np.maximum(t_imu - h_step, 0.0), off)
        accel_w = (p_fwd - 2.0 * pos + p_bwd) / h_step**2
        cos_h, sin_h = np.cos(heading), np.sin(heading)
        ax = cos_h * accel_w[:, 0] + sin_h * accel_w[:, 1]
        ay = -sin_h * accel_w[:, 0] + cos_h * accel_w[:, 1]
        phi_f = interp.heading_at(t_imu + h_step)
        phi_b = interp.heading_at(np.maximum(t_imu - h_step, 0.0))
        dphi = np.mod(phi_f - phi_b + np.pi, 2.0 * np.pi) - np.pi
        gyro_z = dphi / (2.0 * h_step)
        mag_w = scenario.magnetic_field.at(pos)
        mx = cos_h * mag_w[:, 0] + sin_h * mag_w[:, 1]
        my = -sin_h * mag_w[:, 0] + cos_h * mag_w[:, 1]

        accel = np.stack([ax, ay, np.full(len(t_imu), GRAVITY)], axis=1)
        accel += imu_rng.normal(0.0, 1.0, accel.shape) * noise.imu_accel_sigma
        gyro = np.stack([np.zeros_like(gyro_z), np.zeros_like(gyro_z), gyro_z], axis=1)
        gyro += imu_rng.normal(0.0, 1.0, gyro.shape) * noise.imu_gyro_sigma
        mag = np.stack([mx, my, mag_w[:, 2]], axis=1)
        mag += imu_rng.normal(0.0, 1.0, mag.shape) * noise.mag_sigma
        emit("imu", _skew(t_imu, config.clock_for("imu")), np.hstack([accel, gyro, mag]), None)

    for sensor in list(blocks):
        columns[sensor] = _join(blocks.pop(sensor))
    return _merge(columns)


def _table_order(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One sensor's rows, given their recorded times in generation order:
    the generated row of each table row, which is the stable order of
    ``(t, generation index)``, and the table row of each generated row."""
    order = np.argsort(t, kind="stable")
    rows = np.empty_like(order)
    rows[order] = np.arange(len(order))
    return order, rows


def _join(blocks: list) -> tuple:
    """One sensor's blocks ``(t_rec, values, anchor id)``, in generation
    order, as its columns in table row order: ``(t_rec, anchor, anchor ids,
    values)``.  The payload is allocated once and each block is copied
    straight into its rows, then dropped from ``blocks``."""
    t = np.concatenate([b[0] for b in blocks])
    anchor = np.repeat(np.arange(len(blocks)), [len(b[0]) for b in blocks])
    ids = tuple(b[2] for b in blocks)
    order, rows = _table_order(t)
    values = np.empty((len(t), blocks[0][1].shape[1]))
    start = 0
    while blocks:
        block_t, block_values, _ = blocks.pop(0)
        values[rows[start:start + len(block_t)]] = block_values
        start += len(block_t)
    return t[order], anchor[order], ids, values


def _merge(columns: dict[str, tuple]) -> dict[str, SensorTable]:
    """One table per sensor from its columns in row order, ``line`` set by one
    stable sort of every sensor's times.

    ``columns`` is emptied as the tables take its arrays.
    """
    # (sensor, source id) order breaks ties in t; within a sensor, row order does
    sensors = sorted(columns, key=lambda s: (s, _SOURCE_IDS[s]))
    t = np.concatenate([columns[s][0] for s in sensors])
    line = np.empty(len(t), dtype=np.intp)
    line[np.argsort(t, kind="stable")] = np.arange(1, len(t) + 1)

    tables, start = {}, 0
    for s in sensors:
        t_rec, anchor, anchor_ids, values = columns.pop(s)
        anchor, anchor_ids = _by_first_appearance(anchor, anchor_ids)
        tables[s] = SensorTable(s, t_rec, values, np.zeros(len(t_rec), dtype=np.intp),
                                (_SOURCE_IDS[s],), anchor, anchor_ids,
                                line[start:start + len(t_rec)])
        start += len(t_rec)
    order = sorted(tables, key=lambda s: tables[s].line[0])  # sensors in file order
    return {s: tables[s] for s in order}


def _by_first_appearance(codes: np.ndarray, ids: tuple) -> tuple[np.ndarray, tuple[str, ...]]:
    """Renumber ``codes`` (indices into ``ids``) in order of first appearance.

    A None id (imu, gt) becomes anchor -1 with no anchor ids.
    """
    if ids[0] is None:
        return np.full(len(codes), -1, dtype=np.intp), ()
    present, first = np.unique(codes, return_index=True)
    seen = present[np.argsort(first)]
    renumber = np.empty(len(ids), dtype=np.intp)
    renumber[seen] = np.arange(len(seen))
    return renumber[codes], tuple(ids[i] for i in seen)


def simulate_run(scenario: Scenario, config: SimConfig) -> dict[str, SensorTable]:
    """Trajectory plus sensor sampling in one call."""
    trajectory = generate_trajectory(scenario, config.duration, config.speed,
                                     rate=config.rates["gt"])
    return sample_sensors(scenario, config, trajectory)


# ---------------------------------------------------------------------------
# Sidecar (scenario.json) serialization

def _anchor_to_dict(a: Anchor) -> dict:
    return {"id": a.id, "kind": a.kind, "position": [a.position.x, a.position.y]}


def _fixed(values: list, n: int, name: str) -> list:
    """A sidecar list that must hold exactly ``n`` values."""
    if len(values) != n:
        raise ValueError(f"{name} must hold {n} values, got {len(values)}")
    return values


def _anchor_from_dict(d: dict) -> Anchor:
    return Anchor(d["id"], d["kind"], Position2D(*_fixed(d["position"], 2, f"{d['id']} position")))


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "bounds": [s.bounds.width, s.bounds.height],
        "uwb_anchors": [_anchor_to_dict(a) for a in s.uwb_anchors],
        "wifi_anchors": [_anchor_to_dict(a) for a in s.wifi_anchors],
        "subcarriers": s.subcarriers,
        "carrier_hz": s.carrier_hz,
        "subcarrier_spacing_hz": s.subcarrier_spacing_hz,
        "magnetic_field": {
            "earth": list(s.magnetic_field.earth),
            "bumps": [{"center": list(b.center), "sigma": b.sigma,
                       "amplitude": list(b.amplitude)} for b in s.magnetic_field.bumps],
        },
        "multipath": {aid: [{"wall": r.wall, "gain": r.gain, "extra_path_m": r.extra_path_m}
                            for r in rays] for aid, rays in sorted(s.multipath.items())},
        "session_phase": {k: v for k, v in sorted(s.session_phase.items())},
        "sensor_offsets": {k: [o.x_off, o.y_off, o.phi_off]
                           for k, o in sorted(s.sensor_offsets.items())},
        "rssi_model": {"p0_dbm": s.rssi_p0_dbm, "d0_m": s.rssi_d0_m, "exponent": s.rssi_exponent},
        "seed": s.seed,
    }


def scenario_from_dict(d: dict) -> Scenario:
    mf = d["magnetic_field"]
    return Scenario(
        bounds=Bounds(*_fixed(d["bounds"], 2, "bounds")),
        uwb_anchors=tuple(_anchor_from_dict(a) for a in d["uwb_anchors"]),
        wifi_anchors=tuple(_anchor_from_dict(a) for a in d["wifi_anchors"]),
        subcarriers=d["subcarriers"],
        carrier_hz=d["carrier_hz"],
        subcarrier_spacing_hz=d["subcarrier_spacing_hz"],
        magnetic_field=MagneticFieldSpec(
            earth=tuple(_fixed(mf["earth"], 3, "earth")),
            bumps=tuple(MagneticBump(tuple(_fixed(b["center"], 2, "bump center")), b["sigma"],
                                     tuple(_fixed(b["amplitude"], 3, "bump amplitude")))
                        for b in mf["bumps"])),
        multipath={aid: tuple(MultipathRay(r["wall"], r["gain"], r["extra_path_m"]) for r in rays)
                   for aid, rays in d["multipath"].items()},
        session_phase=dict(d["session_phase"]),
        sensor_offsets={k: SensorOffset(*_fixed(v, 3, f"{k} sensor offset"))
                        for k, v in d["sensor_offsets"].items()},
        rssi_p0_dbm=d["rssi_model"]["p0_dbm"],
        rssi_d0_m=d["rssi_model"]["d0_m"],
        rssi_exponent=d["rssi_model"]["exponent"],
        seed=d["seed"],
    )


def sim_config_to_dict(c: SimConfig) -> dict:
    return {
        "duration": c.duration,
        "rates": dict(sorted(c.rates.items())),
        "noise": {k: getattr(c.noise, k) for k in (
            "uwb_sigma", "uwb_nlos_prob", "uwb_nlos_bias_m", "uwb_dropout_prob",
            "rssi_sigma_db", "imu_accel_sigma", "imu_gyro_sigma", "mag_sigma",
            "csi_mag_sigma_db", "csi_phase_sigma", "uwb_power_sigma_db")},
        "clocks": {k: [v.offset, v.drift] for k, v in sorted(c.clocks.items())},
        "speed": c.speed,
    }


def sim_config_from_dict(d: dict) -> SimConfig:
    return SimConfig(
        duration=d["duration"],
        rates=dict(d["rates"]),
        noise=NoiseConfig(**d["noise"]),
        clocks={k: ClockModel(*_fixed(v, 2, f"{k} clock")) for k, v in d["clocks"].items()},
        speed=d.get("speed", 0.2),
    )


def write_sidecar(path, scenario: Scenario, config: SimConfig,
                  scenario2: Scenario | None = None) -> None:
    """Write the scenario.json sidecar (both campaigns plus the sim config)."""
    doc = {"scenario": scenario_to_dict(scenario), "config": sim_config_to_dict(config)}
    if scenario2 is not None:
        doc["scenario2"] = scenario_to_dict(scenario2)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_sidecar(path) -> tuple[Scenario, SimConfig, Scenario | None]:
    """Read scenario.json back.  A file that is not UTF-8 JSON raises
    MalformedLine; one missing a field, holding a wrong type, a list of the
    wrong length or a scenario that breaks an invariant raises
    SchemaViolation; both name the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedLine(f"{path}: not UTF-8 JSON ({exc})") from exc
    try:
        scenario2 = scenario_from_dict(doc["scenario2"]) if "scenario2" in doc else None
        return scenario_from_dict(doc["scenario"]), sim_config_from_dict(doc["config"]), scenario2
    except KeyError as exc:
        raise SchemaViolation(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError, InvalidOverride) as exc:
        raise SchemaViolation(f"{path}: {exc}") from exc


# ``perfbench/tracer.py`` wraps this name, so it stays: ``write_records`` itself
write_dataset = write_records
