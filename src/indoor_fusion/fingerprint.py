"""Radio-map fingerprinting and receiver-gain calibration.

A radio map bins a labeled survey stream onto a square grid and stores the
visited cells as arrays: their grid indices, mean feature vectors and
sample counts.  Localization takes a batch of queries; for each it finds
the k cells whose fingerprints are closest in feature space and returns
the inverse-distance-weighted average of their centers.

Calibration reconciles RSSI with geometry: for each candidate gain offset
in a brute-force sweep, every snapshot's three strongest readings are
inverted to distances and trilaterated, and the offset with the smallest
median position error wins.  The strongest three do not depend on the
offset, so the sweep is solved in a few batched blocks of offsets.
``rssi_snapshot_positions`` gives the fixes and fallback mask at the chosen
offset.  Every trilateration here is one call of
``geometry.locate_from_ranges``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .defaults import DEFAULT_K, DEFAULT_RESOLUTION
from .errors import (ConfigError, DimensionMismatch, EmptyMap, EmptyObservations,
                     InsufficientData, NonFiniteDistance)
from .geometry import anchor_positions, locate_from_ranges, median, rssi_to_distance
from .ingest import AlignedStream

if TYPE_CHECKING:  # the scenario's anchors are passed in, none is built here
    from .records import Anchor

MIN_CALIBRATION_SNAPSHOTS = 50
SWEEP_BLOCK = 8  # beta values per batched solve: bounds the sweep's temporaries


@dataclass(frozen=True, eq=False)
class RadioMap:
    """Grid of mean fingerprints over the surveyed area.

    Row i of ``keys`` is the (ix, iy) grid index of a visited cell, rows
    sorted as ``np.unique`` sorts them (by ix, then iy); row i of ``means``
    is that cell's mean fingerprint and ``counts[i]`` the number of survey
    rows folded into it.  The cell's center is ((ix, iy) + 0.5) * resolution.
    """

    resolution: float
    modality: str
    keys: np.ndarray    # (C, 2) int64
    means: np.ndarray   # (C, D) float64
    counts: np.ndarray  # (C,) int64

    def __post_init__(self):
        if self.resolution <= 0.0:
            raise ValueError(f"resolution must be > 0, got {self.resolution}")

    def __len__(self) -> int:
        return len(self.keys)


def build_map(stream: AlignedStream, resolution: float = DEFAULT_RESOLUTION) -> RadioMap:
    """Fold a survey stream into per-cell means, adding rows in stream order."""
    if len(stream) == 0:
        raise InsufficientData("no survey samples to build a map from")
    with np.errstate(over="ignore"):  # an overflow to inf is caught below
        cells = np.floor(stream.labels / resolution)
    # an int64 holds exactly the floats in [-2**63, 2**63); NaN fails both tests
    if not ((cells >= -2.0**63) & (cells < 2.0**63)).all():
        raise ConfigError(f"grid {resolution!r} m puts cell indices outside the int64 range")
    cell_xy = cells.astype(np.int64)
    keys, cell = np.unique(cell_xy, axis=0, return_inverse=True)
    cell = cell.reshape(-1)
    # start from -0.0, the exact additive identity (+0.0 would turn a -0.0
    # sum into +0.0): each sum is the left-to-right sum of its rows
    sums = np.full((len(keys), len(stream.columns)), -0.0)
    np.add.at(sums, cell, stream.features)
    counts = np.bincount(cell, minlength=len(keys))
    means = sums / counts[:, None]
    for array in (keys, means, counts):
        array.setflags(write=False)
    return RadioMap(resolution, stream.modality, keys, means, counts)


def locate(queries: np.ndarray, radio_map: RadioMap, k: int = DEFAULT_K) -> np.ndarray:
    """(Q, 2) positions for (Q, D) query fingerprints, one row per query.

    Each is the inverse-distance-weighted average of the k nearest cell
    centers.  Nearness is Euclidean distance in feature space with weight
    1/(1e-9 + distance), so an exact fingerprint match dominates; k=1
    degenerates to the nearest cell center.  Ties break by cell index.  A
    query with any distance that is not finite, say to fingerprints near
    float64's limit whose squared differences overflow, raises
    NonFiniteDistance: such a distance would only rank last, and the query
    would be answered from the cells that happen to stay finite.
    """
    if len(radio_map) == 0:
        raise EmptyMap("radio map holds no cells")
    queries = np.asarray(queries, dtype=np.float64)
    width = radio_map.means.shape[1]
    if queries.ndim != 2 or queries.shape[1] != width:
        raise DimensionMismatch(f"queries have shape {queries.shape}, map stores "
                                f"{width}-dim fingerprints")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    centers = (radio_map.keys + 0.5) * radio_map.resolution
    k = min(k, len(radio_map))
    positions = np.empty((len(queries), 2))
    for i, query in enumerate(queries):
        with np.errstate(over="ignore", invalid="ignore"):  # caught below
            dists = np.linalg.norm(radio_map.means - query, axis=1)
        bad = np.count_nonzero(~np.isfinite(dists))
        if bad:
            raise NonFiniteDistance(
                f"feature distances from query {i} to {bad} of the {len(dists)} "
                f"{radio_map.modality} cells are not finite")
        order = np.argsort(dists, kind="stable")[:k]
        nearest = dists[order]
        weights = 1.0 / (1e-9 + nearest)
        weights /= weights.sum()
        positions[i] = weights @ centers[order]
    return positions


# ---------------------------------------------------------------------------
# Receiver-gain calibration

@dataclass(frozen=True)
class RssiCalibration:
    """Result of the brute-force gain sweep."""

    beta: float
    sweep_errors: tuple[tuple[float, float], ...]  # (beta, median position error m)

    @property
    def error_m(self) -> float:
        return min(e for _, e in self.sweep_errors)


def _strongest_three(stream: AlignedStream, anchors: tuple[Anchor, ...],
                     sweep) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each snapshot's three strongest raw readings, strongest first (ties in
    reverse column order), the (N, 3, 2) positions of their anchors, and the
    (N, 3) mask of the readings whose range is finite and > 0 at every beta
    of ``sweep``.  A snapshot with no such reading raises EmptyObservations,
    and a column without an anchor position InsufficientData.
    """
    positions = anchor_positions(anchors, stream.columns)
    readings = stream.features
    order = np.argsort(readings, axis=1, kind="stable")[:, ::-1][:, :3]
    strongest = np.take_along_axis(readings, order, axis=1)
    # the range falls as beta grows, so the two ends of the sweep decide
    ends = np.asarray([np.min(sweep), np.max(sweep)], dtype=np.float64)[:, None, None]
    with np.errstate(over="ignore"):  # an overflow to inf is caught below
        ranges = rssi_to_distance(strongest, beta=ends)
    usable = (np.isfinite(ranges) & (ranges > 0.0)).all(axis=0)
    blind = np.flatnonzero(~usable.any(axis=1))
    if blind.size:
        raise EmptyObservations(
            f"rssi: {blind.size} of the {len(usable)} snapshots have no reading whose "
            f"range is finite and > 0 (the first is snapshot {blind[0]})")
    return strongest, positions[order], usable


def _solve_strongest(readings: np.ndarray, geometry: np.ndarray, usable: np.ndarray,
                     beta) -> tuple[np.ndarray, np.ndarray]:
    beta = np.asarray(beta, dtype=np.float64)[..., None, None]
    with np.errstate(over="ignore"):  # only where ``usable`` leaves the reading out
        distances = rssi_to_distance(readings, beta=beta)
    return locate_from_ranges(geometry, distances, usable)


def rssi_snapshot_positions(stream: AlignedStream, anchors: tuple[Anchor, ...],
                            beta) -> tuple[np.ndarray, np.ndarray]:
    """Trilaterate every snapshot from its three strongest readings.

    Strength ranking uses the raw dBm values; ``beta`` only enters the
    distance inversion.  ``beta`` is a scalar, or a 1-D sweep solved in the
    same call.  A reading whose range is not finite and > 0 at some beta is
    left out; a snapshot left with fewer than three readings is answered
    with the centroid of their anchors, and one left with none raises
    EmptyObservations; a column that ``anchors`` lacks raises
    InsufficientData naming it.  Returns (..., N, 2) positions in tick order
    and the (..., N) mask of snapshots answered with the anchor centroid.
    """
    return _solve_strongest(*_strongest_three(stream, anchors, beta), beta)


def calibrate_rssi_offset(samples: AlignedStream, anchors: tuple[Anchor, ...],
                          sweep: np.ndarray | None = None) -> RssiCalibration:
    """Sweep a constant dB enhancement and keep the argmin of median error.

    For each beta in the sweep (default -30..+30 dB, 1 dB step), every
    snapshot's three strongest readings (by raw RSSI, before beta) are
    converted to distances through the nominal path-loss model of
    ``geometry.rssi_to_distance`` and trilaterated;
    the per-beta score is the median position error against the labels.
    A reading whose range is not finite and > 0 at some beta of the sweep
    is left out at every beta, as in :func:`rssi_snapshot_positions`.
    """
    if len(samples) < MIN_CALIBRATION_SNAPSHOTS:
        raise InsufficientData(f"calibration needs >= {MIN_CALIBRATION_SNAPSHOTS} "
                               f"labeled snapshots, got {len(samples)}")
    if samples.modality != "rssi":
        raise InsufficientData(f"calibration expects an rssi stream, "
                               f"got {samples.modality!r}")
    sweep = np.arange(-30.0, 31.0) if sweep is None else np.asarray(sweep, dtype=np.float64)
    labels = samples.labels
    strongest = _strongest_three(samples, anchors, sweep)
    medians = []
    for start in range(0, len(sweep), SWEEP_BLOCK):
        est, _ = _solve_strongest(*strongest, sweep[start:start + SWEEP_BLOCK])
        err = np.hypot(est[..., 0] - labels[:, 0], est[..., 1] - labels[:, 1])
        medians.extend(median(err))
    curve = [(float(beta), float(e)) for beta, e in zip(sweep, medians)]
    best = min(range(len(curve)), key=lambda i: curve[i][1])
    return RssiCalibration(curve[best][0], tuple(curve))
