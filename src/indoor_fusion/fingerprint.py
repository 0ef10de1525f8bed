"""Radio-map fingerprinting and receiver-gain calibration.

A radio map bins a labeled survey stream onto a square grid and stores the
mean feature vector per visited cell.  Localization finds the k
cells whose fingerprints are closest to the query in feature space and
returns the inverse-distance-weighted average of their centers.

Calibration reconciles RSSI with geometry: for each candidate gain offset
in a brute-force sweep, every snapshot's three strongest readings are
inverted to distances and trilaterated, and the offset with the smallest
median position error wins.  The strongest three do not depend on the
offset, so the sweep is solved in a few batched blocks of offsets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyMap, InsufficientData
from .geometry import rssi_to_distance, trilaterate_batch
from .ingest import AlignedStream
from .records import Anchor, Position2D

DEFAULT_RESOLUTION = 0.25
DEFAULT_K = 3
MIN_CALIBRATION_SNAPSHOTS = 50
SWEEP_BLOCK = 8  # beta values per batched solve: bounds the sweep's temporaries


@dataclass(frozen=True)
class RadioMap:
    """Grid of mean fingerprints over the surveyed area."""

    resolution: float
    modality: str
    feature_dim: int
    cells: dict[tuple[int, int], np.ndarray]
    counts: dict[tuple[int, int], int]

    def __post_init__(self):
        if self.resolution <= 0.0:
            raise ValueError(f"resolution must be > 0, got {self.resolution}")

    def __len__(self) -> int:
        return len(self.cells)

    def cell_center(self, ix: int, iy: int) -> Position2D:
        return Position2D((ix + 0.5) * self.resolution, (iy + 0.5) * self.resolution)


def build_map(stream: AlignedStream, resolution: float = DEFAULT_RESOLUTION) -> RadioMap:
    """Fold a survey stream into per-cell means, adding rows in stream order."""
    if len(stream) == 0:
        raise InsufficientData("no survey samples to build a map from")
    cell_xy = np.floor(stream.labels / resolution).astype(np.int64)
    keys, cell = np.unique(cell_xy, axis=0, return_inverse=True)
    cell = cell.reshape(-1)
    # start from -0.0, the exact additive identity (+0.0 would turn a -0.0
    # sum into +0.0): each sum is the left-to-right sum of its rows
    sums = np.full((len(keys), len(stream.columns)), -0.0)
    np.add.at(sums, cell, stream.features)
    counts = np.bincount(cell, minlength=len(keys))
    means = sums / counts[:, None]
    means.setflags(write=False)
    keys = [tuple(k) for k in keys.tolist()]
    return RadioMap(resolution, stream.modality, len(stream.columns),
                    dict(zip(keys, means)), dict(zip(keys, counts.tolist())))


def locate(query: np.ndarray, radio_map: RadioMap, k: int = DEFAULT_K) -> Position2D:
    """Inverse-distance-weighted average of the k nearest cell centers.

    Nearness is Euclidean distance in feature space with weight
    1/(1e-9 + distance), so an exact fingerprint match dominates; k=1
    degenerates to the nearest cell center.  Ties break by cell index.
    """
    if len(radio_map.cells) == 0:
        raise EmptyMap("radio map holds no cells")
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (radio_map.feature_dim,):
        raise DimensionMismatch(f"query has shape {query.shape}, map stores "
                                f"{radio_map.feature_dim}-dim fingerprints")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    keys = sorted(radio_map.cells)
    stack = np.stack([radio_map.cells[key] for key in keys])
    dists = np.linalg.norm(stack - query, axis=1)
    order = np.argsort(dists, kind="stable")[: min(k, len(keys))]
    weights = 1.0 / (1e-9 + dists[order])
    weights /= weights.sum()
    centers = np.asarray([[(keys[i][0] + 0.5) * radio_map.resolution,
                           (keys[i][1] + 0.5) * radio_map.resolution] for i in order])
    x, y = weights @ centers
    return Position2D(float(x), float(y))


def save_radio_map(path, radio_map: RadioMap) -> None:
    """Persist as JSON with cells keyed "ix,iy"."""
    doc = {
        "resolution": radio_map.resolution,
        "modality": radio_map.modality,
        "feature_dim": radio_map.feature_dim,
        "cells": {f"{ix},{iy}": radio_map.cells[(ix, iy)].tolist()
                  for ix, iy in sorted(radio_map.cells)},
        "counts": {f"{ix},{iy}": radio_map.counts[(ix, iy)]
                   for ix, iy in sorted(radio_map.counts)},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_radio_map(path) -> RadioMap:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)

    def parse_key(key: str) -> tuple[int, int]:
        ix, iy = key.split(",")
        return int(ix), int(iy)

    cells = {parse_key(k): np.asarray(v, dtype=np.float64) for k, v in doc["cells"].items()}
    for v in cells.values():
        v.setflags(write=False)
    return RadioMap(
        resolution=doc["resolution"],
        modality=doc["modality"],
        feature_dim=doc["feature_dim"],
        cells=cells,
        counts={parse_key(k): v for k, v in doc["counts"].items()},
    )


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


def _strongest_three(stream: AlignedStream, anchors: dict[str, Position2D],
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Each snapshot's three strongest raw readings, strongest first (ties in
    reverse column order), and the (N, 3, 2) positions of their anchors."""
    readings = stream.features
    order = np.argsort(readings, axis=1, kind="stable")[:, ::-1][:, :3]
    positions = np.asarray([(anchors[c].x, anchors[c].y) for c in stream.columns])
    return np.take_along_axis(readings, order, axis=1), positions.reshape(-1, 2)[order]


def _solve_strongest(readings: np.ndarray, geometry: np.ndarray, beta, p0: float,
                     d0: float, exponent: float) -> tuple[np.ndarray, np.ndarray]:
    beta = np.asarray(beta, dtype=np.float64)[..., None, None]
    distances = rssi_to_distance(readings, p0=p0, d0=d0, n=exponent, beta=beta)
    return trilaterate_batch(geometry, distances)


def rssi_snapshot_fixes(stream: AlignedStream, anchors: dict[str, Position2D],
                        beta, p0: float = -40.0, d0: float = 1.0,
                        exponent: float = 2.2) -> tuple[np.ndarray, np.ndarray]:
    """Trilaterate every snapshot from its three strongest readings.

    Strength ranking uses the raw dBm values; ``beta`` only enters the
    distance inversion.  ``beta`` is a scalar, or a 1-D sweep solved in the
    same call.  Returns (..., N, 2) positions in tick order and the (..., N)
    mask of snapshots answered with the anchor centroid (collinear anchors).
    """
    return _solve_strongest(*_strongest_three(stream, anchors), beta, p0, d0, exponent)


def rssi_snapshot_positions(stream: AlignedStream, anchors: dict[str, Position2D],
                            beta: float, p0: float = -40.0, d0: float = 1.0,
                            exponent: float = 2.2) -> np.ndarray:
    """The (N, 2) positions of :func:`rssi_snapshot_fixes` at one ``beta``."""
    return rssi_snapshot_fixes(stream, anchors, beta, p0, d0, exponent)[0]


def calibrate_rssi_offset(samples: AlignedStream, anchors: list[Anchor],
                          sweep: np.ndarray | None = None,
                          p0: float = -40.0, d0: float = 1.0,
                          exponent: float = 2.2) -> RssiCalibration:
    """Sweep a constant dB enhancement and keep the argmin of median error.

    For each beta in the sweep (default -30..+30 dB, 1 dB step), every
    snapshot's three strongest readings (by raw RSSI, before beta) are
    converted to distances through the path-loss model and trilaterated;
    the per-beta score is the median position error against the labels.
    """
    if len(samples) < MIN_CALIBRATION_SNAPSHOTS:
        raise InsufficientData(f"calibration needs >= {MIN_CALIBRATION_SNAPSHOTS} "
                               f"labeled snapshots, got {len(samples)}")
    if samples.modality != "rssi":
        raise InsufficientData(f"calibration expects an rssi stream, "
                               f"got {samples.modality!r}")
    sweep = np.arange(-30.0, 31.0) if sweep is None else np.asarray(sweep, dtype=np.float64)
    positions = {a.id: a.position for a in anchors}
    missing = [c for c in samples.columns if c not in positions]
    if missing:
        raise InsufficientData(f"no anchor positions for {missing}")

    labels = samples.labels
    strongest = _strongest_three(samples, positions)
    medians = []
    for start in range(0, len(sweep), SWEEP_BLOCK):
        est, _ = _solve_strongest(*strongest, sweep[start:start + SWEEP_BLOCK], p0, d0, exponent)
        err = np.hypot(est[..., 0] - labels[:, 0], est[..., 1] - labels[:, 1])
        medians.extend(np.median(err, axis=-1))
    curve = [(float(beta), float(e)) for beta, e in zip(sweep, medians)]
    best = min(range(len(curve)), key=lambda i: curve[i][1])
    return RssiCalibration(curve[best][0], tuple(curve))
