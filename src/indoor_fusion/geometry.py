"""Closed-form localization from range observations.

Trilateration follows the classic linearization: take the first anchor as
the reference point, subtract its circle equation from every other circle,
and intersect the resulting radical lines

    2*x*x_i + 2*y*y_i = d_0^2 - d_i^2 + x_i^2 + y_i^2

in the least-squares sense (coordinates shifted so anchor 0 is the origin).
With noiseless distances this recovers the generating point exactly; with
noise it returns the point closest to all radical lines.

One solver, :func:`locate_from_ranges`, does this for many rows of anchor
and range arrays at once through the closed-form 2x2 normal equations; a
single fix is a one-row call.  Rows it cannot trilaterate get
:func:`degenerate_estimate`, the centroid of their usable anchors.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyObservations
from .records import SensorOffset

# Rank test on the 2x2 normal matrix: smallest singular value below this
# fraction of the largest means the anchors are (numerically) collinear.
_COLLINEARITY_RTOL = 1e-10


def degenerate_estimate(anchors, usable) -> np.ndarray:
    """(K, 2) mean position of the usable anchors of each row: ``anchors``
    is (K, m, 2) and ``usable`` the (K, m) mask of the anchors to average."""
    anchors = np.asarray(anchors, dtype=np.float64)
    usable = np.asarray(usable, dtype=bool)
    total = np.where(usable[..., None], anchors, 0.0).sum(axis=1)
    return total / usable.sum(axis=1)[:, None]


def locate_from_ranges(anchors, distances, usable=None) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fixes for many rows of range observations at once.

    ``anchors`` is (N, m, 2), ``distances`` (..., N, m) and ``usable`` an
    (N, m) mask of the anchors each row may use (default: all of them); the
    leading axes of ``distances`` share the row geometry.  Each row takes
    its first usable anchor as the reference and solves the 2x2 normal
    equations of its radical lines.  A row with fewer than three usable
    anchors, or whose normal matrix fails the rank test, falls back to
    :func:`degenerate_estimate`, which is called for those rows only.

    Returns (..., N, 2) positions and an (..., N) mask of the rows answered
    with the centroid.  Raises EmptyObservations when a row has no usable
    anchor and ValueError when a usable distance is negative or not finite.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    distances = np.asarray(distances, dtype=np.float64)
    n, m = anchors.shape[:2]
    usable = (np.ones((n, m), dtype=bool) if usable is None
              else np.asarray(usable, dtype=bool))
    count = usable.sum(axis=1)
    if np.any(count == 0):
        raise EmptyObservations("a row has no usable observation to estimate from")
    distances = np.where(usable, distances, 0.0)
    bad = ~(np.isfinite(distances) & (distances >= 0.0))
    if np.any(bad):
        raise ValueError(f"distance must be finite and >= 0, got {distances[bad][0]}")

    rows = np.arange(n)
    first = np.argmax(usable, axis=1)
    ref = anchors[rows, first]
    rel = np.where(usable[..., None], anchors - ref[:, None, :], 0.0)
    x, y = rel[..., 0], rel[..., 1]
    d0 = distances[..., rows, first]
    # halved right-hand side: the normal equations of (2x, 2y) s = b are
    # those of (x, y) s = b / 2.  Built in place over the distances, and
    # below turned into the residual, so that a (beta, N, m) sweep holds
    # one extra array of its size at a time.
    half_b = np.square(distances, out=distances)
    np.subtract(d0[..., None] ** 2, half_b, out=half_b)
    half_b += x * x
    half_b += y * y
    half_b *= 0.5

    sxx, sxy, syy = (x * x).sum(axis=-1), (x * y).sum(axis=-1), (y * y).sum(axis=-1)
    bx, by = (x * half_b).sum(axis=-1), (y * half_b).sum(axis=-1)
    det = sxx * syy - sxy * sxy
    # the normal matrix is symmetric positive semi-definite, so its singular
    # values are its eigenvalues: sv_max in closed form, sv_min = det / sv_max
    sv_max = 0.5 * (sxx + syy) + np.hypot(0.5 * (sxx - syy), sxy)
    fallback = (count < 3) | (sv_max == 0.0) | (det < _COLLINEARITY_RTOL * sv_max * sv_max)
    det = np.where(fallback, 1.0, det)

    def solve(rx, ry):
        return (syy * rx - sxy * ry) / det, (sxx * ry - sxy * rx) / det

    sx, sy = solve(bx, by)
    # forming the normal matrix squares the condition number; one step of
    # iterative refinement on the residual wins that accuracy back
    res = half_b
    res -= x * sx[..., None]
    res -= y * sy[..., None]
    dx, dy = solve((x * res).sum(axis=-1), (y * res).sum(axis=-1))
    positions = np.stack([ref[:, 0] + (sx + dx), ref[:, 1] + (sy + dy)], axis=-1)
    # the fallback rows depend on the geometry alone, not on the distances
    degenerate = np.flatnonzero(fallback)
    if degenerate.size:
        positions[..., degenerate, :] = degenerate_estimate(anchors[degenerate],
                                                            usable[degenerate])
    return positions, np.broadcast_to(fallback, positions.shape[:-1])


def translate_sensor_pose(xy, phi, offset: SensorOffset) -> np.ndarray:
    """Global position of a sensor mounted at ``offset`` on a robot at ``xy``
    with heading ``phi``: (N, 2) positions and (N,) headings give (N, 2)
    sensor positions, one (x, y) and a scalar heading give one (2,) position.

    The sensor sits at radius r = hypot(x_off, y_off) from the robot center;
    its global bearing is the robot heading plus the mounting bearing
    atan2(y_off, x_off) plus the measured offset angle phi_off (the real and
    imaginary parts of r * exp(j * (phi + phi_sensor))).
    """
    xy = np.asarray(xy, dtype=np.float64)
    r = math.hypot(offset.x_off, offset.y_off)
    if r == 0.0:
        return xy
    ang = phi + math.atan2(offset.y_off, offset.x_off) + offset.phi_off
    return xy + r * np.stack([np.cos(ang), np.sin(ang)], axis=-1)


def rssi_to_distance(rssi: float, p0: float = -40.0, d0: float = 1.0,
                     n: float = 2.2, beta: float = 0.0) -> float:
    """Invert the log-distance path-loss model.

    ``p0`` is the expected RSSI (dBm) at reference distance ``d0``; ``n`` is
    the path-loss exponent; ``beta`` is a calibration offset added to the
    measurement before inversion (rssi + beta plays the role of the enhanced
    reading).  Strictly decreasing in ``rssi``.
    """
    if n <= 0.0 or d0 <= 0.0:
        raise ValueError("path-loss exponent and reference distance must be positive")
    return d0 * 10.0 ** ((p0 - (rssi + beta)) / (10.0 * n))
