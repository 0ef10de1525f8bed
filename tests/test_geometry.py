"""Trilateration, sensor-mount translation, and path-loss conversions."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from indoor_fusion.errors import CollinearAnchors, EmptyObservations, TooFewAnchors
from indoor_fusion.geometry import (
    RangeObservation,
    TrilatResult,
    degenerate_estimate,
    locate_from_ranges,
    rssi_to_distance,
    translate_sensor_pose,
    trilaterate,
    trilaterate_batch,
)
from indoor_fusion.records import Anchor, Pose, Position2D, SensorOffset

coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def _anchor(i, x, y):
    return Anchor(f"a{i}", "uwb", Position2D(x, y))


def _distance(p, q):
    return math.hypot(p.x - q.x, p.y - q.y)


def _obs_from(point, anchors):
    return [RangeObservation(a, _distance(point, a.position)) for a in anchors]


def _triangle_area(ps):
    (x0, y0), (x1, y1), (x2, y2) = ps
    return abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)) / 2.0


@given(coords, coords, st.lists(st.tuples(coords, coords), min_size=3, max_size=6))
@settings(max_examples=200)
def test_trilateration_recovers_the_generating_point(px, py, corners):
    assume(_triangle_area(corners[:3]) > 1.0)
    point = Position2D(px, py)
    anchors = [_anchor(i, x, y) for i, (x, y) in enumerate(corners)]
    result = trilaterate(_obs_from(point, anchors))
    assert _distance(result.position, point) < 1e-6
    assert result.residual < 1e-6
    assert result.used_anchors == len(anchors)


def test_trilateration_exact_hand_case():
    # unit right triangle, query at its circumcenter (0.5, 0.5)
    anchors = [_anchor(0, 0, 0), _anchor(1, 1, 0), _anchor(2, 0, 1)]
    r = math.sqrt(0.5)
    result = trilaterate([RangeObservation(a, r) for a in anchors])
    assert result.position.x == pytest.approx(0.5, abs=1e-12)
    assert result.position.y == pytest.approx(0.5, abs=1e-12)


def test_trilateration_needs_three_observations():
    obs = _obs_from(Position2D(1, 1), [_anchor(0, 0, 0), _anchor(1, 4, 0)])
    with pytest.raises(TooFewAnchors):
        trilaterate(obs)


def test_collinear_anchors_are_rejected():
    anchors = [_anchor(i, float(i), 2.0 * i) for i in range(3)]
    with pytest.raises(CollinearAnchors):
        trilaterate(_obs_from(Position2D(1, 1), anchors))


def test_degenerate_estimate_is_the_anchor_centroid():
    obs = [RangeObservation(_anchor(0, 0, 0), 1.0),
           RangeObservation(_anchor(1, 4, 2), 1.0)]
    result = degenerate_estimate(obs)
    assert (result.position.x, result.position.y) == (2.0, 1.0)
    assert result.used_anchors == 2
    with pytest.raises(EmptyObservations):
        degenerate_estimate([])


def test_locate_from_ranges_falls_back_on_bad_geometry():
    point = Position2D(2.0, 3.0)
    good = _obs_from(point, [_anchor(0, 0, 0), _anchor(1, 8, 0), _anchor(2, 4, 6)])
    assert _distance(locate_from_ranges(good).position, point) < 1e-9

    collinear = _obs_from(point, [_anchor(i, float(i), 0.0) for i in range(3)])
    fallback = locate_from_ranges(collinear)
    assert (fallback.position.x, fallback.position.y) == (1.0, 0.0)

    two = good[:2]
    assert locate_from_ranges(two).used_anchors == 2


def test_range_observation_rejects_bad_distances():
    with pytest.raises(ValueError):
        RangeObservation(_anchor(0, 0, 0), -0.1)
    with pytest.raises(ValueError):
        RangeObservation(_anchor(0, 0, 0), float("inf"))


# ---------------------------------------------------------------------------
# Batched solver against a scalar lstsq reference

BATCH_TOL_M = 1e-9  # on coordinates up to 20 m


def _reference_fix(anchors, distances, usable):
    """lstsq on the radical lines of the usable anchors (the first one as
    reference); the centroid for fewer than three or collinear anchors."""
    pts, d = anchors[usable], distances[usable]
    if len(pts) >= 3:
        rel = pts[1:] - pts[0]
        a = 2.0 * rel
        b = d[0] ** 2 - d[1:] ** 2 + (rel ** 2).sum(axis=1)
        sv = np.linalg.svd(a.T @ a, compute_uv=False)
        if sv[-1] >= 1e-10 * sv[0]:
            return pts[0] + np.linalg.lstsq(a, b, rcond=None)[0], False
    return pts.mean(axis=0), True


def _batch_case(case, m, rng, n=200):
    anchors = rng.uniform(0.0, 20.0, (n, m, 2))
    usable = np.ones((n, m), dtype=bool)
    if case == "masked":
        usable = rng.random((n, m)) < 0.7
        usable[np.arange(n), rng.integers(0, m, n)] = True
        usable[: n // 4, 0] = False  # the reference is the first usable anchor
        usable[usable.sum(axis=1) < 3, :3] = True
    elif case == "one-or-two-usable":
        usable = np.zeros((n, m), dtype=bool)
        usable[:, 0] = rng.random(n) < 0.5
        usable[np.arange(n), rng.integers(1, m, n)] = True
    elif case == "collinear":
        # integer points on y = k x + c are exactly collinear in floating point
        xs = rng.integers(0, 20, (n, m)).astype(np.float64)
        k = rng.integers(-2, 3, (n, 1)).astype(np.float64)
        anchors = np.stack([xs, k * xs + rng.integers(0, 20, (n, 1))], axis=-1)
    truth = rng.uniform(0.0, 20.0, (n, 1, 2))
    exact = np.hypot(*np.moveaxis(anchors - truth, -1, 0))
    distances = np.abs(exact + rng.normal(0.0, 0.1, (n, m)))
    # unusable entries carry garbage the solver must ignore
    distances = np.where(usable, distances, np.nan)
    return anchors, distances, usable


@pytest.mark.parametrize("case,m", [("random", 3), ("random", 4), ("random", 5),
                                    ("random", 6), ("masked", 6),
                                    ("one-or-two-usable", 5), ("collinear", 4)])
def test_batched_solver_matches_the_lstsq_reference(case, m):
    rng = np.random.default_rng([m, *map(ord, case)])
    anchors, distances, usable = _batch_case(case, m, rng)
    # a leading axis of distance sets shares each row's geometry
    stacked = np.stack([distances, 1.5 * distances])
    positions, fallback = trilaterate_batch(anchors, stacked, usable)
    assert positions.shape == (2, len(anchors), 2)
    assert fallback.shape == (2, len(anchors))
    for k in range(2):
        for i in range(len(anchors)):
            want, want_fallback = _reference_fix(anchors[i], stacked[k, i], usable[i])
            assert fallback[k, i] == want_fallback
            # noisy ranges on a thin triangle can put the fix far outside the
            # 20 m square; the tolerance grows with the fix beyond 20 m
            tol = BATCH_TOL_M * max(1.0, float(np.abs(want).max()) / 20.0)
            np.testing.assert_allclose(positions[k, i], want, rtol=0, atol=tol)
    if case in ("one-or-two-usable", "collinear"):
        assert fallback.all()
    if case == "random":
        assert not fallback.any()


def test_batched_solver_input_checks():
    anchors = np.asarray([[(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)]])
    with pytest.raises(EmptyObservations):
        trilaterate_batch(anchors, np.ones((1, 3)), np.zeros((1, 3), dtype=bool))
    for bad in (-0.1, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite and >= 0"):
            trilaterate_batch(anchors, np.asarray([[1.0, bad, 1.0]]))
    # a bad distance on an unusable anchor is never read
    pos, fallback = trilaterate_batch(anchors, np.asarray([[1.0, -1.0, 1.0]]),
                                      np.asarray([[True, False, True]]))
    assert pos.tolist() == [[0.0, 2.0]] and fallback.tolist() == [True]


# ---------------------------------------------------------------------------
# Sensor mounting

def test_translate_sensor_pose_quarter_turn():
    # robot at (1, 2) facing +y; a sensor 0.1 m ahead lands at (1, 2.1)
    pos = translate_sensor_pose((1.0, 2.0), math.pi / 2, SensorOffset(0.1, 0.0, 0.0))
    assert pos[0] == pytest.approx(1.0, abs=1e-12)
    assert pos[1] == pytest.approx(2.1, abs=1e-12)
    # the same robot pose twice, as arrays, gives the same position twice
    both = translate_sensor_pose([(1.0, 2.0)] * 2, np.full(2, math.pi / 2),
                                 SensorOffset(0.1, 0.0, 0.0))
    assert both.tolist() == [pos.tolist()] * 2


def test_translate_sensor_pose_zero_offset_is_identity():
    pose = Pose(3.7, -1.2, 0.4)
    pos = translate_sensor_pose((pose.x, pose.y), pose.phi, SensorOffset())
    assert (pos[0], pos[1]) == (pose.x, pose.y)


@given(coords, coords, st.floats(min_value=-4, max_value=4),
       st.floats(min_value=-0.5, max_value=0.5),
       st.floats(min_value=-0.5, max_value=0.5),
       st.floats(min_value=-4, max_value=4))
@settings(max_examples=200)
def test_translate_preserves_mount_radius(x, y, phi, xo, yo, po):
    pose = Pose(x, y, phi)
    pos = translate_sensor_pose((pose.x, pose.y), pose.phi, SensorOffset(xo, yo, po))
    assert math.hypot(pos[0] - pose.x, pos[1] - pose.y) == pytest.approx(
        math.hypot(xo, yo), abs=1e-9)


def test_translate_phi_off_rotates_about_the_center():
    base = translate_sensor_pose((0.0, 0.0), 0.0, SensorOffset(0.2, 0.0, 0.0))
    quarter = translate_sensor_pose((0.0, 0.0), 0.0, SensorOffset(0.2, 0.0, math.pi / 2))
    assert (base[0], base[1]) == pytest.approx((0.2, 0.0), abs=1e-12)
    assert (quarter[0], quarter[1]) == pytest.approx((0.0, 0.2), abs=1e-12)


# ---------------------------------------------------------------------------
# Path loss

def test_rssi_to_distance_reference_points():
    # at d0 the model returns p0 exactly; 22 dB below is one decade out
    assert rssi_to_distance(-40.0) == pytest.approx(1.0, abs=1e-12)
    assert rssi_to_distance(-62.0) == pytest.approx(10.0, rel=1e-12)


def test_beta_shift_identity_is_bitwise():
    # a +20 dB calibration offset on a -80 dBm reading is exactly a -60 reading
    assert rssi_to_distance(-80.0, beta=20.0) == rssi_to_distance(-60.0)


@given(st.floats(min_value=0.01, max_value=100.0),
       st.floats(min_value=1.5, max_value=4.0))
@settings(max_examples=200)
def test_rssi_distance_roundtrip(distance, n):
    rssi = -40.0 - 10.0 * n * math.log10(distance)  # the forward log-distance model
    assert rssi_to_distance(rssi, n=n) == pytest.approx(distance, rel=1e-9)


@given(st.floats(min_value=-100, max_value=-20), st.floats(min_value=-100, max_value=-20))
def test_rssi_to_distance_is_strictly_decreasing(r1, r2):
    assume(abs(r1 - r2) > 1e-9)
    lo, hi = sorted((r1, r2))
    assert rssi_to_distance(lo) > rssi_to_distance(hi)


def test_path_loss_validates_parameters():
    with pytest.raises(ValueError):
        rssi_to_distance(-50.0, n=0.0)
    with pytest.raises(ValueError):
        rssi_to_distance(-50.0, d0=-1.0)
