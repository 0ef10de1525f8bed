"""Trilateration, sensor-mount translation, and path-loss conversions."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from indoor_fusion.errors import EmptyObservations, InsufficientData
from indoor_fusion.geometry import (
    anchor_positions,
    degenerate_estimate,
    locate_from_ranges,
    median,
    rssi_to_distance,
    translate_sensor_pose,
)
from indoor_fusion.records import Anchor, Position2D, SensorOffset

coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def _ranges(point, corners):
    """One row: the (1, m, 2) anchors and the (1, m) exact ranges to ``point``."""
    anchors = np.asarray(corners, dtype=np.float64)[None]
    return anchors, np.hypot(*np.moveaxis(anchors - np.asarray(point), -1, 0))


def _locate_one(anchors, distances, usable=None):
    """The position and fallback flag of a one-row solve."""
    positions, fallback = locate_from_ranges(anchors, distances, usable)
    return positions[0], bool(fallback[0])


def _rms_residual(position, anchors, distances):
    errs = np.hypot(*np.moveaxis(anchors[0] - position, -1, 0)) - distances[0]
    return float(np.sqrt(np.mean(errs * errs)))


def _triangle_area(ps):
    (x0, y0), (x1, y1), (x2, y2) = ps
    return abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)) / 2.0


@given(coords, coords, st.lists(st.tuples(coords, coords), min_size=3, max_size=6))
@settings(max_examples=200)
def test_trilateration_recovers_the_generating_point(px, py, corners):
    assume(_triangle_area(corners[:3]) > 1.0)
    anchors, distances = _ranges((px, py), corners)
    position, fallback = _locate_one(anchors, distances)
    assert not fallback
    assert math.hypot(position[0] - px, position[1] - py) < 1e-6
    assert _rms_residual(position, anchors, distances) < 1e-6


def test_trilateration_exact_hand_case():
    # unit right triangle, query at its circumcenter (0.5, 0.5)
    anchors = np.asarray([[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]])
    position, fallback = _locate_one(anchors, np.full((1, 3), math.sqrt(0.5)))
    assert not fallback
    assert position[0] == pytest.approx(0.5, abs=1e-12)
    assert position[1] == pytest.approx(0.5, abs=1e-12)


def test_trilateration_needs_three_observations():
    # two anchors: the row falls back to their centroid
    anchors, distances = _ranges((1.0, 1.0), [(0.0, 0.0), (4.0, 0.0)])
    position, fallback = _locate_one(anchors, distances)
    assert fallback
    assert position.tolist() == [2.0, 0.0]


def test_collinear_anchors_are_rejected():
    anchors, distances = _ranges((1.0, 1.0), [(float(i), 2.0 * i) for i in range(3)])
    position, fallback = _locate_one(anchors, distances)
    assert fallback
    assert position.tolist() == [1.0, 2.0]


def test_degenerate_estimate_is_the_anchor_centroid():
    anchors = np.asarray([[(0.0, 0.0), (4.0, 2.0), (9.0, 9.0)]])
    usable = np.asarray([[True, True, False]])
    assert degenerate_estimate(anchors, usable).tolist() == [[2.0, 1.0]]
    # the solver answers a row of two usable anchors with the same centroid
    position, fallback = _locate_one(anchors, np.ones((1, 3)), usable)
    assert fallback and position.tolist() == [2.0, 1.0]
    with pytest.raises(EmptyObservations):
        locate_from_ranges(anchors, np.ones((1, 3)), np.zeros((1, 3), dtype=bool))


def test_locate_from_ranges_falls_back_on_bad_geometry():
    point = (2.0, 3.0)
    good = [(0.0, 0.0), (8.0, 0.0), (4.0, 6.0)]
    position, fallback = _locate_one(*_ranges(point, good))
    assert not fallback
    assert math.hypot(position[0] - point[0], position[1] - point[1]) < 1e-9

    collinear = [(float(i), 0.0) for i in range(3)]
    position, fallback = _locate_one(*_ranges(point, collinear))
    assert fallback and position.tolist() == [1.0, 0.0]

    # two usable anchors of three: the centroid of those two
    anchors, distances = _ranges(point, good)
    position, fallback = _locate_one(anchors, distances, np.asarray([[True, True, False]]))
    assert fallback and position.tolist() == [4.0, 0.0]


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
    positions, fallback = locate_from_ranges(anchors, stacked, usable)
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
        locate_from_ranges(anchors, np.ones((1, 3)), np.zeros((1, 3), dtype=bool))
    for bad in (-0.1, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite and >= 0"):
            locate_from_ranges(anchors, np.asarray([[1.0, bad, 1.0]]))
    # a bad distance on an unusable anchor is never read
    pos, fallback = locate_from_ranges(anchors, np.asarray([[1.0, -1.0, 1.0]]),
                                       np.asarray([[True, False, True]]))
    assert pos.tolist() == [[0.0, 2.0]] and fallback.tolist() == [True]


# kinds of row: solvable, fewer than three usable anchors, collinear anchors
_ROW_KINDS = ("solvable", "two-usable", "collinear")


@given(kinds=st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=12),
       m=st.integers(3, 6), sweep=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_a_mixed_batch_equals_its_one_row_solves_bit_for_bit(kinds, m, sweep, seed):
    rng = np.random.default_rng(seed)
    n = len(kinds)
    anchors = rng.uniform(0.0, 20.0, (n, m, 2))
    usable = np.ones((n, m), dtype=bool)
    for i, kind in enumerate(kinds):
        if kind == "two-usable":
            usable[i, rng.permutation(m)[2:]] = False
        elif kind == "collinear":
            # integer points on y = k x + c are exactly collinear in floating point
            xs = rng.integers(0, 20, m).astype(np.float64)
            anchors[i] = np.stack([xs, rng.integers(-2, 3) * xs + rng.integers(0, 20)], -1)
    truth = rng.uniform(0.0, 20.0, (n, 1, 2))
    distances = np.abs(np.hypot(*np.moveaxis(anchors - truth, -1, 0))
                       + rng.normal(0.0, 0.1, (n, m)))
    distances = np.where(usable, distances, np.nan)
    if sweep:  # a leading axis of distance sets over the same rows
        distances = distances * rng.uniform(0.5, 1.5, (sweep, 1, 1))
    positions, fallback = locate_from_ranges(anchors, distances, usable)
    assert positions.shape == (*distances.shape[:-1], 2)
    assert fallback.shape == distances.shape[:-1]
    for i, kind in enumerate(kinds):
        one = slice(i, i + 1)
        want, want_fallback = locate_from_ranges(anchors[one], distances[..., one, :],
                                                 usable[one])
        assert positions[..., one, :].tobytes() == want.tobytes()
        assert (fallback[..., one] == want_fallback).all()
        if kind != "solvable":
            assert want_fallback.all()


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
    pos = translate_sensor_pose((3.7, -1.2), 0.4, SensorOffset())
    assert (pos[0], pos[1]) == (3.7, -1.2)


@given(coords, coords, st.floats(min_value=-4, max_value=4),
       st.floats(min_value=-0.5, max_value=0.5),
       st.floats(min_value=-0.5, max_value=0.5),
       st.floats(min_value=-4, max_value=4))
@settings(max_examples=200)
def test_translate_preserves_mount_radius(x, y, phi, xo, yo, po):
    pos = translate_sensor_pose((x, y), phi, SensorOffset(xo, yo, po))
    assert math.hypot(pos[0] - x, pos[1] - y) == pytest.approx(
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


def test_anchor_positions_follow_the_columns_and_name_a_missing_anchor():
    anchors = (Anchor("a", "uwb", Position2D(0.0, 1.0)), Anchor("b", "uwb", Position2D(2.0, 3.0)))
    np.testing.assert_array_equal(anchor_positions(anchors, ("b", "a", "b")),
                                  [[2.0, 3.0], [0.0, 1.0], [2.0, 3.0]])
    assert anchor_positions(anchors, ()).shape == (0, 2)
    with pytest.raises(InsufficientData, match=r"^no anchor positions for \['zz9'\]$"):
        anchor_positions(anchors, ("a", "zz9"))


# any float64, with the values where np.median's rounding and NaN rules show
# drawn often: ties of 0.0 and -0.0, infinities of both signs, subnormals
_median_values = st.one_of(st.floats(width=64), st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308, -1e308, 1.0]))


@given(arrays(np.float64, st.one_of(st.tuples(st.integers(1, 12)),
                                    st.tuples(st.integers(1, 4), st.integers(1, 12))),
              elements=_median_values))
@settings(max_examples=500)
def test_median_is_numpy_median_bit_for_bit(a):
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 1e308 + 1e308
        got, want = median(a), np.median(a, axis=-1)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (a, got, want)
