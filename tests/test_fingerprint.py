"""Radio-map fingerprinting and the RSSI gain sweep."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indoor_fusion.errors import (ConfigError, DimensionMismatch, EmptyMap, InsufficientData,
                                  NonFiniteDistance)
from indoor_fusion.fingerprint import (
    DEFAULT_K,
    DEFAULT_RESOLUTION,
    MIN_CALIBRATION_SNAPSHOTS,
    SWEEP_BLOCK,
    RadioMap,
    build_map,
    calibrate_rssi_offset,
    locate,
    rssi_snapshot_fixes,
    rssi_snapshot_positions,
)
from indoor_fusion.ingest import AlignedStream
from indoor_fusion.records import Anchor, Position2D

SQUARE_ANCHORS = [Anchor("a0", "wifi", Position2D(0.0, 0.0)),
                  Anchor("a1", "wifi", Position2D(4.0, 0.0)),
                  Anchor("a2", "wifi", Position2D(0.0, 4.0)),
                  Anchor("a3", "wifi", Position2D(4.0, 4.0))]


def _stream(features, labels, columns, modality="rssi"):
    """One tick per row at t = 0, 1, 2, ..."""
    features = np.asarray(features, dtype=np.float64).reshape(len(labels), len(columns))
    labels = np.asarray(labels, dtype=np.float64).reshape(len(labels), 2)
    return AlignedStream(modality, np.arange(len(labels), dtype=np.float64), features,
                         labels, tuple(columns))


def _rssi_stream(points, p0=-40.0, exponent=2.2, anchors=SQUARE_ANCHORS):
    """Exact log-distance readings from every anchor at the given points."""
    features = [[p0 - 10.0 * exponent * math.log10(
        max(math.hypot(x - a.position.x, y - a.position.y), 1e-3))
        for a in anchors] for x, y in points]
    return _stream(features, points, [a.id for a in anchors])


def _survey_points(n):
    pts = []
    k = 0
    while len(pts) < n:
        x = 0.3 + (k * 0.613) % 3.4
        y = 0.3 + (k * 0.287) % 3.4
        pts.append((x, y))
        k += 1
    return pts


def _empty_map(resolution):
    return RadioMap(resolution, "rssi", np.zeros((0, 2), dtype=np.int64), np.zeros((0, 1)),
                    np.zeros(0, dtype=np.int64))


def test_build_map_running_means_and_counts():
    stream = _stream([[1.0, 3.0], [3.0, 5.0], [10.0, 10.0]],
                     [(0.2, 0.2), (0.8, 0.4), (1.5, 0.5)], ["a", "b"])
    m = build_map(stream, resolution=1.0)
    assert len(m) == 2
    assert m.keys.tolist() == [[0, 0], [1, 0]]
    np.testing.assert_array_equal(m.means[0], [2.0, 4.0])
    assert m.counts[0] == 2
    np.testing.assert_array_equal(m.means[1], [10.0, 10.0])
    assert m.means.shape[1] == 2
    assert not any(a.flags.writeable for a in (m.keys, m.means, m.counts))
    # the nearest cell's center: (0, 0) -> (0.5, 0.5)
    assert locate(m.means[:1], m, k=1).tolist() == [[0.5, 0.5]]


def test_build_map_validates_input():
    with pytest.raises(InsufficientData):
        build_map(_stream(np.zeros((0, 1)), np.zeros((0, 2)), ["a"]))
    # a stream cannot hold rows wider than its declared columns
    with pytest.raises(DimensionMismatch):
        build_map(AlignedStream("rssi", [0.0], [[1.0, 2.0, 3.0]], [[0.0, 0.0]], ("a", "b")))
    with pytest.raises(ValueError):
        _empty_map(0.0)


def test_build_map_rejects_a_grid_whose_cell_indices_leave_int64():
    stream = _stream([[1.0], [2.0]], [(0.0, 0.5), (3.0, 2.0)], ["a"])
    assert len(build_map(stream, resolution=1e-18)) == 2  # 3e18 cells: in range
    for grid in (1e-19, 1e-300, 5e-324):
        with pytest.raises(ConfigError, match=f"grid {grid!r} m puts cell indices"):
            build_map(stream, resolution=grid)


def test_locate_exact_match_returns_its_cell_center():
    stream = _rssi_stream(_survey_points(40))
    m = build_map(stream, resolution=0.5)
    # pick a sample whose cell saw only itself, so its stored fingerprint
    # is exact; that match carries weight 1/1e-9 and swamps the other cells
    cells = {tuple(key): count for key, count in zip(m.keys.tolist(), m.counts.tolist())}
    i = next(
        i for i, (x, y) in enumerate(stream.labels)
        if cells[(int(np.floor(x / 0.5)), int(np.floor(y / 0.5)))] == 1)
    ix = int(np.floor(stream.labels[i, 0] / 0.5))
    iy = int(np.floor(stream.labels[i, 1] / 0.5))
    (x, y), = locate(stream.features[i:i + 1], m)
    assert math.hypot(x - (ix + 0.5) * 0.5, y - (iy + 0.5) * 0.5) < 1e-6


def test_locate_k1_is_nearest_cell_center():
    m = build_map(_stream([[0.0], [10.0]], [(0.5, 0.5), (2.5, 0.5)], ["a"]), resolution=1.0)
    pos = locate(np.asarray([[2.0], [8.0]]), m, k=1)
    assert pos.tolist() == [[0.5, 0.5], [2.5, 0.5]]


def test_locate_equidistant_query_lands_midway():
    m = build_map(_stream([[0.0], [10.0]], [(0.5, 0.5), (3.5, 2.5)], ["a"]), resolution=1.0)
    (x, y), = locate(np.asarray([[5.0]]), m, k=2)
    assert x == pytest.approx(2.0, abs=1e-6)
    assert y == pytest.approx(1.5, abs=1e-6)


def test_locate_validates_query_and_k():
    m = build_map(_rssi_stream(_survey_points(10)), resolution=0.5)
    with pytest.raises(DimensionMismatch):
        locate(np.zeros((1, 3)), m)
    with pytest.raises(DimensionMismatch):
        locate(np.zeros(4), m)  # one query is a (1, 4) batch, not a row
    with pytest.raises(ValueError):
        locate(np.zeros((1, 4)), m, k=0)
    with pytest.raises(EmptyMap):
        locate(np.zeros((1, 1)), _empty_map(1.0))
    assert locate(np.zeros((0, 4)), m).shape == (0, 2)


def test_locate_refuses_nearest_distances_that_are_not_finite():
    # 1e300 dBm readings: squared differences overflow, so the distances
    # are infinite and their weights would be 0/0
    m = build_map(_stream([[1e300, -90.0], [-90.0, 1e300]], [(0.5, 0.5), (2.5, 0.5)],
                          ["a", "b"]), resolution=1.0)
    with pytest.raises(NonFiniteDistance, match=r"\[inf\] from query 1 to its 1 nearest rssi"):
        locate(np.asarray([[1e300, -90.0], [1e300, 1e300]]), m, k=1)
    with pytest.raises(NonFiniteDistance, match=r"\[nan\] from query 0"):
        locate(np.asarray([[math.nan, 0.0]]), m, k=1)


def test_locate_past_an_overflowing_far_cell_keeps_its_bits():
    # a far cell whose distance overflows, but outside the k nearest, leaves
    # the estimate as it is without that cell
    near = _stream([[-50.0], [-60.0], [-70.0]], [(0.5, 0.5), (2.5, 0.5), (0.5, 2.5)], ["a"])
    far = _stream([[-50.0], [-60.0], [-70.0], [1e300]],
                  [(0.5, 0.5), (2.5, 0.5), (0.5, 2.5), (3.5, 3.5)], ["a"])
    queries = np.asarray([[-55.0], [-65.0]])
    want = locate(queries, build_map(near, 1.0), k=3)
    assert locate(queries, build_map(far, 1.0), k=3).tobytes() == want.tobytes()
    with pytest.raises(NonFiniteDistance):
        locate(queries, build_map(far, 1.0), k=4)


def test_self_queries_stay_within_a_cell_radius():
    stream = _rssi_stream(_survey_points(60))
    res = 0.5
    m = build_map(stream, resolution=res)
    half_diag = res * math.sqrt(2.0) / 2.0
    pos = locate(stream.features, m, k=1)
    errs = np.hypot(*(pos - stream.labels).T)
    assert max(errs) <= half_diag + 1e-9


def test_noiseless_survey_localizes_to_the_grid(noiseless_campaign):
    stream = noiseless_campaign.result.streams["rssi"]
    n_train = int(0.8 * len(stream))
    train = stream.take(slice(None, n_train))
    test = stream.take(slice(n_train, None))
    m = build_map(train, resolution=DEFAULT_RESOLUTION)
    pos = locate(test.features, m, k=DEFAULT_K)
    errs = np.hypot(*(pos - test.labels).T)
    assert float(np.median(errs)) <= DEFAULT_RESOLUTION


def _reference_map(stream, resolution):
    """The per-sample fold: a dict of running sums in stream order, one
    mean per cell."""
    sums, counts = {}, {}
    for features, (x, y) in zip(stream.features, stream.labels.tolist()):
        key = (int(np.floor(x / resolution)), int(np.floor(y / resolution)))
        if key in sums:
            sums[key] = sums[key] + features
            counts[key] += 1
        else:
            sums[key] = features.astype(np.float64)
            counts[key] = 1
    return {key: sums[key] / counts[key] for key in sums}, counts


_values = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1.0 / 3.0]) | st.floats(-100.0, 100.0)
# few distinct values: cells share a mean, and distances tie exactly
_tie_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0])


@st.composite
def survey_streams(draw, values=_values):
    """Rows crowded into few cells, some at negative indices, with signed
    zeros and tiny values."""
    n = draw(st.integers(1, 30))
    width = draw(st.integers(1, 3))
    labels = draw(st.lists(st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)),
                           min_size=n, max_size=n))
    features = draw(st.lists(values, min_size=n * width, max_size=n * width))
    return _stream(features, labels, [f"a{j}" for j in range(width)])


@given(survey_streams(), st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.1, 3.0))
@example(_stream([[-0.0], [-0.0], [0.0]], [(0.1, 0.1), (0.2, 0.2), (1.5, 1.5)], ["a"]), 1.0)
@settings(max_examples=150)
def test_build_map_matches_the_per_sample_fold_bit_for_bit(stream, resolution):
    m = build_map(stream, resolution)
    cells, counts = _reference_map(stream, resolution)
    keys = [tuple(key) for key in m.keys.tolist()]
    assert dict(zip(keys, m.counts.tolist())) == counts
    assert keys == sorted(cells)
    means = dict(zip(keys, m.means))
    for key, mean in cells.items():
        assert means[key].tobytes() == mean.tobytes(), key


def _reference_locate(query, cells, resolution, k):
    """One query against a dict of cell means, as the per-query search did
    it: sort the keys, stack the means, stable argsort of the distances."""
    keys = sorted(cells)
    stack = np.stack([cells[key] for key in keys])
    dists = np.linalg.norm(stack - query, axis=1)
    order = np.argsort(dists, kind="stable")[: min(k, len(keys))]
    weights = 1.0 / (1e-9 + dists[order])
    weights /= weights.sum()
    centers = np.asarray([[(keys[i][0] + 0.5) * resolution,
                           (keys[i][1] + 0.5) * resolution] for i in order])
    return weights @ centers


@st.composite
def maps_and_queries(draw):
    """A survey, and queries that equal a cell mean or are drawn like one;
    k runs past the number of cells."""
    stream = draw(survey_streams(_tie_values | _values))
    resolution = draw(st.sampled_from([0.25, 0.5, 1.0]))
    means = list(_reference_map(stream, resolution)[0].values())
    width = len(stream.columns)
    queries = [means[draw(st.integers(0, len(means) - 1))] if draw(st.booleans())
               else np.asarray(draw(st.lists(_tie_values | _values,
                                             min_size=width, max_size=width)))
               for _ in range(draw(st.integers(1, 6)))]
    return stream, resolution, np.stack(queries), draw(st.integers(1, len(means) + 3))


@given(maps_and_queries())
# two cells share a mean at negative indices; 2.0 is equidistant from 1.0 and 3.0
@example((_stream([[1.0], [1.0], [3.0]], [(-0.5, -0.5), (0.5, 0.5), (1.5, -0.5)], ["a"]),
          1.0, np.asarray([[1.0], [2.0], [3.0]]), 5))
@settings(max_examples=150)
def test_locate_matches_the_per_query_search_bit_for_bit(case):
    stream, resolution, queries, k = case
    cells, _ = _reference_map(stream, resolution)
    want = np.stack([_reference_locate(q, cells, resolution, k) for q in queries])
    assert locate(queries, build_map(stream, resolution), k).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Gain calibration

def test_snapshot_positions_recover_noiseless_geometry():
    stream = _rssi_stream(_survey_points(20))
    anchors = {a.id: a.position for a in SQUARE_ANCHORS}
    est = rssi_snapshot_positions(stream, anchors, beta=0.0)
    labels = stream.labels
    err = np.hypot(est[:, 0] - labels[:, 0], est[:, 1] - labels[:, 1])
    assert float(err.max()) < 1e-6


def test_calibration_recovers_an_injected_gain_error():
    # receiver reports 10 dB weaker than the model's p0 assumes
    stream = _rssi_stream(_survey_points(60), p0=-50.0)
    cal = calibrate_rssi_offset(stream, SQUARE_ANCHORS)
    assert cal.beta == 10.0
    assert cal.error_m < 1e-6
    # the returned beta is the sweep argmin, exactly
    best = min(cal.sweep_errors, key=lambda be: be[1])
    assert best[0] == cal.beta
    assert cal.error_m == best[1]
    assert len(cal.sweep_errors) == 61


def test_calibration_zero_offset_for_a_well_calibrated_receiver():
    stream = _rssi_stream(_survey_points(55), p0=-40.0)
    cal = calibrate_rssi_offset(stream, SQUARE_ANCHORS)
    assert cal.beta == 0.0


def test_calibration_input_validation():
    small = _rssi_stream(_survey_points(MIN_CALIBRATION_SNAPSHOTS - 1))
    with pytest.raises(InsufficientData):
        calibrate_rssi_offset(small, SQUARE_ANCHORS)

    stream = _rssi_stream(_survey_points(60))
    wrong_mod = AlignedStream("uwb", stream.t, stream.features, stream.labels, stream.columns)
    with pytest.raises(InsufficientData):
        calibrate_rssi_offset(wrong_mod, SQUARE_ANCHORS)

    with pytest.raises(InsufficientData, match="a3"):
        calibrate_rssi_offset(stream, SQUARE_ANCHORS[:3])


def test_calibration_respects_a_custom_sweep():
    stream = _rssi_stream(_survey_points(50), p0=-45.0)
    cal = calibrate_rssi_offset(stream, SQUARE_ANCHORS, sweep=np.asarray([0.0, 5.0, 8.0]))
    assert cal.beta == 5.0
    assert len(cal.sweep_errors) == 3


def _noisy(stream, sigma_db, seed):
    rng = np.random.default_rng(seed)
    features = stream.features + rng.normal(0.0, sigma_db, stream.features.shape)
    return _stream(features, stream.labels, stream.columns)


def test_one_call_sweep_reproduces_a_per_beta_loop():
    stream = _noisy(_rssi_stream(_survey_points(80), p0=-47.0), 2.0, seed=3)
    cal = calibrate_rssi_offset(stream, SQUARE_ANCHORS)
    anchors = {a.id: a.position for a in SQUARE_ANCHORS}
    labels = stream.labels
    loop = []
    for beta in np.arange(-30.0, 31.0):
        est = rssi_snapshot_positions(stream, anchors, float(beta))
        err = np.hypot(est[:, 0] - labels[:, 0], est[:, 1] - labels[:, 1])
        loop.append((float(beta), float(np.median(err))))
    assert [b for b, _ in cal.sweep_errors] == [b for b, _ in loop]
    np.testing.assert_allclose([e for _, e in cal.sweep_errors], [e for _, e in loop],
                               rtol=0, atol=1e-12)
    assert cal.beta == loop[int(np.argmin([e for _, e in loop]))][0]


def test_blocked_sweep_equals_the_one_call_sweep_bit_for_bit():
    stream = _noisy(_rssi_stream(_survey_points(80), p0=-47.0), 2.0, seed=4)
    # two full blocks and a short third one
    sweep = np.linspace(-12.5, 9.0, 2 * SWEEP_BLOCK + 3)
    cal = calibrate_rssi_offset(stream, SQUARE_ANCHORS, sweep=sweep)
    est, _ = rssi_snapshot_fixes(stream, {a.id: a.position for a in SQUARE_ANCHORS}, sweep)
    labels = stream.labels
    medians = np.median(np.hypot(est[..., 0] - labels[:, 0], est[..., 1] - labels[:, 1]),
                        axis=-1)
    assert cal.sweep_errors == tuple(zip(sweep.tolist(), medians.tolist()))
    assert cal.beta == sweep[int(np.argmin(medians))]


def test_snapshot_solve_rejects_a_non_finite_distance():
    stream = _rssi_stream(_survey_points(60))
    anchors = {a.id: a.position for a in SQUARE_ANCHORS}
    # two readings so weak that their distances overflow to inf; one of
    # them is among the snapshot's three strongest
    features = np.array(stream.features)
    features[0] = [-1e5, -1e5, -50.0, -50.0]
    bad = _stream(features, stream.labels, stream.columns)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        rssi_snapshot_positions(bad, anchors, beta=0.0)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        calibrate_rssi_offset(bad, SQUARE_ANCHORS)
    # the stream itself refuses a non-finite reading
    features[0] = [np.nan, -50.0, -50.0, -50.0]
    with pytest.raises(ValueError):
        _stream(features, stream.labels, stream.columns)
