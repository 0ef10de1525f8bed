"""Error reports, generalization harness, CSV/SVG emission."""

import math
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indoor_fusion.errors import (DimensionMismatch, EmptyReport, LayoutMismatch,
                                  LengthMismatch, SchemaViolation, UndefinedDegradation)
from indoor_fusion.evaluate import (
    ErrorReport,
    blocks_for_method,
    degradation,
    emit_plot,
    error_report,
    fit_network,
    network_estimates,
    read_cdf_csv,
    report_from_errors,
    run_generalization,
    write_cdf_csv,
    write_cdf_svg,
)
from indoor_fusion.ingest import (MODALITY_ORDER, BlockDef, FrameLayout, FrameRows, Frames,
                                  frames_to_arrays, select_blocks)
from indoor_fusion.mlp import Mlp, MlpConfig, SplitSpec, split_dataset, train_arrays

error_lists = st.lists(st.floats(min_value=0.0, max_value=1e6,
                                 allow_nan=False), min_size=1, max_size=60)


def _frames(n, seed=0, width=2, wobble=0.0):
    """One ``rssi`` block whose first two features are the label."""
    rng = np.random.default_rng(seed)
    labels, features = [], []
    for _ in range(n):
        x, y = rng.uniform(0.5, 7.5), rng.uniform(0.5, 5.5)
        feats = np.concatenate([[x, y], rng.normal(size=width - 2)]) \
            if width > 2 else np.asarray([x, y])
        labels.append((x, y))
        features.append(feats + rng.normal(0.0, wobble, size=width))
    layout = FrameLayout((BlockDef("rssi", ("w",) * width),))
    return Frames(np.arange(n, dtype=np.float64), features, np.ones((n, 1)), labels, layout)


_FAST = MlpConfig(layer_sizes=(3, 8, 2), learning_rate=1e-2, epochs=4, batch_size=32,
                  seed=0)


# ---------------------------------------------------------------------------
# ErrorReport

def test_report_oracle_on_one_to_four():
    r = report_from_errors([4.0, 1.0, 3.0, 2.0])
    assert r.errors.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert r.errors.dtype == np.float64 and not r.errors.flags.writeable
    assert r.count == 4
    assert r.mean == 2.5
    # nearest-rank on n=4: p50 -> 2nd, p95/p99 -> 4th (1-based)
    assert r.percentiles == {"p50": 2.0, "p95": 4.0, "p99": 4.0}
    assert r.cdf == ((1.0, 0.25), (2.0, 0.5), (3.0, 0.75), (4.0, 1.0))


def test_p99_of_ninety_nine_good_samples_ignores_the_single_outlier():
    r = report_from_errors([0.1] * 99 + [2.0])
    assert r.percentile(0.99) == 0.1
    assert r.percentile(1.0) == 2.0
    assert r.median == 0.1


def test_report_rejects_bad_inputs():
    with pytest.raises(EmptyReport):
        report_from_errors([])
    with pytest.raises(ValueError):
        report_from_errors([1.0, -0.5])
    with pytest.raises(ValueError):
        report_from_errors([1.0, float("inf")])
    with pytest.raises(ValueError):
        report_from_errors([1.0]).percentile(0.0)
    with pytest.raises(ValueError):
        report_from_errors([1.0]).percentile(1.5)


@given(error_lists)
@settings(max_examples=200)
def test_cdf_is_monotone_and_ends_at_one(errors):
    r = report_from_errors(errors)
    fractions = [f for _, f in r.cdf]
    values = [e for e, _ in r.cdf]
    assert fractions == sorted(fractions)
    assert values == sorted(values)
    assert fractions[-1] == 1.0
    assert len(r.cdf) == len(errors)
    steps = np.diff([0.0] + fractions)
    np.testing.assert_allclose(steps, 1.0 / len(errors), atol=1e-12)


@given(error_lists)
@settings(max_examples=200)
def test_percentiles_are_ordered_and_within_range(errors):
    r = report_from_errors(errors)
    assert min(errors) <= r.percentiles["p50"] <= r.percentiles["p95"] \
        <= r.percentiles["p99"] <= max(errors)


@given(error_lists, st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
@settings(max_examples=200)
def test_fraction_within_counts_inclusively(errors, threshold):
    r = report_from_errors(errors)
    want = sum(e <= threshold for e in r.errors) / len(errors)
    assert r.fraction_within(threshold) == pytest.approx(want, abs=1e-12)


def test_fraction_within_boundary_is_inclusive():
    r = report_from_errors([1.0, 2.0, 3.0])
    assert r.fraction_within(2.0) == pytest.approx(2.0 / 3.0)
    assert r.fraction_within(1.999) == pytest.approx(1.0 / 3.0)
    assert r.fraction_within(0.5) == 0.0
    assert r.fraction_within(3.0) == 1.0


def test_error_report_pairs_rows_in_order():
    estimates = np.asarray([[1.0, 1.0], [2.0, 2.0]])
    labels = np.asarray([[1.0, 2.0], [2.0, 2.0]])
    r = error_report(estimates, labels)
    assert r.errors.tolist() == [0.0, 1.0]

    with pytest.raises(LengthMismatch):
        error_report(estimates, labels[:1])
    with pytest.raises(EmptyReport):
        error_report(np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(DimensionMismatch):
        error_report(estimates[0], labels[0])  # one position is a (1, 2) array

    # the same pairing on random positions: each error is math.hypot of the
    # row differences (np.hypot differs from it in the last ulp on some pairs)
    rng = np.random.default_rng(5)
    estimates, labels = rng.normal(size=(2, 4000, 2))
    want = sorted(math.hypot(ex - lx, ey - ly) for (ex, ey), (lx, ly)
                  in zip(estimates.tolist(), labels.tolist()))
    assert error_report(estimates, labels).errors.tobytes() == np.asarray(want).tobytes()


# ---------------------------------------------------------------------------
# Method-to-blocks mapping

def test_blocks_for_method():
    assert blocks_for_method("nn:uwb") == ["uwb"]
    assert blocks_for_method("nn:csi-phase") == ["csi"]
    assert blocks_for_method("nn-fusion") == list(MODALITY_ORDER)
    assert blocks_for_method("nn-fusion:csi+imu") == ["csi", "imu"]
    # the -phase suffix belongs to nn:csi-phase alone
    for method in ("nn-fusion:csi+csi-phase", "nn-fusion:csi-phase", "nn:uwb-phase"):
        with pytest.raises(ValueError, match="unknown modality"):
            blocks_for_method(method)
    with pytest.raises(ValueError):
        blocks_for_method("uwb-trilat")
    with pytest.raises(ValueError):
        blocks_for_method("nn:sonar")


# ---------------------------------------------------------------------------
# Generalization

def test_generalization_identity_layouts_do_not_degrade():
    frames_a = _frames(120, seed=1)
    frames_b = _frames(60, seed=2)  # same distribution, fresh draw
    config = MlpConfig(layer_sizes=(3, 16, 2), learning_rate=3e-2, epochs=30,
                       batch_size=32, seed=0)
    train, test = split_dataset(np.arange(len(frames_a)), SplitSpec(0.8, 0))
    report = run_generalization(frames_a, train, test, frames_b, config)
    assert report.self_report.count == 24
    assert report.transfer_report.count == 60
    assert 0.3 < degradation(report.self_report, report.transfer_report) < 3.0
    assert report.history


def test_generalization_transfer_set_never_touches_training():
    frames_a = _frames(80, seed=3)
    b1 = _frames(40, seed=4)
    b2 = _frames(40, seed=5)
    b2 = replace(b2, features=b2.features * 3.0 + 1.0)
    train, test = np.arange(70), np.arange(70, 80)
    r1 = run_generalization(frames_a, train, test, b1, _FAST)
    r2 = run_generalization(frames_a, train, test, b2, _FAST)
    assert r1.self_report.errors.tobytes() == r2.self_report.errors.tobytes()
    assert r1.history == r2.history


def test_generalization_validates_inputs():
    frames = _frames(30)
    rows, none = np.arange(30), np.arange(0)
    with pytest.raises(EmptyReport):
        run_generalization(frames, none, rows, frames, _FAST)
    with pytest.raises(EmptyReport):
        run_generalization(frames, rows, none, frames, _FAST)
    with pytest.raises(EmptyReport):
        run_generalization(frames, rows, rows, frames.take(none), _FAST)
    wide = _frames(10, width=5)
    with pytest.raises(LayoutMismatch):
        run_generalization(frames, rows, rows, wide, _FAST)
    csi = FrameLayout((BlockDef("csi", ("c", "c")),))  # no csi block in the frames
    with pytest.raises(LayoutMismatch):
        run_generalization(frames, rows[:20], rows[20:], frames, _FAST, csi, csi)


def _block_frames(n, csi=40, seed=0):
    """Random frames of a ``csi``-wide csi, a 5-wide rssi and a 9-wide imu
    block, each present in about 80% of the frames, and random labels."""
    rng = np.random.default_rng(seed)
    widths = (csi, 5, 9)
    layout = FrameLayout(tuple(BlockDef(m, (m,) * w)
                               for m, w in zip(("csi", "rssi", "uwb"), widths)))
    mask = (rng.random((n, 3)) < 0.8).astype(np.float64)
    features = rng.normal(3.0, 2.0, size=(n, sum(widths))) * np.repeat(mask, widths, axis=1)
    return Frames(np.arange(n, dtype=np.float64), features, mask,
                  rng.uniform(0.0, 6.0, size=(n, 2)), layout)


@pytest.mark.parametrize("n, steps", [(1, [1]), (511, [511]), (512, [512]), (1023, [1023]),
                                      (1537, [512, 512, 513])])
def test_network_estimates_in_steps_are_one_forward_over_all_rows(monkeypatch, n, steps):
    # the csi and uwb blocks are not adjacent; rows in shuffled order
    frames = _block_frames(1600)
    layout = select_blocks(frames.layout, ["csi", "uwb"])
    rows = np.random.default_rng(n).permutation(len(frames))[:n]
    x, labels = frames_to_arrays(frames, rows, layout)
    model = Mlp(MlpConfig.for_input(x.shape[1], seed=1))
    model.set_normalization(x)
    want = model.forward(x)
    forward, sizes = Mlp.forward, []
    monkeypatch.setattr(Mlp, "forward", lambda self, x: sizes.append(len(x)) or forward(self, x))
    est, got_labels = network_estimates(model, frames, rows, layout)
    assert sizes == steps  # the remainder is folded into the last step
    assert est.tobytes() == want.tobytes()
    assert got_labels.tobytes() == labels.tobytes()


def test_training_on_a_frame_view_is_training_on_the_gathered_matrix():
    frames = _block_frames(300, seed=2)
    layout = select_blocks(frames.layout, ["csi", "uwb"])
    train_rows, test_rows = split_dataset(np.arange(len(frames)), SplitSpec(0.8, 3))
    config = MlpConfig.for_input(layout.feature_width + layout.mask_width, hidden=(16, 8),
                                 epochs=4, batch_size=32, seed=5)
    test = frames_to_arrays(frames, test_rows, layout)
    view = FrameRows(frames, train_rows, layout)
    got, got_history = train_arrays(view, frames.labels[train_rows], *test, config)
    want, want_history = train_arrays(*frames_to_arrays(frames, train_rows, layout), *test,
                                      config)
    assert got_history == want_history
    assert got.theta.tobytes() == want.theta.tobytes()
    assert got.x_mean.tobytes() == want.x_mean.tobytes()
    assert got.x_std.tobytes() == want.x_std.tobytes()
    # fit_network trains on such a view
    model, history = fit_network(frames, train_rows, test_rows, config, layout)
    assert history == want_history and model.theta.tobytes() == want.theta.tobytes()


def test_no_nn_step_holds_a_whole_input_matrix():
    import tracemalloc

    frames = _block_frames(12000, csi=200, seed=4)
    train_rows, test_rows = split_dataset(np.arange(len(frames)), SplitSpec(0.95, 0))
    config = MlpConfig.for_input(200 + 9 + 2, hidden=(16,), epochs=1, seed=0)
    layout = select_blocks(frames.layout, ["csi", "uwb"])
    whole = len(train_rows) * config.layer_sizes[0] * 8  # 19.2 MB
    tracemalloc.start()
    try:
        model, _ = fit_network(frames, train_rows, test_rows, config, layout)
        training = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        network_estimates(model, frames, layout=layout)
        scoring = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # training holds the test input and a few steps of 512 rows; scoring
    # two copies of a step of at most 1023 rows (0.17 and 0.21 of the whole)
    assert training < whole / 3, (training, whole)
    assert scoring < whole / 3, (scoring, whole)


def test_degradation_is_transfer_over_self():
    self_r = report_from_errors([1.0, 1.0, 1.0])
    transfer_r = report_from_errors([2.0, 2.0, 2.0])
    assert degradation(self_r, transfer_r) == 2.0


def test_degradation_over_a_zero_self_median_is_a_typed_error():
    zero = report_from_errors([0.0, 0.0, 0.0])
    transfer = report_from_errors([1.0, 2.0, 3.0])
    assert zero.median == 0.0
    with pytest.raises(UndefinedDegradation):
        degradation(zero, transfer)


# ---------------------------------------------------------------------------
# Plot emission

def test_emit_plot_csv_is_the_source_of_truth(tmp_path):
    r1 = report_from_errors([0.1, 0.2, 0.5])
    r2 = report_from_errors([0.3, 0.4])
    csv_path, svg_path = emit_plot([("alpha", r1), ("beta", r2)],
                                   tmp_path / "cdf")
    assert csv_path.endswith(".csv") and svg_path.endswith(".svg")
    series = read_cdf_csv(csv_path)
    assert [name for name, _ in series] == ["alpha", "beta"]
    assert series[0][1] == list(r1.cdf)
    assert series[1][1] == list(r2.cdf)


def test_svg_is_well_formed_and_sized(tmp_path):
    report = report_from_errors(np.linspace(0.01, 2.0, 50))
    _, svg_path = emit_plot([("one", report)], tmp_path / "plot")
    root = ET.parse(svg_path).getroot()
    assert root.tag.endswith("svg")
    assert root.get("width") == "800"
    assert root.get("height") == "500"
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 1
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert "one" in texts


def test_svg_log_axis_renders_decade_ticks(tmp_path):
    report = report_from_errors([0.001, 0.01, 0.1, 1.0, 10.0])
    path = tmp_path / "log.svg"
    write_cdf_svg([("s", list(report.cdf))], path, log_x=True)
    content = path.read_text(encoding="utf-8")
    ET.fromstring(content)
    assert "0.001" in content and "10" in content


def test_svg_escapes_series_names(tmp_path):
    report = report_from_errors([0.5])
    path = tmp_path / "esc.svg"
    write_cdf_svg([("a<b>&\"c\"", list(report.cdf))], path)
    root = ET.parse(path).getroot()
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert 'a<b>&"c"' in texts


def test_plots_reject_empty_input(tmp_path):
    with pytest.raises(EmptyReport):
        write_cdf_svg([], tmp_path / "no.svg")
    with pytest.raises(EmptyReport):
        emit_plot([], tmp_path / "no2")


def test_read_cdf_csv_rejects_foreign_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(SchemaViolation, match="bad.csv:1: unexpected CDF CSV header"):
        read_cdf_csv(path)


def test_csv_roundtrip_is_repr_exact(tmp_path):
    errors = [1.0 / 3.0, 2.0 / 7.0, math.pi / 10.0]
    report = report_from_errors(errors)
    path = tmp_path / "exact.csv"
    write_cdf_csv([("x", report)], path)
    back = read_cdf_csv(path)
    for (e_in, f_in), (e_out, f_out) in zip(report.cdf, back[0][1]):
        assert e_in == e_out
        assert f_in == f_out
