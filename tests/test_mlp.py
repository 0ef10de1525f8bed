"""Dense network: config, splits, backprop exactness, training loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from indoor_fusion.errors import (
    DimensionMismatch,
    Divergence,
    InsufficientData,
    TooFewFrames,
)
from indoor_fusion.ingest import BlockDef, FrameLayout, Frames, frames_to_arrays, select_blocks
from indoor_fusion import mlp
from indoor_fusion.mlp import (
    DEFAULT_HIDDEN,
    Mlp,
    MlpConfig,
    SplitSpec,
    gradient_check,
    median_position_error,
    split_dataset,
    train_arrays,
)


def _identity_frames(n, seed=0):
    """Frames whose label is literally their two features: y = x."""
    rng = np.random.default_rng(seed)
    xy = np.asarray([(rng.uniform(0.5, 7.5), rng.uniform(0.5, 5.5)) for _ in range(n)])
    layout = FrameLayout((BlockDef("uwb", ("x", "y")),))
    return Frames(np.arange(n, dtype=np.float64), xy, np.ones((n, 1)), xy, layout)


def _tiny_config(**kwargs):
    defaults = dict(layer_sizes=(2, 8, 2), learning_rate=1e-2, epochs=5, batch_size=16, seed=1)
    defaults.update(kwargs)
    return MlpConfig(**defaults)


def _train(frames, config, spec=SplitSpec(), layout=None):
    """Split frames per ``spec`` and train on the arrays of each part, in the
    blocks of ``layout`` (default: all)."""
    train_frames, test_frames = split_dataset(frames, spec)
    return train_arrays(*frames_to_arrays(train_frames, layout=layout),
                        *frames_to_arrays(test_frames, layout=layout), config)


# ---------------------------------------------------------------------------
# Config and splits

def test_config_validation():
    with pytest.raises(ValueError):
        MlpConfig(layer_sizes=(4, 2))          # no hidden layer
    with pytest.raises(ValueError):
        MlpConfig(layer_sizes=(4, 8, 3))       # output must be (x, y)
    with pytest.raises(ValueError):
        MlpConfig(layer_sizes=(4, 0, 2))
    with pytest.raises(ValueError):
        MlpConfig(layer_sizes=(4, 8, 2), learning_rate=-1.0)
    with pytest.raises(ValueError):
        MlpConfig(layer_sizes=(4, 8, 2), epochs=0)
    assert MlpConfig(layer_sizes=(4, 8, 2), learning_rate=0.0).learning_rate == 0.0


def test_config_helpers():
    c = MlpConfig.for_input(30)
    assert c.layer_sizes == (30, *DEFAULT_HIDDEN, 2)
    c3 = MlpConfig.for_input(5, hidden=(4,), epochs=3)
    assert c3.layer_sizes == (5, 4, 2) and c3.epochs == 3


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(train_fraction=0.0)
    with pytest.raises(ValueError):
        SplitSpec(train_fraction=1.0)


def test_split_dataset_is_an_exact_partition():
    items = np.arange(37)
    train_part, test_part = split_dataset(items, SplitSpec(0.9, 3))
    assert len(train_part) == 33  # round(37 * 0.9)
    assert len(test_part) == 4
    assert sorted(np.concatenate([train_part, test_part]).tolist()) == items.tolist()
    again = split_dataset(items, SplitSpec(0.9, 3))
    assert all(np.array_equal(a, b) for a, b in zip(again, (train_part, test_part)))
    different = split_dataset(items, SplitSpec(0.9, 4))
    assert not all(np.array_equal(a, b) for a, b in zip(different, (train_part, test_part)))
    # frames split the same rows as their indices
    frames = _identity_frames(37)
    train_f, test_f = split_dataset(frames, SplitSpec(0.9, 3))
    np.testing.assert_array_equal(train_f.t, train_part)
    np.testing.assert_array_equal(test_f.features, frames.features[test_part])


def test_split_dataset_always_leaves_both_sides_nonempty():
    items = np.arange(10)
    train_part, test_part = split_dataset(items, SplitSpec(0.99, 0))
    assert len(train_part) == 9 and len(test_part) == 1
    train_part, test_part = split_dataset(items, SplitSpec(0.01, 0))
    assert len(train_part) == 1 and len(test_part) == 9
    with pytest.raises(TooFewFrames):
        split_dataset(np.arange(9))


# ---------------------------------------------------------------------------
# Forward and backward passes

def test_forward_shapes_and_width_check():
    model = Mlp(_tiny_config())
    out = model.forward(np.zeros((5, 2)))
    assert out.shape == (5, 2)
    with pytest.raises(DimensionMismatch):
        model.forward(np.zeros((5, 3)))


def test_manual_forward_and_loss_oracle():
    model = Mlp(MlpConfig(layer_sizes=(1, 1, 2)))  # normalization at its identity init
    model.weights = [np.asarray([[1.0]]), np.asarray([[0.5, -0.5]])]
    model.biases = [np.asarray([0.0]), np.asarray([0.1, 0.2])]
    a = math.tanh(0.3)
    expected = (a * 0.5 + 0.1, -a * 0.5 + 0.2)
    out = model.forward(np.asarray([[0.3]]))
    assert out[0, 0] == pytest.approx(expected[0], abs=1e-15)
    assert out[0, 1] == pytest.approx(expected[1], abs=1e-15)

    y = np.asarray([[1.0, 0.0]])
    loss, _, _ = model.loss_and_grad(np.asarray([[0.3]]), y)
    hand = (expected[0] - 1.0) ** 2 + (expected[1] - 0.0) ** 2
    assert loss == pytest.approx(hand, abs=1e-15)


def test_loss_and_grad_input_validation():
    model = Mlp(_tiny_config())
    with pytest.raises(InsufficientData):
        model.loss_and_grad(np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(DimensionMismatch):
        model.loss_and_grad(np.zeros((3, 2)), np.zeros((2, 2)))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.sampled_from([1, 511, 512, 513, 1025]), width=st.integers(2, 5))
def test_normalization_in_steps_is_mean_and_std_bit_for_bit(data, n, width):
    # the steps add rows in order, as numpy sums the rows of an array two or
    # more columns wide; a one-column array it sums pairwise
    x = data.draw(arrays(np.float64, (n, width),
                         elements=st.floats(-1e150, 1e150, allow_nan=False, width=64)))
    scale = data.draw(st.sampled_from([1e-3, 1.0, 1e9]))
    x = x + np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(
        0.0, scale, size=x.shape)  # no column constant
    model = Mlp(MlpConfig(layer_sizes=(width, 3, 2)))
    model.set_normalization(x)
    assert model.x_mean.tobytes() == x.mean(axis=0).tobytes()
    assert model.x_std.tobytes() == np.maximum(x.std(axis=0), 1e-8).tobytes()


def test_normalization_reads_a_row_source_a_step_at_a_time():
    x = np.random.default_rng(3).normal(size=(1300, 4))
    reads = []

    class Rows:
        shape = x.shape

        def __len__(self):
            return len(x)

        def __getitem__(self, idx):
            reads.append(idx)
            return x[idx].copy()

    model, want = Mlp(MlpConfig(layer_sizes=(4, 3, 2))), Mlp(MlpConfig(layer_sizes=(4, 3, 2)))
    model.set_normalization(Rows())
    want.set_normalization(x)
    assert [(s.start, s.stop) for s in reads] == [(0, 512), (512, 1024), (1024, 1536)] * 2
    assert model.x_mean.tobytes() == want.x_mean.tobytes()
    assert model.x_std.tobytes() == want.x_std.tobytes()


def test_gradient_check_tanh_tight():
    rng = np.random.default_rng(5)
    model = Mlp(MlpConfig(layer_sizes=(4, 10, 6, 2), seed=5))
    x = rng.normal(size=(12, 4))
    y = rng.normal(size=(12, 2))
    model.set_normalization(x)
    assert gradient_check(model, x, y) < 1e-7


def test_gradient_check_sampling_is_cheap_and_consistent():
    rng = np.random.default_rng(7)
    model = Mlp(MlpConfig(layer_sizes=(6, 12, 2), seed=7))
    x = rng.normal(size=(8, 6))
    y = rng.normal(size=(8, 2))
    full = gradient_check(model, x, y)
    sampled = gradient_check(model, x, y, samples=20, rng=np.random.default_rng(1))
    assert sampled <= full + 1e-12


# ---------------------------------------------------------------------------
# Optimizer steps

def test_zero_learning_rate_leaves_weights_at_init():
    config = _tiny_config(learning_rate=0.0, epochs=3)
    x = np.random.default_rng(0).normal(size=(20, 2))
    y = x.copy()
    model, history = train_arrays(x, y, x[:4], y[:4], config)
    fresh = Mlp(config)
    fresh.set_normalization(x)
    for got, want in zip(model.weights, fresh.weights):
        np.testing.assert_array_equal(got, want)
    # per-epoch losses agree up to summation order of the shuffled batches
    losses = [h[1] for h in history]
    assert max(losses) - min(losses) < 1e-12


def test_first_adam_step_moves_by_lr_times_sign():
    config = MlpConfig(layer_sizes=(2, 4, 2), learning_rate=1e-3, epochs=1, batch_size=8, seed=4)
    x = np.asarray([[0.7, 0.1]])
    y = np.asarray([[-1.0, 0.5]])
    # the one epoch is the best on any test set, so its weights are kept
    model, _ = train_arrays(x, y, x, y, config)

    reference = Mlp(config, rng=np.random.default_rng(config.seed))
    reference.set_normalization(x)
    _, grad_w, _ = reference.loss_and_grad(x, y)
    for got, w0, g in zip(model.weights, reference.weights, grad_w):
        delta = got - w0
        np.testing.assert_allclose(delta, -1e-3 * np.sign(g), atol=1e-3 * 1e-4)


def _clone_weights(model):
    return [w.copy() for w in model.weights], [b.copy() for b in model.biases]


def _reference_train(x_train, y_train, x_test, y_test, config):
    """The training loop with Adam written out plainly, allocating its
    temporaries on every step: the reference for train_arrays."""
    (b1, b2), floor = mlp.ADAM_BETAS, mlp.ADAM_FLOOR
    rng = np.random.default_rng(config.seed)
    model = Mlp(config, rng=rng)
    model.set_normalization(x_train)
    adam_m = [np.zeros_like(p) for p in model.weights + model.biases]
    adam_v = [np.zeros_like(p) for p in model.weights + model.biases]
    step, history, best_err, stale = 0, [], math.inf, 0
    best_snapshot = _clone_weights(model)
    for epoch in range(config.epochs):
        perm = rng.permutation(len(x_train))
        total = 0.0
        for start in range(0, len(perm), config.batch_size):
            idx = perm[start:start + config.batch_size]
            loss, grad_w, grad_b = model.loss_and_grad(x_train[idx], y_train[idx])
            total += loss * len(idx)
            step += 1
            params = model.weights + model.biases
            for i, grad in enumerate(grad_w + grad_b):
                adam_m[i] *= b1
                adam_m[i] += (1.0 - b1) * grad
                adam_v[i] *= b2
                adam_v[i] += (1.0 - b2) * grad * grad
                m_hat = adam_m[i] / (1.0 - b1 ** step)
                v_hat = adam_v[i] / (1.0 - b2 ** step)
                params[i] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + floor)
        test_err = median_position_error(model, x_test, y_test)
        history.append((epoch, total / len(x_train), test_err))
        if test_err < best_err:
            best_err, best_snapshot, stale = test_err, _clone_weights(model), 0
        else:
            stale += 1
            if stale >= mlp.STALE_EPOCHS:
                break
    model.weights, model.biases = best_snapshot
    return model, history


def test_in_place_update_matches_the_reference_loop_bit_for_bit():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(70, 5))
    y = np.stack([x[:, 0] + 0.5 * x[:, 1], np.tanh(x[:, 2]) - x[:, 3]], axis=1)
    # 50 training rows in batches of 16: three full batches and a short one
    config = MlpConfig(layer_sizes=(5, 12, 6, 2), learning_rate=2e-2, epochs=5,
                       batch_size=16, seed=9)
    history = _assert_matches_the_reference(x, y, config)
    assert len(history) == 5


def test_in_place_update_restores_an_early_best_epoch_like_the_reference():
    # a large step: epoch 2 is the best and STALE_EPOCHS more stop training,
    # so the restored snapshot is an earlier epoch's copy, not the last weights
    rng = np.random.default_rng(8)
    x = rng.normal(size=(70, 5))
    y = np.stack([x[:, 0] + 0.5 * x[:, 1], np.tanh(x[:, 2]) - x[:, 3]], axis=1)
    config = MlpConfig(layer_sizes=(5, 12, 6, 2), learning_rate=0.1,
                       epochs=30, batch_size=16, seed=9)
    history = _assert_matches_the_reference(x, y, config)
    assert len(history) < config.epochs
    assert min(history, key=lambda row: row[2])[0] < history[-1][0]


def test_sliced_update_matches_the_reference_across_slice_boundaries():
    # the first weight matrix, 300 x 240 floats, spans three Adam slices
    rng = np.random.default_rng(8)
    x = rng.normal(size=(70, 300))
    y = np.stack([x[:, 0] + 0.5 * x[:, 1], np.tanh(x[:, 2]) - x[:, 3]], axis=1)
    config = MlpConfig(layer_sizes=(300, 240, 2), learning_rate=2e-2, epochs=2,
                       batch_size=16, seed=9)
    assert 2 * mlp._ADAM_SLICE < 300 * 240 < 3 * mlp._ADAM_SLICE
    _assert_matches_the_reference(x, y, config)


@pytest.mark.parametrize("width", [5, 300, 677])
def test_first_layer_gradient_by_row_blocks_matches_loss_and_grad(monkeypatch, width):
    # 128 rows of the 256-wide first layer per block: 5, 300 and 677 rows end
    # in a short block; 100 training rows make a batch of 64 and one of 36
    assert mlp._ADAM_SLICE // DEFAULT_HIDDEN[0] == 128
    rng = np.random.default_rng(width)
    x, y = rng.normal(size=(130, width)), rng.normal(size=(130, 2))
    loss_and_grad, weight_rows = Mlp.loss_and_grad, mlp._weight_rows
    whole, batches, blocks = [], [], []

    def spy_loss_and_grad(self, x, y, out=None):
        batches.append(len(x))
        whole.append(loss_and_grad(self, x, y)[1][0])  # before this step's update
        return loss_and_grad(self, x, y, out)

    def spy_weight_rows(a, delta, rows, out):
        blocks.append((len(whole), weight_rows(a, delta, rows, out).copy()))
        return out

    monkeypatch.setattr(Mlp, "loss_and_grad", spy_loss_and_grad)
    monkeypatch.setattr(mlp, "_weight_rows", spy_weight_rows)
    train_arrays(x[:100], y[:100], x[100:], y[100:], MlpConfig.for_input(width, epochs=2))
    assert batches == [64, 36, 64, 36]
    assert len(blocks) == len(whole) * math.ceil(width / 128)
    for step, want in enumerate(whole, start=1):
        got = np.concatenate([block for at, block in blocks if at == step])
        np.testing.assert_array_equal(got, want)


def test_training_memory_does_not_grow_with_the_epochs():
    import tracemalloc

    rng = np.random.default_rng(4)
    x, y = rng.normal(size=(150, 677)), rng.normal(size=(150, 2))
    train_arrays(x[:130], y[:130], x[130:], y[130:], MlpConfig.for_input(677, epochs=1))
    peaks = []
    for epochs in (2, 6):  # each epoch improves, so each takes a best snapshot
        config = MlpConfig.for_input(677, epochs=epochs)
        tracemalloc.start()
        try:
            train_arrays(x[:130], y[:130], x[130:], y[130:], config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a parameter-sized vector is 1.7 MB here; history rows and numpy's own
    # small caches add a few hundred bytes an epoch
    assert peaks[1] <= peaks[0] + 64 * 1024, peaks


def _assert_matches_the_reference(x, y, config):
    args = (x[:50], y[:50], x[50:], y[50:], config)
    model, history = train_arrays(*args)
    want_model, want_history = _reference_train(*args)
    assert history == want_history
    for got, want in zip(model.weights + model.biases,
                         want_model.weights + want_model.biases):
        np.testing.assert_array_equal(got, want)
    return history


# ---------------------------------------------------------------------------
# Training loop behavior

def test_training_is_deterministic():
    frames = _identity_frames(60)
    config = _tiny_config(layer_sizes=(3, 8, 2))
    m1, h1 = _train(frames, config)
    m2, h2 = _train(frames, config)
    assert h1 == h2
    for a, b in zip(m1.weights, m2.weights):
        np.testing.assert_array_equal(a, b)


def test_training_learns_the_identity_task():
    frames = _identity_frames(250)
    config = MlpConfig(layer_sizes=(3, 32, 2), learning_rate=3e-2, epochs=60,
                       batch_size=32, seed=0)
    model, history = _train(frames, config)
    final_err = history[-1][2]
    best = min(h[2] for h in history)
    assert best < 0.2
    # training reduced the loss from its starting point
    assert history[-1][1] < history[0][1]
    assert math.isfinite(final_err)


def test_best_snapshot_is_restored():
    frames = _identity_frames(80, seed=2)
    config = _tiny_config(layer_sizes=(3, 8, 2), epochs=12, learning_rate=5e-2)
    spec = SplitSpec(0.8, 1)
    model, history = _train(frames, config, spec)
    train_frames, test_frames = split_dataset(frames, spec)
    x_test, y_test = frames_to_arrays(test_frames)
    final = median_position_error(model, x_test, y_test)
    assert final == pytest.approx(min(h[2] for h in history), abs=1e-12)


def test_early_stopping_counts_stale_epochs():
    x = np.random.default_rng(1).normal(size=(30, 2))
    y = x.copy()
    config = _tiny_config(learning_rate=0.0, epochs=50)
    _, history = train_arrays(x, y, x[:5], y[:5], config)
    # epoch 0 sets the best; the next STALE_EPOCHS epochs cannot improve
    assert len(history) == 1 + mlp.STALE_EPOCHS


def test_divergence_carries_history():
    # the initial estimates are near 0: labels of 1e200 square to inf on the first batch
    x = np.random.default_rng(0).normal(size=(12, 2))
    y = np.full((12, 2), 1e200)
    config = _tiny_config()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(Divergence) as exc:
            train_arrays(x, y, x[:1], y[:1], config)
    assert isinstance(exc.value.history, list)


def test_train_arrays_validates_shapes():
    config = _tiny_config()
    with pytest.raises(InsufficientData):
        train_arrays(np.zeros((0, 2)), np.zeros((0, 2)),
                     np.zeros((0, 2)), np.zeros((0, 2)), config)
    with pytest.raises(DimensionMismatch):
        train_arrays(np.zeros((5, 3)), np.zeros((5, 2)),
                     np.zeros((0, 3)), np.zeros((0, 2)), config)


def test_train_arrays_refuses_an_empty_test_set():
    # the test set picks the epoch whose weights are kept: without one there is none
    x = np.random.default_rng(2).normal(size=(12, 2))
    with pytest.raises(InsufficientData, match="empty test set"):
        train_arrays(x, x, np.zeros((0, 2)), np.zeros((0, 2)), _tiny_config())


def test_median_position_error_matches_numpy():
    model = Mlp(_tiny_config())
    x = np.random.default_rng(2).normal(size=(9, 2))
    y = np.random.default_rng(3).normal(size=(9, 2))
    pred = model.forward(x)
    want = float(np.median(np.hypot(*(pred - y).T)))
    assert median_position_error(model, x, y) == want


# ---------------------------------------------------------------------------
# End-to-end on simulated data

def test_rssi_frames_are_learnable(noiseless_campaign):
    result = noiseless_campaign.result
    layout = select_blocks(result.frames.layout, ["rssi"])
    config = MlpConfig.for_input(layout.feature_width + layout.mask_width,
                                 hidden=(64, 32), learning_rate=1e-2,
                                 epochs=40, seed=0)
    model, history = _train(result.frames, config, layout=layout)
    assert min(h[2] for h in history) <= 0.5
