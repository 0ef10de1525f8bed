"""Dense network: config, splits, backprop exactness, training loop."""

import math

import numpy as np
import pytest

from indoor_fusion.errors import (
    DimensionMismatch,
    Divergence,
    InsufficientData,
    TooFewFrames,
)
from indoor_fusion.ingest import BlockDef, FrameLayout, Frames, frames_to_arrays, select_blocks
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
    layout = FrameLayout((BlockDef("uwb", 2, ("x", "y")),))
    return Frames(np.arange(n, dtype=np.float64), xy, np.ones((n, 1)), xy, layout)


def _tiny_config(**kwargs):
    defaults = dict(layer_sizes=(2, 8, 2), learning_rate=1e-2, epochs=5, batch_size=16, seed=1)
    defaults.update(kwargs)
    return MlpConfig(**defaults)


def _train(frames, config, spec=SplitSpec()):
    """Split frames per ``spec`` and train on the arrays of each part."""
    train_frames, test_frames = split_dataset(frames, spec)
    return train_arrays(*frames_to_arrays(train_frames), *frames_to_arrays(test_frames),
                        config)


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
    model, _ = train_arrays(x, y, np.zeros((0, 2)), np.zeros((0, 2)), config)

    reference = Mlp(config, rng=np.random.default_rng(config.seed))
    reference.set_normalization(x)
    _, grad_w, _ = reference.loss_and_grad(x, y)
    for got, w0, g in zip(model.weights, reference.weights, grad_w):
        delta = got - w0
        np.testing.assert_allclose(delta, -1e-3 * np.sign(g), atol=1e-3 * 1e-4)


def _reference_train(x_train, y_train, x_test, y_test, config):
    """The training loop with Adam written out plainly, allocating its
    temporaries on every step: the reference for train_arrays."""
    rng = np.random.default_rng(config.seed)
    model = Mlp(config, rng=rng)
    model.set_normalization(x_train)
    adam_m = [np.zeros_like(p) for p in model.weights + model.biases]
    adam_v = [np.zeros_like(p) for p in model.weights + model.biases]
    step, history, best_err, stale = 0, [], math.inf, 0
    best_snapshot = model.clone_weights()
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
                adam_m[i] *= config.beta1
                adam_m[i] += (1.0 - config.beta1) * grad
                adam_v[i] *= config.beta2
                adam_v[i] += (1.0 - config.beta2) * grad * grad
                m_hat = adam_m[i] / (1.0 - config.beta1 ** step)
                v_hat = adam_v[i] / (1.0 - config.beta2 ** step)
                params[i] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)
        test_err = median_position_error(model, x_test, y_test)
        history.append((epoch, total / len(x_train), test_err))
        if test_err < best_err:
            best_err, best_snapshot, stale = test_err, model.clone_weights(), 0
        else:
            stale += 1
            if stale >= config.patience:
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
    # a large step and a short patience: training stops on patience, so the
    # restored snapshot is an earlier epoch's copy, not the last weights
    rng = np.random.default_rng(8)
    x = rng.normal(size=(70, 5))
    y = np.stack([x[:, 0] + 0.5 * x[:, 1], np.tanh(x[:, 2]) - x[:, 3]], axis=1)
    config = MlpConfig(layer_sizes=(5, 12, 6, 2), learning_rate=0.1,
                       epochs=30, batch_size=16, patience=4, seed=9)
    history = _assert_matches_the_reference(x, y, config)
    assert len(history) < config.epochs
    assert min(history, key=lambda row: row[2])[0] < history[-1][0]


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
    config = _tiny_config(learning_rate=0.0, epochs=50, patience=3)
    _, history = train_arrays(x, y, x[:5], y[:5], config)
    # epoch 0 sets the best; the next `patience` epochs cannot improve
    assert len(history) == 4


def test_divergence_carries_history():
    # the initial estimates are near 0: labels of 1e200 square to inf on the first batch
    x = np.random.default_rng(0).normal(size=(12, 2))
    y = np.full((12, 2), 1e200)
    config = _tiny_config()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(Divergence) as exc:
            train_arrays(x, y, np.zeros((0, 2)), np.zeros((0, 2)), config)
    assert isinstance(exc.value.history, list)


def test_train_arrays_validates_shapes():
    config = _tiny_config()
    with pytest.raises(InsufficientData):
        train_arrays(np.zeros((0, 2)), np.zeros((0, 2)),
                     np.zeros((0, 2)), np.zeros((0, 2)), config)
    with pytest.raises(DimensionMismatch):
        train_arrays(np.zeros((5, 3)), np.zeros((5, 2)),
                     np.zeros((0, 3)), np.zeros((0, 2)), config)


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
    frames = select_blocks(result.frames, ["rssi"])
    layout = frames.layout
    config = MlpConfig.for_input(layout.feature_width + layout.mask_width,
                                 hidden=(64, 32), learning_rate=1e-2,
                                 epochs=40, seed=0)
    model, history = _train(frames, config)
    assert min(h[2] for h in history) <= 0.5
