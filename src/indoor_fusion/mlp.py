"""Small dense position-regression network, written against numpy only.

Float64 end to end so the analytic gradients can be checked against central
finite differences to tight tolerance.  One configuration: tanh hidden
layers, minibatch Adam on mean squared position error, feature
normalization frozen from the training split and the best-so-far weights
(by held-out median position error) restored at the end.
``train_arrays`` takes the (X, y) matrices of ``frames_to_arrays``:
features with the mask bits appended.  A model's estimates are the (N, 2)
array ``Mlp.forward`` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, Divergence, InsufficientData, TooFewFrames

DEFAULT_HIDDEN = (256, 128, 64)


@dataclass(frozen=True)
class MlpConfig:
    """Architecture and optimization settings; layer_sizes includes the
    input width and the fixed 2-wide (x, y) output."""

    layer_sizes: tuple[int, ...]
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    epochs: int = 60
    batch_size: int = 64
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        if len(self.layer_sizes) < 3:
            raise ValueError("need at least one hidden layer: (input, hidden..., 2)")
        if self.layer_sizes[-1] != 2:
            raise ValueError(f"output layer must be 2-wide, got {self.layer_sizes[-1]}")
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError("layer sizes must be >= 1")
        if self.learning_rate < 0 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("learning_rate must be >= 0; epochs, batch_size >= 1")

    @classmethod
    def for_input(cls, input_dim: int, hidden: tuple[int, ...] = DEFAULT_HIDDEN,
                  **kwargs) -> "MlpConfig":
        return cls(layer_sizes=(input_dim, *hidden, 2), **kwargs)


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic shuffled train/test partition rule."""

    train_fraction: float = 0.9
    shuffle_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), "
                             f"got {self.train_fraction}")


def split_dataset(data, spec: SplitSpec = SplitSpec()):
    """Shuffle by seed, take the first train_fraction as train, rest as test.

    ``data`` is anything with ``len`` and ``take(rows)``: Frames, or a 1-D
    array such as the row indices of a stream.  Both parts keep the
    shuffled order.  Exact partition: no overlap, union equals the input
    multiset.
    """
    if len(data) < 10:
        raise TooFewFrames(f"need >= 10 frames to split, got {len(data)}")
    perm = np.random.default_rng(spec.shuffle_seed).permutation(len(data))
    n_train = min(max(int(round(len(data) * spec.train_fraction)), 1), len(data) - 1)
    return data.take(perm[:n_train]), data.take(perm[n_train:])


class Mlp:
    """Fully connected tanh net mapping a feature vector to an (x, y) estimate."""

    def __init__(self, config: MlpConfig, rng: np.random.Generator | None = None):
        self.config = config
        sizes = config.layer_sizes
        self.x_mean = np.zeros(sizes[0])
        self.x_std = np.ones(sizes[0])
        rng = rng or np.random.default_rng(config.seed)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            self.weights.append(rng.normal(0.0, math.sqrt(1.0 / fan_in),
                                           size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    @property
    def input_dim(self) -> int:
        return self.config.layer_sizes[0]

    def set_normalization(self, x: np.ndarray) -> None:
        """Freeze per-feature standardization from (training) data.

        Raises Divergence where a feature's spread overflows float64 (an
        overflowing mean makes it non-finite too).
        """
        x = np.atleast_2d(x)
        with np.errstate(over="ignore", invalid="ignore"):  # caught below
            mean, std = x.mean(axis=0), x.std(axis=0)
        bad = np.count_nonzero(~np.isfinite(std))
        if bad:
            raise Divergence(f"the spread of {bad} of {x.shape[1]} input features "
                             f"overflows float64")
        self.x_mean = mean
        self.x_std = np.maximum(std, 1e-8)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.input_dim:
            raise DimensionMismatch(f"input has {x.shape[1]} features, "
                                    f"model expects {self.input_dim}")
        a = x - self.x_mean  # normalized in place: one temporary
        a /= self.x_std
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = np.tanh(a @ w + b)
        return a @ self.weights[-1] + self.biases[-1]

    def loss_and_grad(self, x: np.ndarray, y: np.ndarray,
                      ) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
        """MSE = mean over the batch of squared position error, plus its
        gradients by backpropagation (shapes mirror the parameters)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        if len(x) == 0:
            raise InsufficientData("empty batch")
        if len(x) != len(y):
            raise DimensionMismatch(f"{len(x)} inputs vs {len(y)} targets")
        n = len(x)
        norm = x - self.x_mean
        norm /= self.x_std
        acts: list[np.ndarray] = [norm]
        a = norm
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = np.tanh(a @ w + b)
            acts.append(a)
        pred = a @ self.weights[-1] + self.biases[-1]

        diff = pred - y
        loss = float(np.sum(diff * diff) / n)
        delta = 2.0 * diff / n
        grad_w = [np.empty(0)] * len(self.weights)
        grad_b = [np.empty(0)] * len(self.biases)
        grad_w[-1] = acts[-1].T @ delta
        grad_b[-1] = delta.sum(axis=0)
        for layer in range(len(self.weights) - 2, -1, -1):
            a = acts[layer + 1]
            delta = (delta @ self.weights[layer + 1].T) * (1.0 - a * a)  # tanh'
            grad_w[layer] = acts[layer].T @ delta
            grad_b[layer] = delta.sum(axis=0)
        return loss, grad_w, grad_b

    def clone_weights(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        return [w.copy() for w in self.weights], [b.copy() for b in self.biases]


# ---------------------------------------------------------------------------
# Training

def median_position_error(model: Mlp, x: np.ndarray, y: np.ndarray) -> float:
    """Held-out median position error, as ``np.median`` takes it.

    This is the history's ``test_median_m`` and selects the best epoch.  For
    an even count it averages the two middle errors, so it is not the
    report's ``p50_m``, which takes the lower one (nearest rank): on the
    same frames seed 7 ``nn:uwb`` reads 3.2824 m here and 3.2766 m there.
    """
    pred = model.forward(x)
    return float(np.median(np.hypot(pred[:, 0] - y[:, 0], pred[:, 1] - y[:, 1])))


# Floats per Adam slice: 256 KiB of scratch, which stays in cache while the
# slice's eleven passes run over it, where one sized for the largest weight
# is 1.4 MB at input width 677.
_ADAM_SLICE = 1 << 15


def train_arrays(x_train: np.ndarray, y_train: np.ndarray,
                 x_test: np.ndarray, y_test: np.ndarray,
                 config: MlpConfig) -> tuple[Mlp, list[tuple[int, float, float]]]:
    """Inner optimization loop over already-stacked arrays.

    History rows are (epoch, train mse, test median error m).  Raises
    Divergence (carrying the history so far) on non-finite loss.
    """
    x_train = np.atleast_2d(np.asarray(x_train, dtype=np.float64))
    y_train = np.atleast_2d(np.asarray(y_train, dtype=np.float64))
    if len(x_train) == 0:
        raise InsufficientData("empty training set")
    if x_train.shape[1] != config.layer_sizes[0]:
        raise DimensionMismatch(f"frames have {x_train.shape[1]} features, "
                                f"config expects {config.layer_sizes[0]}")
    rng = np.random.default_rng(config.seed)
    model = Mlp(config, rng=rng)
    model.set_normalization(x_train)

    # updated in place until the best snapshot replaces them; Adam walks each
    # parameter in slices that fit a small scratch, and its divisor reuses
    # the gradient, which is spent by then
    params = model.weights + model.biases
    adam_m, adam_v = ([np.zeros_like(p) for p in params] for _ in range(2))
    scratch = np.empty(_ADAM_SLICE)
    lr, b1, b2 = config.learning_rate, config.beta1, config.beta2
    step = 0
    history: list[tuple[int, float, float]] = []
    best_err = math.inf
    best_snapshot = model.clone_weights()  # overwritten in place on each improvement
    stale = 0

    for epoch in range(config.epochs):
        perm = rng.permutation(len(x_train))
        total = 0.0
        for start in range(0, len(perm), config.batch_size):
            idx = perm[start:start + config.batch_size]
            loss, grad_w, grad_b = model.loss_and_grad(x_train[idx], y_train[idx])
            if not math.isfinite(loss):
                raise Divergence(f"non-finite loss at epoch {epoch}", history=history)
            total += loss * len(idx)
            step += 1
            c1, c2 = 1.0 - b1 ** step, 1.0 - b2 ** step  # bias corrections
            for whole in zip(params, grad_w + grad_b, adam_m, adam_v):
                flat = [x.reshape(-1) for x in whole]  # views: all four are contiguous
                for lo in range(0, flat[0].size, _ADAM_SLICE):
                    p, g, m, v = (x[lo:lo + _ADAM_SLICE] for x in flat)
                    a = scratch[:g.size]
                    m *= b1
                    m += np.multiply(1.0 - b1, g, out=a)
                    v *= b2
                    np.multiply(1.0 - b2, g, out=a)
                    v += np.multiply(a, g, out=a)
                    np.divide(m, c1, out=a)
                    np.sqrt(np.divide(v, c2, out=g), out=g)
                    g += config.adam_eps
                    a *= lr
                    a /= g
                    p -= a
            del grad_w, grad_b  # spent: not held while the next batch's are computed
        train_mse = total / len(x_train)
        test_err = median_position_error(model, x_test, y_test) if len(x_test) \
            else math.nan
        history.append((epoch, train_mse, test_err))
        if len(x_test) and test_err < best_err:
            best_err = test_err
            for best, current in zip(best_snapshot[0] + best_snapshot[1], params):
                np.copyto(best, current)
            stale = 0
        else:
            stale += 1
            if len(x_test) and stale >= config.patience:
                break
    if len(x_test):  # without a held-out set the final weights stand
        model.weights, model.biases = best_snapshot
    return model, history


# ---------------------------------------------------------------------------
# Gradient verification

def gradient_check(model: Mlp, x: np.ndarray, y: np.ndarray,
                   epsilon: float = 1e-5, samples: int | None = None,
                   rng: np.random.Generator | None = None) -> float:
    """Max |analytic - central difference|, normalized by the largest
    gradient magnitude.  ``samples`` limits the check to that many randomly
    chosen parameters (all parameters when None)."""
    _, grad_w, grad_b = model.loss_and_grad(x, y)
    analytic = np.concatenate([g.ravel() for g in grad_w + grad_b])
    flats = [w.ravel() for w in model.weights] + [b.ravel() for b in model.biases]
    offsets = np.cumsum([0] + [f.size for f in flats])

    total = offsets[-1]
    if samples is None or samples >= total:
        indices = np.arange(total)
    else:
        rng = rng or np.random.default_rng(0)
        indices = rng.choice(total, size=samples, replace=False)

    scale = max(float(np.max(np.abs(analytic))), 1e-12)
    worst = 0.0
    for global_i in indices:
        layer = int(np.searchsorted(offsets, global_i, side="right")) - 1
        flat = flats[layer]
        i = int(global_i - offsets[layer])
        original = flat[i]
        flat[i] = original + epsilon
        up, *_ = model.loss_and_grad(x, y)
        flat[i] = original - epsilon
        down, *_ = model.loss_and_grad(x, y)
        flat[i] = original
        numeric = (up - down) / (2.0 * epsilon)
        worst = max(worst, abs(analytic[global_i] - numeric) / scale)
    return worst
