"""Small dense position-regression network, written against numpy only.

Float64 end to end so the analytic gradients can be checked against central
finite differences to tight tolerance.  One configuration: tanh hidden
layers, minibatch Adam on mean squared position error, feature
normalization frozen from the training split and the best-so-far weights
(by held-out median position error) restored at the end.  A training holds
four parameter vectors (weights, Adam's moments, the best snapshot), the
gradients past the first weight matrix and two Adam slices: the first
layer's gradient is computed a slice at a time, just before its update.
``train_arrays`` reads its input X, features with the mask bits appended,
a batch at a time from ``ingest.FrameRows`` or an array, and normalizes it
in steps.  A model's estimates are the (N, 2) array ``Mlp.forward`` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, Divergence, InsufficientData, TooFewFrames
from .ingest import _GATHER_ROWS

DEFAULT_HIDDEN = (256, 128, 64)
ADAM_BETAS = (0.9, 0.999)  # decay rates of Adam's first and second moments
ADAM_FLOOR = 1e-8          # added to Adam's divisor, its epsilon
STALE_EPOCHS = 10          # epochs without a better held-out error that stop a training
FD_STEP = 1e-5             # gradient_check's central-difference step


@dataclass(frozen=True)
class MlpConfig:
    """Architecture and optimization settings; layer_sizes includes the
    input width and the fixed 2-wide (x, y) output."""

    layer_sizes: tuple[int, ...]
    learning_rate: float = 1e-3
    epochs: int = 60
    batch_size: int = 64
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


def _views(vector: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of ``vector``, one of each shape."""
    ends = np.cumsum([math.prod(s) for s in shapes])
    return [vector[end - math.prod(s):end].reshape(s) for s, end in zip(shapes, ends)]


class Mlp:
    """Fully connected tanh net mapping a feature vector to an (x, y) estimate.
    ``weights`` and ``biases`` are views of ``theta``, weight matrices first."""

    def __init__(self, config: MlpConfig, rng: np.random.Generator | None = None):
        self.config = config
        sizes = config.layer_sizes
        self.x_mean = np.zeros(sizes[0])
        self.x_std = np.ones(sizes[0])
        rng = rng or np.random.default_rng(config.seed)
        self._shapes = [*zip(sizes[:-1], sizes[1:]), *((s,) for s in sizes[1:])]
        self.theta = np.zeros(sum(math.prod(s) for s in self._shapes))
        views = _views(self.theta, self._shapes)
        self.weights, self.biases = views[:len(sizes) - 1], views[len(sizes) - 1:]
        for w in self.weights:
            w[...] = rng.normal(0.0, math.sqrt(1.0 / w.shape[0]), size=w.shape)

    @property
    def input_dim(self) -> int:
        return self.config.layer_sizes[0]

    def set_normalization(self, x) -> None:
        """Freeze per-feature standardization from (training) data, read
        ``_GATHER_ROWS`` rows a step and summed in row order: for an array two
        or more columns wide, ``x.mean(axis=0)`` and ``x.std(axis=0)`` bit for
        bit.  Raises Divergence where a feature's spread overflows float64
        (an overflowing mean makes it non-finite too)."""
        n, steps = len(x), range(0, len(x), _GATHER_ROWS)
        with np.errstate(over="ignore", invalid="ignore"):  # caught below
            total = np.full(x.shape[1], -0.0)  # -0.0: the exact additive identity
            for lo in steps:
                total = np.add.reduce(np.vstack([total[None], x[lo:lo + _GATHER_ROWS]]), axis=0)
            mean, total = total / n, np.full(x.shape[1], -0.0)
            for lo in steps:  # no step's array is held while the next is gathered
                total = np.add.reduce(np.vstack(
                    [total[None], np.square(x[lo:lo + _GATHER_ROWS] - mean)]), axis=0)
            std = np.sqrt(total / n)
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
                      out: np.ndarray | None = None) -> tuple:
        """MSE = mean over the batch of squared position error, plus its
        gradients by backpropagation (shapes mirror the parameters).  With
        ``out``, laid out as ``theta`` past the first weight matrix, they are
        written into it, and ``(loss, a, delta)`` returns that matrix's
        gradient as the factors of ``a.T @ delta``."""
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
        grads = ([np.empty(s) for s in self._shapes] if out is None
                 else [None, *_views(out, self._shapes[1:])])
        grad_w, grad_b = grads[:len(self.weights)], grads[len(self.weights):]
        for layer in range(len(self.weights) - 1, -1, -1):
            if layer < len(self.weights) - 1:
                a = acts[layer + 1]
                delta = (delta @ self.weights[layer + 1].T) * (1.0 - a * a)  # tanh'
            if grad_w[layer] is not None:
                np.matmul(acts[layer].T, delta, out=grad_w[layer])
            np.sum(delta, axis=0, out=grad_b[layer])
        return (loss, grad_w, grad_b) if out is None else (loss, norm, delta)


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
# slice's eleven passes run over it.  It is 128 rows of a 256-wide first
# weight matrix, whose gradient (1.4 MB at input width 677) is computed one
# slice of whole rows at a time and never held whole.
_ADAM_SLICE = 1 << 15


def _weight_rows(a: np.ndarray, delta: np.ndarray, rows: slice,
                 out: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of the weight gradient ``a.T @ delta``, written into ``out``."""
    return np.matmul(a[:, rows].T, delta, out=out)


def train_arrays(x_train, y_train: np.ndarray,
                 x_test: np.ndarray, y_test: np.ndarray,
                 config: MlpConfig) -> tuple[Mlp, list[tuple[int, float, float]]]:
    """Inner optimization loop over ``x_train``, an array or any row source
    with ``len``, ``shape`` and ``x_train[idx]`` (``ingest.FrameRows``).
    History rows are (epoch, train mse, test median error m); the weights of
    the first epoch with the least test error are kept, and STALE_EPOCHS
    epochs without a better one stop the training.  Raises Divergence
    (carrying the history so far) on non-finite loss, InsufficientData on
    an empty training or test set.
    """
    y_train = np.atleast_2d(np.asarray(y_train, dtype=np.float64))
    if len(x_train) == 0:
        raise InsufficientData("empty training set")
    if x_train.shape[1] != config.layer_sizes[0]:
        raise DimensionMismatch(f"frames have {x_train.shape[1]} features, "
                                f"config expects {config.layer_sizes[0]}")
    if len(x_test) == 0:
        raise InsufficientData("empty test set: it picks the epoch whose weights are kept")
    rng = np.random.default_rng(config.seed)
    model = Mlp(config, rng=rng)
    model.set_normalization(x_train)

    # theta is updated in place until the best snapshot replaces it; Adam
    # walks it in slices, those of the first weight matrix (theta[:first])
    # in whole rows, and each slice's divisor reuses the spent gradient
    theta, width = model.theta, config.layer_sizes[1]
    first, span = config.layer_sizes[0] * width, max(_ADAM_SLICE // width, 1) * width
    slices = [(lo, min(lo + span, end)) for start, end in ((0, first), (first, theta.size))
              for lo in range(start, end, span)]
    grad = np.empty(theta.size - first)  # every gradient but the first weight matrix's
    adam_m, adam_v = np.zeros_like(theta), np.zeros_like(theta)
    scratch, block = np.empty(span), np.empty(span)
    lr, (b1, b2) = config.learning_rate, ADAM_BETAS
    step = 0
    history: list[tuple[int, float, float]] = []
    best_err = math.inf
    best = theta.copy()  # overwritten in place on each improvement
    stale = 0

    for epoch in range(config.epochs):
        perm = rng.permutation(len(x_train))
        total = 0.0
        for start in range(0, len(perm), config.batch_size):
            idx = perm[start:start + config.batch_size]
            loss, a0, delta0 = model.loss_and_grad(x_train[idx], y_train[idx], out=grad)
            if not math.isfinite(loss):
                raise Divergence(f"non-finite loss at epoch {epoch}", history=history)
            total += loss * len(idx)
            step += 1
            c1, c2 = 1.0 - b1 ** step, 1.0 - b2 ** step  # bias corrections
            for lo, hi in slices:
                if hi <= first:  # these rows of the first weight matrix's gradient
                    g = block[:hi - lo]
                    _weight_rows(a0, delta0, slice(lo // width, hi // width),
                                 g.reshape(-1, width))
                else:
                    g = grad[lo - first:hi - first]
                p, m, v, a = theta[lo:hi], adam_m[lo:hi], adam_v[lo:hi], scratch[:hi - lo]
                m *= b1
                m += np.multiply(1.0 - b1, g, out=a)
                v *= b2
                np.multiply(1.0 - b2, g, out=a)
                v += np.multiply(a, g, out=a)
                np.divide(m, c1, out=a)
                np.sqrt(np.divide(v, c2, out=g), out=g)
                g += ADAM_FLOOR
                a *= lr
                a /= g
                p -= a
            del a0, delta0  # spent: not held while the next batch's are computed
        test_err = median_position_error(model, x_test, y_test)
        history.append((epoch, total / len(x_train), test_err))
        if test_err < best_err:
            best_err = test_err
            np.copyto(best, theta)
            stale = 0
        else:
            stale += 1
            if stale >= STALE_EPOCHS:
                break
    np.copyto(theta, best)
    return model, history


# ---------------------------------------------------------------------------
# Gradient verification

def gradient_check(model: Mlp, x: np.ndarray, y: np.ndarray, samples: int | None = None,
                   rng: np.random.Generator | None = None) -> float:
    """Max |analytic - central difference|, normalized by the largest
    gradient magnitude.  ``samples`` limits the check to that many randomly
    chosen parameters (all parameters when None)."""
    _, grad_w, grad_b = model.loss_and_grad(x, y)
    analytic = np.concatenate([g.ravel() for g in grad_w + grad_b])  # theta's layout
    theta = model.theta
    if samples is None or samples >= theta.size:
        indices = np.arange(theta.size)
    else:
        rng = rng or np.random.default_rng(0)
        indices = rng.choice(theta.size, size=samples, replace=False)

    scale = max(float(np.max(np.abs(analytic))), 1e-12)
    worst = 0.0
    for i in indices:
        original = theta[i]
        theta[i] = original + FD_STEP
        up, *_ = model.loss_and_grad(x, y)
        theta[i] = original - FD_STEP
        down, *_ = model.loss_and_grad(x, y)
        theta[i] = original
        numeric = (up - down) / (2.0 * FD_STEP)
        worst = max(worst, abs(analytic[i] - numeric) / scale)
    return worst
