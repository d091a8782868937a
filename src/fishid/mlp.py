"""Single-hidden-layer perceptron trained online with momentum.

The per-sample error is e = 1/2 * sum_k (d_k - y_k)^2 and each weight moves
by delta(t+1) = -eta * de/dw + alpha * delta(t). Training stops when the mean
epoch error changes by less than ``epsilon`` between consecutive epochs, or
at ``max_epochs``. Everything is deterministic given the config seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
import warnings

import numpy as np

from .errors import (
    BadArchitecture,
    DimensionMismatch,
    EmptyTrainingSet,
    InvalidConfig,
    NonFiniteError,
)

ACTIVATION = "sigmoid"


@dataclass(frozen=True)
class TrainConfig:
    eta: float = 0.3  # learning rate
    alpha: float = 0.9  # momentum factor
    epsilon: float = 1e-6  # epoch-mean-error delta stop threshold
    max_epochs: int = 500
    seed: int = 0
    init_scale: float = 0.5

    def __post_init__(self):
        if not self.eta > 0:  # NaN fails too
            raise InvalidConfig("eta must be > 0")
        if not 0.0 <= self.alpha < 1.0:
            raise InvalidConfig("alpha must be in [0, 1)")
        if not self.epsilon > 0:
            raise InvalidConfig("epsilon must be > 0")
        if self.max_epochs < 1:
            raise InvalidConfig("max_epochs must be >= 1")
        if self.seed < 0:
            raise InvalidConfig("seed must be >= 0")
        if not self.init_scale > 0:
            raise InvalidConfig("init_scale must be > 0")


@dataclass
class TrainingSample:
    x: np.ndarray
    target: np.ndarray


@dataclass
class MlpModel:
    layer_sizes: tuple[int, int, int]
    weights: list[np.ndarray]  # [(hidden, in+1), (out, hidden+1)], bias last
    momentum: list[np.ndarray]


@dataclass
class TrainReport:
    epochs: int
    final_error: float
    trace: list[float] = field(default_factory=list)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function in place, ``z <- 1 / (1 + exp(-z))``; callers
    ignore the overflow that saturates a very negative ``z`` to 0."""
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def init(layer_sizes, cfg: TrainConfig) -> MlpModel:
    """Build a model with uniform [-init_scale, init_scale] weights drawn
    from a PCG64 generator seeded by ``cfg.seed``; momentum starts at zero."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) != 3 or any(s < 1 for s in sizes):
        raise BadArchitecture(f"layer sizes must be three positive ints, got {sizes}")
    n_in, n_hidden, n_out = sizes
    if n_hidden > 3 * n_in:
        warnings.warn(
            f"hidden layer ({n_hidden}) exceeds three times the input layer "
            f"({n_in}); generalization tends to suffer",
            stacklevel=2,
        )
    rng = np.random.default_rng(cfg.seed)
    shapes = [(n_hidden, n_in + 1), (n_out, n_hidden + 1)]
    weights = [rng.uniform(-cfg.init_scale, cfg.init_scale, s) for s in shapes]
    momentum = [np.zeros(s) for s in shapes]
    return MlpModel(sizes, weights, momentum)


def _forward(model: MlpModel, xb: np.ndarray, hb: np.ndarray) -> np.ndarray:
    """Output for the bias-augmented input ``xb``; leaves the hidden layer
    in ``hb[:-1]`` (``hb[-1]`` is the hidden bias input, 1.0)."""
    # ndarray.dot takes the same BLAS call as @ with less per-call overhead
    model.weights[0].dot(xb, out=hb[:-1])
    _sigmoid(hb[:-1])
    return _sigmoid(model.weights[1].dot(hb))


def forward(model: MlpModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.layer_sizes[0],):
        raise DimensionMismatch(
            f"input length {x.shape} does not match {model.layer_sizes[0]} inputs"
        )
    with np.errstate(over="ignore"):
        return _forward(model, np.append(x, 1.0), np.ones(model.layer_sizes[1] + 1))


def sample_error(target, output) -> float:
    d = np.asarray(target, dtype=np.float64)
    y = np.asarray(output, dtype=np.float64)
    if d.shape != y.shape:
        raise DimensionMismatch(f"target {d.shape} vs output {y.shape}")
    return _error(d, y)


def _error(d: np.ndarray, y: np.ndarray) -> float:
    r = d - y
    return 0.5 * float(r.dot(r))


class _Buffers:
    """Storage each gradient evaluation overwrites: the bias-augmented
    hidden layer and the gradient ``[g1, g2]``. ``back`` views the output
    weights without their bias column, transposed; it stays current because
    every update writes the weights in place."""

    def __init__(self, model: MlpModel):
        n_hidden = model.layer_sizes[1]
        self.hidden = np.ones(n_hidden + 1)
        self.grads = [np.empty_like(w) for w in model.weights]
        self.back = model.weights[1][:, :n_hidden].T


def _gradient(model: MlpModel, xb: np.ndarray, d: np.ndarray, buf: _Buffers) -> np.ndarray:
    """Output at the bias-augmented input ``xb``; fills ``buf.grads`` with
    the gradient of the error against target ``d``."""
    out = _forward(model, xb, buf.hidden)
    hidden = buf.hidden[:-1]
    delta_out = (out - d) * out * (1.0 - out)
    delta_hidden = (buf.back @ delta_out) * hidden * (1.0 - hidden)
    # np.outer's own broadcast product, written into the buffers
    np.multiply(delta_out[:, np.newaxis], buf.hidden, out=buf.grads[1])
    np.multiply(delta_hidden[:, np.newaxis], xb, out=buf.grads[0])
    return out


def _momentum_step(model: MlpModel, gradient, cfg: TrainConfig, steps) -> None:
    """``m <- alpha * m + (-eta) * g`` and ``w <- w + m`` per layer, in place;
    ``steps`` receives the ``(-eta) * g`` terms. Addition commutes, so ``m``
    gets the bytes of ``-eta * g + alpha * m``."""
    for w, m, g, step in zip(model.weights, model.momentum, gradient, steps):
        np.multiply(g, -cfg.eta, out=step)
        m *= cfg.alpha
        m += step
        w += m


def backward(model: MlpModel, sample: TrainingSample):
    """Exact gradient of the per-sample error; does not mutate the model."""
    x = np.asarray(sample.x, dtype=np.float64)
    d = np.asarray(sample.target, dtype=np.float64)
    if x.shape != (model.layer_sizes[0],):
        raise DimensionMismatch("sample input does not match the input layer")
    if d.shape != (model.layer_sizes[2],):
        raise DimensionMismatch("sample target does not match the output layer")
    buf = _Buffers(model)
    with np.errstate(over="ignore"):
        _gradient(model, np.append(x, 1.0), d, buf)
    return buf.grads


def update_weights(model: MlpModel, gradient, cfg: TrainConfig) -> None:
    """Momentum step: delta = -eta * g + alpha * previous delta, in place;
    ``model.momentum`` holds delta and ``gradient`` is left unchanged."""
    if len(gradient) != len(model.weights):
        raise DimensionMismatch("gradient layer count differs from the model")
    for layer, g in enumerate(gradient):
        if g.shape != model.weights[layer].shape:
            raise DimensionMismatch(
                f"gradient shape {g.shape} vs weights {model.weights[layer].shape}"
            )
    _momentum_step(model, gradient, cfg, [np.empty_like(w) for w in model.weights])


def train(model: MlpModel, samples, cfg: TrainConfig) -> TrainReport:
    """Online training: shuffle, then forward/backward/update per sample.

    The per-sample error entering the epoch mean is measured before that
    sample's update. Raises :class:`NonFiniteError` if any error diverges.
    """
    samples = list(samples)
    if not samples:
        raise EmptyTrainingSet("no training samples")
    xs = [np.asarray(s.x, dtype=np.float64) for s in samples]
    ds = [np.asarray(s.target, dtype=np.float64) for s in samples]
    for x, d in zip(xs, ds):
        if x.shape != (model.layer_sizes[0],) or d.shape != (model.layer_sizes[2],):
            raise DimensionMismatch("sample does not match the model architecture")
    xbs = [np.append(x, 1.0) for x in xs]
    buf = _Buffers(model)
    steps = [np.empty_like(w) for w in model.weights]
    rng = np.random.default_rng(cfg.seed)
    trace: list[float] = []
    with np.errstate(over="ignore"):
        for _ in range(cfg.max_epochs):
            order = rng.permutation(len(samples))
            total = 0.0
            for i in order:
                err = _error(ds[i], _gradient(model, xbs[i], ds[i], buf))
                if not math.isfinite(err):
                    raise NonFiniteError(f"sample error diverged to {err}")
                total += err
                _momentum_step(model, buf.grads, cfg, steps)
            trace.append(total / len(samples))
            if len(trace) >= 2 and abs(trace[-2] - trace[-1]) < cfg.epsilon:
                break
    return TrainReport(len(trace), trace[-1], trace)
