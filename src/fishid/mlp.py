"""Single-hidden-layer perceptron trained online with momentum.

The per-sample error is e = 1/2 * sum_k (d_k - y_k)^2 and each weight moves
by delta(t+1) = -eta * de/dw + alpha * delta(t). Training stops when the mean
epoch error changes by less than ``epsilon`` between consecutive epochs, or
at ``max_epochs``. Everything is deterministic given the config seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    activation: str = ACTIVATION


@dataclass
class TrainReport:
    epochs: int
    final_error: float
    trace: list[float] = field(default_factory=list)


def _sigmoid(z):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


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


def _forward_full(model: MlpModel, x: np.ndarray):
    hidden = _sigmoid(model.weights[0] @ np.append(x, 1.0))
    out = _sigmoid(model.weights[1] @ np.append(hidden, 1.0))
    return hidden, out


def forward(model: MlpModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.layer_sizes[0],):
        raise DimensionMismatch(
            f"input length {x.shape} does not match {model.layer_sizes[0]} inputs"
        )
    return _forward_full(model, x)[1]


def sample_error(target, output) -> float:
    d = np.asarray(target, dtype=np.float64)
    y = np.asarray(output, dtype=np.float64)
    if d.shape != y.shape:
        raise DimensionMismatch(f"target {d.shape} vs output {y.shape}")
    r = d - y
    return 0.5 * float(r @ r)


def _gradient(model: MlpModel, x: np.ndarray, d: np.ndarray):
    """Output and per-layer gradient ``[g1, g2]`` of the error at (x, d)."""
    hidden, out = _forward_full(model, x)
    delta_out = (out - d) * out * (1.0 - out)
    n_hidden = model.layer_sizes[1]
    delta_hidden = (model.weights[1][:, :n_hidden].T @ delta_out) * hidden * (1.0 - hidden)
    g2 = np.outer(delta_out, np.append(hidden, 1.0))
    g1 = np.outer(delta_hidden, np.append(x, 1.0))
    return out, [g1, g2]


def backward(model: MlpModel, sample: TrainingSample):
    """Exact gradient of the per-sample error; does not mutate the model."""
    x = np.asarray(sample.x, dtype=np.float64)
    d = np.asarray(sample.target, dtype=np.float64)
    if x.shape != (model.layer_sizes[0],):
        raise DimensionMismatch("sample input does not match the input layer")
    if d.shape != (model.layer_sizes[2],):
        raise DimensionMismatch("sample target does not match the output layer")
    return _gradient(model, x, d)[1]


def update_weights(model: MlpModel, gradient, cfg: TrainConfig) -> None:
    """Momentum step: delta = -eta * g + alpha * previous delta, in place."""
    if len(gradient) != len(model.weights):
        raise DimensionMismatch("gradient layer count differs from the model")
    for layer, g in enumerate(gradient):
        if g.shape != model.weights[layer].shape:
            raise DimensionMismatch(
                f"gradient shape {g.shape} vs weights {model.weights[layer].shape}"
            )
        delta = -cfg.eta * g + cfg.alpha * model.momentum[layer]
        model.weights[layer] += delta
        model.momentum[layer] = delta


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
    rng = np.random.default_rng(cfg.seed)
    trace: list[float] = []
    for _ in range(cfg.max_epochs):
        order = rng.permutation(len(samples))
        total = 0.0
        for i in order:
            out, gradient = _gradient(model, xs[i], ds[i])
            err = sample_error(ds[i], out)
            if not np.isfinite(err):
                raise NonFiniteError(f"sample error diverged to {err}")
            total += err
            update_weights(model, gradient, cfg)
        trace.append(total / len(samples))
        if len(trace) >= 2 and abs(trace[-2] - trace[-1]) < cfg.epsilon:
            break
    return TrainReport(len(trace), trace[-1], trace)
