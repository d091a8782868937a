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
        if not 0 < self.eta < math.inf:  # NaN fails too
            raise InvalidConfig("eta must be finite and > 0")
        if not 0.0 <= self.alpha < 1.0:
            raise InvalidConfig("alpha must be in [0, 1)")
        if not self.epsilon > 0:
            raise InvalidConfig("epsilon must be > 0")
        if self.max_epochs < 1:
            raise InvalidConfig("max_epochs must be >= 1")
        if self.seed < 0:
            raise InvalidConfig("seed must be >= 0")
        if not 0 < 2 * self.init_scale < math.inf:
            raise InvalidConfig("init_scale must be > 0 with 2 * init_scale finite")


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


def _forward(w0, w1, xb: np.ndarray, hb: np.ndarray, out=None) -> np.ndarray:
    """Output for the bias-augmented input ``xb``, into ``out`` if given;
    leaves the hidden layer in ``hb[:-1]`` (``hb[-1]`` is the hidden bias input, 1.0)."""
    # ndarray.dot takes the same BLAS call as @ with less per-call overhead
    _sigmoid(w0.dot(xb, out=hb[:-1]))
    return _sigmoid(w1.dot(hb, out=out))


def forward(model: MlpModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.layer_sizes[0],):
        raise DimensionMismatch(
            f"input length {x.shape} does not match {model.layer_sizes[0]} inputs"
        )
    with np.errstate(over="ignore"):
        return _forward(*model.weights, np.append(x, 1.0), np.ones(model.layer_sizes[1] + 1))


def sample_error(target, output) -> float:
    d = np.asarray(target, dtype=np.float64)
    y = np.asarray(output, dtype=np.float64)
    if d.shape != y.shape:
        raise DimensionMismatch(f"target {d.shape} vs output {y.shape}")
    r = d - y
    return 0.5 * float(r.dot(r))


def _flat(arrays):
    """A flat float64 copy of the two layers' ``arrays``, and its per-layer views."""
    buf = np.concatenate([a.ravel() for a in arrays])
    return buf, [b.reshape(a.shape) for a, b in zip(arrays, np.split(buf, [arrays[0].size]))]


class _Net:
    """The per-sample gradient at ``w0``, ``w1`` (updated in place between calls), into
    one flat buffer ``g`` with views ``g0``, ``g1``; every temporary is preallocated."""

    def __init__(self, w0: np.ndarray, w1: np.ndarray):
        self.w0, self.w1, n_hidden = w0, w1, w0.shape[0]
        self.g, (self.g0, self.g1) = _flat([np.empty_like(w0), np.empty_like(w1)])
        self.back = w1[:, :n_hidden].T  # a view: the in-place updates keep it current
        self.hb, (self.d_hid, self.t_hid) = np.ones(n_hidden + 1), np.empty((2, n_hidden))
        self.out, self.r, self.d_out = np.empty((3, w1.shape[0]))

    def gradient(self, xb: np.ndarray, d: np.ndarray) -> float:
        """Fill ``g`` at the bias-augmented input ``xb`` and target ``d``; return the error."""
        out, r, d_out, d_hid, hidden = self.out, self.r, self.d_out, self.d_hid, self.hb[:-1]
        _forward(self.w0, self.w1, xb, self.hb, out)
        np.subtract(out, d, out=r)
        err = 0.5 * float(r.dot(r))  # negation is exact: the bytes of (d - out).(d - out)
        np.multiply(r, out, out=d_out)
        d_out *= np.subtract(1.0, out, out=r)  # r is spent
        # @, not .dot, on the transposed view: .dot takes another BLAS kernel
        # there, and the last bits of the weights would change
        np.matmul(self.back, d_out, out=d_hid)
        d_hid *= hidden
        d_hid *= np.subtract(1.0, hidden, out=self.t_hid)
        # np.outer's own broadcast product, written into the buffers
        np.multiply(d_out[:, None], self.hb, out=self.g1)
        np.multiply(d_hid[:, None], xb, out=self.g0)
        return err


def _momentum_step(w, m, g, step, cfg: TrainConfig) -> None:
    """In place: ``m <- alpha * m + (-eta) * g`` (``step`` gets the second term), ``w <- w + m``;
    on one layer or on flat buffers. Addition commutes: the bytes of ``-eta * g + alpha * m``."""
    np.multiply(g, -cfg.eta, out=step)
    m *= cfg.alpha
    m += step
    w += m


def _checked(model: MlpModel, sample: TrainingSample):
    """``(xb, d)``: the sample's bias-augmented float64 input and its float64 target."""
    x = np.asarray(sample.x, dtype=np.float64)
    d = np.asarray(sample.target, dtype=np.float64)
    if x.shape != (model.layer_sizes[0],) or d.shape != (model.layer_sizes[2],):
        raise DimensionMismatch("sample does not match the model architecture")
    return np.append(x, 1.0), d


def backward(model: MlpModel, sample: TrainingSample):
    """Exact gradient of the per-sample error; does not mutate the model."""
    net = _Net(*model.weights)
    with np.errstate(over="ignore"):
        net.gradient(*_checked(model, sample))
    return [net.g0, net.g1]


def update_weights(model: MlpModel, gradient, cfg: TrainConfig) -> None:
    """Momentum step: delta = -eta * g + alpha * previous delta, in place;
    ``model.momentum`` holds delta and ``gradient`` is left unchanged."""
    shapes = [[a.shape for a in arrays] for arrays in (gradient, model.weights)]
    if shapes[0] != shapes[1]:
        raise DimensionMismatch(f"gradient shapes {shapes[0]} vs weights {shapes[1]}")
    for w, m, g in zip(model.weights, model.momentum, gradient):
        _momentum_step(w, m, g, np.empty_like(w), cfg)


def train(model: MlpModel, samples, cfg: TrainConfig) -> TrainReport:
    """Online training: shuffle, then forward/backward/update per sample.

    The per-sample error entering the epoch mean is measured before that
    sample's update. Raises :class:`NonFiniteError` if any error diverges.
    """
    samples = list(samples)
    if not samples:
        raise EmptyTrainingSet("no training samples")
    pairs = [_checked(model, s) for s in samples]
    (w, (w0, w1)), (m, (m0, m1)) = _flat(model.weights), _flat(model.momentum)
    net, step = _Net(w0, w1), np.empty_like(w)
    rng = np.random.default_rng(cfg.seed)
    trace: list[float] = []
    try:
        with np.errstate(over="ignore"):
            for _ in range(cfg.max_epochs):
                total = 0.0
                for i in rng.permutation(len(samples)).tolist():
                    err = net.gradient(*pairs[i])
                    if not math.isfinite(err):
                        raise NonFiniteError(f"sample error diverged to {err}")
                    total += err
                    _momentum_step(w, m, net.g, step, cfg)
                trace.append(total / len(samples))
                if len(trace) >= 2 and abs(trace[-2] - trace[-1]) < cfg.epsilon:
                    break
    finally:  # the model's own arrays hold the last state, also after an error
        for dst, src in zip(model.weights + model.momentum, (w0, w1, m0, m1)):
            dst[...] = src
    return TrainReport(len(trace), trace[-1], trace)
