import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fishid import mlp
from fishid.errors import (
    BadArchitecture,
    DimensionMismatch,
    EmptyTrainingSet,
    NonFiniteError,
)
from fishid.mlp import TrainConfig, TrainingSample


def zeroed(sizes):
    model = mlp.init(sizes, TrainConfig(seed=0))
    for w in model.weights:
        w[:] = 0.0
    return model


# Reference for mlp.train: the same float operations, written per layer, with
# per-layer gradient buffers and a per-layer momentum loop. train must give its
# bytes, so a drift shared by train, backward and update_weights shows here.
def _forward(model, xb, hb):
    model.weights[0].dot(xb, out=hb[:-1])
    mlp._sigmoid(hb[:-1])
    return mlp._sigmoid(model.weights[1].dot(hb))


def _error(d, y):
    r = d - y
    return 0.5 * float(r.dot(r))


class _Buffers:
    def __init__(self, model):
        n_hidden = model.layer_sizes[1]
        self.hidden = np.ones(n_hidden + 1)
        self.grads = [np.empty_like(w) for w in model.weights]
        self.back = model.weights[1][:, :n_hidden].T


def _gradient(model, xb, d, buf):
    out = _forward(model, xb, buf.hidden)
    hidden = buf.hidden[:-1]
    delta_out = (out - d) * out * (1.0 - out)
    delta_hidden = (buf.back @ delta_out) * hidden * (1.0 - hidden)
    np.multiply(delta_out[:, np.newaxis], buf.hidden, out=buf.grads[1])
    np.multiply(delta_hidden[:, np.newaxis], xb, out=buf.grads[0])
    return out


def _momentum_step(model, gradient, cfg, steps):
    for w, m, g, step in zip(model.weights, model.momentum, gradient, steps):
        np.multiply(g, -cfg.eta, out=step)
        m *= cfg.alpha
        m += step
        w += m


def reference_train(model, samples, cfg):
    ds = [np.asarray(s.target, dtype=np.float64) for s in samples]
    xbs = [np.append(np.asarray(s.x, dtype=np.float64), 1.0) for s in samples]
    buf = _Buffers(model)
    steps = [np.empty_like(w) for w in model.weights]
    rng = np.random.default_rng(cfg.seed)
    trace = []
    with np.errstate(over="ignore"):
        for _ in range(cfg.max_epochs):
            order = rng.permutation(len(samples))
            total = 0.0
            for i in order:
                total += _error(ds[i], _gradient(model, xbs[i], ds[i], buf))
                _momentum_step(model, buf.grads, cfg, steps)
            trace.append(total / len(samples))
            if len(trace) >= 2 and abs(trace[-2] - trace[-1]) < cfg.epsilon:
                break
    return trace


class TestInit:
    def test_same_seed_bit_identical(self):
        cfg = TrainConfig(seed=77)
        m1 = mlp.init((47, 16, 7), cfg)
        m2 = mlp.init((47, 16, 7), cfg)
        for a, b in zip(m1.weights, m2.weights):
            assert np.array_equal(a, b)

    def test_shapes_include_bias_column(self):
        m = mlp.init((47, 24, 7), TrainConfig(seed=0))
        assert m.weights[0].shape == (24, 48)
        assert m.weights[1].shape == (7, 25)
        assert all(np.all(mom == 0) for mom in m.momentum)

    def test_oversized_hidden_layer_warns(self):
        with pytest.warns(UserWarning):
            mlp.init((2, 7, 2), TrainConfig(seed=0))

    def test_zero_hidden_rejected(self):
        with pytest.raises(BadArchitecture):
            mlp.init((47, 0, 7), TrainConfig(seed=0))

    def test_wrong_layer_count_rejected(self):
        with pytest.raises(BadArchitecture):
            mlp.init((47, 16, 8, 7), TrainConfig(seed=0))


class TestForward:
    def test_zero_weights_give_half(self):
        m = zeroed((5, 3, 2))
        out = mlp.forward(m, np.zeros(5))
        assert np.all(out == 0.5)

    def test_dimension_mismatch(self):
        m = zeroed((5, 3, 2))
        with pytest.raises(DimensionMismatch):
            mlp.forward(m, np.zeros(4))

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_outputs_in_open_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        m = mlp.init((6, 4, 3), TrainConfig(seed=seed % 1000, init_scale=2.0))
        out = mlp.forward(m, rng.uniform(-5, 5, 6))
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_thousand_random_inputs_stay_in_range(self):
        m = mlp.init((6, 4, 3), TrainConfig(seed=2, init_scale=1.5))
        rng = np.random.default_rng(10)
        for _ in range(1000):
            out = mlp.forward(m, rng.uniform(-10, 10, 6))
            assert np.all(out > 0.0) and np.all(out < 1.0)


class TestSampleError:
    def test_perfect_prediction(self):
        assert mlp.sample_error((1.0, 0.0), (1.0, 0.0)) == 0.0

    def test_formula_value(self):
        # float64 value of 1/2 ((1-0.8)^2 + (0-0.2)^2); the decimal literals
        # for 0.8 and 0.2 land it one ulp below 0.04
        e = mlp.sample_error((1.0, 0.0), (0.8, 0.2))
        assert e == 0.5 * ((1.0 - 0.8) ** 2 + (0.0 - 0.2) ** 2)
        assert abs(e - 0.04) <= np.spacing(0.04)

    def test_opposite_one_hot(self):
        assert mlp.sample_error((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mlp.sample_error((1.0,), (0.5, 0.5))


class TestBackward:
    def test_hand_case_1_1_1(self):
        # all-zero 1-1-1 net, d=1, x=1: hidden=0.5, out=0.5,
        # output delta = (0.5-1)*0.5*0.5 = -0.125
        m = zeroed((1, 1, 1))
        g = mlp.backward(m, TrainingSample(np.array([1.0]), np.array([1.0])))
        assert g[1][0, 0] == -0.0625  # output weight: delta * hidden
        assert g[1][0, 1] == -0.125  # output bias: delta * 1
        assert np.all(g[0] == 0.0)  # hidden grads vanish (zero outgoing weight)

    def test_zero_residual_gives_zero_gradient(self):
        m = mlp.init((4, 3, 2), TrainConfig(seed=1))
        x = np.array([0.1, 0.5, 0.9, 0.3])
        d = mlp.forward(m, x)  # targets equal to outputs: zero residual
        g = mlp.backward(m, TrainingSample(x, d))
        assert all(np.all(layer == 0.0) for layer in g)

    def test_matches_finite_differences(self):
        cfg = TrainConfig(seed=5)
        model = mlp.init((6, 5, 3), cfg)
        rng = np.random.default_rng(8)
        h = 1e-5
        for _ in range(3):
            x = rng.uniform(0, 1, 6)
            d = np.zeros(3)
            d[rng.integers(0, 3)] = 1.0
            analytic = mlp.backward(model, TrainingSample(x, d))
            for layer in range(2):
                W = model.weights[layer]
                num = np.zeros_like(W)
                for i in range(W.shape[0]):
                    for j in range(W.shape[1]):
                        orig = W[i, j]
                        W[i, j] = orig + h
                        ep = mlp.sample_error(d, mlp.forward(model, x))
                        W[i, j] = orig - h
                        em = mlp.sample_error(d, mlp.forward(model, x))
                        W[i, j] = orig
                        num[i, j] = (ep - em) / (2 * h)
                assert np.abs(analytic[layer] - num).max() < 1e-9

    def test_pure_no_mutation(self):
        m = mlp.init((3, 2, 2), TrainConfig(seed=4))
        before = [w.copy() for w in m.weights]
        mlp.backward(m, TrainingSample(np.ones(3), np.array([1.0, 0.0])))
        assert all(np.array_equal(a, b) for a, b in zip(before, m.weights))


class TestUpdateWeights:
    def test_exact_momentum_step(self):
        m = zeroed((1, 1, 1))
        for mom in m.momentum:
            mom[:] = 0.02
        grads = [np.full_like(w, 0.5) for w in m.weights]
        mlp.update_weights(m, grads, TrainConfig(eta=0.1, alpha=0.9, seed=0))
        assert m.momentum[0][0, 0] == -0.032
        assert m.weights[0][0, 0] == -0.032

    def test_zero_momentum_is_plain_descent(self):
        m = zeroed((2, 2, 1))
        grads = [np.full_like(w, 0.25) for w in m.weights]
        mlp.update_weights(m, grads, TrainConfig(eta=0.4, alpha=0.0, seed=0))
        assert np.all(m.weights[0] == -0.1)

    def test_constant_gradient_telescopes(self):
        cfg = TrainConfig(eta=0.1, alpha=0.5, seed=0)
        m = zeroed((1, 1, 1))
        grads = [np.ones_like(w) for w in m.weights]
        for t in range(1, 51):
            mlp.update_weights(m, grads, cfg)
            expected = -0.1 * (1 - 0.5**t) / (1 - 0.5)
            assert abs(m.momentum[0][0, 0] - expected) < 1e-12

    def test_shape_mismatch(self):
        m = zeroed((2, 2, 1))
        with pytest.raises(DimensionMismatch):
            mlp.update_weights(m, [np.zeros((1, 1)), np.zeros((1, 3))], TrainConfig(seed=0))


class TestTrain:
    def samples(self):
        xs = [np.array([0.0, 0.0]), np.array([1.0, 1.0])]
        ds = [np.array([0.0]), np.array([1.0])]
        return [TrainingSample(x, d) for x, d in zip(xs, ds)]

    def test_huge_epsilon_stops_after_two_epochs(self):
        m = mlp.init((2, 2, 1), TrainConfig(seed=0))
        report = mlp.train(m, self.samples(), TrainConfig(seed=0, epsilon=1e9, max_epochs=50))
        assert report.epochs == 2
        assert len(report.trace) == 2

    def test_max_epochs_one(self):
        m = mlp.init((2, 2, 1), TrainConfig(seed=0))
        report = mlp.train(m, self.samples(), TrainConfig(seed=0, max_epochs=1))
        assert report.epochs == 1
        assert report.final_error == report.trace[0]

    def test_one_step_matches_backward_then_update(self):
        cfg = TrainConfig(seed=9, max_epochs=1)
        sample = TrainingSample(np.array([0.3, 0.9]), np.array([1.0, 0.0]))
        trained = mlp.init((2, 3, 2), cfg)
        mlp.train(trained, [sample], cfg)
        stepped = mlp.init((2, 3, 2), cfg)
        mlp.update_weights(stepped, mlp.backward(stepped, sample), cfg)
        for a, b in zip(trained.weights + trained.momentum, stepped.weights + stepped.momentum):
            assert a.tobytes() == b.tobytes()

    def test_matches_hand_written_loop(self):
        # several samples over several epochs, so a buffer that carried
        # state from one sample-step into the next would change the bytes
        cfg = TrainConfig(seed=4, max_epochs=4, epsilon=1e-12)
        rng = np.random.default_rng(12)
        samples = [
            TrainingSample(rng.uniform(-1, 1, 5), np.eye(3)[k % 3]) for k in range(7)
        ]
        trained = mlp.init((5, 4, 3), cfg)
        report = mlp.train(trained, samples, cfg)
        looped = mlp.init((5, 4, 3), cfg)
        order_rng = np.random.default_rng(cfg.seed)
        trace = []
        for _ in range(cfg.max_epochs):
            total = 0.0
            for i in order_rng.permutation(len(samples)):
                s = samples[i]
                total += mlp.sample_error(s.target, mlp.forward(looped, s.x))
                gradient = mlp.backward(looped, s)
                before = [g.copy() for g in gradient]
                mlp.update_weights(looped, gradient, cfg)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(before, gradient))
            trace.append(total / len(samples))
        assert report.epochs == cfg.max_epochs
        assert np.array(report.trace).tobytes() == np.array(trace).tobytes()
        for a, b in zip(trained.weights + trained.momentum, looped.weights + looped.momentum):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("sizes", [(2, 3, 2), (5, 4, 3), (47, 24, 7)],
                             ids=["2-3-2", "5-4-3", "47-24-7"])
    def test_matches_reference_step(self, sizes):
        """Byte-equal weights, momentum and error trace against the per-layer
        reference loop above, over several epochs of several samples."""
        cfg = TrainConfig(seed=sum(sizes), max_epochs=6, epsilon=1e-12)
        rng = np.random.default_rng(sizes[0])
        samples = [TrainingSample(rng.uniform(0, 1, sizes[0]), np.eye(sizes[2])[k % sizes[2]])
                   for k in range(3 * sizes[2])]
        trained = mlp.init(sizes, cfg)
        report = mlp.train(trained, samples, cfg)
        reference = mlp.init(sizes, cfg)
        trace = reference_train(reference, samples, cfg)
        assert np.array(report.trace).tobytes() == np.array(trace).tobytes()
        for a, b in zip(trained.weights + trained.momentum,
                        reference.weights + reference.momentum):
            assert a.tobytes() == b.tobytes()

    def test_non_finite_error_leaves_the_last_state_in_the_model(self):
        """The model's own arrays hold the weights and momentum of the steps
        taken before the error diverged."""
        cfg = TrainConfig(seed=2, max_epochs=3)
        good = TrainingSample(np.array([0.2, 0.7]), np.array([1.0]))
        bad = TrainingSample(np.array([np.nan, 0.0]), np.array([1.0]))
        trained = mlp.init((2, 2, 1), cfg)
        arrays = trained.weights + trained.momentum
        with pytest.raises(NonFiniteError):
            mlp.train(trained, [good] * 3 + [bad], cfg)
        assert all(a is b for a, b in zip(arrays, trained.weights + trained.momentum))
        order = np.random.default_rng(cfg.seed).permutation(4).tolist()
        stepped = mlp.init((2, 2, 1), cfg)
        for i in order[: order.index(3)]:
            mlp.update_weights(stepped, mlp.backward(stepped, good), cfg)
        for a, b in zip(trained.weights + trained.momentum, stepped.weights + stepped.momentum):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("x, d", [([0.5], [1.0]), ([0.5, 0.5], [])],
                             ids=["short-x", "short-target"])
    def test_train_and_backward_reject_a_wrong_sample_alike(self, x, d):
        cfg = TrainConfig(seed=0)
        m = mlp.init((2, 2, 1), cfg)
        sample = TrainingSample(np.array(x), np.array(d))
        with pytest.raises(DimensionMismatch) as by_backward:
            mlp.backward(m, sample)
        with pytest.raises(DimensionMismatch) as by_train:
            mlp.train(m, [sample], cfg)
        assert str(by_train.value) == str(by_backward.value)

    def test_empty_training_set(self):
        m = mlp.init((2, 2, 1), TrainConfig(seed=0))
        with pytest.raises(EmptyTrainingSet):
            mlp.train(m, [], TrainConfig(seed=0))

    def test_non_finite_guard(self):
        m = mlp.init((2, 2, 1), TrainConfig(seed=0))
        bad = [TrainingSample(np.array([np.nan, 0.0]), np.array([1.0]))]
        with pytest.raises(NonFiniteError):
            mlp.train(m, bad, TrainConfig(seed=0))

    def test_deterministic_given_seed(self):
        cfg = TrainConfig(seed=21, max_epochs=40)
        m1 = mlp.init((2, 3, 1), cfg)
        r1 = mlp.train(m1, self.samples(), cfg)
        m2 = mlp.init((2, 3, 1), cfg)
        r2 = mlp.train(m2, self.samples(), cfg)
        assert r1.trace == r2.trace
        assert all(np.array_equal(a, b) for a, b in zip(m1.weights, m2.weights))

    def test_first_online_step_descends(self):
        # alpha=0 and tiny eta: the first update must not increase the error
        # on the sample it was computed from
        cfg = TrainConfig(eta=1e-3, alpha=0.0, seed=13, max_epochs=1)
        m = mlp.init((3, 4, 2), cfg)
        x = np.array([0.2, 0.8, 0.5])
        d = np.array([1.0, 0.0])
        before = mlp.sample_error(d, mlp.forward(m, x))
        g = mlp.backward(m, TrainingSample(x, d))
        mlp.update_weights(m, g, cfg)
        after = mlp.sample_error(d, mlp.forward(m, x))
        assert after <= before

