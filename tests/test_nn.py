import numpy as np
import pytest

from fedslice.errors import ConfigError, NumericError
from fedslice.nn import (
    ModelParams,
    NetworkSpec,
    _unpack,
    forward_batch,
    init_params,
    input_gradients_batch,
    pack,
    param_gradients,
    train_clients,
)


def reference_forward(layer_sizes, values, x):
    """Independent dense-layer evaluation with plain Python loops."""
    a = [float(v) for v in x]
    offset = 0
    n_layers = len(layer_sizes) - 1
    for li in range(n_layers):
        n_in, n_out = layer_sizes[li], layer_sizes[li + 1]
        z = []
        for j in range(n_out):
            total = sum(a[i] * values[offset + i * n_out + j] for i in range(n_in))
            z.append(total + values[offset + n_in * n_out + j])
        offset += n_in * n_out + n_out
        a = z if li == n_layers - 1 else [max(v, 0.0) for v in z]
    return a[0]


def reference_adam(values, grads, state, learning_rate=0.0015,
                   beta1=0.9, beta2=0.999, epsilon=1e-8):
    """One bias-corrected Adam update on a flat vector; state is (m, v, t)."""
    m, v, t = state
    t += 1
    m = beta1 * m + (1.0 - beta1) * grads
    v = beta2 * v + (1.0 - beta2) * grads * grads
    values = values - learning_rate * (m / (1.0 - beta1 ** t)) / (
        np.sqrt(v / (1.0 - beta2 ** t)) + epsilon)
    return values, (m, v, t)


def train_one(params, features, targets, epochs, **kwargs):
    """Train a single client through the lockstep trainer."""
    return train_clients(params, [features], [targets], epochs, **kwargs)[0]


def predict(params, x):
    """Scalar prediction for one feature vector."""
    return float(forward_batch(params, np.asarray(x, dtype=np.float64)[None, :])[0])


def input_gradient(params, x):
    """d(prediction)/d(input) for one feature vector."""
    return input_gradients_batch(params, np.asarray(x, dtype=np.float64)[None, :])[0]


def central_differences(f, x, h=1e-5):
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.shape[0]):
        hi = np.zeros_like(x)
        hi[i] = h
        grad[i] = (f(x + hi) - f(x - hi)) / (2.0 * h)
    return grad


def near_relu_kink(params, x, threshold=1e-4):
    """True when any hidden pre-activation sits close enough to 0 to break FD."""
    a = np.asarray(x, dtype=np.float64)
    for w, b in _unpack(params)[:-1]:
        z = a @ w + b
        if np.any(np.abs(z) < threshold):
            return True
        a = np.maximum(z, 0.0)
    return False


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return np.max(np.abs(a - b) / denom)


class TestNetworkSpec:
    def test_default_has_23_parameters(self):
        assert NetworkSpec().param_count == 23

    def test_rejects_single_layer(self):
        with pytest.raises(ConfigError):
            NetworkSpec((3,))

    def test_rejects_zero_width(self):
        with pytest.raises(ConfigError):
            NetworkSpec((3, 0, 1))

    def test_rejects_wide_output(self):
        with pytest.raises(ConfigError):
            NetworkSpec((3, 3, 2))

    def test_params_length_checked(self):
        with pytest.raises(ConfigError):
            ModelParams(np.zeros(22), NetworkSpec())


class TestForward:
    def test_zero_params_predict_zero(self, rng):
        p = ModelParams(np.zeros(23), NetworkSpec())
        for _ in range(5):
            assert predict(p, rng.uniform(-2, 2, 3)) == 0.0

    def test_identity_passthrough(self):
        # 1-1-1 net, unit weights, zero biases: relu(0.5) then identity.
        p = ModelParams(np.array([1.0, 0.0, 1.0, 0.0]), NetworkSpec((1, 1, 1)))
        assert predict(p, np.array([0.5])) == 0.5

    def test_matches_reference_oracle(self, rng):
        spec = NetworkSpec()
        for _ in range(50):
            p = ModelParams(rng.normal(0, 1, 23), spec)
            x = rng.uniform(-1, 1, 3)
            expected = reference_forward(spec.layer_sizes, p.values, x)
            assert predict(p, x) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch_is_config_error(self):
        p = ModelParams(np.zeros(23), NetworkSpec())
        with pytest.raises(ConfigError):
            forward_batch(p, np.zeros((2, 4)))

    def test_batch_agrees_with_scalar(self, rng):
        p = init_params(NetworkSpec(), rng)
        xs = rng.uniform(0, 1, (20, 3))
        batch = forward_batch(p, xs)
        assert np.array_equal(batch, np.array([predict(p, x) for x in xs]))


class TestParamGradients:
    def test_zero_at_loss_minimum(self, rng):
        p = ModelParams(np.zeros(23), NetworkSpec())
        g = param_gradients(p, rng.uniform(0, 1, (6, 3)), np.zeros(6))
        assert np.array_equal(g, np.zeros(23))

    def test_single_linear_neuron_analytic(self):
        # 1-1 net is y = w*x + b; d/dw (wx+b-t)^2 = 2(wx+b-t)x.
        w, b, x, t = 1.5, -0.25, 0.8, 2.0
        p = ModelParams(np.array([w, b]), NetworkSpec((1, 1)))
        g = param_gradients(p, np.array([[x]]), np.array([t]))
        residual = w * x + b - t
        assert g[0] == pytest.approx(2.0 * residual * x, rel=1e-12)
        assert g[1] == pytest.approx(2.0 * residual, rel=1e-12)

    def test_empty_batch_rejected(self):
        p = ModelParams(np.zeros(23), NetworkSpec())
        with pytest.raises(ValueError):
            param_gradients(p, np.zeros((0, 3)), np.zeros(0))

    def test_matches_finite_differences(self, rng):
        spec = NetworkSpec()
        checked = 0
        while checked < 25:
            p = ModelParams(rng.normal(0, 0.8, 23), spec)
            xs = rng.uniform(0, 1, (4, 3))
            ys = rng.uniform(0, 1, 4)
            if any(near_relu_kink(p, x) for x in xs):
                continue
            analytic = param_gradients(p, xs, ys)

            def loss(theta):
                q = ModelParams(theta, spec)
                pred = forward_batch(q, xs)
                return float(np.mean((pred - ys) ** 2))

            numeric = central_differences(loss, p.values)
            assert rel_err(analytic, numeric) <= 1e-4
            checked += 1


class TestInputGradients:
    def test_zero_params_constant_function(self, rng):
        p = ModelParams(np.zeros(23), NetworkSpec())
        assert np.array_equal(input_gradient(p, rng.uniform(0, 1, 3)), np.zeros(3))

    def test_linear_network_returns_weights(self, rng):
        # Single affine layer: gradient is exactly the weight vector.
        w = rng.normal(0, 1, 3)
        p = pack(NetworkSpec((3, 1)), [(w[:, None], np.array([0.3]))])
        g = input_gradient(p, rng.uniform(0, 1, 3))
        assert np.allclose(g, w, rtol=0, atol=1e-15)

    def test_matches_finite_differences(self, rng):
        spec = NetworkSpec()
        checked = 0
        while checked < 25:
            p = ModelParams(rng.normal(0, 0.8, 23), spec)
            x = rng.uniform(0, 1, 3)
            if near_relu_kink(p, x):
                continue
            analytic = input_gradient(p, x)
            numeric = central_differences(lambda v: predict(p, v), x)
            assert rel_err(analytic, numeric) <= 1e-4
            checked += 1

    def test_batch_rows_are_independent(self, rng):
        p = init_params(NetworkSpec(), rng)
        xs = rng.uniform(0, 1, (10, 3))
        batch = input_gradients_batch(p, xs)
        singles = np.array([input_gradient(p, x) for x in xs])
        assert np.array_equal(batch, singles)


class TestAdam:
    """The trainer's Adam update, observed through single-client training."""

    def test_zero_gradient_leaves_params(self, rng):
        p = ModelParams(np.full(23, 0.5), NetworkSpec())
        xs = rng.uniform(0, 1, (8, 3))
        q = train_one(p, xs, forward_batch(p, xs), epochs=1)
        assert np.array_equal(p.values, q.values)

    def test_first_step_magnitude_is_learning_rate(self):
        # 1-1 net at w = b = 0 on x = 0.001, t = 2: gradients (-0.004, -4)
        # differ 1000-fold, yet both parameters move by the learning rate.
        p = ModelParams(np.zeros(2), NetworkSpec((1, 1)))
        q = train_one(p, np.array([[0.001]]), np.array([2.0]), epochs=1, learning_rate=0.01)
        assert np.allclose(q.values, 0.01, rtol=1e-5)

    def test_non_finite_gradient_raises(self, rng):
        p = init_params(NetworkSpec(), 3)
        xs = np.full((4, 3), 1e300)
        with pytest.raises(NumericError, match="non-finite gradient"):
            with np.errstate(over="ignore", invalid="ignore"):
                train_one(p, xs, rng.uniform(0, 1, 4), epochs=1)

    def test_length_mismatch_rejected(self):
        p = ModelParams(np.zeros(23), NetworkSpec())
        with pytest.raises(ConfigError):
            train_one(p, np.zeros((4, 2)), np.zeros(4), epochs=1)

    def test_converges_on_quadratic(self):
        # With x = 0 the 1-1 net predicts its bias, so the loss is (b - 3)^2;
        # compared against a hand-rolled scalar Adam after 200 steps.
        p = ModelParams(np.array([0.0, 0.0]), NetworkSpec((1, 1)))
        q = train_one(p, np.array([[0.0]]), np.array([3.0]), epochs=200, learning_rate=0.1)

        theta = 0.0
        m = v = 0.0
        b1, b2, eps = 0.9, 0.999, 1e-8
        for t in range(1, 201):
            g = 2.0 * (theta - 3.0)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= 0.1 * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        assert q.values[0] == 0.0
        assert abs(q.values[1] - 3.0) <= 0.05
        assert q.values[1] == pytest.approx(theta, abs=1e-12)


class TestTrainLocal:
    """Local training of one client."""

    def test_zero_targets_zero_params_stay_zero(self, rng):
        p = ModelParams(np.zeros(23), NetworkSpec())
        q = train_one(p, rng.uniform(0, 1, (30, 3)), np.zeros(30), epochs=10)
        assert np.array_equal(q.values, np.zeros(23))

    def test_training_reduces_mse(self, rng):
        p = init_params(NetworkSpec(), 42)
        xs = rng.uniform(0, 1, (200, 3))
        ys = 0.3 * xs[:, 0] + 0.5 * xs[:, 1] + 0.1
        before = float(np.mean((forward_batch(p, xs) - ys) ** 2))
        q = train_one(p, xs, ys, epochs=150, batch_size=32,
                      shuffle_rngs=[np.random.default_rng(1)])
        after = float(np.mean((forward_batch(q, xs) - ys) ** 2))
        assert after < before

    def test_bit_identical_reruns(self, rng):
        p = init_params(NetworkSpec(), 7)
        xs = rng.uniform(0, 1, (64, 3))
        ys = rng.uniform(0, 1, 64)
        a = train_one(p, xs, ys, epochs=4, batch_size=16,
                      shuffle_rngs=[np.random.default_rng(5)])
        b = train_one(p, xs, ys, epochs=4, batch_size=16,
                      shuffle_rngs=[np.random.default_rng(5)])
        assert np.array_equal(a.values, b.values)

    def test_full_batch_equals_public_op_composition(self, rng):
        p = init_params(NetworkSpec(), 7)
        xs = rng.uniform(0, 1, (40, 3))
        ys = rng.uniform(0, 1, 40)
        fused = train_one(p, xs, ys, epochs=5)
        composed = p
        state = (np.zeros(23), np.zeros(23), 0)
        for _ in range(5):
            values, state = reference_adam(composed.values, param_gradients(composed, xs, ys),
                                           state)
            composed = ModelParams(values, p.spec)
        assert np.array_equal(fused.values, composed.values)

    def test_epochs_must_be_positive(self, rng):
        p = init_params(NetworkSpec(), 7)
        with pytest.raises(ValueError):
            train_one(p, rng.uniform(0, 1, (4, 3)), np.zeros(4), epochs=0)


class TestTrainClients:
    def test_lockstep_matches_individual_training(self, rng):
        p = init_params(NetworkSpec(), 11)
        feats = [rng.uniform(0, 1, (48, 3)) for _ in range(3)]
        targs = [rng.uniform(0, 1, 48) for _ in range(3)]
        together = train_clients(p, feats, targs, epochs=4, batch_size=16)
        alone = [train_clients(p, [f], [t], epochs=4, batch_size=16)[0]
                 for f, t in zip(feats, targs)]
        for a, b in zip(together, alone):
            assert np.array_equal(a.values, b.values)

    def test_shuffled_minibatches_are_seeded(self, rng):
        p = init_params(NetworkSpec(), 11)
        feats = [rng.uniform(0, 1, (48, 3))]
        targs = [rng.uniform(0, 1, 48)]
        a = train_clients(p, feats, targs, 3, batch_size=16,
                          shuffle_rngs=[np.random.default_rng(9)])
        b = train_clients(p, feats, targs, 3, batch_size=16,
                          shuffle_rngs=[np.random.default_rng(9)])
        c = train_clients(p, feats, targs, 3, batch_size=16,
                          shuffle_rngs=[np.random.default_rng(10)])
        assert np.array_equal(a[0].values, b[0].values)
        assert not np.array_equal(a[0].values, c[0].values)


class TestInit:
    def test_same_seed_same_params(self):
        a = init_params(NetworkSpec(), 42)
        b = init_params(NetworkSpec(), 42)
        assert np.array_equal(a.values, b.values)

    def test_biases_zero_and_weights_bounded(self):
        spec = NetworkSpec()
        p = init_params(spec, 1234)
        offset = 0
        for n_in, n_out in spec.layer_shapes():
            w = p.values[offset:offset + n_in * n_out]
            offset += n_in * n_out
            b = p.values[offset:offset + n_out]
            offset += n_out
            limit = np.sqrt(6.0 / (n_in + n_out))
            assert np.all(np.abs(w) <= limit)
            assert np.array_equal(b, np.zeros(n_out))
