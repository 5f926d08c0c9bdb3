import numpy as np
import pytest

from fedslice.errors import ConfigError, NumericError
from fedslice.nn import (
    ModelParams,
    NetworkSpec,
    _layer_views,
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


def reference_param_gradients(layer_sizes, values, x, y):
    """2-D backprop of the batch-mean squared error in the (fan, B) orientation.

    Activations are (fan, B); bias gradients are delta.sum(axis=1).
    """
    layers, offset = [], 0
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        w = values[offset:offset + n_in * n_out].reshape(n_in, n_out)
        offset += n_in * n_out
        layers.append((w, values[offset:offset + n_out]))
        offset += n_out
    inputs, zs = [], []
    a = x.T
    for i, (w, b) in enumerate(layers):
        inputs.append(a)
        zs.append(w.T @ a + b[:, None])
        a = zs[-1] if i == len(layers) - 1 else np.maximum(zs[-1], 0.0)
    delta = ((2.0 / y.shape[0]) * (zs[-1][0] - y))[None, :]
    chunks = []
    for i in range(len(layers) - 1, -1, -1):
        chunks[:0] = [(inputs[i] @ delta.T).reshape(-1), delta.sum(axis=1)]
        if i > 0:
            delta = (layers[i][0] @ delta) * (zs[i - 1] > 0.0)
    return np.concatenate(chunks)


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
    return train_clients([params], [features], [targets], epochs, **kwargs)[0]


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
    ws, bs = _layer_views(params.values, params.spec, 1)
    for w, b in zip(ws[:-1], bs[:-1]):
        z = a @ w[0] + b[0, 0]
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

    # A parameter vector, batch or stack that does not fit its spec is a
    # program fault that no input reaches: a ValueError, not a ConfigError,
    # which the CLI reports as bad input.
    def test_params_length_checked(self):
        with pytest.raises(ValueError) as info:
            ModelParams(np.zeros(22), NetworkSpec())
        assert not isinstance(info.value, ConfigError)


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

    def test_dimension_mismatch_is_value_error(self):
        p = ModelParams(np.zeros(23), NetworkSpec())
        with pytest.raises(ValueError) as info:
            forward_batch(p, np.zeros((2, 4)))
        assert not isinstance(info.value, ConfigError)

    @pytest.mark.parametrize("fault, match", [
        (lambda: ModelParams(np.zeros((1, 23)), NetworkSpec()), "one-dimensional"),
        (lambda: pack(NetworkSpec((3, 1)), [(np.zeros((2, 1)), np.zeros(1))]), "layer arrays"),
        (lambda: param_gradients(ModelParams(np.zeros(23), NetworkSpec()), np.zeros((2, 3)),
                                 np.zeros(3)), "2 rows but 3 targets"),
    ])
    def test_shape_faults_are_value_errors(self, fault, match):
        with pytest.raises(ValueError, match=match) as info:
            fault()
        assert not isinstance(info.value, ConfigError)

    def test_batch_agrees_with_scalar(self, rng):
        p = init_params(NetworkSpec(), rng)
        xs = rng.uniform(0, 1, (20, 3))
        batch = forward_batch(p, xs)
        # Equal to rounding only: BLAS may sum a row differently at another batch size.
        assert np.allclose(batch, np.array([predict(p, x) for x in xs]), rtol=0, atol=1e-12)


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


    def test_bitwise_equal_to_two_dimensional_backprop(self, rng):
        # The stacked kernel sums bias gradients over the contiguous batch axis,
        # as delta.sum(axis=1) does on one (fan, B) network; numpy's reduction
        # order is what this pins down, for width-1 and wider layers alike.
        for _ in range(40):
            hidden = rng.integers(1, 9, size=int(rng.integers(1, 4)))
            layer_sizes = (3, *(int(h) for h in hidden), 1)
            spec = NetworkSpec(layer_sizes)
            p = ModelParams(rng.normal(0, 0.8, spec.param_count), spec)
            for batch in (1, 2, 32, 50, 800):
                xs = rng.uniform(0, 1, (batch, 3))
                ys = rng.uniform(0, 1, batch)
                expected = reference_param_gradients(layer_sizes, p.values, xs, ys)
                assert param_gradients(p, xs, ys).tobytes() == expected.tobytes(), layer_sizes


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
        assert np.allclose(batch, singles, rtol=0, atol=1e-12)


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
        with pytest.raises(ValueError, match="feature dimension") as info:
            train_one(p, np.zeros((4, 2)), np.zeros(4), epochs=1)
        assert not isinstance(info.value, ConfigError)

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


class TestTrainClients:
    def test_lockstep_matches_individual_training(self, rng):
        # A width-1 layer shows, in the last bit, any dependence of the BLAS
        # row sums on how many clients share the stack. Each client starts
        # from its own model, as clients of different federations do.
        # Batch size 1 and the 1-row tail of 48 rows in batches of 47 take
        # other BLAS paths than full batches.
        feats = [rng.uniform(0, 1, (48, 3)) for _ in range(3)]
        targs = [rng.uniform(0, 1, 48) for _ in range(3)]

        def shuffles():
            return [np.random.default_rng(seed) for seed in (21, 22, 23)]

        for layer_sizes in ((3, 3, 2, 1), (3, 1, 1), (3, 8, 8, 4, 1)):
            starts = [init_params(NetworkSpec(layer_sizes), seed) for seed in (11, 12, 13)]
            for batch_size in (16, 1, 47, None):
                together = train_clients(starts, feats, targs, epochs=4, batch_size=batch_size,
                                         shuffle_rngs=shuffles())
                alone = [train_clients([p], [f], [t], epochs=4, batch_size=batch_size,
                                       shuffle_rngs=[rng_k])[0]
                         for p, f, t, rng_k in zip(starts, feats, targs, shuffles())]
                for a, b in zip(together, alone):
                    assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("layer_sizes", [(3, 3, 2, 1), (3, 1, 1)])
    @pytest.mark.parametrize("batch_size", [16, None])
    def test_shared_streams_train_as_each_client_alone(self, rng, layer_sizes, batch_size):
        # Four clients from their own models over two streams, one of them
        # shared by three clients: each returns, byte for byte, what it
        # returns alone. 50 rows in batches of 16 leave a 2-row tail.
        feats = [rng.uniform(0, 1, (50, 3)) for _ in range(2)]
        targs = [rng.uniform(0, 1, 50) for _ in range(2)]
        starts = [init_params(NetworkSpec(layer_sizes), seed) for seed in (11, 12, 13, 14)]
        streams = [1, 0, 1, 1]

        def shuffles():
            return [np.random.default_rng(seed) for seed in (31, 32)]

        together = train_clients(starts, feats, targs, 4, batch_size=batch_size,
                                 shuffle_rngs=shuffles(), streams=streams)
        assert len(together) == 4
        for p, d, got in zip(starts, streams, together):
            alone = train_clients([p], [feats[d]], [targs[d]], 4, batch_size=batch_size,
                                  shuffle_rngs=[shuffles()[d]])[0]
            assert got.values.tobytes() == alone.values.tobytes()

    @pytest.mark.parametrize("streams, n_shuffles", [
        ([0, 0], 2), ([0, 2], 2), ([0, 1, 1], 2), ([1], 2), ([-1, 1], 2), ([1, 0], 1)])
    def test_every_client_has_one_stream_and_every_stream_a_client(self, rng, streams,
                                                                   n_shuffles):
        p = init_params(NetworkSpec(), 3)
        feats = [rng.uniform(0, 1, (8, 3)) for _ in range(2)]
        targs = [rng.uniform(0, 1, 8) for _ in range(2)]
        with pytest.raises(ValueError, match="stream index per client"):
            train_clients([p, p], feats, targs, 1, batch_size=4, streams=streams,
                          shuffle_rngs=[np.random.default_rng(k) for k in range(n_shuffles)])

    def test_non_finite_gradient_names_the_clients_at_fault(self, rng):
        # Clients 1 and 3 of five overflow on the first step; the rest stay finite.
        p = init_params(NetworkSpec(), 3)
        feats = [rng.uniform(0, 1, (8, 3)) for _ in range(5)]
        for k in (1, 3):
            feats[k] = np.full((8, 3), 1e300)
        targs = [rng.uniform(0, 1, 8) for _ in range(5)]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="non-finite gradient") as info:
                train_clients([p] * 5, feats, targs, 1)
        assert info.value.clients == (1, 3)

    def test_start_model_per_client_required(self, rng):
        p = init_params(NetworkSpec(), 3)
        feats = [rng.uniform(0, 1, (8, 3)) for _ in range(2)]
        targs = [rng.uniform(0, 1, 8) for _ in range(2)]
        with pytest.raises(ValueError, match="start model"):
            train_clients([p], feats, targs, 1)
        with pytest.raises(ValueError, match="network spec") as info:
            train_clients([p, init_params(NetworkSpec((3, 4, 1)), 3)], feats, targs, 1)
        assert not isinstance(info.value, ConfigError)

    def test_shuffled_minibatches_are_seeded(self, rng):
        p = init_params(NetworkSpec(), 11)
        feats = [rng.uniform(0, 1, (48, 3))]
        targs = [rng.uniform(0, 1, 48)]
        a = train_clients([p], feats, targs, 3, batch_size=16,
                          shuffle_rngs=[np.random.default_rng(9)])
        b = train_clients([p], feats, targs, 3, batch_size=16,
                          shuffle_rngs=[np.random.default_rng(9)])
        c = train_clients([p], feats, targs, 3, batch_size=16,
                          shuffle_rngs=[np.random.default_rng(10)])
        assert np.array_equal(a[0].values, b[0].values)
        assert not np.array_equal(a[0].values, c[0].values)

    def test_shuffled_minibatches_equal_reference_loop(self, rng):
        # 50 rows in batches of 16 leave a 2-row tail batch every epoch.
        p = init_params(NetworkSpec(), 11)
        feats = [rng.uniform(0, 1, (50, 3)) for _ in range(3)]
        targs = [rng.uniform(0, 1, 50) for _ in range(3)]
        trained = train_clients([p] * 3, feats, targs, 4, batch_size=16,
                                shuffle_rngs=[np.random.default_rng(s) for s in (3, 4, 5)])
        for seed, xs, ys, got in zip((3, 4, 5), feats, targs, trained):
            shuffle = np.random.default_rng(seed)
            expected = p
            state = (np.zeros(23), np.zeros(23), 0)
            for _ in range(4):
                order = shuffle.permutation(50)
                for start in range(0, 50, 16):
                    rows = order[start:start + 16]
                    grads = param_gradients(expected, xs[rows], ys[rows])
                    values, state = reference_adam(expected.values, grads, state)
                    expected = ModelParams(values, p.spec)
            assert state[2] == 16
            assert np.array_equal(got.values, expected.values)

    def test_unequal_row_counts_are_listed(self, rng):
        p = init_params(NetworkSpec(), 11)
        feats = [rng.uniform(0, 1, (n, 3)) for n in (48, 47, 48)]
        targs = [rng.uniform(0, 1, f.shape[0]) for f in feats]
        with pytest.raises(ValueError, match=r"\[48, 47, 48\]"):
            train_clients([p] * 3, feats, targs, 1)


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
