import tracemalloc

import numpy as np
import pytest

from conftest import small_config
from fedslice import attribution
from fedslice.attribution import client_attribution, sample_attributions
from fedslice.errors import ConfigError
from fedslice.federation import ExperimentConfig, build_datasets
from fedslice.nn import (
    ModelParams,
    NetworkSpec,
    _layer_views,
    forward_batch,
    init_params,
    input_gradients_batch,
    pack,
    pre_activations,
)


class FixedPool:
    """Minimal stand-in for a ClientDataset's attribution surface."""

    def __init__(self, features, client_id=0):
        self.features = np.asarray(features, dtype=np.float64)
        self.client_id = client_id

    def attribution_pool(self, count):
        return self.features[:count]


def midpoint_attributions(params, xs, steps):
    """Test-side oracle: IG by the midpoint rule, sample by sample."""
    alphas = (np.arange(steps) + 0.5) / steps
    return np.array([x * input_gradients_batch(params, alphas[:, None] * x).mean(axis=0)
                     for x in xs])


def path_cut_attributions(params, xs):
    """Test-side oracle: exact IG by cutting the path at every hidden sign change.

    Hidden layers are cut in order, each at the zeros interpolated between
    the current cuts, where it is linear; then each piece contributes its
    length times the input gradient at its midpoint.
    """
    n, n_features = xs.shape
    cuts = np.tile([0.0, 1.0], (n, 1))
    for layer in range(len(params.spec.layer_sizes) - 2):
        points = (cuts[:, :, None] * xs[:, None, :]).reshape(-1, n_features)
        z = pre_activations(params, points)[layer].reshape(n, cuts.shape[1], -1)
        z0, z1 = z[:, :-1], z[:, 1:]
        a0, a1 = cuts[:, :-1, None], cuts[:, 1:, None]
        crosses = np.sign(z0) * np.sign(z1) < 0.0
        zeros = np.where(crosses, a0 + (a1 - a0) * z0 / np.where(crosses, z0 - z1, 1.0), 1.0)
        cuts = np.sort(np.concatenate([cuts, zeros.reshape(n, -1)], axis=1), axis=1)
    mids = 0.5 * (cuts[:, :-1] + cuts[:, 1:])
    points = (mids[:, :, None] * xs[:, None, :]).reshape(-1, n_features)
    grads = input_gradients_batch(params, points).reshape(n, -1, n_features)
    return xs * (np.diff(cuts, axis=1)[:, :, None] * grads).sum(axis=1)


def allocating_attributions(params, samples):
    """Test-side oracle: `sample_attributions` with a fresh array for every step.

    The last hidden layer's gate, its size and the first delta each get a new
    (units, pieces, samples) array, in the kernel's expression order, so the
    in-place kernel must equal it to the last bit.
    """
    xs = np.asarray(samples, dtype=np.float64)
    ws, bs = _layer_views(params.values, params.spec, 1)
    ws = [w[0] for w in ws]
    bs = [b[0, 0, :, None, None] for b in bs]
    last = len(ws) - 2
    slope = ws[0].T @ xs.T
    cuts = np.array([[0.0], [1.0]])
    if last > 0:
        bias = bs[0][:, 0]
        zeros = np.ones_like(slope)
        np.divide(-bias, slope, out=zeros, where=np.abs(slope) > np.abs(bias))
        zeros[zeros <= 0.0] = 1.0
        cuts = attribution._merge(cuts, zeros)
    slope = slope[:, None]
    for layer in range(1, last):
        z = attribution._forward(ws, bs, slope, cuts, layer)[1]
        cuts = attribution._merge(cuts, attribution._zeros(cuts, z))
    masks, z = attribution._forward(ws, bs, slope, cuts, last)
    gate = np.maximum(z, 0.0)
    gate = gate[:, :-1] + gate[:, 1:]
    size = np.abs(z)
    size = size[:, :-1] + size[:, 1:]
    gate = np.divide(gate, size, out=gate.copy(), where=size > 0.0)
    gate = gate * np.diff(cuts, axis=0)
    delta = gate * ws[-1][:, :, None]
    for layer in range(last - 1, -1, -1):
        delta = attribution._matmul(ws[layer + 1], delta) * masks[layer]
    return xs * (delta.sum(axis=1).T @ ws[0].T)


def assert_matches_path_cut_oracle(params, xs):
    """Every row within 1e-12 of its largest oracle entry; all-zero rows exactly zero."""
    expected = path_cut_attributions(params, xs)
    scale = np.abs(expected).max(axis=1, keepdims=True)
    assert np.all(np.abs(sample_attributions(params, xs) - expected) <= 1e-12 * scale)


def completeness_residuals(params, xs):
    """|sum of attributions - (f(x) - f(0))| per sample."""
    ig = sample_attributions(params, xs)
    gap = forward_batch(params, xs) - forward_batch(params, np.zeros((1, xs.shape[1])))[0]
    return np.abs(ig.sum(axis=1) - gap)


def one_unit_net(w, b, v, c):
    """3-1-1 net: v * relu(w . x + b) + c."""
    return pack(NetworkSpec((3, 1, 1)), [(np.asarray(w, float)[:, None], np.array([b])),
                                         (np.array([[v]]), np.array([c]))])


class TestIntegratedGradients:
    def test_zero_length_path_gives_zero(self, rng):
        p = init_params(NetworkSpec(), rng)
        ig = sample_attributions(p, np.zeros((1, 3)))
        assert np.array_equal(ig, np.zeros((1, 3)))

    def test_linear_model_is_exact_for_any_step_count(self, rng):
        # The routine and the midpoint oracle at any step count agree on a linear model.
        w = rng.normal(0, 1, 3)
        p = pack(NetworkSpec((3, 1)), [(w[:, None], np.array([0.7]))])
        xs = rng.uniform(0, 1, (4, 3))
        assert np.allclose(sample_attributions(p, xs), w * xs, rtol=0, atol=1e-14)
        for steps in (1, 4, 64):
            assert np.allclose(midpoint_attributions(p, xs, steps), w * xs, rtol=0, atol=1e-14)

    def test_completeness(self, rng):
        for spec in (NetworkSpec(), NetworkSpec((3, 8, 8, 4, 1))):
            for _ in range(20):
                p = ModelParams(rng.normal(0, 0.8, spec.param_count), spec)
                assert completeness_residuals(p, rng.uniform(0, 1, (5, 3))).max() <= 1e-12

    @pytest.mark.parametrize("b, kink", [(-0.2, 0.4), (0.2, 0.4), (-0.45, 0.9), (0.5, 1.0)])
    def test_one_unit_kink_matches_closed_form(self, b, kink):
        # w . x = 0.5 at the sample. The unit's pre-activation along the path is
        # 0.5 * alpha + b, or -0.5 * alpha + b with the weights negated when
        # b > 0, so it changes sign at alpha = |b| / 0.5.
        w = np.array([1.0, -0.5, 2.0])
        x = np.array([[0.4, 0.6, 0.2]])
        sign = -1.0 if b > 0 else 1.0
        p = one_unit_net(sign * w, b, 1.5, 0.1)
        # The gradient is sign * 1.5 * w where the unit is on and 0 where it is off.
        active = 1.0 - kink if b < 0 else kink
        expected = active * 1.5 * sign * w * x
        assert np.allclose(sample_attributions(p, x), expected, rtol=0, atol=1e-15)

    def test_residual_shrinks_as_steps_double(self, rng):
        # The midpoint oracle's error against the exact routine.
        cases = [(ModelParams(rng.normal(0, 0.8, 23), NetworkSpec()), rng.uniform(0, 1, (1, 3)))
                 for _ in range(30)]
        errors = []
        for steps in (4, 16, 64, 256):
            errors.append(np.mean([np.abs(midpoint_attributions(p, xs, steps)
                                          - sample_attributions(p, xs)).max()
                                   for p, xs in cases]))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine < coarse
        assert errors[-1] < 1e-3

    def test_config_validation(self, rng):
        with pytest.raises(ConfigError, match="attribution_samples"):
            ExperimentConfig(attribution_samples=0)
        # A 1-D sample array is a program fault, not bad input.
        with pytest.raises(ValueError, match="2-D") as info:
            sample_attributions(init_params(NetworkSpec(), rng), np.zeros(3))
        assert not isinstance(info.value, ConfigError)


class TestPathCutOracle:
    @pytest.mark.parametrize("layer_sizes", [(3, 1), (3, 4, 1), (3, 3, 2, 1), (3, 8, 8, 4, 1),
                                             (3, 5, 5, 5, 5, 1), (3, 16, 1)])
    def test_random_nets(self, rng, layer_sizes):
        spec = NetworkSpec(layer_sizes)
        for _ in range(10):
            p = ModelParams(rng.normal(0, 0.8, spec.param_count), spec)
            assert_matches_path_cut_oracle(p, rng.uniform(-0.5, 1.0, (40, 3)))

    def test_first_layer_unit_with_zero_weights_and_bias(self, rng):
        # W1^T x = 0 and b = 0: the unit sits at exactly 0 along every path.
        w1 = rng.normal(0, 0.8, (3, 3))
        w1[:, 1] = 0.0
        b1 = rng.normal(0, 0.8, 3)
        b1[1] = 0.0
        p = pack(NetworkSpec(), [(w1, b1), (rng.normal(0, 0.8, (3, 2)), rng.normal(0, 0.8, 2)),
                                 (rng.normal(0, 0.8, (2, 1)), np.zeros(1))])
        assert_matches_path_cut_oracle(p, rng.uniform(0, 1, (20, 3)))

    def test_first_layer_unit_at_zero_along_the_path_but_not_constant(self, rng):
        # Weights (1, -1, 0) and x0 = x1 give W1^T x = 0 exactly, in any rounding,
        # with b = 0: the unit is 0 along the path, off under the strict > rule,
        # though its gradient (1, -1, 0) is not 0.
        w1 = rng.normal(0, 0.8, (3, 3))
        w1[:, 1] = [1.0, -1.0, 0.0]
        b1 = rng.normal(0, 0.8, 3)
        b1[1] = 0.0
        p = pack(NetworkSpec(), [(w1, b1), (rng.normal(0, 0.8, (3, 2)), rng.normal(0, 0.8, 2)),
                                 (rng.normal(0, 0.8, (2, 1)), np.zeros(1))])
        xs = rng.uniform(0, 1, (20, 3))
        xs[:, 1] = xs[:, 0]
        assert_matches_path_cut_oracle(p, xs)

    def test_last_hidden_unit_exactly_zero_over_a_piece(self):
        # First-layer unit 0 is relu(x0 - 0.5), which crosses at alpha = 0.5
        # for x0 = 1; last-hidden unit 0 copies it, so it is exactly 0 on
        # [0, 0.5] and positive after.
        w1 = np.array([[1.0, 0.3], [0.0, -0.7], [0.0, 0.4]])
        layers = [(w1, np.array([-0.5, 0.2])),
                  (np.array([[1.0, -0.6], [0.0, 0.9]]), np.array([0.0, 0.1])),
                  (np.array([[1.3], [-0.8]]), np.array([0.05]))]
        p = pack(NetworkSpec((3, 2, 2, 1)), layers)
        xs = np.array([[1.0, 0.2, 0.7], [1.0, 0.9, 0.1], [0.8, 0.5, 0.5]])
        assert_matches_path_cut_oracle(p, xs)

    def test_crossing_at_exactly_the_end_of_the_path(self):
        # u = 0.5 and b = -0.5: the unit reaches 0 exactly at alpha = 1.
        w1 = np.array([[1.0, -0.4, 0.6], [0.0, 0.8, 0.2], [0.0, 0.3, -0.9]])
        layers = [(w1, np.array([-0.5, 0.1, 0.2])),
                  (np.array([[0.7, -1.1], [0.5, 0.6], [-0.3, 0.8]]), np.array([0.2, -0.1])),
                  (np.array([[0.9], [1.2]]), np.array([0.0]))]
        p = pack(NetworkSpec(), layers)
        xs = np.array([[0.5, 0.25, 0.75], [0.5, 1.0, 0.0], [0.5, 0.0, 0.5]])
        assert_matches_path_cut_oracle(p, xs)

    def test_all_zero_sample(self, rng):
        for spec in (NetworkSpec(), NetworkSpec((3, 8, 8, 4, 1)), NetworkSpec((3, 4, 1))):
            p = ModelParams(rng.normal(0, 0.8, spec.param_count), spec)
            xs = rng.uniform(0, 1, (6, 3))
            xs[2] = 0.0
            assert_matches_path_cut_oracle(p, xs)
            assert np.all(sample_attributions(p, xs)[2] == 0.0)

    def test_dead_all_zero_model(self, rng):
        for spec in (NetworkSpec(), NetworkSpec((3, 5, 5, 5, 5, 1)), NetworkSpec((3, 16, 1))):
            p = ModelParams(np.zeros(spec.param_count), spec)
            xs = rng.uniform(0, 1, (8, 3))
            assert_matches_path_cut_oracle(p, xs)
            assert np.all(sample_attributions(p, xs) == 0.0)


class TestInPlaceKernel:
    @pytest.mark.parametrize("layer_sizes", [(3, 3, 2, 1), (3, 8, 8, 4, 1), (12, 5, 1)])
    def test_bitwise_equal_to_the_allocating_kernel(self, rng, layer_sizes):
        # Nonzero biases put zeros inside the path, so the default network has
        # several pieces, 3-8-8-4-1 runs the cut loop and `_zeros`, and 12-5-1
        # has no layer to cut.
        spec = NetworkSpec(layer_sizes)
        for _ in range(20):
            p = ModelParams(rng.normal(0, 0.8, spec.param_count), spec)
            xs = rng.uniform(0, 1, (300, spec.n_features))
            expected = allocating_attributions(p, xs)
            assert sample_attributions(p, xs).tobytes() == expected.tobytes(), layer_sizes

    def test_an_attribution_pass_stays_within_its_memory_bound(self):
        # One pass over a 50-client slice at 800 samples (25 calls of 1,600
        # rows), on a network whose nonzero biases give every call several
        # pieces. Measured: 440,171 bytes above what the pass starts with
        # (568,539 when the gate, its size and the first delta each took a
        # new array); the bound leaves a 13% margin.
        cfg = ExperimentConfig(n_clients=50, n_selected=25, attribution_samples=800,
                               slices=("eMBB",))
        datasets = build_datasets(cfg)["eMBB"]
        spec = cfg.network_spec
        p = ModelParams(np.random.default_rng(1).normal(0, 0.8, spec.param_count), spec)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            client_attribution(p, datasets, 800)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 500_000


class TestClientAttribution:
    def test_single_relevant_feature_takes_all_mass(self, rng):
        # Kill the weights out of features 1 and 2; only feature 0 can matter.
        w1 = np.zeros((3, 3))
        w1[0, :] = rng.uniform(0.5, 1.0, 3)
        layers = [(w1, np.zeros(3)),
                  (rng.uniform(0.1, 1.0, (3, 2)), np.zeros(2)),
                  (rng.uniform(0.1, 1.0, (2, 1)), np.zeros(1))]
        p = pack(NetworkSpec(), layers)
        pool = FixedPool(rng.uniform(0.1, 1.0, (12, 3)))
        [chi], _ = client_attribution(p, [pool], 12)
        assert np.allclose(chi, [1.0, 0.0, 0.0], atol=1e-12)

    def test_symmetric_model_and_data_give_uniform_chi(self, rng):
        # Identical first-layer rows and identical feature columns make every
        # feature interchangeable.
        row = rng.uniform(0.2, 0.8, 3)
        w1 = np.tile(row, (3, 1))
        layers = [(w1, np.zeros(3)),
                  (rng.uniform(0.1, 1.0, (3, 2)), np.zeros(2)),
                  (rng.uniform(0.1, 1.0, (2, 1)), np.zeros(1))]
        p = pack(NetworkSpec(), layers)
        column = rng.uniform(0.1, 1.0, 10)
        pool = FixedPool(np.tile(column[:, None], (1, 3)))
        [chi], _ = client_attribution(p, [pool], 10)
        assert np.allclose(chi, 1.0 / 3.0, atol=1e-6)

    def test_matches_brute_force_loops(self, rng):
        p = ModelParams(rng.normal(0, 0.8, 23), NetworkSpec())
        pool = rng.uniform(0, 1, (9, 3))
        [chi], _ = client_attribution(p, [FixedPool(pool)], 9)
        abs_mean = np.abs(midpoint_attributions(p, pool, 4096)).mean(axis=0)
        assert np.allclose(chi, abs_mean / abs_mean.sum(), rtol=0, atol=1e-4)

    def test_normalization_invariants(self, rng):
        checked = 0
        while checked < 10:
            p = ModelParams(rng.normal(0, 0.8, 23), NetworkSpec())
            pool = FixedPool(rng.uniform(0, 1, (8, 3)))
            [chi], [degenerate] = client_attribution(p, [pool], 8)
            if degenerate:
                continue  # dead draw; the degenerate contract has its own test
            assert chi.dtype == np.float64 and chi.shape == (3,)
            assert chi.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(chi >= 0.0)
            checked += 1

    def test_dead_model_is_flagged_degenerate(self, rng):
        # Every attribution is zero, so each row falls back to the uniform vector.
        p = ModelParams(np.zeros(23), NetworkSpec())
        pools = [FixedPool(rng.uniform(0, 1, (8, 3)), k) for k in range(2)]
        chi, degenerate = client_attribution(p, pools, 8)
        assert degenerate.tolist() == [True, True]
        assert chi.tobytes() == np.full((2, 3), 1.0 / 3.0).tobytes()
        assert not chi.flags.writeable  # federations sharing the pass share the array

    def test_output_scale_leaves_chi_argmax_unchanged(self, rng):
        spec = NetworkSpec()
        values = rng.normal(0, 0.8, 23)
        pool = FixedPool(rng.uniform(0, 1, (10, 3)))
        [chi], _ = client_attribution(ModelParams(values, spec), [pool], 10)

        scaled = values.copy()
        scaled[-3:] = scaled[-3:] * 7.5  # output layer weights and bias
        [chi_scaled], _ = client_attribution(ModelParams(scaled, spec), [pool], 10)
        assert int(np.argmax(chi)) == int(np.argmax(chi_scaled))
        assert np.allclose(chi, chi_scaled, atol=1e-12)

    def test_sample_attributions_agree_with_single_calls(self, rng):
        p = ModelParams(rng.normal(0, 0.8, 23), NetworkSpec())
        xs = rng.uniform(0, 1, (6, 3))
        batched = sample_attributions(p, xs)
        singles = np.array([sample_attributions(p, x[None, :])[0] for x in xs])
        assert np.allclose(batched, singles, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("layer_sizes", [(3, 3, 2, 1), (3, 8, 8, 4, 1), (12, 5, 1)])
    def test_block_rows_equal_per_client_attributions_bitwise(self, rng, layer_sizes):
        # Clients attributed together get the row they get alone from
        # `sample_attributions`: to the last bit on the default network, to
        # rounding on others, whose bits can depend on the block's clients.
        # The all-zero pool of client 2 has all-zero attributions, so it alone
        # is flagged and its row is the uniform vector.
        spec = NetworkSpec(layer_sizes)
        p = ModelParams(rng.normal(0, 0.8, spec.param_count), spec)
        pools = [FixedPool(rng.uniform(0, 1, (n, spec.n_features)), k)
                 for k, n in enumerate((45, 40, 40, 60))]
        pools[2] = FixedPool(np.zeros((40, spec.n_features)), 2)
        chi, degenerate = client_attribution(p, pools, 40)
        assert degenerate.tolist() == [False, False, True, False]
        for k, pool in enumerate(pools):
            if k == 2:
                continue
            abs_mean = np.abs(sample_attributions(p, pool.attribution_pool(40))).mean(axis=0)
            expected = abs_mean / abs_mean.sum()
            if spec == NetworkSpec():
                assert chi[k].tobytes() == expected.tobytes()
            else:
                assert np.allclose(chi[k], expected, rtol=0, atol=1e-12)
        assert chi[2].tobytes() == np.full(spec.n_features, 1.0 / spec.n_features).tobytes()
        assert not chi.flags.writeable

    @pytest.mark.parametrize("rows_per_call, calls", [(10, [1] * 4), (25, [2, 2]), (2048, [4])])
    def test_clients_are_attributed_in_bounded_blocks(self, monkeypatch, rows_per_call, calls):
        # Whole pools of 10 samples share a `sample_attributions` call up to
        # the row bound, and chi does not depend, to the last bit, on how the
        # clients are blocked.
        cfg = small_config()
        datasets = tuple(build_datasets(cfg)["eMBB"])
        p = init_params(cfg.network_spec, cfg.seed)
        expected = np.stack([client_attribution(p, [ds], 10)[0][0] for ds in datasets])
        original = attribution.sample_attributions
        widths = []

        def counting(params, samples):
            widths.append(samples.shape[0] // 10)
            return original(params, samples)

        monkeypatch.setattr(attribution, "sample_attributions", counting)
        monkeypatch.setattr(attribution, "_ATTRIBUTION_ROWS_PER_CALL", rows_per_call)
        assert client_attribution(p, datasets, 10)[0].tobytes() == expected.tobytes()
        assert widths == calls
