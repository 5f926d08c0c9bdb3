import numpy as np
import pytest

from fedslice.attribution import (
    AttributionVector,
    IgConfig,
    client_attribution,
    sample_attributions,
    uniform_attribution,
)
from fedslice.errors import ConfigError, DegenerateAttributionError
from fedslice.nn import (
    ModelParams,
    NetworkSpec,
    forward_batch,
    init_params,
    input_gradients_batch,
    pack,
)


class FixedPool:
    """Minimal stand-in for a ClientDataset's attribution surface."""

    def __init__(self, features, client_id=0):
        self.attribution_features = np.asarray(features, dtype=np.float64)
        self.client_id = client_id


def brute_force_client_attribution(params, pool, cfg):
    """Loop re-implementation: per sample, per step, per feature."""
    baseline = np.zeros(params.spec.n_features)
    per_sample = []
    for x in pool[:cfg.sample_count]:
        total = np.zeros_like(baseline)
        for s in range(cfg.steps):
            alpha = (s + 0.5) / cfg.steps
            point = baseline + alpha * (x - baseline)
            total += input_gradients_batch(params, point[None, :])[0]
        per_sample.append((x - baseline) * total / cfg.steps)
    abs_mean = np.abs(np.array(per_sample)).mean(axis=0)
    return abs_mean / abs_mean.sum()


def completeness_residuals(params, xs, cfg):
    """|sum of attributions - (f(x) - f(0))| per sample."""
    ig = sample_attributions(params, xs, cfg)
    gap = forward_batch(params, xs) - forward_batch(params, np.zeros((1, xs.shape[1])))[0]
    return np.abs(ig.sum(axis=1) - gap)


class TestIntegratedGradients:
    def test_zero_length_path_gives_zero(self, rng):
        p = init_params(NetworkSpec(), rng)
        ig = sample_attributions(p, np.zeros((1, 3)), IgConfig(steps=16))
        assert np.array_equal(ig, np.zeros((1, 3)))

    def test_linear_model_is_exact_for_any_step_count(self, rng):
        w = rng.normal(0, 1, 3)
        p = pack(NetworkSpec((3, 1)), [(w[:, None], np.array([0.7]))])
        xs = rng.uniform(0, 1, (4, 3))
        for steps in (1, 4, 64):
            ig = sample_attributions(p, xs, IgConfig(steps=steps))
            assert np.allclose(ig, w * xs, rtol=0, atol=1e-14)

    def test_completeness(self, rng):
        cfg = IgConfig(steps=1024)
        for _ in range(20):
            p = ModelParams(rng.normal(0, 0.8, 23), NetworkSpec())
            assert completeness_residuals(p, rng.uniform(0, 1, (1, 3)), cfg)[0] <= 1e-3

    def test_residual_shrinks_as_steps_double(self, rng):
        cases = [(ModelParams(rng.normal(0, 0.8, 23), NetworkSpec()), rng.uniform(0, 1, (1, 3)))
                 for _ in range(50)]
        mean_residuals = []
        for steps in (8, 16, 32, 64, 128, 256, 512):
            cfg = IgConfig(steps=steps)
            res = [completeness_residuals(p, xs, cfg)[0] for p, xs in cases]
            mean_residuals.append(np.mean(res))
        for coarse, fine in zip(mean_residuals, mean_residuals[1:]):
            assert fine <= coarse + 1e-12

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            IgConfig(steps=0)
        with pytest.raises(ConfigError):
            IgConfig(sample_count=0)


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
        chi = client_attribution(p, pool, IgConfig(steps=16, sample_count=12))
        assert np.allclose(chi.values, [1.0, 0.0, 0.0], atol=1e-12)

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
        chi = client_attribution(p, pool, IgConfig(steps=16, sample_count=10))
        assert np.allclose(chi.values, 1.0 / 3.0, atol=1e-6)

    def test_matches_brute_force_loops(self, rng):
        p = ModelParams(rng.normal(0, 0.8, 23), NetworkSpec())
        pool = rng.uniform(0, 1, (9, 3))
        cfg = IgConfig(steps=12, sample_count=9)
        chi = client_attribution(p, FixedPool(pool), cfg)
        expected = brute_force_client_attribution(p, pool, cfg)
        assert np.allclose(chi.values, expected, rtol=0, atol=1e-9)

    def test_normalization_invariants(self, rng):
        checked = 0
        while checked < 10:
            p = ModelParams(rng.normal(0, 0.8, 23), NetworkSpec())
            pool = FixedPool(rng.uniform(0, 1, (8, 3)))
            try:
                chi = client_attribution(p, pool, IgConfig(steps=8, sample_count=8))
            except DegenerateAttributionError:
                continue  # dead draw; the degenerate contract has its own test
            assert chi.values.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(chi.values >= 0.0)
            checked += 1

    def test_dead_model_raises_degenerate(self, rng):
        p = ModelParams(np.zeros(23), NetworkSpec())
        pool = FixedPool(rng.uniform(0, 1, (8, 3)))
        with pytest.raises(DegenerateAttributionError):
            client_attribution(p, pool, IgConfig(steps=8, sample_count=8))

    def test_uniform_fallback(self):
        fallback = uniform_attribution(3, client_id=4)
        assert np.array_equal(fallback.values, np.full(3, 1.0 / 3.0))
        assert fallback.client_id == 4

    def test_pool_too_small_rejected(self, rng):
        p = init_params(NetworkSpec(), rng)
        pool = FixedPool(rng.uniform(0, 1, (5, 3)))
        with pytest.raises(ValueError):
            client_attribution(p, pool, IgConfig(steps=8, sample_count=6))

    def test_output_scale_leaves_chi_argmax_unchanged(self, rng):
        spec = NetworkSpec()
        values = rng.normal(0, 0.8, 23)
        pool = FixedPool(rng.uniform(0, 1, (10, 3)))
        cfg = IgConfig(steps=16, sample_count=10)
        chi = client_attribution(ModelParams(values, spec), pool, cfg)

        scaled = values.copy()
        scaled[-3:] = scaled[-3:] * 7.5  # output layer weights and bias
        chi_scaled = client_attribution(ModelParams(scaled, spec), pool, cfg)
        assert int(np.argmax(chi.values)) == int(np.argmax(chi_scaled.values))
        assert np.allclose(chi.values, chi_scaled.values, atol=1e-12)

    def test_sample_attributions_agree_with_single_calls(self, rng):
        p = ModelParams(rng.normal(0, 0.8, 23), NetworkSpec())
        xs = rng.uniform(0, 1, (6, 3))
        cfg = IgConfig(steps=10, sample_count=6)
        batched = sample_attributions(p, xs, cfg)
        singles = np.array([sample_attributions(p, x[None, :], cfg)[0] for x in xs])
        assert np.allclose(batched, singles, rtol=0, atol=1e-12)


class TestAttributionVector:
    def test_rejects_negative_components(self):
        with pytest.raises(ConfigError):
            AttributionVector(np.array([0.5, -0.1, 0.6]), 0, 1)
