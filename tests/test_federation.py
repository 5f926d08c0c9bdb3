import dataclasses

import numpy as np
import pytest

from conftest import small_config
from fedslice.attribution import client_attribution
from fedslice.errors import ConfigError, NumericError
from fedslice.federation import (
    ExperimentConfig,
    _select,
    build_datasets,
    evaluate_global,
    fedavg_aggregate,
    initialize_state,
    pooled_test_set,
    run_experiment,
    run_round,
    run_slice,
)
from fedslice.nn import ModelParams, NetworkSpec, forward_batch, init_params, train_clients


@pytest.fixture(scope="module")
def small_datasets():
    return build_datasets(small_config())


class TestFedAvg:
    def test_equal_sizes_reduce_to_plain_mean(self, rng):
        params = [ModelParams(rng.normal(0, 1, 23), NetworkSpec()) for _ in range(5)]
        agg = fedavg_aggregate(params, [1000] * 5)

        acc = np.zeros(23)
        for p in params:
            acc = acc + p.values * (1.0 / 5.0)
        assert np.array_equal(agg.values, acc)
        assert np.allclose(agg.values, np.mean([p.values for p in params], axis=0),
                           rtol=0, atol=1e-15)

    def test_hand_computed_weighted_average(self, rng):
        p = ModelParams(rng.normal(0, 1, 23), NetworkSpec())
        q = ModelParams(rng.normal(0, 1, 23), NetworkSpec())
        agg = fedavg_aggregate([p, q], [1000, 3000])
        assert np.allclose(agg.values, 0.25 * p.values + 0.75 * q.values,
                           rtol=0, atol=1e-12)

    def test_matches_independent_loop_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 8))
            params = [ModelParams(rng.normal(0, 1, 23), NetworkSpec()) for _ in range(n)]
            sizes = [int(rng.integers(1, 5000)) for _ in range(n)]
            agg = fedavg_aggregate(params, sizes)

            total = sum(sizes)
            acc = [0.0] * 23
            for p, size in zip(params, sizes):
                w = size / total
                for i in range(23):
                    acc[i] += w * p.values[i]
            assert np.allclose(agg.values, acc, rtol=0, atol=1e-12)

    def test_weights_sum_to_one(self, rng):
        sizes = [int(rng.integers(1, 5000)) for _ in range(7)]
        weights = np.asarray(sizes, dtype=np.float64) / float(sum(sizes))
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_client_is_identity(self, rng):
        p = ModelParams(rng.normal(0, 1, 23), NetworkSpec())
        agg = fedavg_aggregate([p], [1234])
        assert np.array_equal(agg.values, p.values)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fedavg_aggregate([], [])


class TestEvaluateGlobal:
    def test_perfect_predictor_scores_zero(self):
        # y = x on a 1-feature identity network.
        p = ModelParams(np.array([1.0, 0.0]), NetworkSpec((1, 1)))
        xs = np.linspace(0, 1, 11)[:, None]
        assert evaluate_global(p, xs, xs[:, 0]) == 0.0

    def test_constant_zero_against_ones(self):
        p = ModelParams(np.zeros(23), NetworkSpec())
        xs = np.random.default_rng(0).uniform(0, 1, (10, 3))
        assert evaluate_global(p, xs, np.ones(10)) == 1.0

    def test_matches_per_sample_loop(self, rng):
        p = init_params(NetworkSpec(), rng)
        xs = rng.uniform(0, 1, (50, 3))
        ys = rng.uniform(0, 1, 50)
        mse = evaluate_global(p, xs, ys)
        acc = 0.0
        for x, y in zip(xs, ys):
            pred = float(forward_batch(p, x[None, :])[0])
            acc += (pred - y) ** 2
        assert mse == pytest.approx(acc / 50.0, abs=1e-12)

    def test_empty_pool_rejected(self):
        p = ModelParams(np.zeros(23), NetworkSpec())
        with pytest.raises(ValueError):
            evaluate_global(p, np.zeros((0, 3)), np.zeros(0))


class TestConfig:
    def test_selecting_more_than_population_rejected(self):
        with pytest.raises(ConfigError):
            small_config(n_selected=9)

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="bogus_knob"):
            ExperimentConfig.from_dict({"bogus_knob": 3})

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            small_config(policy="oracle")

    def test_attribution_pool_must_fit_train_split(self):
        with pytest.raises(ConfigError):
            small_config(samples_per_client=100, attribution_samples=90)

    def test_data_dir_skips_the_synthetic_pool_bound(self):
        # Ingestion checks the pool against each file's own train split.
        cfg = small_config(samples_per_client=100, attribution_samples=90, data_dir="data")
        assert cfg.attribution_samples == 90

    def test_layer_width_must_match_features(self):
        with pytest.raises(ConfigError):
            small_config(layer_sizes=(4, 3, 2, 1))

    def test_roundtrip_through_dict(self):
        cfg = small_config()
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_documented_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.n_clients == 10
        assert cfg.n_selected == 5
        assert cfg.n_rounds == 30
        assert cfg.local_epochs == 150
        assert cfg.attribution_samples == 150
        assert cfg.n_features == 3
        assert cfg.samples_per_client == 1000
        assert cfg.learning_rate == 0.0015
        assert cfg.seed == 42
        assert len(cfg.slices) == 3
        assert cfg.network_spec.param_count == 23


class TestRounds:
    def test_m_equals_one_takes_single_client_params(self, small_datasets):
        cfg = small_config(n_selected=1)
        state = initialize_state(cfg, "eMBB", small_datasets["eMBB"])
        new_state, record, _ = run_round(state, cfg)
        assert len(record.selected) == 1

        client = small_datasets["eMBB"][record.selected[0]]
        from fedslice.federation import _shuffle_rngs
        expected = train_clients(
            state.global_params, [client.train_features], [client.train_targets],
            cfg.local_epochs, learning_rate=cfg.learning_rate, batch_size=cfg.batch_size,
            shuffle_rngs=_shuffle_rngs(cfg, "eMBB", 0, list(record.selected)),
        )[0]
        assert np.array_equal(new_state.global_params.values, expected.values)

    def test_redistribution_invariant(self, small_datasets):
        cfg = small_config()
        state = initialize_state(cfg, "eMBB", small_datasets["eMBB"])
        for _ in range(2):
            state, _, _ = run_round(state, cfg)
            # Every client's refreshed attribution is taken on the new global model.
            for ds, row in zip(state.datasets, state.chi):
                expected = client_attribution(state.global_params, ds, cfg.ig_config)
                assert np.array_equal(row, expected.values)

    def test_round_past_horizon_rejected(self, small_datasets):
        cfg = small_config(n_rounds=1)
        state = initialize_state(cfg, "eMBB", small_datasets["eMBB"])
        state, _, _ = run_round(state, cfg)
        with pytest.raises(ConfigError):
            run_round(state, cfg)

    def test_round_record_comm_count(self, small_datasets):
        cfg = small_config()
        state = initialize_state(cfg, "eMBB", small_datasets["eMBB"])
        _, record, selection = run_round(state, cfg)
        assert record.selected == selection.selected
        p = cfg.network_spec.param_count
        expected = cfg.n_clients * p + cfg.n_selected * p + cfg.n_clients * cfg.n_features
        assert record.params_transmitted == expected

    def test_training_overflow_names_round_slice_and_clients(self, small_datasets):
        # A huge step size sends the weights past float range on the next step.
        cfg = small_config(learning_rate=1e300)
        state = initialize_state(cfg, "eMBB", small_datasets["eMBB"])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError) as info:
                run_round(state, cfg)
        chosen = sorted(_select(cfg, state.chi).selected)
        assert str(info.value) == (f"round 0, slice eMBB, clients {chosen}: "
                                   "non-finite gradient during local training")


class TestExperiment:
    def test_policy_equivalence_when_everyone_is_selected(self, small_datasets):
        cfg_all = small_config(n_selected=4, policy="intelliselect")
        cfg_nop = small_config(n_selected=4, policy="no_policy")
        run_a = run_slice(cfg_all, "eMBB", small_datasets["eMBB"])
        run_b = run_slice(cfg_nop, "eMBB", small_datasets["eMBB"])
        for a, b in zip(run_a.records, run_b.records):
            assert a.mse == b.mse
            assert sorted(a.selected) == sorted(b.selected)
        for a, b in zip(run_a.round_params, run_b.round_params):
            assert np.array_equal(a.values, b.values)

    def test_reruns_are_bit_identical(self, small_datasets):
        cfg = small_config()
        a = run_slice(cfg, "eMBB", small_datasets["eMBB"])
        b = run_slice(cfg, "eMBB", small_datasets["eMBB"])
        for ra, rb in zip(a.records, b.records):
            assert ra.mse == rb.mse
            assert ra.selected == rb.selected
            assert ra.params_transmitted == rb.params_transmitted
        for pa, pb in zip(a.round_params, b.round_params):
            assert np.array_equal(pa.values, pb.values)
        for ca, cb in zip(a.chi_rounds, b.chi_rounds):
            assert np.array_equal(ca, cb)

    def test_zero_rounds_returns_initial_model(self, small_datasets):
        cfg = small_config(n_rounds=0)
        runs = run_experiment(cfg, small_datasets)
        assert all(run.records == [] for run in runs)
        expected = init_params(cfg.network_spec, cfg.seed)
        for run in runs:
            assert np.array_equal(run.initial_params.values, expected.values)

    def test_all_slices_run_independently(self, small_datasets):
        cfg = small_config(n_rounds=1)
        runs = run_experiment(cfg, small_datasets)
        assert [r.slice_name for r in runs] == ["eMBB", "SocialMedia", "Browsing"]
        mses = {r.slice_name: r.records[0].mse for r in runs}
        assert len(set(mses.values())) == 3  # different data per slice

    def test_shared_initial_model_across_slices_and_policies(self, small_datasets):
        cfg = small_config(n_rounds=0)
        runs = run_experiment(cfg, small_datasets)
        score_runs = run_experiment(dataclasses.replace(cfg, policy="score"), small_datasets)
        reference = runs[0].initial_params.values
        for run in runs + score_runs:
            assert np.array_equal(run.initial_params.values, reference)

    def test_missing_slice_data_rejected(self, small_datasets):
        cfg = small_config()
        with pytest.raises(ConfigError):
            run_experiment(cfg, {"eMBB": small_datasets["eMBB"]})

    def test_datasets_do_not_depend_on_policy(self):
        a = build_datasets(small_config(policy="intelliselect"))
        b = build_datasets(small_config(policy="no_policy"))
        for s in a:
            for da, db in zip(a[s], b[s]):
                assert np.array_equal(da.features, db.features)
                assert np.array_equal(da.targets, db.targets)

    def test_score_policy_runs(self, small_datasets):
        cfg = small_config(policy="score", n_rounds=2)
        run = run_slice(cfg, "eMBB", small_datasets["eMBB"])
        assert len(run.records) == 2
        assert all(len(r.selected) == cfg.n_selected for r in run.records)

    def test_pooled_test_set_is_client_ordered_concatenation(self, small_datasets):
        datasets = small_datasets["eMBB"]
        feats, targets = pooled_test_set(datasets)
        assert feats.shape[0] == sum(d.test_indices.shape[0] for d in datasets)
        offset = 0
        for d in datasets:
            n = d.test_indices.shape[0]
            assert np.array_equal(feats[offset:offset + n], d.test_features)
            assert np.array_equal(targets[offset:offset + n], d.test_targets)
            offset += n
