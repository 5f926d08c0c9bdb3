import dataclasses
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import small_config
from fedslice import federation
from fedslice.attribution import client_attribution
from fedslice.data import from_json
from fedslice.errors import ConfigError, NumericError
from fedslice.federation import (
    ExperimentConfig,
    SliceRun,
    _shuffle_rng,
    build_datasets,
    evaluate_global,
    fedavg_aggregate,
    pooled_test_set,
    run_experiment,
    run_round,
)
from fedslice.nn import ModelParams, NetworkSpec, forward_batch, init_params, train_clients
from fedslice.selection import select


@pytest.fixture(scope="module")
def small_datasets():
    return build_datasets(small_config())


def run_embb(cfg, policy, datasets):
    """The single eMBB federation of `policy` on `datasets`, run by `run_experiment`."""
    [run] = run_experiment(dataclasses.replace(cfg, slices=("eMBB",), policies=(policy,)),
                           {"eMBB": datasets})
    return run


def counting_calls(monkeypatch):
    """Replace attribution and training with stubs; returns the list they log names to."""
    calls = []

    def counting(name):
        def record(*args, **kwargs):
            calls.append(name)
        return record

    monkeypatch.setattr(federation, "client_attribution", counting("attribute"))
    monkeypatch.setattr(federation, "train_clients", counting("train"))
    return calls


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

    def test_round_weights_clients_by_train_rows(self, small_datasets):
        # Equal train rows, unequal test rows: the trained models count equally.
        cfg = small_config(n_clients=2, n_selected=2, n_rounds=1)
        full, other = small_datasets["eMBB"][:2]
        keep = other.size - 5
        trimmed = dataclasses.replace(
            other,
            scaled_features=other.scaled_features[:keep],
            scaled_targets=other.scaled_targets[:keep],
            raw_test_targets=other.raw_test_targets[:keep - other.n_train],
        )
        assert len(trimmed.train_targets) == len(full.train_targets)
        assert trimmed.size < full.size

        run = run_embb(cfg, "no_policy", [full, trimmed])
        trained = train_clients(
            [run.initial_params] * 2,
            [full.train_features, trimmed.train_features],
            [full.train_targets, trimmed.train_targets],
            cfg.local_epochs, learning_rate=cfg.learning_rate, batch_size=cfg.batch_size,
            shuffle_rngs=[_shuffle_rng(cfg, "eMBB", 0, client_id) for client_id in (0, 1)],
        )
        expected = np.mean([p.values for p in trained], axis=0)
        assert np.array_equal(run.records[0].global_params.values, expected)


class TestComputeChi:
    def test_degenerate_attribution_falls_back_to_uniform_with_a_warning(
        self, small_datasets, capsys
    ):
        # All-zero parameters have zero input gradients, so every client degenerates.
        cfg = small_config()
        zero = ModelParams(np.zeros(23), NetworkSpec())
        run = SliceRun("eMBB", "score", tuple(small_datasets["eMBB"]), zero)
        run_round([run], cfg)
        assert np.array_equal(run.records[0].chi, np.full((4, 3), 1.0 / 3.0))
        assert capsys.readouterr().err.splitlines() == [
            f"slice eMBB, policy score, round 0, client {k}: all-zero attribution, "
            "using the uniform vector"
            for k in range(4)
        ]


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


class TestConfig:
    def test_selecting_more_than_population_rejected(self):
        with pytest.raises(ConfigError):
            small_config(n_selected=9)

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="bogus_knob"):
            from_json(ExperimentConfig, {"bogus_knob": 3}, "config")

    # The policies are checked when the config is built, so before any round.
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="unknown policy 'oracle'"):
            small_config(policies=("oracle",))

    def test_every_policy_is_checked_before_any_round(self):
        # A valid policy listed first does not hide an unknown one after it.
        with pytest.raises(ConfigError, match="unknown policy 'oracle'"):
            small_config(policies=["intelliselect", "oracle"])

    def test_repeated_policy_rejected_before_any_round(self):
        # A repeat would train a federation twice and overwrite its outputs.
        with pytest.raises(ConfigError, match="policies must not repeat a name"):
            small_config(policies=("intelliselect", "intelliselect"))

    def test_dataset_count_is_checked_before_any_round(self, small_datasets, monkeypatch):
        calls = counting_calls(monkeypatch)
        datasets = dict(small_datasets, Browsing=small_datasets["Browsing"][:3])
        with pytest.raises(ConfigError, match="Browsing"):
            run_experiment(small_config(n_rounds=1, policies=("intelliselect",)), datasets)
        assert calls == []

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

    @pytest.mark.parametrize("overrides, message", [
        ({"seed": -1}, "seed"),
        ({"learning_rate": float("nan")}, "learning_rate"),
        ({"learning_rate": float("inf")}, "learning_rate"),
        ({"learning_rate": 0.0}, "learning_rate"),
        ({"learning_rate": -1.0}, "learning_rate"),
        ({"ig_steps": 0}, "ig_steps"),
        ({"ig_steps": 1.5}, "ig_steps"),
        ({"attribution_samples": 0}, "attribution_samples"),
        ({"attribution_samples": True}, "attribution_samples"),
        ({"slices": ()}, "slices"),
        ({"layer_sizes": (4, 3, 2, 1)}, "layer_sizes"),
        ({"learning_rate": "abc"}, "learning_rate"),
        ({"batch_size": "x"}, "batch_size"),
        ({"train_fraction": "0.8"}, "train_fraction"),
        ({"layer_sizes": 3}, "layer_sizes"),
        ({"layer_sizes": (3, 3.0, 1)}, "layer_sizes"),
        ({"slices": "eMBB"}, "slices"),
        ({"n_rounds": True}, "n_rounds"),
        ({"n_clients": 2.5}, "n_clients"),
        ({"data_dir": 5}, "data_dir"),
        ({"learning_rate": 10 ** 400}, "learning_rate"),
        ({"slices": ("eMBB", "eMBB")}, "slices"),
        ({"slices": ("URLLC",)}, "slices"),
        ({"samples_per_client": 1}, "samples_per_client"),
        ({"layer_sizes": (3,)}, "layer_sizes"),
        ({"layer_sizes": (3, 0, 1)}, "layer_sizes"),
        ({"layer_sizes": (3, 3, 2)}, "layer_sizes"),
        ({"train_fraction": 1.5, "data_dir": "data"}, "train_fraction"),
        ({"n_clients": 0}, "n_clients"),
        ({"n_selected": 0}, "n_selected"),
        ({"local_epochs": 0}, "local_epochs"),
        ({"n_rounds": -1}, "n_rounds"),
        ({"batch_size": 0}, "batch_size"),
        ({"policies": []}, "policies: at least one policy"),
        ({"policies": 5}, "policies must be a list of strings"),
        ({"policies": "score"}, "policies must be a list of strings"),
    ])
    def test_bad_value_is_rejected_up_front(self, overrides, message):
        # Through from_json, so a deleted key (ig_steps) is named as unknown.
        with pytest.raises(ConfigError, match=message):
            from_json(ExperimentConfig, {**small_config().to_dict(), **overrides}, "config")

    def test_zero_rounds_and_huge_learning_rate_are_accepted(self):
        assert small_config(n_rounds=0, learning_rate=1e300).n_rounds == 0

    def test_integer_learning_rate_and_null_batch_size_are_accepted(self):
        cfg = small_config(learning_rate=1, batch_size=None, slices=["eMBB"])
        assert (cfg.learning_rate, cfg.batch_size, cfg.slices) == (1, None, ("eMBB",))

    def test_roundtrip_through_dict(self):
        cfg = small_config()
        assert from_json(ExperimentConfig, cfg.to_dict(), "config") == cfg

    def test_documented_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.n_clients == 10
        assert cfg.n_selected == 5
        assert cfg.n_rounds == 30
        assert cfg.local_epochs == 150
        assert cfg.attribution_samples == 150
        assert cfg.network_spec.n_features == 3
        assert cfg.samples_per_client == 1000
        assert cfg.learning_rate == 0.0015
        assert cfg.seed == 42
        assert len(cfg.slices) == 3
        assert cfg.network_spec.param_count == 23


class TestRounds:
    def test_m_equals_one_takes_single_client_params(self, small_datasets):
        cfg = small_config(n_selected=1, n_rounds=1)
        run = run_embb(cfg, "intelliselect", small_datasets["eMBB"])
        record = run.records[0]
        assert len(record.selection.selected) == 1

        [client_id] = record.selection.selected
        client = small_datasets["eMBB"][client_id]
        expected = train_clients(
            [run.initial_params], [client.train_features], [client.train_targets],
            cfg.local_epochs, learning_rate=cfg.learning_rate, batch_size=cfg.batch_size,
            shuffle_rngs=[_shuffle_rng(cfg, "eMBB", 0, client_id)],
        )[0]
        assert np.array_equal(record.global_params.values, expected.values)

    def test_redistribution_invariant(self, small_datasets):
        cfg = small_config()
        run = run_embb(cfg, "intelliselect", small_datasets["eMBB"])
        assert len(run.records) == cfg.n_rounds
        for t, record in enumerate(run.records):
            # Round t attributes every client on round t-1's global model.
            before = dataclasses.replace(run, records=run.records[:t])
            assert np.array_equal(record.chi, client_attribution(
                before.global_params, before.datasets, cfg.attribution_samples)[0])

    @pytest.mark.parametrize("policy", ["intelliselect", "score", "no_policy"])
    @pytest.mark.parametrize("n_rounds", [0, 2])
    def test_one_attribution_pass_per_round(self, small_datasets, monkeypatch,
                                            policy, n_rounds):
        # R rounds attribute each of the K clients R times: no pass after the last round.
        original = federation.client_attribution
        calls = []

        def counting(params, datasets, sample_count):
            calls.extend(ds.client_id for ds in datasets)
            return original(params, datasets, sample_count)

        monkeypatch.setattr(federation, "client_attribution", counting)
        cfg = small_config(n_rounds=n_rounds)
        run = run_embb(cfg, policy, small_datasets["eMBB"])
        attributed = policy != "no_policy"
        assert calls == list(range(cfg.n_clients)) * n_rounds * attributed
        assert [r.chi is not None for r in run.records] == [attributed] * n_rounds

    def test_federations_advanced_together_share_a_round(self, small_datasets):
        cfg = small_config(n_rounds=2)
        ahead = run_embb(dataclasses.replace(cfg, n_rounds=1), "score", small_datasets["eMBB"])
        behind = SliceRun("eMBB", "score", ahead.datasets, ahead.initial_params)
        with pytest.raises(ValueError, match="same round"):
            run_round([ahead, behind], cfg)
        assert (len(ahead.records), len(behind.records)) == (1, 0)

    def test_training_overflow_names_round_slice_and_clients(self, small_datasets):
        # A huge step size sends every selected client's weights past float
        # range on the next step, in all six federations of the shared call.
        cfg = small_config(learning_rate=1e300, policies=("intelliselect", "score"))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError) as info:
                run_experiment(cfg, small_datasets)
        initial = init_params(cfg.network_spec, cfg.seed)
        at_fault = []
        for policy in cfg.policies:
            for name in cfg.slices:
                chi = client_attribution(initial, small_datasets[name],
                                         cfg.attribution_samples)[0]
                chosen = sorted(select(policy, chi, cfg.n_selected, cfg.n_clients).selected)
                at_fault.append(f"slice {name}, policy {policy}, clients {chosen}")
        assert str(info.value) == (f"round 0: {'; '.join(at_fault)}: "
                                   "non-finite gradient during local training")

    @pytest.mark.parametrize("rows_per_step", [4096, 160])
    def test_training_overflow_names_only_the_clients_at_fault(self, small_datasets,
                                                               monkeypatch, rows_per_step):
        # One SocialMedia client with overflowing inputs; the other clients,
        # eMBB's included, train finitely. The eight trainings of 32-row steps
        # share one call, or under 160 rows take calls of five and three, the
        # victim second in the later call.
        monkeypatch.setattr(federation, "_TRAIN_ROWS_PER_STEP", rows_per_step)
        cfg = small_config(slices=["eMBB", "SocialMedia"])
        victim = small_datasets["SocialMedia"][2]
        poisoned = dataclasses.replace(
            victim, scaled_features=np.full_like(victim.scaled_features, 1e300))
        datasets = dict(small_datasets, SocialMedia=[
            poisoned if ds is victim else ds for ds in small_datasets["SocialMedia"]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError) as info:
                run_experiment(dataclasses.replace(cfg, policies=("no_policy",)), datasets)
        assert str(info.value) == ("round 0: slice SocialMedia, policy no_policy, clients [2]: "
                                   "non-finite gradient during local training")

    def test_shared_training_overflow_names_every_federation_sharing_it(self, small_datasets):
        # At round 0 no_policy trains every client from the initial model, so
        # each client intelliselect selects is a training the two share.
        cfg = small_config(learning_rate=1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError) as info:
                run_experiment(dataclasses.replace(cfg, policies=("intelliselect", "no_policy")),
                               small_datasets)
        initial = init_params(cfg.network_spec, cfg.seed)
        at_fault = []
        for name in cfg.slices:
            chi = client_attribution(initial, small_datasets[name], cfg.attribution_samples)[0]
            chosen = sorted(select("intelliselect", chi, cfg.n_selected, cfg.n_clients).selected)
            at_fault.append(f"slice {name}, policy intelliselect, clients {chosen}")
        at_fault += [f"slice {name}, policy no_policy, clients [0, 1, 2, 3]"
                     for name in cfg.slices]
        assert str(info.value) == (f"round 0: {'; '.join(at_fault)}: "
                                   "non-finite gradient during local training")

    def test_federations_on_one_model_share_an_attribution_pass(self, small_datasets,
                                                                monkeypatch):
        # At round 0 intelliselect and score attribute each slice's datasets
        # on the initial model: one pass per slice serves both.
        original = federation.client_attribution
        calls = []

        def counting(params, datasets, sample_count):
            calls.append(list(map(id, datasets)))
            return original(params, datasets, sample_count)

        monkeypatch.setattr(federation, "client_attribution", counting)
        cfg = small_config(n_rounds=1)
        runs = run_experiment(dataclasses.replace(cfg, policies=("intelliselect", "score")),
                              small_datasets)
        assert calls == [list(map(id, small_datasets[name])) for name in cfg.slices]
        for a, b in zip(runs[:3], runs[3:], strict=True):
            assert a.records[0].chi.tobytes() == b.records[0].chi.tobytes()

    def test_shared_attribution_logs_each_federations_fallbacks(self, small_datasets, capsys):
        # All-zero parameters degenerate every client. Score reuses
        # intelliselect's passes and still warns for itself, in federation order.
        cfg = small_config(n_rounds=1)
        zero = ModelParams(np.zeros(23), NetworkSpec())
        runs = [SliceRun(name, policy, tuple(small_datasets[name]), zero)
                for policy in ("intelliselect", "score") for name in ("eMBB", "SocialMedia")]
        run_round(runs, cfg)
        assert capsys.readouterr().err.splitlines() == [
            f"slice {run.slice_name}, policy {run.policy}, round 0, client {k}: "
            "all-zero attribution, using the uniform vector"
            for run in runs for k in range(cfg.n_clients)
        ]

    def test_shared_work_is_charged_in_full_to_each_federation(self, small_datasets,
                                                               monkeypatch):
        # On a clock that only attribution (0.5 s a pass) and training (1 s a
        # client) advance, each federation's round time is what its own
        # attribution and clients cost, though score reuses intelliselect's
        # pass and both reuse no_policy's trainings.
        now = [0.0]

        def advancing(fn, seconds):
            def timed(*args, **kwargs):
                result = fn(*args, **kwargs)
                now[0] += seconds(result)
                return result
            return timed

        monkeypatch.setattr(federation, "time", SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.setattr(federation, "client_attribution",
                            advancing(federation.client_attribution, lambda _: 0.5))
        monkeypatch.setattr(federation, "train_clients",
                            advancing(federation.train_clients, len))
        cfg = small_config(n_rounds=1, slices=["eMBB"])
        runs = run_experiment(cfg, small_datasets)
        assert [run.records[0].cum_time_ms for run in runs] == [2500.0, 4000.0, 2500.0]


class TestBatching:
    """Federations give the same records stacked into shared calls or advanced alone."""

    POLICIES = ["intelliselect", "score", "no_policy"]

    @staticmethod
    def one_at_a_time(cfg, policies, datasets):
        initial = init_params(cfg.network_spec, cfg.seed)
        runs = [SliceRun(name, policy, tuple(datasets[name]), initial)
                for policy in policies for name in cfg.slices]
        for run in runs:
            for _ in range(cfg.n_rounds):
                run_round([run], cfg)
        return runs

    def assert_same_records(self, cfg, datasets, monkeypatch):
        original = federation.train_clients
        widths = []

        def spying(start_params, *args, **kwargs):
            widths.append(len(start_params))
            return original(start_params, *args, **kwargs)

        monkeypatch.setattr(federation, "train_clients", spying)
        stacked = run_experiment(dataclasses.replace(cfg, policies=self.POLICIES), datasets)
        stacked_widths = list(widths)
        alone = self.one_at_a_time(cfg, self.POLICIES, datasets)
        assert len(widths) - len(stacked_widths) == len(alone) * cfg.n_rounds
        assert [(r.policy, r.slice_name) for r in stacked] == [
            (r.policy, r.slice_name) for r in alone]
        for a, b in zip(stacked, alone, strict=True):
            assert len(a.records) == len(b.records) == cfg.n_rounds
            for ra, rb in zip(a.records, b.records):
                assert ra.mse == rb.mse
                assert ra.selection == rb.selection
                assert (ra.chi is None) == (rb.chi is None)
                assert ra.chi is None or np.array_equal(ra.chi, rb.chi)
                assert np.array_equal(ra.global_params.values, rb.global_params.values)
        return stacked_widths

    def test_stacked_equals_one_federation_at_a_time(self, small_datasets, monkeypatch):
        cfg = small_config(slices=["eMBB", "Browsing"])
        widths = self.assert_same_records(cfg, small_datasets, monkeypatch)
        # Two selected clients under each attribution policy, all four under
        # no_policy, for both slices: one call of 16 clients per round. At
        # round 0 every federation starts from the initial model, so the
        # attribution policies' clients are trainings no_policy already has.
        assert widths == [2 * 4] + [2 * (2 + 2 + 4)] * (cfg.n_rounds - 1)

    @pytest.mark.parametrize("batch_size, step_rows", [(None, 48), (48, 48), (32, 32)])
    @pytest.mark.parametrize("rows_per_step", [1, 100, 200, 4096])
    def test_training_calls_are_bounded_in_step_rows(self, small_datasets, monkeypatch,
                                                      batch_size, step_rows, rows_per_step):
        # Each round's stack of 8, then 16, trainings is cut, in order, into
        # calls of as many as fit in the bound (at least one), and the records
        # do not depend, to the last bit, on the cut.
        cfg = small_config(slices=["eMBB", "Browsing"], batch_size=batch_size,
                           policies=self.POLICIES)
        original = federation.train_clients
        widths = []

        def spying(start_params, *args, **kwargs):
            widths.append(len(start_params))
            return original(start_params, *args, **kwargs)

        monkeypatch.setattr(federation, "train_clients", spying)
        monkeypatch.setattr(federation, "_TRAIN_ROWS_PER_STEP", 10**9)
        unbounded = run_experiment(cfg, small_datasets)
        assert widths == [8, 16, 16]
        widths.clear()
        monkeypatch.setattr(federation, "_TRAIN_ROWS_PER_STEP", rows_per_step)
        bounded = run_experiment(cfg, small_datasets)
        per_call = max(rows_per_step // step_rows, 1)
        assert widths == [min(per_call, n - i) for n in (8, 16, 16) for i in range(0, n, per_call)]
        for a, b in zip(bounded, unbounded, strict=True):
            for ra, rb in zip(a.records, b.records, strict=True):
                assert ra.selection == rb.selection
                assert ra.mse == rb.mse
                assert ra.global_params.values.tobytes() == rb.global_params.values.tobytes()

    def test_unequal_train_rows_make_one_call_per_row_count(self, small_datasets, monkeypatch):
        cfg = small_config(slices=["eMBB", "SocialMedia"])
        longer = build_datasets(small_config(slices=["SocialMedia"], samples_per_client=80))
        datasets = {"eMBB": small_datasets["eMBB"], "SocialMedia": longer["SocialMedia"]}
        assert (datasets["eMBB"][0].n_train, datasets["SocialMedia"][0].n_train) == (48, 64)
        widths = self.assert_same_records(cfg, datasets, monkeypatch)
        assert widths == [4, 4] + [2 + 2 + 4, 2 + 2 + 4] * (cfg.n_rounds - 1)


class TestSharedStreams:
    def test_each_stream_is_shuffled_once_an_epoch(self, small_datasets, monkeypatch):
        # From round 1 on, each policy trains from its own model, so a client
        # that several federations of its slice select is several trainings
        # over one (slice, round, client) stream; that stream still draws one
        # permutation an epoch.
        draws = Counter()

        class CountingShuffle:
            def __init__(self, rng, key):
                self.rng, self.key = rng, key

            def permutation(self, n):
                draws[self.key] += 1
                return self.rng.permutation(n)

        def counting(cfg, slice_name, round_index, client_id):
            return CountingShuffle(_shuffle_rng(cfg, slice_name, round_index, client_id),
                                   (slice_name, round_index, client_id))

        monkeypatch.setattr(federation, "_shuffle_rng", counting)
        cfg = small_config(n_rounds=2, slices=["eMBB", "Browsing"],
                           policies=["intelliselect", "score", "no_policy"])
        runs = run_experiment(cfg, small_datasets)
        for round_index in range(cfg.n_rounds):
            selected = {(run.slice_name, k)
                        for run in runs for k in run.records[round_index].selection.selected}
            assert {(s, k) for s, r, k in draws if r == round_index} == selected
        assert set(draws.values()) == {cfg.local_epochs}
        starts = {run.records[0].global_params.values.tobytes() for run in runs}
        trainings = sum(len(run.records[1].selection.selected) for run in runs)
        assert len(starts) == len(runs) and trainings == 16 > len(selected) == 8


class TestExperiment:
    def test_policy_equivalence_when_everyone_is_selected(self, small_datasets):
        cfg = small_config(n_selected=4)
        run_a = run_embb(cfg, "intelliselect", small_datasets["eMBB"])
        run_b = run_embb(cfg, "no_policy", small_datasets["eMBB"])
        for a, b in zip(run_a.records, run_b.records):
            assert a.mse == b.mse
            assert sorted(a.selection.selected) == sorted(b.selection.selected)
            assert np.array_equal(a.global_params.values, b.global_params.values)

    def test_reruns_are_bit_identical(self, small_datasets):
        cfg = small_config()
        a = run_embb(cfg, "intelliselect", small_datasets["eMBB"])
        b = run_embb(cfg, "intelliselect", small_datasets["eMBB"])
        for ra, rb in zip(a.records, b.records):
            assert ra.mse == rb.mse
            assert ra.selection == rb.selection
            assert np.array_equal(ra.chi, rb.chi)
            assert np.array_equal(ra.global_params.values, rb.global_params.values)

    def test_zero_rounds_returns_initial_model(self, small_datasets):
        cfg = small_config(n_rounds=0, policies=("intelliselect",))
        runs = run_experiment(cfg, small_datasets)
        assert all(run.records == [] for run in runs)
        expected = init_params(cfg.network_spec, cfg.seed)
        for run in runs:
            assert np.array_equal(run.initial_params.values, expected.values)
            assert run.global_params is run.initial_params

    def test_all_slices_run_independently(self, small_datasets):
        cfg = small_config(n_rounds=1, policies=("intelliselect",))
        runs = run_experiment(cfg, small_datasets)
        assert [r.slice_name for r in runs] == ["eMBB", "SocialMedia", "Browsing"]
        mses = {r.slice_name: r.records[0].mse for r in runs}
        assert len(set(mses.values())) == 3  # different data per slice

    def test_shared_initial_model_across_slices_and_policies(self, small_datasets):
        cfg = small_config(n_rounds=0)
        runs = run_experiment(dataclasses.replace(cfg, policies=("intelliselect", "score")),
                              small_datasets)
        assert [(r.policy, r.slice_name) for r in runs] == [
            (policy, name) for policy in ("intelliselect", "score") for name in cfg.slices
        ]
        reference = runs[0].initial_params.values
        for run in runs:
            assert np.array_equal(run.initial_params.values, reference)

    def test_missing_slice_data_rejected(self, small_datasets):
        cfg = small_config()
        with pytest.raises(ConfigError):
            run_experiment(cfg, {"eMBB": small_datasets["eMBB"]})

    def test_datasets_do_not_depend_on_policy(self, small_datasets):
        cfg = small_config(n_rounds=0)
        runs = run_experiment(cfg, small_datasets)
        for run in runs:
            assert all(a is b for a, b in
                       zip(run.datasets, small_datasets[run.slice_name], strict=True))
        rebuilt = build_datasets(cfg)
        for s in rebuilt:
            for da, db in zip(small_datasets[s], rebuilt[s]):
                for name in ("scaled_features", "scaled_targets", "raw_test_targets"):
                    assert np.array_equal(getattr(da, name), getattr(db, name))

    def test_score_policy_runs(self, small_datasets):
        cfg = small_config(n_rounds=2)
        run = run_embb(cfg, "score", small_datasets["eMBB"])
        assert len(run.records) == 2
        assert all(len(r.selection.selected) == cfg.n_selected for r in run.records)

    def test_pooled_test_set_is_client_ordered_concatenation(self, small_datasets):
        datasets = small_datasets["eMBB"]
        feats, targets = pooled_test_set(datasets)
        assert feats.shape[0] == sum(d.size - d.n_train for d in datasets)
        offset = 0
        for d in datasets:
            n = d.size - d.n_train
            assert np.array_equal(feats[offset:offset + n], d.test_features)
            assert np.array_equal(targets[offset:offset + n], d.test_targets)
            offset += n
