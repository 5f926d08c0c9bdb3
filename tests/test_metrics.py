import json
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import read_rounds_csv, small_config
from fedslice.data import MinMaxScaler
from fedslice.federation import build_datasets, run_experiment
from fedslice.metrics import (
    ProvisioningReport,
    comm_cost,
    convergence_round,
    persist,
    slice_provisioning,
    validate_summary,
    write_rounds_csv,
)
from fedslice.nn import ModelParams, NetworkSpec


class TestCommCost:
    def test_default_scenario_counts(self):
        # K=10, m=5, F=3, 23 parameters.
        for policy, expected in (("no_policy", (230, 230)), ("intelliselect", (230, 145)),
                                 ("score", (233, 155))):
            ledger = comm_cost(policy, 10, 5, 3, 23, 1)
            assert (ledger.downlink_per_round, ledger.uplink_per_round) == expected

    def test_single_round_totals(self):
        no_policy = comm_cost("no_policy", 10, 5, 3, 23, 1)
        intelliselect = comm_cost("intelliselect", 10, 5, 3, 23, 1)
        score = comm_cost("score", 10, 5, 3, 23, 1)
        assert no_policy.total == 460
        assert intelliselect.total == 375
        assert score.total == 388

    def test_policy_ordering_holds_generally(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 60))
            m = int(rng.integers(1, k))
            f = int(rng.integers(1, 6))
            p = int(rng.integers(1, 500))
            intelli = comm_cost("intelliselect", k, m, f, p, 1).total
            score = comm_cost("score", k, m, f, p, 1).total
            nop = comm_cost("no_policy", k, m, f, p, 1).total
            assert intelli < score
            assert score < nop or (k - m) * p <= f + k + k * f

    def test_everyone_selected_no_features_matches_no_policy(self):
        a = comm_cost("intelliselect", 10, 10, 0, 23, 1)
        b = comm_cost("no_policy", 10, 10, 0, 23, 1)
        assert a.total == b.total

    def test_rounds_scale_linearly(self):
        one = comm_cost("intelliselect", 10, 5, 3, 23, 1)
        thirty = comm_cost("intelliselect", 10, 5, 3, 23, 30)
        assert thirty.total == 30 * one.total
        rows = thirty.rows()
        assert len(rows) == 30
        assert rows[-1][4] == thirty.total


def identity_scaler():
    return MinMaxScaler(np.zeros(1), np.ones(1), 0.0, 1.0)


def stand_in_split(features, raw_targets, client_id=0):
    """Minimal stand-in for the ClientDataset surface `slice_provisioning` reads."""
    return SimpleNamespace(client_id=client_id, test_features=features,
                           raw_test_targets=raw_targets, scaler=identity_scaler())


class TestProvisioning:
    def test_perfect_predictor_has_zero_sums(self):
        p = ModelParams(np.array([1.0, 0.0]), NetworkSpec((1, 1)))
        xs = np.linspace(0.1, 0.9, 10)[:, None]
        report = slice_provisioning(p, [stand_in_split(xs, xs[:, 0])])
        assert report.over_sum == 0.0
        assert report.under_sum == 0.0

    def test_constant_over_prediction(self):
        # Prediction y + 5 on 10 samples: over = 50, under = 0.
        p = ModelParams(np.array([1.0, 5.0]), NetworkSpec((1, 1)))
        xs = np.linspace(0.0, 1.0, 10)[:, None]
        report = slice_provisioning(p, [stand_in_split(xs, xs[:, 0])])
        assert report.over_sum == pytest.approx(50.0, abs=1e-9)
        assert report.under_sum == 0.0

    def test_matches_sign_partitioned_loop(self, rng):
        p = ModelParams(rng.normal(0, 1, 2), NetworkSpec((1, 1)))
        xs = rng.uniform(0, 1, (40, 1))
        ys = rng.uniform(0, 1, 40)
        report = slice_provisioning(p, [stand_in_split(xs, ys)])

        over = under = 0.0
        for x, y in zip(xs, ys):
            err = (p.values[0] * x[0] + p.values[1]) - y
            if err > 0:
                over += err
            elif err < 0:
                under += -err
        assert report.over_sum == pytest.approx(over, abs=1e-9)
        assert report.under_sum == pytest.approx(under, abs=1e-9)

    def test_sums_reconcile_with_signed_mean(self, rng):
        errors = rng.normal(0, 5, 200)
        report = ProvisioningReport(errors, np.zeros(200, dtype=np.int64))
        assert report.over_sum - report.under_sum == pytest.approx(errors.sum(), abs=1e-9)
        assert report.over_sum - report.under_sum == pytest.approx(
            errors.mean() * 200, abs=1e-9)

    def test_slice_report_concatenates_clients(self):
        cfg = small_config()
        datasets = build_datasets(cfg)["eMBB"]
        p = ModelParams(np.zeros(23), NetworkSpec())
        report = slice_provisioning(p, datasets)
        assert report.errors.shape[0] == sum(d.size - d.n_train for d in datasets)
        assert set(report.client_ids) == set(range(cfg.n_clients))


class TestConvergenceRound:
    def test_monotone_series(self):
        assert convergence_round([9.0, 4.0, 1.0, 1.0]) == 2

    def test_first_round_within_tolerance(self):
        assert convergence_round([1.04, 1.02, 1.0]) == 0

    def test_flat_series_converges_immediately(self):
        assert convergence_round([2.0, 2.0, 2.0]) == 0

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            convergence_round([])


@pytest.fixture(scope="module")
def tiny_runs():
    cfg = small_config(n_rounds=2, policies=("intelliselect",))
    return cfg, run_experiment(cfg, build_datasets(cfg))


class TestPersistence:
    def test_empty_records_write_header_only(self, tmp_path):
        path = tmp_path / "rounds.csv"
        write_rounds_csv(path, [], 0)
        assert path.read_text() == "round,mse,cum_time_ms,selected_ids,params_transmitted\n"

    def test_rounds_roundtrip(self, tmp_path, tiny_runs):
        _, runs = tiny_runs
        path = tmp_path / "rounds.csv"
        write_rounds_csv(path, runs[0].records, 375)
        parsed = read_rounds_csv(path)
        assert len(parsed) == len(runs[0].records)
        for row, record in zip(parsed, runs[0].records):
            assert row["round"] == record.round_index
            assert row["mse"] == record.mse  # 17 significant digits survive
            assert row["selected"] == record.selection.selected
            assert row["params_transmitted"] == 375

    def test_seventeen_digit_floats_are_lossless(self, rng):
        for x in rng.normal(0, 1, 100):
            assert float(f"{x:.17g}") == x

    def test_persist_writes_all_files_and_valid_summary(self, tmp_path, tiny_runs):
        cfg, runs = tiny_runs
        paths = persist(tmp_path, cfg, runs)
        for name in ("rounds_eMBB_intelliselect", "comm_ledger", "summary",
                     "provisioning_eMBB", "attributions_eMBB_intelliselect",
                     "selection_eMBB_intelliselect"):
            assert name in paths
            assert paths[name].exists()

        summary = json.loads(paths["summary"].read_text())
        validate_summary(summary)
        assert summary["slices"]["eMBB"]["intelliselect"]["rounds"] == cfg.n_rounds
        reread = read_rounds_csv(paths["rounds_eMBB_intelliselect"])
        assert [r["mse"] for r in reread] == [r.mse for r in runs[0].records]

    def test_provisioning_reports_intelliselect_at_round_0_and_convergence(self, tmp_path,
                                                                        tiny_runs):
        cfg, runs = tiny_runs
        summary = json.loads(persist(tmp_path, cfg, runs)["summary"].read_text())
        for run in runs:
            converged = convergence_round([r.mse for r in run.records])
            reported = summary["provisioning"][run.slice_name]
            assert reported["policy"] == "intelliselect"
            assert sorted(reported["rounds"]) == sorted({"0", str(converged)})
            report = slice_provisioning(run.records[converged].global_params, run.datasets)
            assert reported["rounds"][str(converged)] == {
                "over_provisioning_sum": report.over_sum,
                "under_provisioning_sum": report.under_sum,
            }

    def test_provisioning_reports_the_first_policy_without_intelliselect(self, tmp_path):
        cfg = small_config(n_rounds=1, slices=("eMBB",), policies=("score", "no_policy"))
        paths = persist(tmp_path, cfg, run_experiment(cfg, build_datasets(cfg)))
        summary = json.loads(paths["summary"].read_text())
        assert summary["provisioning"]["eMBB"]["policy"] == "score"
        assert paths["provisioning_eMBB"].read_text().splitlines()[1].startswith("score,0,")

    def test_total_comm_params_sums_every_federation(self, tmp_path):
        # Two slices per policy: each policy's ledger counts once per slice.
        cfg = small_config(n_rounds=2, slices=("eMBB", "Browsing"),
                           policies=("intelliselect", "no_policy"))
        runs = run_experiment(cfg, build_datasets(cfg))
        summary = json.loads(persist(tmp_path, cfg, runs)["summary"].read_text())
        entries = [entry for per_slice in summary["slices"].values()
                   for entry in per_slice.values()]
        assert len(entries) == 4
        assert summary["total_comm_params"] == sum(e["total_comm_params"] for e in entries)
        assert summary["total_comm_params"] == 2 * sum(
            model["total"] for model in summary["comm_model"].values())

    def test_rounds_link_load_matches_per_round_comm(self, tmp_path):
        cfg = small_config(n_rounds=2, slices=("eMBB",))
        spec = cfg.network_spec
        paths = persist(tmp_path, cfg, run_experiment(cfg, build_datasets(cfg)))
        for policy in cfg.policies:
            ledger = comm_cost(policy, cfg.n_clients, cfg.n_selected,
                               spec.n_features, spec.param_count, cfg.n_rounds)
            expected = ledger.downlink_per_round + ledger.uplink_per_round
            rows = read_rounds_csv(paths[f"rounds_eMBB_{policy}"])
            assert [r["params_transmitted"] for r in rows] == [expected] * cfg.n_rounds

    def test_summary_schema_rejects_bad_documents(self, tmp_path, tiny_runs):
        cfg, runs = tiny_runs
        good = json.loads(persist(tmp_path, cfg, runs)["summary"].read_text())
        validate_summary(good)

        for corrupt in (
            {**good, "schema_version": 99},
            {**good, "slices": "nope"},
            {**good, "total_comm_params": 1.5},
            {**good, "comm_model": {"bogus": {}}},
        ):
            with pytest.raises(ValueError):
                validate_summary(corrupt)

    def test_comm_ledger_reparses(self, tmp_path):
        cfg = small_config(n_clients=10, n_selected=5, n_rounds=4)
        paths = persist(tmp_path, cfg, [])
        lines = paths["comm_ledger"].read_text().strip().splitlines()
        assert lines[0] == "policy,round,downlink_params,uplink_params,round_total,cumulative_total"
        assert len(lines) == 1 + 3 * 4
        first = lines[1].split(",")
        assert first[0] == "intelliselect"
        assert int(first[4]) == 375
