"""End-to-end acceptance checks at the default experiment scale.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live). The convergence and scalability checks run the full default
configuration: 10 clients (40/50 for scalability), 30 rounds, 150 local
epochs, 1000 samples per client, seed 42.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from fedslice.attribution import IgConfig, sample_attributions
from fedslice.federation import ExperimentConfig, build_datasets, run_slice
from fedslice.metrics import comm_cost, convergence_round, slice_provisioning
from fedslice.nn import (
    ModelParams,
    NetworkSpec,
    forward_batch,
    init_params,
    input_gradients_batch,
    param_gradients,
)
from fedslice.selection import aggregate_importance, apportion, select_clients
from fedslice import cli

SLICE_NAMES = ("eMBB", "SocialMedia", "Browsing")


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, detail


@pytest.fixture(scope="module")
def default_config():
    return ExperimentConfig()


@pytest.fixture(scope="module")
def default_datasets(default_config):
    return build_datasets(default_config)


@pytest.fixture(scope="module")
def trend_runs(default_config, default_datasets):
    """Full default-scale runs for intelliselect and no_policy on all slices."""
    runs = {}
    for policy in ("intelliselect", "no_policy"):
        cfg = dataclasses.replace(default_config, policy=policy)
        for name in SLICE_NAMES:
            runs[(policy, name)] = run_slice(cfg, name, default_datasets[name])
    return runs


def test_criterion_1_ig_completeness(rng):
    started = time.perf_counter()
    worst = 0.0
    cfg = IgConfig(steps=1024)
    for _ in range(100):
        params = ModelParams(rng.normal(0.0, 0.8, 23), NetworkSpec())
        x = rng.uniform(0.0, 1.0, (1, 3))
        ig = sample_attributions(params, x, cfg)
        gap = forward_batch(params, x)[0] - forward_batch(params, np.zeros((1, 3)))[0]
        worst = max(worst, abs(float(ig.sum()) - gap))
    elapsed = time.perf_counter() - started
    report(1, worst <= 1e-3 and elapsed < 5.0,
           f"IG completeness worst residual {worst:.2e} (<= 1e-3) in {elapsed:.2f}s (< 5s)")


def test_criterion_2_gradient_correctness(rng):
    from test_nn import central_differences, near_relu_kink, rel_err

    started = time.perf_counter()
    worst_param = worst_input = 0.0
    checked = 0
    while checked < 100:
        params = ModelParams(rng.normal(0.0, 0.8, 23), NetworkSpec())
        xs = rng.uniform(0.0, 1.0, (3, 3))
        ys = rng.uniform(0.0, 1.0, 3)
        if any(near_relu_kink(params, x) for x in xs):
            continue

        analytic = param_gradients(params, xs, ys)

        def loss(theta):
            pred = forward_batch(ModelParams(theta, NetworkSpec()), xs)
            return float(np.mean((pred - ys) ** 2))

        worst_param = max(worst_param, rel_err(analytic, central_differences(loss, params.values)))
        gi = input_gradients_batch(params, xs[:1])[0]
        numeric = central_differences(lambda v: forward_batch(params, v[None, :])[0], xs[0])
        worst_input = max(worst_input, rel_err(gi, numeric))
        checked += 1
    elapsed = time.perf_counter() - started
    ok = worst_param <= 1e-4 and worst_input <= 1e-4 and elapsed < 10.0
    report(2, ok, f"gradient FD rel err param {worst_param:.2e}, input {worst_input:.2e} "
                  f"(<= 1e-4) in {elapsed:.2f}s (< 10s)")


def test_criterion_3_apportionment_properties(rng):
    started = time.perf_counter()
    for _ in range(10_000):
        n_features = int(rng.integers(1, 8))
        raw = rng.uniform(0.0, 1.0, n_features) + 1e-12
        tau = raw / raw.sum()
        m = int(rng.integers(1, 10_001))
        quotas = apportion(tau, m)
        assert int(quotas.sum()) == m
        assert np.all(quotas >= 0)
        assert np.all(np.abs(quotas - m * tau) < 1.0)
    elapsed = time.perf_counter() - started
    report(3, elapsed < 2.0,
           f"10,000 apportionments satisfy quota and |q - m*tau| < 1 in {elapsed:.2f}s (< 2s)")


def test_criterion_4_selection_determinism_and_equivariance(rng):
    chi = rng.uniform(0.01, 1.0, (10, 3))
    chi = chi / chi.sum(axis=1, keepdims=True)
    quotas = apportion(aggregate_importance(chi), 5)
    baseline = select_clients(chi, quotas, 5)
    deterministic = all(select_clients(chi, quotas, 5) == baseline for _ in range(100))

    equivariant = True
    for _ in range(100):
        matrix = rng.uniform(0.01, 1.0, (8, 3))
        matrix = matrix / matrix.sum(axis=1, keepdims=True)
        q = apportion(aggregate_importance(matrix), 4)
        plain = select_clients(matrix, q, 4)
        perm = rng.permutation(8)
        permuted = select_clients(matrix[perm], q, 4, client_ids=[int(p) for p in perm])
        equivariant &= sorted(plain.selected) == sorted(permuted.selected)
    report(4, deterministic and equivariant,
           "selection identical across 100 reruns and equivariant under id permutation")


def test_criterion_5_fedavg_oracle(rng):
    from fedslice.federation import fedavg_aggregate

    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        params = [ModelParams(rng.normal(0.0, 1.0, 23), NetworkSpec()) for _ in range(n)]
        sizes = [int(rng.integers(1, 5000)) for _ in range(n)]
        agg = fedavg_aggregate(params, sizes)
        total = sum(sizes)
        acc = np.zeros(23)
        for p, size in zip(params, sizes):
            acc = acc + (size / total) * p.values
        worst = max(worst, float(np.abs(agg.values - acc).max()))

    equal = [ModelParams(rng.normal(0.0, 1.0, 23), NetworkSpec()) for _ in range(5)]
    agg = fedavg_aggregate(equal, [1000] * 5)
    mean = np.zeros(23)
    for p in equal:
        mean = mean + p.values * (1.0 / 5.0)
    exact = bool(np.array_equal(agg.values, mean))
    report(5, worst <= 1e-12 and exact,
           f"FedAvg matches hand loop (worst {worst:.1e} <= 1e-12); equal sizes = plain mean")


def test_criterion_6_comm_overhead_ordering():
    ledgers = {p: comm_cost(p, 10, 5, 3, 23, 30)
               for p in ("intelliselect", "score", "no_policy")}
    per_round_nop = ledgers["no_policy"].round_total
    ordered = (ledgers["intelliselect"].total < ledgers["score"].total
               < ledgers["no_policy"].total)
    report(6, ordered and per_round_nop == 460,
           f"per-round no_policy = {per_round_nop} (= 460); totals "
           f"{ledgers['intelliselect'].total} < {ledgers['score'].total} "
           f"< {ledgers['no_policy'].total}")


def test_criterion_7_convergence_trend(trend_runs):
    details = []
    ok = True
    for name in SLICE_NAMES:
        intel = [r.mse for r in trend_runs[("intelliselect", name)].records]
        nop = [r.mse for r in trend_runs[("no_policy", name)].records]
        ratio = intel[-1] / nop[-1]
        reach = next((t for t, m in enumerate(intel) if m <= nop[-1]), None)
        ok &= ratio <= 1.10 and reach is not None
        details.append(f"{name}: final ratio {ratio:.3f} (<= 1.10), "
                       f"reached no_policy final at round {reach}")
    selected_counts = {len(r.selected) for run in
                       (trend_runs[("intelliselect", n)] for n in SLICE_NAMES)
                       for r in run.records}
    ok &= selected_counts == {5}
    report(7, ok, "; ".join(details) + "; trains 5 of 10 clients per round")


def test_criterion_8_scalability_trend(default_config):
    finals = {}
    for n_clients in (40, 50):
        cfg = dataclasses.replace(default_config, n_clients=n_clients, n_selected=25)
        datasets = build_datasets(cfg)
        for name in SLICE_NAMES:
            run = run_slice(cfg, name, datasets[name])
            finals[(n_clients, name)] = run.records[-1].mse
    details = []
    ok = True
    for name in SLICE_NAMES:
        a, b = finals[(40, name)], finals[(50, name)]
        rel = abs(a - b) / max(a, b)
        ok &= rel <= 0.25
        details.append(f"{name}: K=40 vs K=50 final MSEs differ {rel:.1%} (<= 25%)")
    report(8, ok, "; ".join(details))


def test_criterion_9_provisioning_tradeoff(trend_runs):
    run = trend_runs[("intelliselect", "eMBB")]
    mses = [r.mse for r in run.records]
    conv = convergence_round(mses)
    at_start = slice_provisioning(run.round_params[0], run.datasets)
    at_conv = slice_provisioning(run.round_params[conv], run.datasets)
    ok = (at_conv.over_sum < at_start.over_sum
          and at_conv.under_sum < at_start.under_sum)
    report(9, ok,
           f"eMBB over-provisioning {at_start.over_sum:.0f} -> {at_conv.over_sum:.0f}, "
           f"under {at_start.under_sum:.0f} -> {at_conv.under_sum:.0f} "
           f"at convergence round {conv}")


def _rounds_csvs_without_time(out_dir):
    files = {}
    for path in sorted(out_dir.glob("rounds_*.csv")):
        lines = []
        for line in path.read_text().splitlines():
            fields = line.split(",")
            del fields[2]  # cum_time_ms
            lines.append(",".join(fields))
        files[path.name] = "\n".join(lines)
    return files


def test_criterion_10_end_to_end_determinism(tmp_path):
    config = {
        "n_clients": 6,
        "n_selected": 3,
        "n_rounds": 3,
        "local_epochs": 10,
        "samples_per_client": 200,
        "attribution_samples": 30,
        "ig_steps": 8,
        "seed": 42,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0

    rounds_a = _rounds_csvs_without_time(out_a)
    rounds_b = _rounds_csvs_without_time(out_b)
    same_rounds = rounds_a == rounds_b and len(rounds_a) == 9

    audit_same = True
    for pattern in ("attributions_*.csv", "selection_*.csv", "comm_ledger.csv"):
        for path in sorted(out_a.glob(pattern)):
            audit_same &= path.read_bytes() == (out_b / path.name).read_bytes()
    report(10, same_rounds and audit_same,
           "two cmd_run executions wrote byte-identical round CSVs "
           "(time column excluded) and audit files")
