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

from fedslice.attribution import sample_attributions
from fedslice.federation import ExperimentConfig, build_datasets, run_experiment
from fedslice.metrics import comm_cost, convergence_round, slice_provisioning
from fedslice.nn import (
    ModelParams,
    NetworkSpec,
    forward_batch,
    input_gradients_batch,
    param_gradients,
    pre_activations,
)
from fedslice.selection import apportion, select
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
    cfg = dataclasses.replace(default_config, policies=("intelliselect", "no_policy"))
    runs = run_experiment(cfg, default_datasets)
    return {(run.policy, run.slice_name): run for run in runs}


def test_criterion_1_ig_completeness(rng):
    # Random biases put ReLU kinks on many paths; a 1,024-point grid of the
    # path counts the nets where some hidden unit changes sign along it.
    started = time.perf_counter()
    worst = 0.0
    kinked = 0
    grid = np.linspace(0.0, 1.0, 1024)[:, None]
    for _ in range(1000):
        params = ModelParams(rng.normal(0.0, 0.8, 23), NetworkSpec())
        x = rng.uniform(0.0, 1.0, (1, 3))
        ig = sample_attributions(params, x)
        gap = forward_batch(params, x)[0] - forward_batch(params, np.zeros((1, 3)))[0]
        worst = max(worst, abs(float(ig.sum()) - gap))
        hidden = np.concatenate(pre_activations(params, grid * x)[:-1], axis=1) > 0.0
        kinked += bool((hidden != hidden[:1]).any())
    elapsed = time.perf_counter() - started
    report(1, worst <= 1e-12 and kinked >= 250 and elapsed < 5.0,
           f"IG completeness worst residual {worst:.2e} (<= 1e-12) over 1000 nets, "
           f"{kinked} with a kink on the path (>= 250), in {elapsed:.2f}s (< 5s)")


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
    baseline = select("intelliselect", chi, 5, 10)
    deterministic = all(select("intelliselect", chi, 5, 10) == baseline for _ in range(100))

    equivariant = True
    for _ in range(100):
        matrix = rng.uniform(0.01, 1.0, (8, 3))
        matrix = matrix / matrix.sum(axis=1, keepdims=True)
        plain = select("intelliselect", matrix, 4, 8)
        perm = rng.permutation(8)
        permuted = select("intelliselect", matrix[perm], 4, 8)
        equivariant &= sorted(plain.selected) == sorted(int(perm[k]) for k in permuted.selected)
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
    # The default config: K=10, m=5, F=3, 23 parameters, 30 rounds.
    totals = {p: 30 * sum(comm_cost(p, 10, 5, 3, 23))
              for p in ("intelliselect", "score", "no_policy")}
    per_round_nop = sum(comm_cost("no_policy", 10, 5, 3, 23))
    ordered = totals["intelliselect"] < totals["score"] < totals["no_policy"]
    report(6, ordered and per_round_nop == 460,
           f"per-round no_policy = {per_round_nop} (= 460); totals "
           f"{totals['intelliselect']} < {totals['score']} < {totals['no_policy']}")


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
    selected_counts = {len(r.selection.selected) for run in
                       (trend_runs[("intelliselect", n)] for n in SLICE_NAMES)
                       for r in run.records}
    ok &= selected_counts == {5}
    report(7, ok, "; ".join(details) + "; trains 5 of 10 clients per round")


def test_criterion_8_scalability_trend(default_config):
    finals = {}
    for n_clients in (40, 50):
        cfg = dataclasses.replace(default_config, n_clients=n_clients, n_selected=25,
                                  policies=("intelliselect",))
        for run in run_experiment(cfg, build_datasets(cfg)):
            finals[(n_clients, run.slice_name)] = run.records[-1].mse
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
    at_start = slice_provisioning(run.records[0].global_params, run.datasets)
    at_conv = slice_provisioning(run.records[conv].global_params, run.datasets)
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
