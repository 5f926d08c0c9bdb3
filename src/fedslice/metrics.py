"""Communication-overhead accounting, provisioning analysis, and persistence.

Link load is counted in single-float parameters, never measured: every round
the server pushes the global model to all clients, selected clients push
their weights back, and attribution-driven policies additionally exchange
attribution vectors (plus per-client scores and the global importance vector
for the score baseline). Provisioning error is prediction minus truth in
original CPU-percent units.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import write_csv
from .nn import ModelParams, forward_batch
from .selection import POLICIES, POLICY_INTELLISELECT, POLICY_NO_POLICY, POLICY_SCORE

SUMMARY_SCHEMA_VERSION = 1
ROUNDS_HEADER = ("round", "mse", "cum_time_ms", "selected_ids", "params_transmitted")
SELECTED_IDS_SEP = ";"
# Relative MSE margin above the final round's within which a round counts as converged.
CONVERGENCE_TOLERANCE = 0.05


@dataclass(frozen=True)
class CommLedger:
    """Exact per-round and cumulative link-load counts for one policy."""

    policy: str
    n_rounds: int
    downlink_per_round: int
    uplink_per_round: int

    @property
    def round_total(self) -> int:
        return self.downlink_per_round + self.uplink_per_round

    @property
    def total(self) -> int:
        return self.round_total * self.n_rounds

    def rows(self) -> list[tuple[int, int, int, int, int]]:
        """(round, downlink, uplink, round_total, cumulative_total) per round."""
        out = []
        for t in range(self.n_rounds):
            out.append((t, self.downlink_per_round, self.uplink_per_round,
                        self.round_total, self.round_total * (t + 1)))
        return out


def comm_cost(policy: str, n_clients: int, n_selected: int, n_features: int,
              param_count: int, n_rounds: int) -> CommLedger:
    """Single-float parameters exchanged per round, and over `n_rounds`, under `policy`.

    All policies broadcast the global model to every client. Only selected
    clients upload weights under the attribution policies; the all-clients
    baseline uploads everyone's. Attribution policies upload one importance
    value per client per feature; the score baseline additionally uploads one
    score per client and broadcasts the global importance vector.
    """
    downlink = n_clients * param_count
    if policy == POLICY_NO_POLICY:
        return CommLedger(policy, n_rounds, downlink, n_clients * param_count)
    uplink = n_selected * param_count + n_clients * n_features
    if policy == POLICY_SCORE:
        return CommLedger(policy, n_rounds, downlink + n_features, uplink + n_clients)
    return CommLedger(policy, n_rounds, downlink, uplink)


@dataclass(frozen=True)
class ProvisioningReport:
    """Per-sample prediction errors in CPU-percent units, sign-partitioned.

    Positive error means resources beyond the real need (over-provisioning),
    negative means starvation (under-provisioning); both sums are reported as
    non-negative magnitudes.
    """

    errors: np.ndarray
    client_ids: np.ndarray

    @property
    def over_sum(self) -> float:
        return float(self.errors[self.errors > 0.0].sum())

    @property
    def under_sum(self) -> float:
        return float(-self.errors[self.errors < 0.0].sum())


def slice_provisioning(params: ModelParams, datasets) -> ProvisioningReport:
    """Prediction error over every client's test split, each in its own CPU-percent units."""
    errors = []
    for ds in datasets:
        pred_pct = ds.scaler.inverse_target(forward_batch(params, ds.test_features))
        errors.append(pred_pct - ds.raw_test_targets)
    client_ids = np.repeat([ds.client_id for ds in datasets], [e.shape[0] for e in errors])
    return ProvisioningReport(np.concatenate(errors), client_ids)


def convergence_round(mses: list[float]) -> int:
    """First round whose MSE is within `CONVERGENCE_TOLERANCE` of the final round's MSE."""
    if not mses:
        raise ValueError("cannot locate convergence in an empty MSE series")
    threshold = mses[-1] * (1.0 + CONVERGENCE_TOLERANCE)
    for t, mse in enumerate(mses):
        if mse <= threshold:
            return t
    return len(mses) - 1


def write_rounds_csv(path: Path, records, params_transmitted: int) -> None:
    """One row per round; `params_transmitted` is the policy's per-round link load."""
    write_csv(path, ROUNDS_HEADER, "%d,%.17g,%.17g,%s,%d", (
        (r.round_index, r.mse, r.cum_time_ms,
         SELECTED_IDS_SEP.join(str(c) for c in r.selection.selected), params_transmitted)
        for r in records))


def write_comm_ledger_csv(path: Path, ledgers: list[CommLedger]) -> None:
    write_csv(path, ("policy", "round", "downlink_params", "uplink_params", "round_total",
                     "cumulative_total"), "%s,%d,%d,%d,%d,%d",
              ((ledger.policy, *row) for ledger in ledgers for row in ledger.rows()))


def write_attributions_csv(path: Path, chi_rounds: list[np.ndarray]) -> None:
    n_features = chi_rounds[0].shape[1]
    write_csv(path, ["round", "client_id"] + [f"chi_{f}" for f in range(n_features)],
              "%d,%d" + ",%.17g" * n_features,
              ((t, k, *row) for t, chi in enumerate(chi_rounds)
               for k, row in enumerate(chi.tolist())))


def write_selection_csv(path: Path, selections) -> None:
    write_csv(path, ("round", "client_id", "selected_by_feature", "chi_value"),
              "%d,%d,%d,%.17g",
              ((t, audit.client_id, audit.feature, audit.chi_value)
               for t, sel in enumerate(selections) for audit in sel.audit))


def write_provisioning_csv(path: Path, policy: str,
                           round_reports: list[tuple[int, ProvisioningReport]]) -> None:
    write_csv(path, ("policy", "round", "client_id", "sample_index", "p_err"),
              "%s,%d,%d,%d,%.17g",
              ((policy, round_index, cid, i, err) for round_index, report in round_reports
               for i, (cid, err) in enumerate(zip(report.client_ids.tolist(),
                                                  report.errors.tolist()))))


def validate_summary(summary: dict) -> None:
    """Raise ValueError when a summary does not match the documented schema."""
    if not isinstance(summary, dict):
        raise ValueError("summary must be a JSON object")
    if summary.get("schema_version") != SUMMARY_SCHEMA_VERSION:
        raise ValueError(f"summary schema_version must be {SUMMARY_SCHEMA_VERSION}")
    for key, kind in (("config", dict), ("comm_model", dict), ("slices", dict),
                      ("provisioning", dict), ("total_comm_params", int)):
        if not isinstance(summary.get(key), kind):
            raise ValueError(f"summary[{key!r}] must be a {kind.__name__}")
    for policy, model in summary["comm_model"].items():
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r} in comm_model")
        for field in ("downlink_per_round", "uplink_per_round", "rounds", "total"):
            if not isinstance(model.get(field), int):
                raise ValueError(f"comm_model[{policy!r}][{field!r}] must be an int")
    for slice_name, policies in summary["slices"].items():
        for policy, entry in policies.items():
            if policy not in POLICIES:
                raise ValueError(f"unknown policy {policy!r} under slice {slice_name!r}")
            if not isinstance(entry.get("rounds"), int):
                raise ValueError("slice entry 'rounds' must be an int")
            for field in ("final_mse", "cum_time_ms"):
                value = entry.get(field)
                if value is not None and not isinstance(value, (int, float)):
                    raise ValueError(f"slice entry {field!r} must be numeric or null")
            value = entry.get("convergence_round")
            if value is not None and not isinstance(value, int):
                raise ValueError("slice entry 'convergence_round' must be an int or null")
            if not isinstance(entry.get("total_comm_params"), int):
                raise ValueError("slice entry 'total_comm_params' must be an int")


def persist(out_dir: str | Path, cfg, runs) -> dict[str, Path]:
    """Write every file of the run directory of `cfg`'s `runs` except the manifest.

    Per federation: its rounds CSV, and its attributions and selection audit
    CSVs when it has any. Per run: the comm ledger, one provisioning CSV per
    slice and the summary JSON. Provisioning is reported for `intelliselect`
    when it ran, else for the first policy, at round 0 and at the
    convergence round. Returns a mapping of logical names to the written
    paths; raises OSError annotated with the path on I/O failure, and
    ValueError naming summary.json, which is then not written, when a
    summary value is not a finite number.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    def csv_path(name: str) -> Path:
        paths[name] = out / f"{name}.csv"
        return paths[name]

    spec = cfg.network_spec
    ledgers = {policy: comm_cost(policy, cfg.n_clients, cfg.n_selected, spec.n_features,
                                 spec.param_count, cfg.n_rounds)
               for policy in cfg.policies}
    reported = POLICY_INTELLISELECT if POLICY_INTELLISELECT in cfg.policies else cfg.policies[0]
    slices: dict[str, dict] = {}
    provisioning: dict[str, dict] = {}

    for run in runs:
        stem = f"{run.slice_name}_{run.policy}"
        ledger = ledgers[run.policy]
        write_rounds_csv(csv_path(f"rounds_{stem}"), run.records, ledger.round_total)
        chi_rounds = [r.chi for r in run.records if r.chi is not None]
        if chi_rounds:
            write_attributions_csv(csv_path(f"attributions_{stem}"), chi_rounds)
        selections = [r.selection for r in run.records]
        if any(s.audit for s in selections):
            write_selection_csv(csv_path(f"selection_{stem}"), selections)

        mses = [r.mse for r in run.records]
        converged = convergence_round(mses) if mses else None
        slices.setdefault(run.slice_name, {})[run.policy] = {
            "rounds": len(mses),
            "final_mse": mses[-1] if mses else None,
            "convergence_round": converged,
            "cum_time_ms": run.records[-1].cum_time_ms if mses else 0.0,
            "total_comm_params": ledger.total,
        }
        if run.policy == reported and mses:
            round_reports = [(t, slice_provisioning(run.records[t].global_params, run.datasets))
                             for t in sorted({0, converged})]
            write_provisioning_csv(csv_path(f"provisioning_{run.slice_name}"), reported,
                                   round_reports)
            provisioning[run.slice_name] = {
                "policy": reported,
                "rounds": {
                    str(t): {
                        "over_provisioning_sum": report.over_sum,
                        "under_provisioning_sum": report.under_sum,
                    }
                    for t, report in round_reports
                },
            }

    write_comm_ledger_csv(csv_path("comm_ledger"), list(ledgers.values()))

    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "comm_model": {
            policy: {
                "downlink_per_round": ledger.downlink_per_round,
                "uplink_per_round": ledger.uplink_per_round,
                "rounds": ledger.n_rounds,
                "total": ledger.total,
            }
            for policy, ledger in ledgers.items()
        },
        "slices": slices,
        "provisioning": provisioning,
        "total_comm_params": sum(ledgers[run.policy].total for run in runs),
    }
    validate_summary(summary)
    summary_path = out / "summary.json"
    try:
        text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{summary_path}: {exc}") from None
    summary_path.write_text(text + "\n")
    paths["summary"] = summary_path
    return paths
