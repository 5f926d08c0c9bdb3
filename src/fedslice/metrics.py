"""Communication-overhead accounting, provisioning analysis, and persistence.

Link load is counted in single-float parameters, never measured: every round
the server pushes the global model to all clients, selected clients push
their weights back, and attribution-driven policies additionally exchange
attribution vectors (plus per-client scores and the global importance vector
for the score baseline). Provisioning error is prediction minus truth in
original CPU-percent units.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import check_fields, format_rows, from_json, write_csv
from .errors import ConfigError
from .nn import ModelParams, forward_batch
from .selection import POLICIES, POLICY_INTELLISELECT, POLICY_NO_POLICY, POLICY_SCORE

SUMMARY_SCHEMA_VERSION = 1
ROUNDS_HEADER = ("round", "mse", "cum_time_ms", "selected_ids", "params_transmitted")
SELECTED_IDS_SEP = ";"
# Relative MSE margin above the final round's within which a round counts as converged.
CONVERGENCE_TOLERANCE = 0.05


def comm_cost(policy: str, n_clients: int, n_selected: int, n_features: int,
              param_count: int) -> tuple[int, int]:
    """Single-float parameters one round of `policy` sends, as (downlink, uplink).

    All policies broadcast the global model to every client. Only selected
    clients upload weights under the attribution policies; the all-clients
    baseline uploads everyone's. Attribution policies upload one importance
    value per client per feature; the score baseline additionally uploads one
    score per client and broadcasts the global importance vector.
    """
    downlink = n_clients * param_count
    if policy == POLICY_NO_POLICY:
        return downlink, n_clients * param_count
    uplink = n_selected * param_count + n_clients * n_features
    if policy == POLICY_SCORE:
        return downlink + n_features, uplink + n_clients
    return downlink, uplink


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
    write_csv(path, ROUNDS_HEADER, format_rows("%d,%.17g,%.17g,%s,%d", (
        (r.round_index, r.mse, r.cum_time_ms,
         SELECTED_IDS_SEP.join(str(c) for c in r.selection.selected), params_transmitted)
        for r in records)))


def write_comm_ledger_csv(path: Path, links: dict[str, tuple[int, int]], n_rounds: int) -> None:
    """Per policy and round: the policy's (downlink, uplink), their sum and the running total."""
    write_csv(path, ("policy", "round", "downlink_params", "uplink_params", "round_total",
                     "cumulative_total"),
              format_rows("%s,%d,%d,%d,%d,%d",
                          ((policy, t, down, up, down + up, (down + up) * (t + 1))
                           for policy, (down, up) in links.items() for t in range(n_rounds))))


def write_attributions_csv(path: Path, chi_rounds: list[np.ndarray]) -> None:
    n_features = chi_rounds[0].shape[1]
    write_csv(path, ["round", "client_id"] + [f"chi_{f}" for f in range(n_features)],
              format_rows("%d,%d" + ",%.17g" * n_features,
                          ((t, k, *row) for t, chi in enumerate(chi_rounds)
                           for k, row in enumerate(chi.tolist()))))


def write_selection_csv(path: Path, selections) -> None:
    write_csv(path, ("round", "client_id", "selected_by_feature", "chi_value"),
              format_rows("%d,%d,%d,%.17g",
                          ((t, audit.client_id, audit.feature, audit.chi_value)
                           for t, sel in enumerate(selections) for audit in sel.audit)))


# Report rows made Python numbers at a time: a 50-client report's 10,000 at once held 0.39 MiB.
_CHUNK_ROWS = 1024


def write_provisioning_csv(path: Path, policy: str,
                           round_reports: list[tuple[int, ProvisioningReport]]) -> None:
    write_csv(path, ("policy", "round", "client_id", "sample_index", "p_err"),
              format_rows("%s,%d,%d,%d,%.17g",
                          ((policy, round_index, cid, i, err)
                           for round_index, report in round_reports
                           for at in range(0, report.errors.shape[0], _CHUNK_ROWS)
                           for i, cid, err in zip(range(at, at + _CHUNK_ROWS),
                                                  report.client_ids[at:at + _CHUNK_ROWS].tolist(),
                                                  report.errors[at:at + _CHUNK_ROWS].tolist()))))


@dataclass(frozen=True)
class FederationSummary:
    """One (slice, policy) federation's entry under `slices` in summary.json.

    After zero rounds `final_mse` and `convergence_round` are None. Construction
    raises ConfigError naming the first field that does not fit its annotation.
    """

    rounds: int
    final_mse: float | None
    convergence_round: int | None
    cum_time_ms: float
    total_comm_params: int

    def __post_init__(self) -> None:
        check_fields(self)


def validate_summary(summary) -> dict[str, dict[str, FederationSummary]]:
    """A summary's entries by slice and policy; ValueError when it does not match the schema.

    Entries are read by `from_json`, so an unknown or missing key is an error. No bool is an int.
    """
    if not isinstance(summary, dict):
        raise ValueError("summary must be a JSON object")
    version = summary.get("schema_version")
    if type(version) is not int or version != SUMMARY_SCHEMA_VERSION:
        raise ValueError(f"summary schema_version must be {SUMMARY_SCHEMA_VERSION}")
    for key, kind in (("config", dict), ("comm_model", dict), ("slices", dict),
                      ("provisioning", dict), ("total_comm_params", int)):
        if type(summary.get(key)) is not kind:
            raise ValueError(f"summary[{key!r}] must be a {kind.__name__}")
    for policy, model in summary["comm_model"].items():
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r} in comm_model")
        if type(model) is not dict:
            raise ValueError(f"comm_model[{policy!r}] must be a dict, got {model!r}")
        for field in ("downlink_per_round", "uplink_per_round", "rounds", "total"):
            if type(model.get(field)) is not int:
                raise ValueError(f"comm_model[{policy!r}][{field!r}] must be an int")
    entries: dict[str, dict[str, FederationSummary]] = {}
    for slice_name, policies in summary["slices"].items():
        if type(policies) is not dict:
            raise ValueError(f"slices[{slice_name!r}] must be a dict, got {policies!r}")
        parsed = entries[slice_name] = {}
        for policy, entry in policies.items():
            if policy not in POLICIES:
                raise ValueError(f"unknown policy {policy!r} under slice {slice_name!r}")
            parsed[policy] = from_json(FederationSummary, entry,
                                       f"slices[{slice_name!r}][{policy!r}]")
    return entries


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
    summary_path = out / "summary.json"

    def csv_path(name: str) -> Path:
        paths[name] = out / f"{name}.csv"
        return paths[name]

    spec = cfg.network_spec
    links = {policy: comm_cost(policy, cfg.n_clients, cfg.n_selected, spec.n_features,
                               spec.param_count)
             for policy in cfg.policies}
    round_totals = {policy: down + up for policy, (down, up) in links.items()}
    run_totals = {policy: total * cfg.n_rounds for policy, total in round_totals.items()}
    reported = POLICY_INTELLISELECT if POLICY_INTELLISELECT in cfg.policies else cfg.policies[0]
    slices: dict[str, dict] = {}
    provisioning: dict[str, dict] = {}

    for run in runs:
        stem = f"{run.slice_name}_{run.policy}"
        write_rounds_csv(csv_path(f"rounds_{stem}"), run.records, round_totals[run.policy])
        chi_rounds = [r.chi for r in run.records if r.chi is not None]
        if chi_rounds:
            write_attributions_csv(csv_path(f"attributions_{stem}"), chi_rounds)
        selections = [r.selection for r in run.records]
        if any(s.audit for s in selections):
            write_selection_csv(csv_path(f"selection_{stem}"), selections)

        mses = [r.mse for r in run.records]
        try:
            entry = FederationSummary(len(mses), mses[-1] if mses else None,
                                      convergence_round(mses) if mses else None,
                                      run.records[-1].cum_time_ms if mses else 0.0,
                                      run_totals[run.policy])
        except ConfigError as exc:  # a non-finite value is a runtime failure, not bad input
            raise ValueError(f"{summary_path}: {exc}") from None
        slices.setdefault(run.slice_name, {})[run.policy] = dataclasses.asdict(entry)
        if run.policy == reported and mses:
            round_reports = [(t, slice_provisioning(run.records[t].global_params, run.datasets))
                             for t in sorted({0, entry.convergence_round})]
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

    write_comm_ledger_csv(csv_path("comm_ledger"), links, cfg.n_rounds)

    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "comm_model": {
            policy: {
                "downlink_per_round": down,
                "uplink_per_round": up,
                "rounds": cfg.n_rounds,
                "total": run_totals[policy],
            }
            for policy, (down, up) in links.items()
        },
        "slices": slices,
        "provisioning": provisioning,
        "total_comm_params": sum(run_totals[run.policy] for run in runs),
    }
    try:
        validate_summary(summary)
        text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{summary_path}: {exc}") from None
    summary_path.write_text(text + "\n")
    paths["summary"] = summary_path
    return paths
