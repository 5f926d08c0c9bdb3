"""Command-line entry point: run experiments, generate datasets, compare runs.

The CLI is a thin shell over the library: it parses a JSON config (plus
``--override key=value`` pairs), dispatches, and maps errors to exit codes
(0 success, 2 usage/config, 3 runtime failure). Every run directory gets
exactly one ``manifest.json`` echoing the effective configuration.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from . import metrics as metrics_mod
from .data import SLICES, NonIidProfile, default_profiles, generate_client_table, ingest_csv, slice_by_name, write_client_csv
from .errors import ConfigError, DataParseError, DataSchemaError, GenerationError
from .federation import (
    DEFAULT_SLICE_NAMES,
    ExperimentConfig,
    SliceRun,
    client_seed,
    run_slice,
)
from .metrics import comm_cost, convergence_round, slice_provisioning
from .selection import POLICIES, POLICY_INTELLISELECT

MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_CONFIG_ERRORS = (
    ConfigError,
    DataSchemaError,
    DataParseError,
    GenerationError,
    FileNotFoundError,
    json.JSONDecodeError,
)


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ConfigError(f"override {text!r} must look like key=value")
    key, raw = text.split("=", 1)
    key = key.strip()
    if not key:
        raise ConfigError(f"override {text!r} has an empty key")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _load_config(config_path: str | None, overrides: list[str]) -> tuple[dict, list[str]]:
    """Merge file config and overrides; returns (raw config dict, policies)."""
    raw: dict = {}
    if config_path is not None:
        text = Path(config_path).read_text()
        loaded = json.loads(text)
        if not isinstance(loaded, dict):
            raise ConfigError(f"{config_path}: top-level config must be an object")
        raw.update(loaded)
    for text in overrides:
        key, value = _parse_override(text)
        raw[key] = value
    policies = raw.pop("policies", list(POLICIES))
    if isinstance(policies, str):
        policies = [p.strip() for p in policies.split(",") if p.strip()]
    for policy in policies:
        if policy not in POLICIES:
            raise ConfigError(f"unknown policy {policy!r}, expected one of {POLICIES}")
    if not policies:
        raise ConfigError("at least one policy is required")
    raw.pop("policy", None)
    return raw, list(policies)


def _ingest_datasets(cfg: ExperimentConfig) -> dict[str, list]:
    """Load every client's CSV; each slice's files must share one row count.

    Clients of a slice train in lockstep, and each train split must hold the
    attribution pool, so both are checked here, naming the files.
    """
    data_dir = Path(cfg.data_dir)
    missing = []
    datasets: dict[str, list] = {}
    for name in cfg.slices:
        spec = slice_by_name(name)
        slice_index = DEFAULT_SLICE_NAMES.index(name)
        rows, listing = [], []
        for k in range(cfg.n_clients):
            path = data_dir / f"client{k:02d}_{name}.csv"
            if not path.exists():
                missing.append(str(path))
                continue
            ds = ingest_csv(path, spec, client_id=k,
                            seed=client_seed(cfg.seed, slice_index, k),
                            train_fraction=cfg.train_fraction)
            pool = ds.attribution_indices.shape[0]
            if pool < cfg.attribution_samples:
                raise ConfigError(
                    f"{path}: train split has {pool} rows, fewer than "
                    f"attribution_samples ({cfg.attribution_samples})"
                )
            rows.append(ds)
            listing.append(f"{path} ({ds.size} rows)")
        if len({ds.size for ds in rows}) > 1:
            raise ConfigError(
                f"slice {name!r}: client files differ in row count: {', '.join(listing)}"
            )
        datasets[name] = rows
    if missing:
        raise ConfigError(f"missing dataset file(s): {', '.join(missing)}")
    return datasets


def _run_all(base: ExperimentConfig, policies: list[str], datasets) -> dict[str, list[SliceRun]]:
    by_policy: dict[str, list[SliceRun]] = {}
    for policy in policies:
        cfg = dataclasses.replace(base, policy=policy)
        by_policy[policy] = [run_slice(cfg, name, datasets[name]) for name in cfg.slices]
    return by_policy


def _provisioning_rows(runs_by_policy: dict[str, list[SliceRun]],
                       policies: list[str]) -> dict[str, tuple[str, list]]:
    """Per-slice provisioning at round 0 and at the convergence round.

    Uses the attribution-policy run when present so the report reflects the
    selection policy under study.
    """
    chosen = POLICY_INTELLISELECT if POLICY_INTELLISELECT in policies else policies[0]
    rows: dict[str, tuple[str, list]] = {}
    for run in runs_by_policy[chosen]:
        if not run.records:
            continue
        mses = [r.mse for r in run.records]
        conv = convergence_round(mses)
        report_rounds = [(0, slice_provisioning(run.round_params[0], run.datasets))]
        if conv != 0:
            report_rounds.append((conv, slice_provisioning(run.round_params[conv], run.datasets)))
        rows[run.slice_name] = (chosen, report_rounds)
    return rows


def cmd_run(args: argparse.Namespace) -> int:
    raw, policies = _load_config(args.config, args.override)
    if args.policies:
        policies = [p.strip() for p in args.policies.split(",") if p.strip()]
        for policy in policies:
            if policy not in POLICIES:
                raise ConfigError(f"unknown policy {policy!r}, expected one of {POLICIES}")
    base = ExperimentConfig.from_dict(raw)

    out_dir = Path(args.out)
    started = datetime.now(timezone.utc).isoformat()
    if base.data_dir is not None:
        datasets = _ingest_datasets(base)
    else:
        from .federation import build_datasets
        datasets = build_datasets(base)

    runs_by_policy = _run_all(base, policies, datasets)
    all_runs = [run for policy in policies for run in runs_by_policy[policy]]
    ledgers = [
        comm_cost(policy, base.n_clients, base.n_selected, base.n_features,
                  base.network_spec.param_count, base.n_rounds)
        for policy in policies
    ]
    provisioning = _provisioning_rows(runs_by_policy, policies) if base.n_rounds > 0 else {}

    config_echo = base.to_dict()
    config_echo["policies"] = policies
    paths = metrics_mod.persist(out_dir, all_runs, ledgers, provisioning, config_echo)

    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "code_version": __version__,
        "seed": base.seed,
        "started_utc": started,
        "config": config_echo,
        "overrides": list(args.override),
        "outputs": {name: str(path) for name, path in sorted(paths.items())},
    }
    (out_dir / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    for run in all_runs:
        final = run.records[-1].mse if run.records else float("nan")
        print(f"slice={run.slice_name} policy={run.policy} "
              f"rounds={len(run.records)} final_mse={final:.6g}")
    print(f"outputs written to {out_dir}")
    return EXIT_OK


def _load_profiles(path: str) -> tuple[list[NonIidProfile], dict]:
    spec = json.loads(Path(path).read_text())
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: profile file must be a JSON object")
    known = {"n_clients", "samples_per_client", "seed", "slices", "profiles"}
    unknown = sorted(set(spec) - known)
    if unknown:
        raise ConfigError(f"{path}: unknown profile key(s): {', '.join(unknown)}")
    n_clients = int(spec.get("n_clients", 10))
    if n_clients < 1:
        raise ConfigError("n_clients must be at least 1")
    seed = int(spec.get("seed", 42))
    if "profiles" in spec:
        profiles = []
        for entry in spec["profiles"]:
            try:
                profiles.append(NonIidProfile(
                    client_id=int(entry["client_id"]),
                    traffic_scale=float(entry["traffic_scale"]),
                    diurnal_phase=float(entry["diurnal_phase"]),
                    cqi_mean=float(entry["cqi_mean"]),
                    noise_level=float(entry["noise_level"]),
                    mix_weights=tuple(entry["mix_weights"]),
                    diurnal_amplitude=float(entry.get("diurnal_amplitude", 0.5)),
                ))
            except KeyError as exc:
                raise ConfigError(f"{path}: profile entry missing field {exc}") from None
        if len(profiles) != n_clients:
            raise ConfigError(f"{path}: {len(profiles)} profiles for n_clients={n_clients}")
    else:
        profiles = default_profiles(n_clients, seed)
    meta = {
        "n_clients": n_clients,
        "samples_per_client": int(spec.get("samples_per_client", 1000)),
        "seed": seed,
        "slices": list(spec.get("slices", list(DEFAULT_SLICE_NAMES))),
    }
    if meta["samples_per_client"] < 2:
        raise ConfigError("samples_per_client must be at least 2")
    return profiles, meta


def cmd_gen_data(args: argparse.Namespace) -> int:
    profiles, meta = _load_profiles(args.profiles)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    count = 0
    for name in meta["slices"]:
        spec = slice_by_name(name)
        slice_index = DEFAULT_SLICE_NAMES.index(name)
        for profile in profiles:
            seed = client_seed(meta["seed"], slice_index, profile.client_id)
            table = generate_client_table(profile, spec, meta["samples_per_client"], seed)
            write_client_csv(table, out_dir / f"client{profile.client_id:02d}_{name}.csv")
            count += 1
    print(f"wrote {count} dataset file(s) to {out_dir}")
    return EXIT_OK


def _load_run_dir(path: Path) -> tuple[dict, dict]:
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise ConfigError(f"{path}: no {MANIFEST_NAME} found")
    manifest = json.loads(manifest_path.read_text())
    summary = json.loads((path / "summary.json").read_text())
    metrics_mod.validate_summary(summary)
    return manifest, summary


def _summary_rows(dir_name: str, summary: dict) -> list[dict]:
    rows = []
    for slice_name, policies in sorted(summary["slices"].items()):
        for policy, entry in sorted(policies.items()):
            rows.append({
                "run": dir_name,
                "slice": slice_name,
                "policy": policy,
                "final_mse": entry["final_mse"],
                "convergence_round": entry["convergence_round"],
                "cum_time_ms": entry["cum_time_ms"],
                "total_comm_params": entry["total_comm_params"],
            })
    return rows


def _pair_deltas(base_rows: list[dict], other_rows: list[dict]) -> list[dict]:
    """Per-slice metric deltas between two runs.

    Rows pair by (slice, policy) when both runs share policies; single-policy
    runs pair across policy names so baselines can be compared directly.
    """
    deltas = []
    slices = sorted({r["slice"] for r in base_rows} & {r["slice"] for r in other_rows})
    for slice_name in slices:
        base_slice = [r for r in base_rows if r["slice"] == slice_name]
        other_slice = [r for r in other_rows if r["slice"] == slice_name]
        base_policies = {r["policy"] for r in base_slice}
        other_policies = {r["policy"] for r in other_slice}
        if base_policies == other_policies:
            pairs = [
                (b, next(o for o in other_slice if o["policy"] == b["policy"]))
                for b in base_slice
            ]
        elif len(base_slice) == 1 and len(other_slice) == 1:
            pairs = [(base_slice[0], other_slice[0])]
        else:
            continue
        for b, o in pairs:
            deltas.append({
                "slice": slice_name,
                "base_policy": b["policy"],
                "other_policy": o["policy"],
                "final_mse_delta": o["final_mse"] - b["final_mse"],
                "convergence_round_delta": o["convergence_round"] - b["convergence_round"],
                "cum_time_ms_delta": o["cum_time_ms"] - b["cum_time_ms"],
                "total_comm_params_delta": o["total_comm_params"] - b["total_comm_params"],
            })
    return deltas


def cmd_compare(args: argparse.Namespace) -> int:
    if len(args.run_dirs) < 2:
        raise ConfigError("compare needs at least two run directories")
    loaded = [(Path(d), *_load_run_dir(Path(d))) for d in args.run_dirs]

    seeds = {manifest["seed"] for _, manifest, _ in loaded}
    if len(seeds) != 1:
        raise ConfigError(f"run seeds differ: {sorted(seeds)}")
    slice_sets = {tuple(sorted(summary["slices"])) for _, _, summary in loaded}
    if len(slice_sets) != 1:
        raise ConfigError("runs cover different slice sets")

    all_rows = []
    for path, _, summary in loaded:
        all_rows.append(_summary_rows(path.name, summary))

    header = ["run", "slice", "policy", "final_mse", "convergence_round",
              "cum_time_ms", "total_comm_params"]
    print("  ".join(f"{h:>18}" for h in header))
    for rows in all_rows:
        for r in rows:
            print("  ".join(f"{str(r[h])[:18]:>18}" for h in header))

    deltas = []
    for rows in all_rows[1:]:
        deltas.extend(_pair_deltas(all_rows[0], rows))
    if deltas:
        print("\ndeltas vs first run:")
        for d in deltas:
            print(f"  slice={d['slice']} {d['base_policy']} -> {d['other_policy']}: "
                  f"final_mse {d['final_mse_delta']:+.6g}, "
                  f"comm_params {d['total_comm_params_delta']:+d}")

    out_path = Path(args.out)
    with out_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rows in all_rows:
            for r in rows:
                writer.writerow([r[h] for h in header])
        writer.writerow([])
        delta_header = ["slice", "base_policy", "other_policy", "final_mse_delta",
                        "convergence_round_delta", "cum_time_ms_delta",
                        "total_comm_params_delta"]
        writer.writerow(delta_header)
        for d in deltas:
            writer.writerow([d[h] for h in delta_header])
    print(f"comparison written to {out_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedslice",
        description="Deterministic per-slice federated-learning simulator with "
                    "attribution-guided client selection.",
    )
    parser.add_argument("--verbose", "-v", action="store_true",
                        help="log one line per federated round")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run slice x policy experiments")
    p_run.add_argument("--config", default=None, help="JSON config file")
    p_run.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
    p_run.add_argument("--out", default="fedslice_out", help="output directory")
    p_run.add_argument("--policies", default=None,
                       help="comma-separated policies to run (default: all three)")
    p_run.set_defaults(func=cmd_run)

    p_gen = sub.add_parser("gen-data", help="generate synthetic client CSVs")
    p_gen.add_argument("--profiles", required=True, help="JSON profile file")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=cmd_gen_data)

    p_cmp = sub.add_parser("compare", help="compare two or more run directories")
    p_cmp.add_argument("run_dirs", nargs="+", help="run directories with manifests")
    p_cmp.add_argument("--out", default="comparison.csv", help="comparison CSV path")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(message)s",
    )
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps everything to exit 3
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
