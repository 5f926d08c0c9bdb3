"""Command-line entry point: run experiments, generate datasets, compare runs.

The CLI is a thin shell over the library: it parses a JSON config (plus
``--override key=value`` pairs), dispatches, and maps errors to exit codes
(0 success, 2 usage/config, 3 runtime failure). Every run directory gets
exactly one ``manifest.json`` echoing the effective configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from . import metrics as metrics_mod
from .data import (DataSpec, NonIidProfile, default_profiles, from_json, generate_client_table,
                   ingest_csv, slice_by_name, write_client_csv)
from .errors import ConfigError
from .federation import ExperimentConfig, SliceRun, client_seed, run_experiment
from .metrics import comm_cost, convergence_round, slice_provisioning
from .selection import POLICIES, POLICY_INTELLISELECT, check_policies

MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_CONFIG_ERRORS = (ConfigError, FileNotFoundError)


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


def _read_json(path: str | Path):
    """The parsed contents of a JSON file; malformed JSON is a ConfigError naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _load_config(config_path: str | None, overrides: list[str],
                 policies_flag: str | None) -> tuple[dict, list[str]]:
    """Merge file config and overrides; returns (raw config dict, policies).

    The `--policies` flag, when given, wins over a `policies` key.
    """
    raw: dict = {}
    if config_path is not None:
        loaded = _read_json(config_path)
        if not isinstance(loaded, dict):
            raise ConfigError(f"{config_path}: top-level config must be an object")
        raw.update(loaded)
    for text in overrides:
        key, value = _parse_override(text)
        raw[key] = value
    if "policy" in raw:
        raise ConfigError("config key 'policy' is not accepted; "
                          "name the policies to run with 'policies' or --policies")
    policies = raw.pop("policies", list(POLICIES))
    if not (isinstance(policies, str) or isinstance(policies, list)
            and all(isinstance(p, str) for p in policies)):
        raise ConfigError(f"policies must be a string or a list of strings, got {policies!r}")
    if policies_flag is not None:
        policies = policies_flag
    if isinstance(policies, str):
        policies = [p.strip() for p in policies.split(",") if p.strip()]
    check_policies(policies)
    return raw, list(policies)


def _ingest_datasets(cfg: ExperimentConfig) -> dict[str, list]:
    """Load every client's CSV; each train split must hold the attribution pool.

    Every file is checked to exist before any is parsed. Files of a slice may
    differ in row count: clients train in one lockstep call per train row count.
    """
    data_dir = Path(cfg.data_dir)
    paths = {name: [data_dir / f"client{k:02d}_{name}.csv" for k in range(cfg.n_clients)]
             for name in cfg.slices}
    missing = [str(path) for slice_paths in paths.values() for path in slice_paths
               if not path.exists()]
    if missing:
        raise ConfigError(f"missing dataset file(s): {', '.join(missing)}")
    datasets: dict[str, list] = {}
    for name, slice_paths in paths.items():
        spec = slice_by_name(name)
        rows = []
        for k, path in enumerate(slice_paths):
            ds = ingest_csv(path, spec, client_id=k,
                            seed=client_seed(cfg.seed, name, k),
                            train_fraction=cfg.train_fraction)
            pool = ds.attribution_indices.shape[0]
            if pool < cfg.attribution_samples:
                raise ConfigError(
                    f"{path}: train split has {pool} rows, fewer than "
                    f"attribution_samples ({cfg.attribution_samples})"
                )
            rows.append(ds)
        datasets[name] = rows
    return datasets


def _provisioning_rows(runs: list[SliceRun],
                       policies: list[str]) -> dict[str, tuple[str, list]]:
    """Per-slice provisioning at round 0 and at the convergence round.

    Uses the attribution-policy run when present so the report reflects the
    selection policy under study.
    """
    chosen = POLICY_INTELLISELECT if POLICY_INTELLISELECT in policies else policies[0]
    rows: dict[str, tuple[str, list]] = {}
    for run in runs:
        if run.policy != chosen or not run.records:
            continue
        mses = [r.mse for r in run.records]
        conv = convergence_round(mses)
        report_rounds = [(t, slice_provisioning(run.records[t].global_params, run.datasets))
                         for t in sorted({0, conv})]
        rows[run.slice_name] = (chosen, report_rounds)
    return rows


def cmd_run(args: argparse.Namespace) -> int:
    raw, policies = _load_config(args.config, args.override, args.policies)
    base = from_json(ExperimentConfig, raw, "config")

    out_dir = Path(args.out)
    started = datetime.now(timezone.utc).isoformat()
    if base.data_dir is not None:
        datasets = _ingest_datasets(base)
    else:
        from .federation import build_datasets
        datasets = build_datasets(base)

    runs = run_experiment(base, policies, datasets)
    spec = base.network_spec
    ledgers = [
        comm_cost(policy, base.n_clients, base.n_selected, spec.n_features,
                  spec.param_count, base.n_rounds)
        for policy in policies
    ]
    provisioning = _provisioning_rows(runs, policies)

    config_echo = base.to_dict()
    config_echo["policies"] = policies
    paths = metrics_mod.persist(out_dir, runs, ledgers, provisioning, config_echo)

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

    for run in runs:
        final = run.records[-1].mse if run.records else float("nan")
        print(f"slice={run.slice_name} policy={run.policy} "
              f"rounds={len(run.records)} final_mse={final:.6g}")
    print(f"outputs written to {out_dir}")
    return EXIT_OK


def _load_profiles(path: str) -> tuple[list[NonIidProfile], DataSpec]:
    """Read a gen-data profile file; a bad value exits 2 naming the file and key.

    The file is a `DataSpec` object plus an optional `profiles` list with one
    `NonIidProfile` object per client; without it the default profiles are used.
    """
    raw = _read_json(path)
    explicit = isinstance(raw, dict) and "profiles" in raw
    entries = raw.pop("profiles") if explicit else None
    spec = from_json(DataSpec, raw, path)
    if not explicit:
        return default_profiles(spec.n_clients, spec.seed), spec
    if not isinstance(entries, list):
        raise ConfigError(f"{path}: profiles must be a list of objects, got {entries!r}")
    profiles = [from_json(NonIidProfile, entry, f"{path}: profiles[{i}]")
                for i, entry in enumerate(entries)]
    if len(profiles) != spec.n_clients:
        raise ConfigError(f"{path}: {len(profiles)} profiles for n_clients={spec.n_clients}")
    first_index: dict[int, int] = {}
    for i, profile in enumerate(profiles):
        first = first_index.setdefault(profile.client_id, i)
        if first != i:
            raise ConfigError(f"{path}: profiles[{i}]: client_id {profile.client_id} "
                              f"repeats profiles[{first}]; each client writes its own file")
    return profiles, spec


def cmd_gen_data(args: argparse.Namespace) -> int:
    profiles, spec = _load_profiles(args.profiles)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    count = 0
    for name in spec.slices:
        slice_spec = slice_by_name(name)
        for profile in profiles:
            seed = client_seed(spec.seed, name, profile.client_id)
            table = generate_client_table(profile, slice_spec, spec.samples_per_client, seed)
            write_client_csv(table, out_dir / f"client{profile.client_id:02d}_{name}.csv")
            count += 1
    print(f"wrote {count} dataset file(s) to {out_dir}")
    return EXIT_OK


def _load_run_dir(path: Path) -> tuple[dict, dict]:
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise ConfigError(f"{path}: no {MANIFEST_NAME} found")
    manifest = _read_json(manifest_path)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("seed"), int):
        raise ConfigError(f"{manifest_path}: must be an object with an integer 'seed'")
    summary_path = path / "summary.json"
    summary = _read_json(summary_path)
    try:
        metrics_mod.validate_summary(summary)
    except ValueError as exc:
        raise ConfigError(f"{summary_path}: {exc}") from None
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


_DELTA_FIELDS = ("final_mse", "convergence_round", "cum_time_ms", "total_comm_params")


def _pair_deltas(base_rows: list[dict], other_rows: list[dict]) -> list[dict]:
    """Per-slice metric deltas between two runs.

    Rows pair by (slice, policy) when both runs share policies; single-policy
    runs pair across policy names so baselines can be compared directly. A
    delta is null when either side is null (a run of zero rounds).
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
            delta = {"slice": slice_name, "base_policy": b["policy"], "other_policy": o["policy"]}
            for field in _DELTA_FIELDS:
                delta[f"{field}_delta"] = (None if b[field] is None or o[field] is None
                                           else o[field] - b[field])
            deltas.append(delta)
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
            final = d["final_mse_delta"]
            print(f"  slice={d['slice']} {d['base_policy']} -> {d['other_policy']}: "
                  f"final_mse {'n/a' if final is None else format(final, '+.6g')}, "
                  f"comm_params {d['total_comm_params_delta']:+d}")

    out_path = Path(args.out)
    with out_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rows in all_rows:
            for r in rows:
                writer.writerow([r[h] for h in header])
        writer.writerow([])
        delta_header = ["slice", "base_policy", "other_policy",
                        *(f"{field}_delta" for field in _DELTA_FIELDS)]
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
