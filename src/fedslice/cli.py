"""Command-line entry point: run experiments, generate datasets, compare runs.

The CLI is a thin shell over the library: it parses a JSON config (plus
``--override key=value`` pairs and ``--policies``), dispatches, and maps
errors to exit codes (0 success, 2 usage/config, 3 runtime failure). `run`
builds one `ExperimentConfig`, which names the policies too, builds or
ingests the datasets, runs every federation, has `metrics.persist` write the
run directory, and adds its one ``manifest.json`` echoing the effective
configuration.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

# One BLAS thread, set before numpy loads. No layer here is wider than 3, so
# threading gains nothing, and OpenBLAS's idle worker only spins. A dot product
# over more than 10,000 elements is split across threads, so without this an
# MSE over a pooled test set that large would depend on the thread count.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

from . import __version__, federation
from . import metrics as metrics_mod
from .data import (DataSpec, NonIidProfile, default_profiles, from_json, generate_client_table,
                   ingest_csv, slice_by_name, write_client_csv)
from .errors import ConfigError
from .federation import ExperimentConfig, client_seed, run_experiment

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


def _split_policies(text: str) -> list[str]:
    return [p.strip() for p in text.split(",") if p.strip()]


def _load_config(config_path: str | None, overrides: list[str],
                 policies_flag: str | None) -> ExperimentConfig:
    """The config file, then each override, then the `--policies` flag, as one config.

    `policies` may be a comma-separated string as well as a list. The flag,
    when given, wins over a `policies` key, which is still checked.
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
    if isinstance(raw.get("policies"), str):
        raw["policies"] = _split_policies(raw["policies"])
    cfg = from_json(ExperimentConfig, raw, "config")
    if policies_flag is not None:
        cfg = dataclasses.replace(cfg, policies=_split_policies(policies_flag))
    return cfg


def _client_csv(data_dir: str | Path, client_id: int, slice_name: str) -> Path:
    """The CSV of one client of one slice: `gen-data` writes it, `run` ingests it."""
    return Path(data_dir) / f"client{client_id:02d}_{slice_name}.csv"


def _ingest_datasets(cfg: ExperimentConfig) -> dict[str, list]:
    """Load every client's CSV; each train split must hold the attribution pool.

    Every file is checked to exist before any is parsed. Files of a slice may
    differ in row count: clients train in one lockstep call per train row count.
    """
    paths = {name: [_client_csv(cfg.data_dir, k, name) for k in range(cfg.n_clients)]
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
            if ds.n_train < cfg.attribution_samples:
                raise ConfigError(
                    f"{path}: train split has {ds.n_train} rows, fewer than "
                    f"attribution_samples ({cfg.attribution_samples})"
                )
            rows.append(ds)
        datasets[name] = rows
    return datasets


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, args.override, args.policies)
    out_dir = Path(args.out)
    started = datetime.now(timezone.utc).isoformat()
    if cfg.data_dir is not None:
        datasets = _ingest_datasets(cfg)
    else:
        datasets = federation.build_datasets(cfg)  # perfbench/traced.py wraps it there

    runs = run_experiment(cfg, datasets)
    paths = metrics_mod.persist(out_dir, cfg, runs)
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "code_version": __version__,
        "seed": cfg.seed,
        "started_utc": started,
        "config": cfg.to_dict(),
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
            write_client_csv(table, _client_csv(out_dir, profile.client_id, name))
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
