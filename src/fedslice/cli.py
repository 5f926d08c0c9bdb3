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
import importlib.util
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

# One BLAS thread, set before numpy loads. No layer here is wider than 3, so
# threading gains nothing, and OpenBLAS's idle worker only spins; threads would
# also split, and so change the bits of, an MSE over more than 10,000 test rows.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))


def _importable(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ImportError:  # a meta-path finder may refuse the name outright
        return False


# No OpenSSL, set before numpy.random loads. numpy.random imports `secrets`,
# and so `hmac`, `hashlib` and `_hashlib`, which maps libcrypto (about 3.4 MiB
# resident); fedslice seeds every generator and hashes nothing. With
# `_hashlib` blocked, `hashlib` and `hmac` use CPython's own hash modules, so
# the block waits for all of them: without one, `import random` or `hashlib`
# would fail. A caller that loaded `_hashlib` first keeps it.
_BUILTIN_HASHES = ("_md5", "_sha1", "_sha3", "_blake2",
                   *(("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")))
if all(_importable(name) for name in _BUILTIN_HASHES):
    sys.modules.setdefault("_hashlib", None)

import numpy as np

from . import __version__, federation
from . import metrics as metrics_mod
from .data import (DataSpec, NonIidProfile, default_profiles, from_json, generate_client_table,
                   ingest_csv, read_error, slice_by_name, write_client_csv)
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
    """The parsed contents of a JSON file; an unreadable or malformed file is a ConfigError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise read_error(path, exc) from None
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


def _out_dir(out: str) -> Path:
    """`--out` as a Path; ConfigError when its nearest existing path is not a directory.

    Creates nothing, so a run refused later leaves no output directory behind.
    """
    out_dir = Path(out)
    existing = next((path for path in (out_dir, *out_dir.parents) if path.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigError(f"--out {out}: {existing} is not a directory")
    return out_dir


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
    out_dir = _out_dir(args.out)
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
    manifest_path = out_dir / MANIFEST_NAME
    try:
        text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # a program fault: the config's floats were checked finite
        raise ValueError(f"{manifest_path}: {exc}") from None
    manifest_path.write_text(text + "\n")

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
    """Write every client's CSV; a table with a non-finite cell exits 2 and leaves none."""
    profiles, spec = _load_profiles(args.profiles)
    out_dir = _out_dir(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name in spec.slices:
        slice_spec = slice_by_name(name)
        for i, profile in enumerate(profiles):
            seed = client_seed(spec.seed, name, profile.client_id)
            # An extreme profile can overflow; the writer refuses what is not finite.
            with np.errstate(all="ignore"):
                table = generate_client_table(profile, slice_spec, spec.samples_per_client, seed)
            path = _client_csv(out_dir, profile.client_id, name)
            try:
                write_client_csv(table, path)
            except ConfigError as exc:
                for done in written:
                    done.unlink()
                raise ConfigError(f"{args.profiles}: profiles[{i}]: slice {name}, {exc}") from None
            written.append(path)
    print(f"wrote {len(written)} dataset file(s) to {out_dir}")
    return EXIT_OK


def _load_run_dir(path: Path) -> tuple[dict, dict]:
    """A run directory's manifest and its summary entries by slice and policy."""
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise ConfigError(f"{path}: no {MANIFEST_NAME} found")
    manifest = _read_json(manifest_path)
    if not isinstance(manifest, dict) or type(manifest.get("seed")) is not int:
        raise ConfigError(f"{manifest_path}: must be an object with an integer 'seed'")
    summary_path = path / "summary.json"
    summary = _read_json(summary_path)
    try:
        return manifest, metrics_mod.validate_summary(summary)
    except ValueError as exc:
        raise ConfigError(f"{summary_path}: {exc}") from None


# The summary fields `compare` reports and takes deltas of.
_COMPARED = tuple(f.name for f in dataclasses.fields(metrics_mod.FederationSummary)
                  if f.name != "rounds")


def _pair_deltas(base: dict, other: dict) -> list[dict]:
    """Per-slice metric deltas between two runs' summary entries.

    Entries pair by policy when both runs share policies on a slice;
    single-policy slices pair across policy names so baselines can be
    compared directly. A delta is null when either side is null (a run of
    zero rounds).
    """
    deltas = []
    for slice_name in sorted(base.keys() & other.keys()):
        base_slice, other_slice = base[slice_name], other[slice_name]
        if base_slice.keys() == other_slice.keys():
            pairs = [(policy, policy) for policy in sorted(base_slice)]
        elif len(base_slice) == 1 and len(other_slice) == 1:
            pairs = [(*base_slice, *other_slice)]
        else:
            continue
        for b, o in pairs:
            delta = {"slice": slice_name, "base_policy": b, "other_policy": o}
            for field in _COMPARED:
                b_value = getattr(base_slice[b], field)
                o_value = getattr(other_slice[o], field)
                delta[f"{field}_delta"] = (None if b_value is None or o_value is None
                                           else o_value - b_value)
            deltas.append(delta)
    return deltas


def cmd_compare(args: argparse.Namespace) -> int:
    if len(args.run_dirs) < 2:
        raise ConfigError("compare needs at least two run directories")
    loaded = [(Path(d), *_load_run_dir(Path(d))) for d in args.run_dirs]

    seeds = {manifest["seed"] for _, manifest, _ in loaded}
    if len(seeds) != 1:
        raise ConfigError(f"run seeds differ: {sorted(seeds)}")
    if len({tuple(sorted(entries)) for _, _, entries in loaded}) != 1:
        raise ConfigError("runs cover different slice sets")

    header = ["run", "slice", "policy", *_COMPARED]
    rows = [[path.name, slice_name, policy, *(getattr(entry, f) for f in _COMPARED)]
            for path, _, entries in loaded
            for slice_name, per_policy in sorted(entries.items())
            for policy, entry in sorted(per_policy.items())]
    for row in [header, *rows]:
        print("  ".join(f"{str(cell)[:18]:>18}" for cell in row))

    base = loaded[0][2]
    deltas = [d for _, _, entries in loaded[1:] for d in _pair_deltas(base, entries)]
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
        writer.writerows(rows)
        writer.writerow([])
        delta_header = ["slice", "base_policy", "other_policy",
                        *(f"{field}_delta" for field in _COMPARED)]
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
