"""Output checks and the determinism digest for fedslice run directories.

The checks recompute what a run must contain from its config alone: one
rounds row per round, the selection size each policy guarantees, finite
errors, and the analytic link-load counts of the communication ledger.
The digest hashes every output with the wall-clock fields and the run
directory paths taken out, so two runs of one config must digest equally.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

# Columns and fields that hold wall-clock time or run-directory paths.
WALL_CLOCK_COLUMNS = ("cum_time_ms",)
MANIFEST_VOLATILE = ("started_utc", "outputs")


def param_count(layer_sizes: list[int]) -> int:
    return sum((a + 1) * b for a, b in zip(layer_sizes, layer_sizes[1:]))


def round_traffic(policy: str, k: int, m: int, f: int, p: int) -> tuple[int, int]:
    """(downlink, uplink) parameters per round, the formula the README documents."""
    if policy == "no_policy":
        return k * p, k * p
    if policy == "score":
        return k * p + f, m * p + k * f + k
    return k * p, m * p + k * f


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_run(out_dir: Path, expect: dict) -> list[str]:
    """Problems found in one ``fedslice run`` output directory; empty when sound."""
    problems = []
    k, m, rounds = expect["n_clients"], expect["n_selected"], expect["n_rounds"]
    f = expect["layer_sizes"][0]
    p = param_count(expect["layer_sizes"])
    for slice_name in expect["slices"]:
        for policy in expect["policies"]:
            path = out_dir / f"rounds_{slice_name}_{policy}.csv"
            if not path.exists():
                problems.append(f"{path.name}: missing")
                continue
            header, rows = _read_csv(path)
            if len(rows) != rounds:
                problems.append(f"{path.name}: {len(rows)} rows, expected {rounds}")
            want = k if policy == "no_policy" else m
            for row in rows:
                record = dict(zip(header, row))
                if not math.isfinite(float(record["mse"])):
                    problems.append(f"{path.name} round {record['round']}: mse {record['mse']}")
                ids = record["selected_ids"].split(";") if record["selected_ids"] else []
                if len(set(ids)) != want or len(ids) != want:
                    problems.append(f"{path.name} round {record['round']}: selected "
                                    f"{len(ids)} ids ({len(set(ids))} distinct), expected {want}")

    header, rows = _read_csv(out_dir / "comm_ledger.csv")
    seen = {policy: 0 for policy in expect["policies"]}
    for row in rows:
        record = dict(zip(header, row))
        policy, t = record["policy"], int(record["round"])
        down, up = round_traffic(policy, k, m, f, p)
        got = tuple(int(record[c]) for c in
                    ("downlink_params", "uplink_params", "round_total", "cumulative_total"))
        if got != (down, up, down + up, (down + up) * (t + 1)):
            problems.append(f"comm_ledger.csv {policy} round {t}: {got}, "
                            f"expected {(down, up, down + up, (down + up) * (t + 1))}")
        seen[policy] = seen.get(policy, 0) + 1
    for policy, count in seen.items():
        if count != rounds:
            problems.append(f"comm_ledger.csv: {count} rows for {policy}, expected {rounds}")

    summary = json.loads((out_dir / "summary.json").read_text())
    for slice_name, entries in summary["slices"].items():
        for policy, entry in entries.items():
            mse = entry["final_mse"]
            if rounds and (mse is None or not math.isfinite(mse)):
                problems.append(f"summary.json {slice_name}/{policy}: final_mse {mse}")
    return problems


def check_gen_data(data_dir: Path, expect: dict) -> list[str]:
    """Problems found in a ``fedslice gen-data`` directory; empty when sound."""
    problems = []
    files = sorted(data_dir.glob("client*.csv"))
    want_files = expect["n_clients"] * len(expect["slices"])
    if len(files) != want_files:
        problems.append(f"{data_dir.name}: {len(files)} CSV files, expected {want_files}")
    for path in files:
        with path.open("rb") as fh:
            lines = sum(1 for _ in fh)
        if lines != expect["samples_per_client"] + 1:
            problems.append(f"{path.name}: {lines - 1} data rows, "
                            f"expected {expect['samples_per_client']}")
    return problems


def final_mse(out_dir: Path) -> float:
    """Mean of the last-round MSE over every (slice, policy) of a run."""
    summary = json.loads((out_dir / "summary.json").read_text())
    values = [entry["final_mse"] for entries in summary["slices"].values()
              for entry in entries.values()]
    return sum(values) / len(values)


def _normalized(path: Path) -> bytes:
    """File bytes with wall-clock fields and run-directory paths removed."""
    if path.suffix == ".csv":
        header, rows = _read_csv(path)
        keep = [i for i, name in enumerate(header) if name not in WALL_CLOCK_COLUMNS]
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in [header, *rows]:
            writer.writerow([row[i] for i in keep])
        return buf.getvalue().encode()
    if path.suffix == ".json":
        doc = json.loads(path.read_text())
        if path.name == "manifest.json":
            for key in MANIFEST_VOLATILE:
                doc.pop(key, None)
            doc["overrides"] = [o for o in doc.get("overrides", [])
                                if not o.startswith("data_dir=")]
        doc.get("config", {}).pop("data_dir", None)
        for entries in doc.get("slices", {}).values():
            for entry in entries.values():
                for key in WALL_CLOCK_COLUMNS:
                    entry.pop(key, None)
        return json.dumps(doc, sort_keys=True).encode()
    return path.read_bytes()


def file_digests(directory: Path) -> dict[str, str]:
    """Normalized sha256 of every file in ``directory``, by file name."""
    return {
        path.name: hashlib.sha256(_normalized(path)).hexdigest()
        for path in sorted(directory.iterdir()) if path.is_file()
    }


def digest(directories: list[Path]) -> str:
    """One sha256 over the normalized outputs of several directories."""
    h = hashlib.sha256()
    for index, directory in enumerate(directories):
        for name, value in file_digests(directory).items():
            h.update(f"{index}/{name}:{value}\n".encode())
    return h.hexdigest()


def compare_runs(a: Path, b: Path) -> list[str]:
    """Files whose normalized contents differ between two run directories.

    ``manifest.json`` is left out: it records how each run was invoked, which
    differs by construction when one reads CSVs and the other does not.
    """
    da, db = file_digests(a), file_digests(b)
    da.pop("manifest.json", None)
    db.pop("manifest.json", None)
    names = sorted(set(da) | set(db))
    return [name for name in names if da.get(name) != db.get(name)]
