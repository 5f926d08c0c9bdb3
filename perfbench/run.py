"""fedslice benchmark: end-to-end and per-layer metrics of the real CLI.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. Every fedslice invocation is
``python3 -m fedslice.cli ...`` in a fresh process, with ``src`` on the
import path, made one at a time by this single driver process.

``--trace 0`` repeats the workload until ``--seconds`` have passed (at
least three times). Each repetition first makes the set-up variant
(the same invocations with ``n_rounds=0``) and then the full invocations,
and reports for each end-to-end metric the median, quartiles and sample
count. ``--trace 1`` alternates an untraced and a traced repetition
(``perfbench/traced.py``) and reports per-layer metrics, each the median
over the traced repetitions. Both check every output: exit codes, round
counts, selection sizes, finite MSEs and the communication ledger, and
that the normalized outputs digest equally across repetitions. Each
invocation of the benchmark also runs a CSV-against-synthetic cross-check.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when every
check passed, 1 when one failed and 2 on a usage error. ``--workload all``
(the default) runs every workload, untraced and then traced.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import layers
from workloads import CROSS_CHECK, WORKLOADS, Invocation, Workload

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORK = BENCH_DIR / ".work"
MIN_REPS = 3
# A measurement (one workload, one mode) must end within 180 s; no child outlives this.
HARD_LIMIT_S = 165.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_PROBE = """
import json, platform, numpy
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}))
"""


@dataclasses.dataclass
class Outcome:
    """Measurements of one CLI invocation and what its checks found."""

    wall: float
    cpu: float
    rss_mb: float
    problems: list[str]


@dataclasses.dataclass
class Rep:
    """One repetition: every invocation of a workload, in order."""

    wall: float
    cpu: float
    rss_mb: float
    failed: int
    digest: str
    final_mse: float
    bytes_written: int
    spans: list[list[dict]]
    missing: list[str]


class Runner:
    """Makes CLI invocations one at a time and keeps the failure count."""

    def __init__(self) -> None:
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        # Bytecode is cached once in the work directory, whatever the caller's setting.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def invoke(self, inv: Invocation, spans_path: Path | None = None) -> Outcome:
        shutil.rmtree(inv.out_dir, ignore_errors=True)
        if spans_path is None:
            cmd = [sys.executable, "-m", "fedslice.cli", *inv.argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced.py"), str(spans_path), "--", *inv.argv]
        log_path = inv.out_dir.parent / f"{inv.kind}.log"
        remaining = max(HARD_LIMIT_S - (time.perf_counter() - self.started), 1.0)
        with log_path.open("wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, env=self.env)
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        # Reaped by wait4 (for its rusage); tell Popen so it does not wait again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log_path.read_text(errors="replace").strip().splitlines()[-1:]
            problems = [f"{inv.kind} exited {proc.returncode}: {' '.join(tail)}"]
        else:
            check = checks.check_gen_data if inv.kind == "gen-data" else checks.check_run
            try:
                problems = check(inv.out_dir, inv.expect)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"{inv.kind} outputs unreadable: {exc!r}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, problems)

    def rep(self, workload: Workload, seed: int, work: Path, n_rounds: int | None = None,
            traced: bool = False) -> Rep:
        invocations = workload.invocations(seed, work, n_rounds)
        outcomes, spans, missing = [], [], []
        for index, inv in enumerate(invocations):
            spans_path = work / f"spans{index}.json" if traced else None
            outcomes.append(self.invoke(inv, spans_path))
            if traced and spans_path.exists():
                doc = json.loads(spans_path.read_text())
                spans.append(doc["spans"])
                missing.extend(doc["missing"])
        run_dir = invocations[-1].out_dir
        sound = not any(o.problems for o in outcomes)
        has_rounds = sound and invocations[-1].expect["n_rounds"] > 0
        return Rep(
            wall=sum(o.wall for o in outcomes),
            cpu=sum(o.cpu for o in outcomes),
            rss_mb=max(o.rss_mb for o in outcomes),
            failed=sum(1 for o in outcomes if o.problems),
            digest=checks.digest([inv.out_dir for inv in invocations]) if sound else "",
            final_mse=checks.final_mse(run_dir) if has_rounds else 0.0,
            bytes_written=sum(p.stat().st_size for p in run_dir.iterdir()) if run_dir.exists() else 0,
            spans=spans,
            missing=sorted(set(missing)),
        )

    def require_same_digest(self, label: str, reps: list[Rep]) -> str:
        """Counts a failure for every repetition whose outputs moved."""
        reference = next((r.digest for r in reps if r.digest), "")
        for index, rep in enumerate(reps):
            if rep.digest and rep.digest != reference:
                self.failed += 1
                self.problems.append(f"{label} repetition {index}: outputs differ from repetition 0")
        return reference

    def cross_check(self, seed: int, work: Path) -> None:
        """The CSV-ingesting run must reproduce the synthetic run exactly."""
        from_csv = self.rep(CROSS_CHECK, seed, work / "cross-csv")
        synthetic = self.rep(dataclasses.replace(CROSS_CHECK, from_csv=False), seed,
                             work / "cross-synthetic")
        if from_csv.failed or synthetic.failed:
            return
        moved = checks.compare_runs(work / "cross-csv" / "run", work / "cross-synthetic" / "run")
        if moved:
            self.failed += 1
            self.problems.append(f"cross-check: CSV and synthetic runs differ in {', '.join(moved)}")


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def machine_facts(runner: Runner) -> dict:
    probe = subprocess.run([sys.executable, "-c", BLAS_PROBE], capture_output=True, text=True,
                           env=runner.env, timeout=60)
    facts = json.loads(probe.stdout) if probe.returncode == 0 else {"probe_error": probe.stderr[-200:]}
    facts["nproc"] = len(os.sched_getaffinity(0))
    facts["platform"] = platform.platform()
    facts["blas_env"] = {k: os.environ[k] for k in BLAS_ENV if k in os.environ}
    facts["loadavg_before"] = list(os.getloadavg())
    return facts


def measure_end_to_end(runner: Runner, workload: Workload, seed: int, seconds: float,
                       work: Path) -> tuple[dict[str, dict], dict]:
    setups, fulls = [], []
    start = time.perf_counter()
    while True:
        setups.append(runner.rep(workload, seed, work / "setup", n_rounds=0))
        fulls.append(runner.rep(workload, seed, work / "full"))
        elapsed = time.perf_counter() - start
        if len(fulls) >= MIN_REPS and elapsed * (1 + 1 / len(fulls)) > seconds:
            break
    digests = {
        "setup": runner.require_same_digest(f"{workload.name} set-up", setups),
        "run": runner.require_same_digest(workload.name, fulls),
    }
    stats = {
        "run_s": summarize([r.wall for r in fulls]),
        "setup_s": summarize([r.wall for r in setups]),
        "cpu_s": summarize([r.cpu for r in fulls]),
        "peak_rss_mb": summarize([r.rss_mb for r in fulls]),
        "final_mse": summarize([r.final_mse for r in fulls]),
    }
    return stats, digests


def measure_layers(runner: Runner, workload: Workload, seed: int, seconds: float,
                   work: Path) -> tuple[dict[str, float], dict]:
    samples: dict[str, list[float]] = {}
    untraced_reps, traced_reps = [], []
    start = time.perf_counter()
    while True:
        untraced = runner.rep(workload, seed, work / "untraced")
        traced = runner.rep(workload, seed, work / "traced", traced=True)
        untraced_reps.append(untraced)
        traced_reps.append(traced)
        metrics, notes = layers.layer_metrics(traced.spans, traced.bytes_written,
                                              traced.wall - untraced.wall)
        for name, value in metrics.items():
            samples.setdefault(name, []).append(value)
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(traced_reps)) > seconds:
            break
    runner.require_same_digest(workload.name, untraced_reps + traced_reps)
    notes["traced_reps"] = len(traced_reps)
    notes["missing"] = traced_reps[-1].missing
    values = {name: statistics.median(v) for name, v in samples.items()}
    total = values["cli.main.s"]
    notes["focus_share"] = {
        "+".join(workload.focus): sum(values[m] for m in workload.focus) / total if total else 0.0
    }
    return values, notes


def run_workload(runner: Runner, spec: dict, workload: Workload, seed: int, seconds: float,
                 trace: bool) -> dict[str, dict]:
    """Measures one workload in one mode, prints the report and returns its metrics."""
    runner.started = time.perf_counter()
    attempted, failed = runner.attempted, runner.failed
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        runner.cross_check(seed, work)
        if trace:
            values, notes = measure_layers(runner, workload, seed, seconds, work)
        else:
            stats, digests = measure_end_to_end(runner, workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        print(f"[{workload.name}] seed={seed} per-layer (traced, median of "
              f"{notes['traced_reps']} repetition(s)):")
        for metric in spec["per_layer"]:
            print(f"  {metric['name']:<38} {values[metric['name']]:>14.6g} {metric['unit']}")
        print(f"  run_round tail percentile: p{notes['run_round_tail_percentile']:g}")
        print(f"  share of traced time: {json.dumps(notes['focus_share'])}")
        for name in notes["missing"]:
            print(f"  note: {name} no longer exists; its spans report calls=0")
        chosen = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        print(f"[{workload.name}] seed={seed} end-to-end (median, quartiles, samples):")
        for metric in spec["end_to_end"]:
            s = stats[metric["name"]]
            print(f"  {metric['name']:<14} {s['median']:>12.6g} {metric['unit']:<4} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")
        print(f"  final_mse      {stats['final_mse']['median']:>12.6g}      "
              f"(deterministic guard, unbounded: it varies with the seed)")
        print(f"  digest run={digests['run']} setup={digests['setup']}")
        chosen = {m["name"]: (stats[m["name"]]["median"], m["unit"]) for m in spec["end_to_end"]}
    print(f"  failed_ratio {runner.failed - failed}/{runner.attempted - attempted} invocations")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="fedslice benchmark")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload and mode (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fedslice" / "cli.py").is_file():
        print(f"error: {ROOT} has no src/fedslice; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    WORK.mkdir(parents=True, exist_ok=True)

    runner = Runner()
    facts = machine_facts(runner)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [False, True] if args.trace is None else [bool(args.trace)]
    results: dict[str, dict] = {}
    for name in names:
        for trace in modes:
            results.setdefault(name, {}).update(
                run_workload(runner, spec, WORKLOADS[name], args.seed, seconds, trace))

    facts["loadavg_after"] = list(os.getloadavg())
    print(f"machine {json.dumps(facts, sort_keys=True)}")
    failed_ratio = runner.failed / runner.attempted
    print(f"checks: {runner.attempted} invocations attempted, {runner.failed} failed, "
          f"failed_ratio={failed_ratio:g}")
    for problem in runner.problems:
        print(f"  FAILED {problem}")
    correct = runner.failed == 0
    metrics = results[names[0]] if len(names) == 1 else results
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
