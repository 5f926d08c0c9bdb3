"""Run one fedslice CLI invocation with every layer boundary traced.

    python3 perfbench/traced.py SPANS.json -- <fedslice cli arguments>

Each public function of ``src/fedslice`` is wrapped at the name under which
its caller imported it, so the wrapper sees exactly the calls the program
makes. A span records name, start, end, parent span and, for a few layers,
the work done (rows, samples, stacked clients). Spans stay in memory and are
written to SPANS.json once the invocation returns. A wrapped name that no
longer exists is listed under ``missing`` instead of failing the run. The
exit code is the CLI's.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from pathlib import Path


def _train_work(args, kwargs, result):
    features = args[1] if len(args) > 1 else kwargs["features"]
    epochs = args[3] if len(args) > 3 else kwargs["epochs"]
    batch = args[5] if len(args) > 5 else kwargs.get("batch_size")
    rows = features[0].shape[0]
    steps_per_epoch = 1 if batch is None or batch >= rows else math.ceil(rows / batch)
    return {"width": len(features), "steps": epochs * steps_per_epoch}


def _attribution_work(args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {"samples": cfg.sample_count}


def _write_work(args, kwargs, result):
    table = args[0] if args else kwargs["table"]
    return {"rows": len(table["CPU_Load"])}


def _ingest_work(args, kwargs, result):
    return {"rows": result.size}


# (module, attribute, span name, work extractor). The attribute is the name a
# caller looks up at call time, e.g. federation's own binding of train_clients.
TARGETS = (
    ("fedslice.cli", "main", "cli.main", None),
    ("fedslice.cli", "cmd_run", "cli.cmd_run", None),
    ("fedslice.cli", "cmd_gen_data", "cli.cmd_gen_data", None),
    ("fedslice.cli", "_ingest_datasets", "cli._ingest_datasets", None),
    ("fedslice.cli", "_run_all", "cli._run_all", None),
    ("fedslice.cli", "_provisioning_rows", "cli._provisioning_rows", None),
    ("fedslice.cli", "generate_client_table", "data.generate_client_table", None),
    ("fedslice.cli", "write_client_csv", "data.write_client_csv", _write_work),
    ("fedslice.cli", "ingest_csv", "data.ingest_csv", _ingest_work),
    ("fedslice.federation", "build_datasets", "data.build_datasets", None),
    ("fedslice.federation", "generate_client", "data.generate_client", None),
    ("fedslice.federation", "train_clients", "nn.train_clients", _train_work),
    ("fedslice.federation", "init_params", "nn.init_params", None),
    ("fedslice.federation", "forward_batch", "nn.forward_batch", None),
    ("fedslice.metrics", "forward_batch", "nn.forward_batch", None),
    ("fedslice.attribution", "input_gradients_batch", "nn.input_gradients_batch", None),
    ("fedslice.federation", "client_attribution", "attribution.client_attribution",
     _attribution_work),
    ("fedslice.federation", "uniform_attribution", "attribution.uniform_attribution", None),
    ("fedslice.federation", "_select", "selection", None),
    ("fedslice.federation", "aggregate_importance", "selection.aggregate_importance", None),
    ("fedslice.federation", "apportion", "selection.apportion", None),
    ("fedslice.federation", "select_clients", "selection.select_clients", None),
    ("fedslice.federation", "select_by_score", "selection.select_by_score", None),
    ("fedslice.federation", "select_no_policy", "selection.select_no_policy", None),
    ("fedslice.cli", "run_slice", "federation.run_slice", None),
    ("fedslice.federation", "initialize_state", "federation.initialize_state", None),
    ("fedslice.federation", "run_round", "federation.run_round", None),
    ("fedslice.federation", "fedavg_aggregate", "federation.fedavg_aggregate", None),
    ("fedslice.federation", "evaluate_global", "federation.evaluate_global", None),
    ("fedslice.metrics", "persist", "metrics.persist", None),
    ("fedslice.metrics", "per_round_comm", "metrics.per_round_comm", None),
    ("fedslice.cli", "comm_cost", "metrics.comm_cost", None),
    ("fedslice.cli", "slice_provisioning", "metrics.slice_provisioning", None),
    ("fedslice.cli", "convergence_round", "metrics.convergence_round", None),
)


class Tracer:
    """In-memory span recorder for one single-threaded invocation."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index, error class, work dict].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name, fn, work=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                try:
                    span[5] = work(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    span[5] = None
            return result

        return traced

    def install(self, targets) -> None:
        for module_name, attr, name, work in targets:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, fn, work))

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "error", "work")
        path.write_text(json.dumps({
            "missing": self.missing,
            "spans": [dict(zip(keys, span)) for span in self.spans],
        }))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = Path(argv[0]), argv[2:]
    tracer = Tracer()
    tracer.install(TARGETS)
    cli = importlib.import_module("fedslice.cli")
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
