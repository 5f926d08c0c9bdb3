"""Per-layer metrics of one traced repetition, computed from its spans.

A layer's time is the summed duration of its spans; its self time subtracts
the time its direct child spans cover. Work counts come from what the
tracer recorded at the boundary (rows, samples, stacked clients, steps).
"""

from __future__ import annotations

import statistics

TAIL_LADDER = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(p, value) for the highest ladder percentile with ten samples beyond it.

    With fewer than twenty samples no percentile above the median qualifies,
    so the median is returned as the tail.
    """
    ordered = sorted(values)
    n = len(ordered)
    p = max([q for q in TAIL_LADDER if (1.0 - q) * n >= 10] or [0.5])
    rank = min(int(p * n), n - 1)
    return p, ordered[rank]


class Spans:
    """The spans of several invocations, with self times worked out."""

    def __init__(self, invocations: list[list[dict]]) -> None:
        self.spans: list[dict] = []
        for spans in invocations:
            offset = len(self.spans)
            for span in spans:
                span = dict(span, dur=span["end"] - span["start"], child=0.0)
                if span["parent"] >= 0:
                    span["parent"] += offset
                self.spans.append(span)
        for span in self.spans:
            if span["parent"] >= 0:
                self.spans[span["parent"]]["child"] += span["dur"]

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(s["dur"] for s in self.named(name))

    def self_time(self, prefix: str) -> float:
        return sum(s["dur"] - s["child"] for s in self.spans if s["name"].startswith(prefix))

    def outermost(self, prefix: str) -> list[dict]:
        """Spans of a layer that no span of the same layer encloses."""
        def inside(span):
            parent = span["parent"]
            return parent >= 0 and self.spans[parent]["name"].startswith(prefix)
        return [s for s in self.spans if s["name"].startswith(prefix) and not inside(s)]

    def work(self, name: str, key: str) -> int:
        return sum((s["work"] or {}).get(key, 0) for s in self.named(name))


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def layer_metrics(invocations: list[list[dict]], bytes_written: int,
                  overhead_s: float) -> tuple[dict[str, float], dict[str, float]]:
    """(per-layer metrics, notes such as the tail percentile used)."""
    s = Spans(invocations)
    train = s.named("nn.train_clients")
    steps = s.work("nn.train_clients", "steps")
    client_steps = sum((t["work"] or {}).get("steps", 0) * (t["work"] or {}).get("width", 0)
                       for t in train)
    attr_calls = len(s.named("attribution.client_attribution"))
    fallbacks = sum(1 for a in s.named("attribution.client_attribution")
                    if a["error"] == "DegenerateAttributionError")
    samples = s.work("attribution.client_attribution", "samples")
    rounds_ms = [r["dur"] * 1e3 for r in s.named("federation.run_round")]
    tail_p, tail_ms = tail_percentile(rounds_ms) if rounds_ms else (0.5, 0.0)
    selection = s.outermost("selection")

    metrics = {
        "cli.main.s": s.total("cli.main"),
        "cli.self_s": s.self_time("cli."),
        "data.write_client_csv.s": s.total("data.write_client_csv"),
        "data.write_us_per_row": _per(s.total("data.write_client_csv"),
                                      s.work("data.write_client_csv", "rows"), 1e6),
        "data.ingest_csv.s": s.total("data.ingest_csv"),
        "data.ingest_us_per_row": _per(s.total("data.ingest_csv"),
                                       s.work("data.ingest_csv", "rows"), 1e6),
        "data.build_datasets.s": s.total("data.build_datasets"),
        "nn.train_clients.s": s.total("nn.train_clients"),
        "nn.train_clients.calls": len(train),
        "nn.stack_width_mean": _per(s.work("nn.train_clients", "width"), len(train)),
        "nn.adam_steps": steps,
        "nn.us_per_step": _per(s.total("nn.train_clients"), steps, 1e6),
        "nn.us_per_client_step": _per(s.total("nn.train_clients"), client_steps, 1e6),
        "attribution.client_attribution.s": s.total("attribution.client_attribution"),
        "attribution.client_attribution.calls": attr_calls,
        "attribution.samples": samples,
        "attribution.us_per_sample": _per(s.total("attribution.client_attribution"), samples, 1e6),
        "attribution.fallbacks": fallbacks,
        "attribution.useful_ratio": 1.0 - _per(fallbacks, attr_calls) if attr_calls else 0.0,
        "selection.s": sum(x["dur"] for x in selection),
        "selection.calls": len(selection),
        "federation.run_round.s": s.total("federation.run_round"),
        "federation.run_round.calls": len(rounds_ms),
        "federation.run_round.ms_p50": statistics.median(rounds_ms) if rounds_ms else 0.0,
        "federation.run_round.ms_tail": tail_ms,
        "federation.round_self_s": sum(r["dur"] - r["child"]
                                       for r in s.named("federation.run_round")),
        "federation.initialize_state.s": s.total("federation.initialize_state"),
        "federation.fedavg_aggregate.s": s.total("federation.fedavg_aggregate"),
        "federation.evaluate_global.s": s.total("federation.evaluate_global"),
        "metrics.persist.s": s.total("metrics.persist"),
        "metrics.slice_provisioning.s": s.total("metrics.slice_provisioning"),
        "metrics.bytes_written": bytes_written,
        "trace.overhead_s": overhead_s,
    }
    return metrics, {"run_round_tail_percentile": tail_p * 100}
