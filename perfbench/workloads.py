"""The benchmark's workloads: which CLI invocations each one makes.

Each workload stresses a different hot path of fedslice, so a change to one
layer shows on one workload and should show nothing on the others:

- ``paper-default``: the default experiment, shortened. Local Adam training
  (``nn.train_clients``) carries most of the time.
- ``attribution-heavy``: a wide federation with a large attribution pool and
  one full-batch epoch. Integrated gradients (``client_attribution``) carry
  most of the time, and stacked training shows nothing.
- ``csv-roundtrip``: ``gen-data`` writes every client's CSV, then ``run``
  ingests them with a trivial training load. The CSV writer and reader carry
  most of the time.

Run lengths (rounds, epochs, rows, one slice where the shape allows it) keep
a repetition near 4 s, so a measurement holds enough repetitions for a
steady median. Slices are independent federations, so one slice keeps every
per-call shape of three.

Configs set only keys that the project keeps: never ``ig_steps``,
``apportionment``, ``tie_break`` or the ``FEDSLICE_THREADS`` environment
variable, which are due to be deleted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

SLICES = ("eMBB", "SocialMedia", "Browsing")
ALL_POLICIES = ("intelliselect", "no_policy", "score")

# Library defaults the output checks need; the workload configs override some.
DEFAULTS = {
    "n_clients": 10,
    "n_selected": 5,
    "samples_per_client": 1000,
    "layer_sizes": [3, 3, 2, 1],
    "slices": list(SLICES),
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments and what its outputs must look like."""

    argv: tuple[str, ...]
    out_dir: Path
    kind: str  # "run" or "gen-data"
    expect: dict


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    policies: tuple[str, ...] = ALL_POLICIES
    from_csv: bool = False
    # Per-layer time metrics whose sum should carry most of the traced time.
    focus: tuple[str, ...] = field(default_factory=tuple)

    def expect(self, n_rounds: int) -> dict:
        merged = {**DEFAULTS, **self.config, "n_rounds": n_rounds}
        merged["policies"] = list(self.policies)
        return merged

    def invocations(self, seed: int, work: Path, n_rounds: int | None = None) -> list[Invocation]:
        """The CLI calls of one repetition, writing under ``work``.

        ``n_rounds=0`` gives the set-up variant: every step except the rounds.
        """
        rounds = self.config["n_rounds"] if n_rounds is None else n_rounds
        expect = self.expect(rounds)
        config = {**self.config, "n_rounds": rounds, "seed": seed}
        work.mkdir(parents=True, exist_ok=True)
        calls = []
        if self.from_csv:
            data_dir = work / "data"
            profile = work / "profiles.json"
            profile.write_text(json.dumps({
                "n_clients": expect["n_clients"],
                "samples_per_client": expect["samples_per_client"],
                "slices": expect["slices"],
                "seed": seed,
            }))
            calls.append(Invocation(
                ("gen-data", "--profiles", str(profile), "--out", str(data_dir)),
                data_dir, "gen-data", expect,
            ))
            config["data_dir"] = str(data_dir)
        out_dir = work / "run"
        argv = ["run", "--out", str(out_dir), "--policies", ",".join(self.policies)]
        for key, value in config.items():
            argv += ["--override", f"{key}={json.dumps(value)}"]
        calls.append(Invocation(tuple(argv), out_dir, "run", expect))
        return calls


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-default",
            config={"n_rounds": 2, "local_epochs": 25},
            focus=("nn.train_clients.s",),
        ),
        Workload(
            name="attribution-heavy",
            config={
                "n_clients": 50,
                "n_selected": 25,
                "local_epochs": 1,
                "batch_size": None,
                "attribution_samples": 800,
                "n_rounds": 2,
                "slices": ["eMBB"],
            },
            policies=("intelliselect", "score"),
            focus=("attribution.client_attribution.s",),
        ),
        Workload(
            name="csv-roundtrip",
            config={
                "n_clients": 50,
                "samples_per_client": 1000,
                "local_epochs": 1,
                "batch_size": None,
                "n_rounds": 2,
                "slices": ["eMBB"],
            },
            policies=("no_policy",),
            from_csv=True,
            focus=("data.write_client_csv.s", "data.ingest_csv.s"),
        ),
    )
}

# The CSV-against-synthetic cross-check: the same small config run once from
# generated CSVs and once from in-memory synthetic data must agree.
CROSS_CHECK = Workload(
    name="cross-check",
    config={"n_clients": 6, "samples_per_client": 200, "local_epochs": 2, "n_rounds": 2},
    from_csv=True,
)
