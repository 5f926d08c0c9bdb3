"""Round-based federated training of one global model per network slice.

A `SliceRun` is one (slice, policy) federation: its clients' datasets, the
shared initial model and one `RoundRecord` per finished round, the last of
which holds the current global model. Every round attributes each client's
data on that model (attribution policies only), selects clients under the
run's policy, trains the selected clients locally, averages their weights by
train rows into the new global model, evaluates it on the pooled test set and
appends its record. Federations share only the configuration, the seed and
the initial model; `run_round` advances them together so that the clients of
all of them train in shared lockstep calls.
"""

from __future__ import annotations

import dataclasses
import logging
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .attribution import client_attribution, uniform_attribution
from .data import (
    N_FEATURES,
    ClientDataset,
    SLICES,
    default_profiles,
    generate_client,
    slice_by_name,
    train_rows,
)
from .errors import ConfigError, NumericError
from .nn import (
    ModelParams,
    NetworkSpec,
    forward_batch,
    init_params,
    train_clients,
)
from .selection import (
    POLICIES,
    POLICY_INTELLISELECT,
    POLICY_NO_POLICY,
    SelectionResult,
    aggregate_importance,
    apportion,
    select_by_score,
    select_clients,
    select_no_policy,
)

logger = logging.getLogger(__name__)

DEFAULT_SLICE_NAMES = tuple(s.name for s in SLICES)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


# Each field annotation -> (value check, what the error says it must be).
_FIELD_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a number"),
    "int | None": (lambda v: v is None or _is_int(v), "an integer or null"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "tuple[int, ...]": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
                        "a list of integers"),
    "tuple[str, ...]": (lambda v: isinstance(v, (list, tuple))
                        and all(isinstance(x, str) for x in v), "a list of strings"),
    "tuple[float, float, float]": (lambda v: isinstance(v, (list, tuple)) and len(v) == 3
                                   and all(map(_is_number, v)), "a list of 3 numbers"),
}


def check_type(name: str, value, annotation: str) -> None:
    """Raise ConfigError unless `value` fits a config/profile field annotation.

    Integers exclude bools and floats; numbers are ints or floats.
    """
    is_valid, kind = _FIELD_TYPES[annotation]
    if not is_valid(value):
        raise ConfigError(f"{name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Every experiment knob, seed included, so runs are config-addressable."""

    n_clients: int = 10
    n_selected: int = 5
    n_rounds: int = 30
    local_epochs: int = 150
    attribution_samples: int = 150
    samples_per_client: int = 1000
    learning_rate: float = 0.0015
    seed: int = 42
    batch_size: int | None = 32
    layer_sizes: tuple[int, ...] = (3, 3, 2, 1)
    train_fraction: float = 0.8
    slices: tuple[str, ...] = DEFAULT_SLICE_NAMES
    data_dir: str | None = None

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            check_type(f.name, getattr(self, f.name), f.type)
        object.__setattr__(self, "layer_sizes", tuple(self.layer_sizes))
        object.__setattr__(self, "slices", tuple(self.slices))
        if self.n_clients < 1:
            raise ConfigError("n_clients must be at least 1")
        if not 1 <= self.n_selected <= self.n_clients:
            raise ConfigError(
                f"n_selected must be in [1, n_clients], got {self.n_selected} of {self.n_clients}"
            )
        if self.n_rounds < 0:
            raise ConfigError("n_rounds cannot be negative")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        # Exact int/float comparison: NaN, infinities and integers past float range fail.
        if not 0.0 < self.learning_rate <= sys.float_info.max:
            raise ConfigError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.attribution_samples < 1:
            raise ConfigError(f"attribution_samples must be at least 1, got {self.attribution_samples}")
        if self.local_epochs < 1:
            raise ConfigError("local_epochs must be at least 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError("batch_size must be positive or null for full batch")
        if self.network_spec.n_features != N_FEATURES:
            raise ConfigError(
                f"layer_sizes[0] ({self.layer_sizes[0]}) must equal the {N_FEATURES} data features"
            )
        if not self.slices:
            raise ConfigError("slices must name at least one slice")
        for name in self.slices:
            slice_by_name(name)
        if len(set(self.slices)) != len(self.slices):
            raise ConfigError(f"slices must not repeat a name, got {list(self.slices)}")
        # Under data_dir the train splits come from the files, which ingestion checks.
        if self.data_dir is None:
            pool = train_rows(self.samples_per_client, self.train_fraction)
            if self.attribution_samples > pool:
                raise ConfigError(
                    f"attribution_samples ({self.attribution_samples}) exceeds the "
                    f"train split size ({pool})"
                )

    @property
    def network_spec(self) -> NetworkSpec:
        return NetworkSpec(self.layer_sizes)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["layer_sizes"] = list(self.layer_sizes)
        d["slices"] = list(self.slices)
        return d

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        return cls(**raw)


@dataclass(frozen=True)
class RoundRecord:
    """What one round produced: error, time, selection, attributions, model.

    `cum_time_ms` sums, over this and every earlier round, the wall time of
    attribute, select, train and aggregate; evaluation is excluded, and
    training counts the federation's share of each shared call (see
    `run_round`). `chi` is the attribution matrix the selection used, one row
    per client, or None under the all-clients baseline. `global_params` is the aggregated model
    the round ended with, which the next round starts from.
    """

    round_index: int
    mse: float
    cum_time_ms: float
    selection: SelectionResult
    chi: np.ndarray | None
    global_params: ModelParams


@dataclass
class SliceRun:
    """One (slice, policy) federation: its clients, initial model and rounds.

    `records` is the only state that changes; the round index, the running
    time and the current model all derive from it.
    """

    slice_name: str
    policy: str
    datasets: tuple[ClientDataset, ...]
    initial_params: ModelParams
    records: list[RoundRecord] = field(default_factory=list)

    @property
    def global_params(self) -> ModelParams:
        """The model the next round starts from."""
        return self.records[-1].global_params if self.records else self.initial_params


def client_seed(seed: int, slice_name: str, client_id: int) -> int:
    """Stable per-(slice, client) generator seed derived from the run seed."""
    slice_index = DEFAULT_SLICE_NAMES.index(slice_name)
    return int(np.random.SeedSequence([seed, slice_index, client_id]).generate_state(1)[0])


def _shuffle_rng(
    cfg: ExperimentConfig, slice_name: str, round_index: int, client_id: int
) -> np.random.Generator:
    """Per-(slice, round, client) minibatch shuffle stream, policy-independent.

    Full-batch training draws nothing from it.
    """
    slice_index = DEFAULT_SLICE_NAMES.index(slice_name)
    return np.random.default_rng(
        np.random.SeedSequence([cfg.seed, slice_index, round_index, client_id]))


def build_datasets(cfg: ExperimentConfig) -> dict[str, list[ClientDataset]]:
    """Synthetic datasets for every (slice, client); independent of policy."""
    profiles = default_profiles(cfg.n_clients, cfg.seed)
    out: dict[str, list[ClientDataset]] = {}
    for name in cfg.slices:
        spec = slice_by_name(name)
        out[name] = [
            generate_client(
                profiles[k],
                spec,
                cfg.samples_per_client,
                client_seed(cfg.seed, name, k),
                cfg.train_fraction,
            )
            for k in range(cfg.n_clients)
        ]
    return out


def pooled_test_set(datasets: list[ClientDataset]) -> tuple[np.ndarray, np.ndarray]:
    """Union of all clients' scaled test splits, in ascending client order."""
    feats = np.concatenate([d.test_features for d in datasets], axis=0)
    targets = np.concatenate([d.test_targets for d in datasets], axis=0)
    return feats, targets


def evaluate_global(params: ModelParams, test_features: np.ndarray, test_targets: np.ndarray) -> float:
    """Mean squared error of the global model over a pooled test set."""
    y = np.asarray(test_targets, dtype=np.float64).reshape(-1)
    if y.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty test pool")
    pred = forward_batch(params, test_features)
    diff = pred - y
    return float(diff @ diff / y.shape[0])


def fedavg_aggregate(params_list: list[ModelParams], sizes: list[int]) -> ModelParams:
    """Size-weighted average of local parameter vectors.

    Weights are each client's share of the selected clients' total sizes, so
    they sum to 1 and the update is a convex combination. `run_round` passes
    each client's train rows, the samples its local model was fitted on; test
    rows do not count.
    """
    if not params_list or len(params_list) != len(sizes):
        raise ValueError("need matching non-empty params and sizes")
    total = float(sum(sizes))
    if total <= 0.0:
        raise ValueError("total dataset size must be positive")
    weights = np.asarray(sizes, dtype=np.float64) / total
    stacked = np.stack([p.values for p in params_list], axis=0)
    return ModelParams((weights[:, None] * stacked).sum(axis=0), params_list[0].spec)


# Most sample rows one attribution call takes; whole clients share a call up
# to this. Per-sample cost is flat from 800 to 4,000 rows, while one call over
# a 50-client federation's 40,000 rows (800 samples each) raised the CLI's peak
# RSS from 47 to 72 MiB and its CPU time by 40-80%, as OpenBLAS threads the
# large matmuls.
_ATTRIBUTION_ROWS_PER_CALL = 2048


def _compute_chi(run: SliceRun, cfg: ExperimentConfig) -> np.ndarray:
    """Per-client normalized attributions on the federation's current global model.

    Clients are attributed in id order, as many whole clients per
    `client_attribution` call as fit in `_ATTRIBUTION_ROWS_PER_CALL` sample
    rows (at least one). A client whose attributions degenerate to all-zero
    contributes the uniform vector instead; each such fallback is logged as a
    warning naming the federation and the round.
    """
    params = run.global_params
    per_call = max(_ATTRIBUTION_ROWS_PER_CALL // cfg.attribution_samples, 1)
    blocks = [client_attribution(params, run.datasets[i:i + per_call], cfg.attribution_samples)
              for i in range(0, len(run.datasets), per_call)]
    chi = np.concatenate([rows for rows, _ in blocks], axis=0)
    degenerate = np.concatenate([flags for _, flags in blocks])
    for k in np.flatnonzero(degenerate):
        logger.warning(
            "slice %s, policy %s, round %d, client %d: all-zero attribution, "
            "using the uniform vector",
            run.slice_name, run.policy, len(run.records), run.datasets[k].client_id,
        )
        chi[k] = uniform_attribution(params.spec.n_features)
    return chi


def _select(cfg: ExperimentConfig, policy: str, chi: np.ndarray | None) -> SelectionResult:
    if policy == POLICY_NO_POLICY:
        return select_no_policy(cfg.n_clients)
    tau = aggregate_importance(chi)
    if policy == POLICY_INTELLISELECT:
        quotas = apportion(tau, cfg.n_selected)
        return select_clients(chi, quotas, cfg.n_selected)
    return select_by_score(chi, tau, cfg.n_selected)


def run_round(runs: list[SliceRun], cfg: ExperimentConfig) -> None:
    """Advance every federation in `runs`, all at the same round, by one round.

    Each federation attributes its clients on its own current model and
    selects. Then the selected clients of all federations train together:
    one `train_clients` call per distinct train row count, stacked in `runs`
    order and, within a federation, by ascending client id. Last, each
    federation aggregates, evaluates and appends its record. A federation's
    round time is its own attribute, select and aggregate wall time plus,
    from each shared training call, its clients' share of that call's
    client-steps.
    """
    if not runs:
        return
    round_index = len(runs[0].records)
    if any(len(run.records) != round_index for run in runs):
        raise ValueError("federations advanced together must be at the same round")
    if round_index >= cfg.n_rounds:
        raise ConfigError(f"round {round_index} is past the configured {cfg.n_rounds}")

    chis, selections, elapsed = [], [], []
    for run in runs:
        started = time.perf_counter()
        chi = None if run.policy == POLICY_NO_POLICY else _compute_chi(run, cfg)
        chis.append(chi)
        selections.append(_select(cfg, run.policy, chi))
        elapsed.append(time.perf_counter() - started)

    # (federation index, client id) of each participant, grouped by train rows.
    groups: dict[int, list[tuple[int, int]]] = {}
    for i, (run, selection) in enumerate(zip(runs, selections)):
        for client_id in sorted(selection.selected):
            rows = run.datasets[client_id].n_train
            groups.setdefault(rows, []).append((i, client_id))
    trained: dict[tuple[int, int], ModelParams] = {}
    for group in groups.values():
        started = time.perf_counter()
        participants = [runs[i].datasets[client_id] for i, client_id in group]
        try:
            models = train_clients(
                [runs[i].global_params for i, _ in group],
                [ds.train_features for ds in participants],
                [ds.train_targets for ds in participants],
                cfg.local_epochs,
                learning_rate=cfg.learning_rate,
                batch_size=cfg.batch_size,
                shuffle_rngs=[_shuffle_rng(cfg, runs[i].slice_name, round_index, client_id)
                              for i, client_id in group],
            )
        except NumericError as exc:
            raise NumericError(
                f"round {round_index}: {_at_fault(runs, group, exc.clients)}: {exc}"
            ) from exc
        share = (time.perf_counter() - started) / len(group)
        for slot, model in zip(group, models):
            trained[slot] = model
            elapsed[slot[0]] += share

    for i, (run, chi, selection) in enumerate(zip(runs, chis, selections)):
        started = time.perf_counter()
        ordered = sorted(selection.selected)
        new_global = fedavg_aggregate(
            [trained[i, client_id] for client_id in ordered],
            [run.datasets[client_id].n_train for client_id in ordered],
        )
        elapsed_ms = (elapsed[i] + time.perf_counter() - started) * 1e3

        mse = evaluate_global(new_global, *pooled_test_set(run.datasets))
        previous_ms = run.records[-1].cum_time_ms if run.records else 0.0
        run.records.append(RoundRecord(
            round_index=round_index,
            mse=mse,
            cum_time_ms=previous_ms + elapsed_ms,
            selection=selection,
            chi=chi,
            global_params=new_global,
        ))
        logger.info(
            "slice=%s policy=%s round=%d mse=%.6g selected=%s",
            run.slice_name, run.policy, round_index, mse, list(selection.selected),
        )


def _at_fault(
    runs: list[SliceRun], group: list[tuple[int, int]], positions: tuple[int, ...]
) -> str:
    """'slice S, policy P, clients [...]' per federation with clients at `positions` of `group`."""
    faulty: dict[int, list[int]] = {}
    for position in positions:
        i, client_id = group[position]
        faulty.setdefault(i, []).append(client_id)
    return "; ".join(
        f"slice {runs[i].slice_name}, policy {runs[i].policy}, clients {client_ids}"
        for i, client_ids in faulty.items()
    )


def run_experiment(
    cfg: ExperimentConfig,
    policies: list[str],
    datasets: dict[str, list[ClientDataset]],
) -> list[SliceRun]:
    """Every (policy, configured slice) federation, policy-major, run round by round together.

    All federations start from one initial model, and every federation of a
    slice trains on the same datasets. Policies and datasets are checked
    before any round.
    """
    for policy in policies:
        if policy not in POLICIES:
            raise ConfigError(f"unknown policy {policy!r}, expected one of {POLICIES}")
    missing = [s for s in cfg.slices if s not in datasets]
    if missing:
        raise ConfigError(f"no datasets for slice(s): {', '.join(missing)}")
    for name in cfg.slices:
        if len(datasets[name]) != cfg.n_clients:
            raise ConfigError(
                f"slice {name!r} has {len(datasets[name])} datasets, expected {cfg.n_clients}"
            )
    initial = init_params(cfg.network_spec, cfg.seed)
    runs = [SliceRun(name, policy, tuple(datasets[name]), initial)
            for policy in policies for name in cfg.slices]
    for _ in range(cfg.n_rounds):
        run_round(runs, cfg)
    return runs
