"""Round-based federated training of one global model per network slice.

A `SliceRun` is one (slice, policy) federation: its clients' datasets, the
shared initial model and one `RoundRecord` per finished round, the last of
which holds the current global model. Every round attributes each client's
data on that model (attribution policies only), selects clients under the
run's policy, trains the selected clients locally, averages their weights by
train rows into the new global model, evaluates it on the pooled test set and
appends its record. Federations share only the configuration, the seed and
the initial model; `run_round` advances them together so that the clients of
all of them train in shared lockstep calls, and work that several of them
need from identical inputs is done once.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .attribution import client_attribution
from .data import (
    DEFAULT_SLICE_NAMES,
    N_FEATURES,
    ClientDataset,
    DataSpec,
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
from .selection import POLICIES, POLICY_NO_POLICY, SelectionResult, check_policies, select


@dataclass(frozen=True)
class ExperimentConfig(DataSpec):
    """Every experiment knob, seed included, so runs are config-addressable."""

    n_selected: int = 5
    n_rounds: int = 30
    local_epochs: int = 150
    attribution_samples: int = 150
    learning_rate: float = 0.0015
    batch_size: int | None = 32
    layer_sizes: tuple[int, ...] = (3, 3, 2, 1)
    train_fraction: float = 0.8
    data_dir: str | None = None
    policies: tuple[str, ...] = POLICIES

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "layer_sizes", tuple(self.layer_sizes))
        object.__setattr__(self, "policies", tuple(self.policies))
        check_policies(self.policies)
        if not 1 <= self.n_selected <= self.n_clients:
            raise ConfigError(
                f"n_selected must be in [1, n_clients], got {self.n_selected} of {self.n_clients}"
            )
        if self.n_rounds < 0:
            raise ConfigError("n_rounds cannot be negative")
        if self.learning_rate <= 0.0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.attribution_samples < 1:
            raise ConfigError(f"attribution_samples must be at least 1, got {self.attribution_samples}")
        if self.local_epochs < 1:
            raise ConfigError("local_epochs must be at least 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError("batch_size must be positive or null for full batch")
        try:
            n_features = self.network_spec.n_features
        except ConfigError as exc:
            raise ConfigError(f"layer_sizes: {exc}") from None
        if n_features != N_FEATURES:
            raise ConfigError(
                f"layer_sizes[0] ({self.layer_sizes[0]}) must equal the {N_FEATURES} data features"
            )
        # Checks train_fraction for every config; samples_per_client is at least 2.
        pool = train_rows(self.samples_per_client, self.train_fraction)
        # Under data_dir the train splits come from the files, which ingestion checks.
        if self.data_dir is None and self.attribution_samples > pool:
            raise ConfigError(
                f"attribution_samples ({self.attribution_samples}) exceeds the "
                f"train split size ({pool})"
            )

    @property
    def network_spec(self) -> NetworkSpec:
        return NetworkSpec(self.layer_sizes)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class RoundRecord:
    """What one round produced: error, time, selection, attributions, model.

    `cum_time_ms` sums, over this and every earlier round, the wall time of
    attribute, select, train and aggregate; evaluation is excluded, and work
    shared with other federations is charged in full to each (see
    `run_round`). `chi` is the attribution matrix the selection used, one row
    per client, or None under the all-clients baseline. `global_params` is the
    aggregated model the round ended with, which the next round starts from.
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


def _slice_seed(seed: int, slice_name: str, *ids: int) -> np.random.SeedSequence:
    """Seed sequence for `ids` in a slice, keyed by its DEFAULT_SLICE_NAMES index, not run order."""
    return np.random.SeedSequence([seed, DEFAULT_SLICE_NAMES.index(slice_name), *ids])


def client_seed(seed: int, slice_name: str, client_id: int) -> int:
    """Stable per-(slice, client) generator seed derived from the run seed."""
    return int(_slice_seed(seed, slice_name, client_id).generate_state(1)[0])


def _shuffle_rng(
    cfg: ExperimentConfig, slice_name: str, round_index: int, client_id: int
) -> np.random.Generator:
    """Per-(slice, round, client) minibatch shuffle stream, policy-independent.

    Full-batch training draws nothing from it.
    """
    return np.random.default_rng(_slice_seed(cfg.seed, slice_name, round_index, client_id))


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
    weights = np.asarray(sizes, dtype=np.float64) / float(sum(sizes))
    stacked = np.stack([p.values for p in params_list], axis=0)
    return ModelParams((weights[:, None] * stacked).sum(axis=0), params_list[0].spec)


# Most step rows (clients x rows per Adam step) one training call stacks;
# whole trainings share a call up to this, at least one a call. 46 full-batch
# clients of 800 rows in one call raised the CLI's peak RSS from 41 to 47 MiB,
# while stacks of 32-row minibatches stay one call up to 128 clients (the
# default config stacks at most 60), so they pay the per-step fixed cost once.
_TRAIN_ROWS_PER_STEP = 4096


def _warn_fallbacks(run: SliceRun, degenerate: np.ndarray) -> None:
    """One stderr notice per fallback client, naming the federation and the round."""
    for k in np.flatnonzero(degenerate):
        print(f"slice {run.slice_name}, policy {run.policy}, round {len(run.records)}, "
              f"client {run.datasets[k].client_id}: all-zero attribution, "
              "using the uniform vector", file=sys.stderr)


def run_round(runs: list[SliceRun], cfg: ExperimentConfig) -> None:
    """Advance every federation in `runs`, all at the same round, by one round.

    Each federation selects; under an attribution policy it first takes its
    chi, uniform rows included, from `client_attribution` on its own current
    model, and a notice on stderr names each fallback client. Then the selected
    clients of all federations train together, stacked in `runs` order and,
    within a federation, by ascending client id: per distinct train row
    count, as many trainings per `train_clients` call as fit in
    `_TRAIN_ROWS_PER_STEP` step rows (at least one), where a step's rows are
    the train rows under full batch and `batch_size` otherwise. Last, each
    federation aggregates, evaluates and appends its record.

    Work that federations share is done once. Attribution depends only on
    the slice's datasets and the model, so federations of a slice on the
    same model share one pass (at round 0 all start from one model). A local
    update depends only on its dataset, slice, client id and start model
    (the shuffle stream is policy-free), so each distinct one trains once
    and its model goes to every federation that selected it. Trainings of a
    call that differ only in the start model share their data stream, the
    (dataset, slice, client id) part of that key: `train_clients` holds one
    copy of its rows and shuffles it once an epoch for all of them. The
    federations of a slice evaluate on one pooled test set, built after
    training: held through training, a slice's set would raise the run's
    peak memory by its size.

    A federation's round time is its own select and aggregate wall time, the
    wall time of the attribution pass its chi came from, and, from each
    training call, the call's wall time divided by its distinct trainings,
    once per client the federation trained: a shared pass or training costs
    each federation what it would have cost it alone.
    """
    if not runs:
        return
    round_index = len(runs[0].records)
    if any(len(run.records) != round_index for run in runs):
        raise ValueError("federations advanced together must be at the same round")

    # Each federation's start model, as bytes: part of every key of shared work.
    starts = [run.global_params.values.tobytes() for run in runs]
    # (dataset ids, model bytes) -> (chi, fallback mask, wall time of the pass).
    attributed: dict[tuple, tuple[np.ndarray, np.ndarray, float]] = {}
    chis, selections, elapsed = [], [], []
    for run, start in zip(runs, starts):
        started = time.perf_counter()
        chi, reused_s = None, 0.0
        if run.policy != POLICY_NO_POLICY:
            key = (tuple(map(id, run.datasets)), start)
            if key in attributed:
                chi, degenerate, reused_s = attributed[key]
            else:
                chi, degenerate = client_attribution(run.global_params, run.datasets,
                                                     cfg.attribution_samples)
                attributed[key] = (chi, degenerate, time.perf_counter() - started)
            _warn_fallbacks(run, degenerate)
        chis.append(chi)
        selections.append(select(run.policy, chi, cfg.n_selected, cfg.n_clients))
        elapsed.append(reused_s + time.perf_counter() - started)

    # Per train row count, each distinct local training in stack order, with
    # the (federation index, client id) slots it serves.
    groups: dict[int, dict[tuple, list[tuple[int, int]]]] = {}
    for i, (run, selection, start) in enumerate(zip(runs, selections, starts)):
        for client_id in sorted(selection.selected):
            ds = run.datasets[client_id]
            key = (id(ds), run.slice_name, client_id, start)
            groups.setdefault(ds.n_train, {}).setdefault(key, []).append((i, client_id))
    trained: dict[tuple[int, int], ModelParams] = {}
    calls = []
    for n_train, group in groups.items():
        stack = list(group.items())
        per_call = max(_TRAIN_ROWS_PER_STEP // min(cfg.batch_size or n_train, n_train), 1)
        calls += [stack[i:i + per_call] for i in range(0, len(stack), per_call)]
    for call in calls:
        slots = [shared for _, shared in call]
        # A training's data stream is its key without the start model; each
        # distinct one is read, and shuffled, once a call for all its trainings.
        streams: dict[tuple, int] = {}
        sources = []  # (federation index, client id) of each stream's first training
        for key, shared in call:
            if key[:3] not in streams:
                streams[key[:3]] = len(sources)
                sources.append(shared[0])
        started = time.perf_counter()
        participants = [runs[i].datasets[client_id] for i, client_id in sources]
        try:
            models = train_clients(
                [runs[shared[0][0]].global_params for shared in slots],
                [ds.train_features for ds in participants],
                [ds.train_targets for ds in participants],
                cfg.local_epochs,
                learning_rate=cfg.learning_rate,
                batch_size=cfg.batch_size,
                shuffle_rngs=[_shuffle_rng(cfg, runs[i].slice_name, round_index, client_id)
                              for i, client_id in sources],
                streams=[streams[key[:3]] for key, _ in call],
            )
        except NumericError as exc:
            raise NumericError(
                f"round {round_index}: {_at_fault(runs, slots, exc.clients)}: {exc}"
            ) from exc
        share = (time.perf_counter() - started) / len(slots)
        for shared, model in zip(slots, models):
            for slot in shared:
                trained[slot] = model
                elapsed[slot[0]] += share

    # (dataset ids) -> the pooled test set of those datasets.
    test_sets: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
    for i, (run, chi, selection) in enumerate(zip(runs, chis, selections)):
        started = time.perf_counter()
        ordered = sorted(selection.selected)
        new_global = fedavg_aggregate(
            [trained[i, client_id] for client_id in ordered],
            [run.datasets[client_id].n_train for client_id in ordered],
        )
        elapsed_ms = (elapsed[i] + time.perf_counter() - started) * 1e3

        key = tuple(map(id, run.datasets))
        if key not in test_sets:
            test_sets[key] = pooled_test_set(run.datasets)
        mse = evaluate_global(new_global, *test_sets[key])
        previous_ms = run.records[-1].cum_time_ms if run.records else 0.0
        run.records.append(RoundRecord(
            round_index=round_index,
            mse=mse,
            cum_time_ms=previous_ms + elapsed_ms,
            selection=selection,
            chi=chi,
            global_params=new_global,
        ))


def _at_fault(
    runs: list[SliceRun], slots: list[list[tuple[int, int]]], positions: tuple[int, ...]
) -> str:
    """'slice S, policy P, clients [...]' per federation served by the trainings at `positions`.

    `slots[p]` lists the (federation index, client id) pairs that stack
    position p trained for; federations are named in `runs` order.
    """
    faulty: dict[int, list[int]] = {}
    for i, client_id in sorted(slot for position in positions for slot in slots[position]):
        faulty.setdefault(i, []).append(client_id)
    return "; ".join(
        f"slice {runs[i].slice_name}, policy {runs[i].policy}, clients {client_ids}"
        for i, client_ids in faulty.items()
    )


def run_experiment(
    cfg: ExperimentConfig, datasets: dict[str, list[ClientDataset]]
) -> list[SliceRun]:
    """Every (policy, slice) federation of `cfg`, policy-major, run round by round together.

    All federations start from one initial model, and every federation of a
    slice trains on the same datasets. The datasets are checked before any
    round.
    """
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
            for policy in cfg.policies for name in cfg.slices]
    for _ in range(cfg.n_rounds):
        run_round(runs, cfg)
    return runs
