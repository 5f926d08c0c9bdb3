"""Round-based federated training of one global model per network slice.

Every round: select clients under the configured policy, train each selected
client locally for a fixed number of epochs, aggregate the local weights as a
dataset-size-weighted average, redistribute the global model to everyone,
refresh per-client attributions, and evaluate the pooled test MSE. Slices are
fully independent federations sharing only the configuration and seed.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import metrics as metrics_mod
from .attribution import IgConfig, client_attribution, uniform_attribution
from .data import (
    ClientDataset,
    SLICES,
    default_profiles,
    generate_client,
    slice_by_name,
)
from .errors import ConfigError, DegenerateAttributionError
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
    POLICY_SCORE,
    SelectionResult,
    aggregate_importance,
    apportion,
    select_by_score,
    select_clients,
    select_no_policy,
)

logger = logging.getLogger(__name__)

DEFAULT_SLICE_NAMES = tuple(s.name for s in SLICES)


@dataclass(frozen=True)
class ExperimentConfig:
    """Every experiment knob, seed included, so runs are config-addressable."""

    n_clients: int = 10
    n_selected: int = 5
    n_rounds: int = 30
    local_epochs: int = 150
    attribution_samples: int = 150
    n_features: int = 3
    samples_per_client: int = 1000
    learning_rate: float = 0.0015
    seed: int = 42
    policy: str = POLICY_INTELLISELECT
    ig_steps: int = 64
    batch_size: int | None = 32
    layer_sizes: tuple[int, ...] = (3, 3, 2, 1)
    train_fraction: float = 0.8
    slices: tuple[str, ...] = DEFAULT_SLICE_NAMES
    data_dir: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        object.__setattr__(self, "slices", tuple(self.slices))
        if self.n_clients < 1:
            raise ConfigError("n_clients must be at least 1")
        if not 1 <= self.n_selected <= self.n_clients:
            raise ConfigError(
                f"n_selected must be in [1, n_clients], got {self.n_selected} of {self.n_clients}"
            )
        if self.n_rounds < 0:
            raise ConfigError("n_rounds cannot be negative")
        if self.local_epochs < 1:
            raise ConfigError("local_epochs must be at least 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError("batch_size must be positive or null for full batch")
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}, expected one of {POLICIES}")
        if self.layer_sizes[0] != self.n_features:
            raise ConfigError(
                f"input layer ({self.layer_sizes[0]}) must match n_features ({self.n_features})"
            )
        for name in self.slices:
            slice_by_name(name)
        # Under data_dir the train splits come from the files, which ingestion checks.
        max_pool = max(int(round(self.samples_per_client * self.train_fraction)), 1)
        if self.data_dir is None and self.attribution_samples > max_pool:
            raise ConfigError(
                f"attribution_samples ({self.attribution_samples}) exceeds the "
                f"train split size ({max_pool})"
            )

    @property
    def network_spec(self) -> NetworkSpec:
        return NetworkSpec(self.layer_sizes)

    @property
    def ig_config(self) -> IgConfig:
        return IgConfig(steps=self.ig_steps, sample_count=self.attribution_samples)

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
    """What one round produced: error, time, participants, link load."""

    round_index: int
    mse: float
    cum_time_ms: float
    selected: tuple[int, ...]
    params_transmitted: int


@dataclass
class FederationState:
    """Mutable per-slice training state carried across rounds."""

    slice_name: str
    round_index: int
    global_params: ModelParams
    chi: np.ndarray | None
    datasets: tuple[ClientDataset, ...]
    test_features: np.ndarray
    test_targets: np.ndarray
    cum_time_ms: float = 0.0


@dataclass
class SliceRun:
    """Full trace of one (slice, policy) federation."""

    slice_name: str
    policy: str
    records: list[RoundRecord] = field(default_factory=list)
    round_params: list[ModelParams] = field(default_factory=list)
    chi_rounds: list[np.ndarray] = field(default_factory=list)
    selections: list[SelectionResult] = field(default_factory=list)
    initial_params: ModelParams | None = None
    datasets: tuple[ClientDataset, ...] = ()


def client_seed(seed: int, slice_index: int, client_id: int) -> int:
    """Stable per-(slice, client) generator seed derived from the run seed."""
    return int(np.random.SeedSequence([seed, slice_index, client_id]).generate_state(1)[0])


def _shuffle_rngs(
    cfg: ExperimentConfig, slice_name: str, round_index: int, client_ids: list[int]
) -> list[np.random.Generator] | None:
    """Per-(slice, round, client) minibatch shuffle streams, policy-independent."""
    if cfg.batch_size is None:
        return None
    slice_index = DEFAULT_SLICE_NAMES.index(slice_name)
    return [
        np.random.default_rng(np.random.SeedSequence([cfg.seed, slice_index, round_index, cid]))
        for cid in client_ids
    ]


def build_datasets(cfg: ExperimentConfig) -> dict[str, list[ClientDataset]]:
    """Synthetic datasets for every (slice, client); independent of policy."""
    profiles = default_profiles(cfg.n_clients, cfg.seed)
    out: dict[str, list[ClientDataset]] = {}
    for name in cfg.slices:
        spec = slice_by_name(name)
        slice_index = DEFAULT_SLICE_NAMES.index(name)
        out[name] = [
            generate_client(
                profiles[k],
                spec,
                cfg.samples_per_client,
                client_seed(cfg.seed, slice_index, k),
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
    """Dataset-size-weighted average of local parameter vectors.

    Weights are each client's share of the selected clients' total samples,
    so they sum to 1 and the update is a convex combination.
    """
    if not params_list or len(params_list) != len(sizes):
        raise ValueError("need matching non-empty params and sizes")
    total = float(sum(sizes))
    if total <= 0.0:
        raise ValueError("total dataset size must be positive")
    weights = np.asarray(sizes, dtype=np.float64) / total
    stacked = np.stack([p.values for p in params_list], axis=0)
    return ModelParams((weights[:, None] * stacked).sum(axis=0), params_list[0].spec)


def _compute_chi(
    params: ModelParams, datasets: tuple[ClientDataset, ...], cfg: ExperimentConfig
) -> np.ndarray:
    """Per-client normalized attributions on the current global model.

    A client whose attributions degenerate to all-zero contributes the uniform
    vector instead, since proportional normalization is undefined there.
    """
    rows = []
    for ds in datasets:
        try:
            rows.append(client_attribution(params, ds, cfg.ig_config).values)
        except DegenerateAttributionError:
            rows.append(uniform_attribution(cfg.n_features, ds.client_id).values)
    return np.stack(rows, axis=0)


def _select(cfg: ExperimentConfig, chi: np.ndarray | None) -> SelectionResult:
    if cfg.policy == POLICY_NO_POLICY:
        return select_no_policy(cfg.n_clients)
    if chi is None:
        raise ConfigError(f"policy {cfg.policy!r} needs an attribution matrix")
    tau = aggregate_importance(chi)
    if cfg.policy == POLICY_INTELLISELECT:
        quotas = apportion(tau, cfg.n_selected)
        return select_clients(chi, quotas, cfg.n_selected)
    return select_by_score(chi, tau, cfg.n_selected)


def initialize_state(
    cfg: ExperimentConfig, slice_name: str, datasets: list[ClientDataset]
) -> FederationState:
    """Shared global init from the run seed, distributed to all clients.

    Attribution-driven policies also compute the pre-loop attribution matrix
    on the freshly initialized model; the all-clients baseline skips
    attributions entirely.
    """
    if len(datasets) != cfg.n_clients:
        raise ConfigError(
            f"slice {slice_name!r} has {len(datasets)} datasets, expected {cfg.n_clients}"
        )
    global_params = init_params(cfg.network_spec, cfg.seed)
    datasets_t = tuple(datasets)
    chi = None if cfg.policy == POLICY_NO_POLICY else _compute_chi(global_params, datasets_t, cfg)
    test_features, test_targets = pooled_test_set(datasets)
    return FederationState(
        slice_name=slice_name,
        round_index=0,
        global_params=global_params,
        chi=chi,
        datasets=datasets_t,
        test_features=test_features,
        test_targets=test_targets,
    )


def run_round(
    state: FederationState, cfg: ExperimentConfig
) -> tuple[FederationState, RoundRecord, SelectionResult]:
    """One full federated round; returns the advanced state, its record and selection."""
    if state.round_index >= cfg.n_rounds:
        raise ConfigError(f"round {state.round_index} is past the configured {cfg.n_rounds}")
    started = time.perf_counter()

    selection = _select(cfg, state.chi)
    ordered = sorted(selection.selected)
    participants = [state.datasets[client_id] for client_id in ordered]
    try:
        trained = train_clients(
            state.global_params,
            [ds.train_features for ds in participants],
            [ds.train_targets for ds in participants],
            cfg.local_epochs,
            learning_rate=cfg.learning_rate,
            batch_size=cfg.batch_size,
            shuffle_rngs=_shuffle_rngs(cfg, state.slice_name, state.round_index, ordered),
        )
    except ArithmeticError as exc:
        raise type(exc)(
            f"round {state.round_index}, slice {state.slice_name}, "
            f"clients {ordered}: {exc}"
        ) from exc
    sizes = [ds.size for ds in participants]

    new_global = fedavg_aggregate(trained, sizes)
    chi = None if cfg.policy == POLICY_NO_POLICY else _compute_chi(new_global, state.datasets, cfg)
    elapsed_ms = (time.perf_counter() - started) * 1e3

    mse = evaluate_global(new_global, state.test_features, state.test_targets)
    downlink, uplink = metrics_mod.per_round_comm(
        cfg.policy, cfg.n_clients, cfg.n_selected, cfg.n_features, cfg.network_spec.param_count
    )
    record = RoundRecord(
        round_index=state.round_index,
        mse=mse,
        cum_time_ms=state.cum_time_ms + elapsed_ms,
        selected=selection.selected,
        params_transmitted=downlink + uplink,
    )
    logger.info(
        "slice=%s policy=%s round=%d mse=%.6g selected=%s",
        state.slice_name, cfg.policy, state.round_index, mse, list(selection.selected),
    )
    new_state = dataclasses.replace(
        state,
        round_index=state.round_index + 1,
        global_params=new_global,
        chi=chi,
        cum_time_ms=record.cum_time_ms,
    )
    return new_state, record, selection


def run_slice(
    cfg: ExperimentConfig, slice_name: str, datasets: list[ClientDataset]
) -> SliceRun:
    """Run the configured policy for all rounds of one slice's federation."""
    state = initialize_state(cfg, slice_name, datasets)
    run = SliceRun(
        slice_name=slice_name,
        policy=cfg.policy,
        initial_params=state.global_params,
        datasets=state.datasets,
    )
    for _ in range(cfg.n_rounds):
        chi_used = state.chi
        state, record, selection = run_round(state, cfg)
        run.records.append(record)
        run.round_params.append(state.global_params)
        if chi_used is not None:
            run.chi_rounds.append(chi_used)
        run.selections.append(selection)
    return run


def run_experiment(
    cfg: ExperimentConfig,
    datasets: dict[str, list[ClientDataset]] | None = None,
) -> list[SliceRun]:
    """Independent federations for every configured slice under one policy."""
    if datasets is None:
        datasets = build_datasets(cfg)
    missing = [s for s in cfg.slices if s not in datasets]
    if missing:
        raise ConfigError(f"no datasets for slice(s): {', '.join(missing)}")
    return [run_slice(cfg, name, datasets[name]) for name in cfg.slices]
