"""Deterministic federated-learning simulator for per-slice CPU-load prediction.

Clients train a tiny feedforward regressor on local slice KPIs; the server
picks each round's participants from integrated-gradients feature
attributions, apportioning selection slots across features by importance.
"""

from .attribution import client_attribution
from .data import ClientDataset, MinMaxScaler, NonIidProfile, SLICES, SliceSpec
from .federation import (
    ExperimentConfig,
    RoundRecord,
    SliceRun,
    evaluate_global,
    fedavg_aggregate,
    run_experiment,
    run_round,
)
from .metrics import CommLedger, ProvisioningReport, comm_cost, provisioning_report
from .nn import ModelParams, NetworkSpec, init_params
from .selection import (
    SelectionResult,
    aggregate_importance,
    apportion,
    select_by_score,
    select_clients,
    select_no_policy,
)

__version__ = "0.1.0"

__all__ = [
    "ClientDataset",
    "CommLedger",
    "ExperimentConfig",
    "MinMaxScaler",
    "ModelParams",
    "NetworkSpec",
    "NonIidProfile",
    "ProvisioningReport",
    "RoundRecord",
    "SLICES",
    "SelectionResult",
    "SliceRun",
    "SliceSpec",
    "aggregate_importance",
    "apportion",
    "client_attribution",
    "comm_cost",
    "evaluate_global",
    "fedavg_aggregate",
    "init_params",
    "provisioning_report",
    "run_experiment",
    "run_round",
    "select_by_score",
    "select_clients",
    "select_no_policy",
    "__version__",
]
