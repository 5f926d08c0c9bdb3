"""Client-selection policies driven by per-client feature attributions.

The main policy splits the m selection slots among input features in
proportion to their global importance (largest-remainder method) and
fills each feature's slots with the clients attributing most to that feature.
Two baselines are provided: select everyone, and a per-client similarity
score against the global importance vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

POLICY_INTELLISELECT = "intelliselect"
POLICY_NO_POLICY = "no_policy"
POLICY_SCORE = "score"
POLICIES = (POLICY_INTELLISELECT, POLICY_NO_POLICY, POLICY_SCORE)


def check_policies(policies: list[str]) -> None:
    """The rule for a list of policies to run: at least one, each known, none repeated.

    Each policy runs one federation per slice and writes files named after
    it, so a repeated name would train twice and overwrite its own outputs.
    """
    if not policies:
        raise ConfigError("policies: at least one policy is required")
    for policy in policies:
        if policy not in POLICIES:
            raise ConfigError(f"policies: unknown policy {policy!r}, expected one of {POLICIES}")
    if len(set(policies)) != len(policies):
        raise ConfigError(f"policies must not repeat a name, got {list(policies)}")


@dataclass(frozen=True)
class SelectionAudit:
    """Why one client made the cut: the feature slot that took it."""

    client_id: int
    feature: int
    chi_value: float


@dataclass(frozen=True)
class SelectionResult:
    """Ordered distinct client ids chosen for a round.

    `per_feature_quota` is None for the all-clients baseline, which has no
    notion of feature slots; `audit` is empty in that case too.
    """

    selected: tuple[int, ...]
    per_feature_quota: tuple[int, ...] | None
    audit: tuple[SelectionAudit, ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.selected)) != len(self.selected):
            raise ConfigError("selection contains duplicate client ids")
        if self.per_feature_quota is not None and sum(self.per_feature_quota) != len(self.selected):
            raise ConfigError("feature quotas must sum to the number of selected clients")


def _validate_matrix(chis: np.ndarray) -> np.ndarray:
    m = np.asarray(chis, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError("attribution matrix must be a non-empty 2-D array")
    return m


def aggregate_importance(chis: np.ndarray) -> np.ndarray:
    """Global per-feature importance: componentwise mean over client rows."""
    return np.abs(_validate_matrix(chis)).mean(axis=0)


def apportion(tau: np.ndarray, m: int) -> np.ndarray:
    """Largest-remainder split of m slots across features proportional to tau.

    Floors of m*tau are assigned first; leftover slots go to the largest
    fractional remainders, ties broken toward the lower feature index.
    """
    tau = np.asarray(tau, dtype=np.float64).reshape(-1)
    if m < 1:
        raise ConfigError("cannot apportion fewer than 1 slot")
    raw = m * tau
    quotas = np.floor(raw).astype(int)
    leftover = m - int(quotas.sum())
    remainders = raw - quotas
    order = sorted(range(tau.shape[0]), key=lambda f: (-remainders[f], f))
    for f in order[:leftover]:
        quotas[f] += 1
    return quotas


def select_clients(chis: np.ndarray, quotas: np.ndarray, m: int) -> SelectionResult:
    """Fill each feature's quota with its top-attributing unclaimed clients.

    Client ids are the row indices of `chis`. Features are processed in
    descending global-importance order, so the most important feature picks
    first. A client can be claimed only once; when a top-ranked client is
    already taken, the slot falls to the next rank. All ties break toward the
    lower index (feature or client id).
    """
    chis = _validate_matrix(chis)
    n_clients, n_features = chis.shape
    if m > n_clients:
        raise ConfigError(f"cannot select {m} of {n_clients} clients")
    quotas = np.asarray(quotas, dtype=int).reshape(-1)
    if quotas.shape[0] != n_features or int(quotas.sum()) != m:
        raise ConfigError("quotas must cover every feature and sum to m")

    tau = aggregate_importance(chis)
    feature_order = sorted(range(n_features), key=lambda f: (-tau[f], f))

    taken: set[int] = set()
    picks: list[SelectionAudit] = []
    for f in feature_order:
        ranked = sorted(range(n_clients), key=lambda k: (-chis[k, f], k))
        needed = int(quotas[f])
        for k in ranked:
            if needed == 0:
                break
            if k in taken:
                continue
            taken.add(k)
            picks.append(SelectionAudit(k, f, float(chis[k, f])))
            needed -= 1
    return SelectionResult(
        selected=tuple(p.client_id for p in picks),
        per_feature_quota=tuple(int(q) for q in quotas),
        audit=tuple(picks),
    )


def select_no_policy(n_clients: int) -> SelectionResult:
    """Every client participates; no quotas, no audit."""
    if n_clients < 1:
        raise ConfigError("cannot run a round with zero clients")
    return SelectionResult(selected=tuple(range(n_clients)), per_feature_quota=None)


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b) / (na * nb)


def select_by_score(chis: np.ndarray, tau: np.ndarray, m: int) -> SelectionResult:
    """Baseline: rank clients by cosine similarity of their attribution to tau.

    Ties break toward the lower client id.
    """
    chis = _validate_matrix(chis)
    n_clients = chis.shape[0]
    if m > n_clients:
        raise ConfigError(f"cannot select {m} of {n_clients} clients")
    tau = np.asarray(tau, dtype=np.float64).reshape(-1)

    scores = [_cosine(chis[k], tau) for k in range(n_clients)]
    ranked = sorted(range(n_clients), key=lambda k: (-scores[k], k))[:m]
    return SelectionResult(
        selected=tuple(ranked),
        per_feature_quota=None,
        audit=tuple(SelectionAudit(k, -1, scores[k]) for k in ranked),
    )
