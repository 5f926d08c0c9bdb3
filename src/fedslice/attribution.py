"""Integrated-gradients feature attributions and their per-client reduction.

Per sample, the attribution of feature i is x_i times the average input
gradient along the straight path from the zero baseline to x, evaluated with
a midpoint Riemann rule. A client's summary is the componentwise absolute
mean over a fixed pool of samples, normalized to sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateAttributionError
from .nn import ModelParams, input_gradients_batch

DEFAULT_IG_STEPS = 64
DEFAULT_ATTRIBUTION_SAMPLES = 150


@dataclass(frozen=True)
class IgConfig:
    """Path-integral settings: step count and pool size."""

    steps: int = DEFAULT_IG_STEPS
    sample_count: int = DEFAULT_ATTRIBUTION_SAMPLES

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ConfigError("integration needs at least 1 step")
        if self.sample_count < 1:
            raise ConfigError("attribution pool needs at least 1 sample")


@dataclass(frozen=True)
class AttributionVector:
    """Normalized per-feature importances of one client; sums to 1."""

    values: np.ndarray
    client_id: int
    sample_count: int

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ConfigError("attribution vector must be 1-D")
        if np.any(v < 0.0):
            raise ConfigError("attribution components cannot be negative")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def _midpoint_alphas(steps: int) -> np.ndarray:
    return (np.arange(steps) + 0.5) / steps


def sample_attributions(params: ModelParams, samples: np.ndarray, cfg: IgConfig) -> np.ndarray:
    """Signed attributions for many samples at once; returns (n, F)."""
    xs = np.asarray(samples, dtype=np.float64)
    if xs.ndim != 2:
        raise ConfigError("samples must be a 2-D array")
    alphas = _midpoint_alphas(cfg.steps)
    # One big batch of n*steps path points keeps the gradient pass vectorized.
    path = alphas[None, :, None] * xs[:, None, :]
    grads = input_gradients_batch(params, path.reshape(-1, xs.shape[1]))
    mean_grads = grads.reshape(xs.shape[0], cfg.steps, xs.shape[1]).mean(axis=1)
    return xs * mean_grads


def client_attribution(params: ModelParams, dataset, cfg: IgConfig) -> AttributionVector:
    """Absolute-mean attribution over the client's fixed sample pool, normalized.

    The pool is the client's seeded shuffle of its train split; the first
    `cfg.sample_count` rows are used every round so rounds stay comparable.
    """
    pool = dataset.attribution_features
    if pool.shape[0] < cfg.sample_count:
        raise ValueError(
            f"client {dataset.client_id} has {pool.shape[0]} attribution samples, "
            f"needs {cfg.sample_count}"
        )
    ig = sample_attributions(params, pool[:cfg.sample_count], cfg)
    abs_mean = np.abs(ig).mean(axis=0)
    total = abs_mean.sum()
    if total <= 0.0:
        raise DegenerateAttributionError(
            f"client {dataset.client_id} produced an all-zero attribution vector"
        )
    return AttributionVector(abs_mean / total, dataset.client_id, cfg.sample_count)


def uniform_attribution(n_features: int, client_id: int, sample_count: int = 0) -> AttributionVector:
    """Least-informative fallback used when attributions degenerate to zero."""
    return AttributionVector(np.full(n_features, 1.0 / n_features), client_id, sample_count)
