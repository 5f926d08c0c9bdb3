"""Integrated-gradients feature attributions and their per-client reduction.

Per sample, the attribution of feature i is x_i times the average input
gradient along the straight path from the zero baseline to x. Along that
path a ReLU network is piecewise linear in the path fraction alpha, so the
average is exact: cut [0, 1] where a hidden unit changes sign and sum, over
the pieces, piece length times the gradient at the piece's midpoint
(Sundararajan et al. 2017, "Axiomatic Attribution for Deep Networks").
Completeness then holds to rounding. A client's summary is the componentwise
absolute mean over a fixed pool of samples, normalized to sum to one; several
clients' pools are attributed in one call.
"""

from __future__ import annotations

import numpy as np

from .nn import ModelParams, input_gradients_batch, pre_activations


def _path_cuts(params: ModelParams, xs: np.ndarray) -> np.ndarray:
    """Sorted path fractions (n, C) that split each sample's path into linear pieces.

    Rows start at 0 and end at 1, padded with trailing 1s to a common width.
    Hidden layers are cut in order: between two cuts every earlier layer keeps
    its activation pattern, so the layer's pre-activation is linear there and
    a sign change inside the piece sits at the interpolated zero.
    """
    n, n_features = xs.shape
    cuts = np.tile([0.0, 1.0], (n, 1))
    for layer in range(len(params.spec.layer_sizes) - 2):
        points = (cuts[:, :, None] * xs[:, None, :]).reshape(-1, n_features)
        z = pre_activations(params, points)[layer].reshape(n, cuts.shape[1], -1)
        z0, z1 = z[:, :-1], z[:, 1:]
        a0, a1 = cuts[:, :-1, None], cuts[:, 1:, None]
        crosses = np.sign(z0) * np.sign(z1) < 0.0
        zeros = np.where(crosses, a0 + (a1 - a0) * z0 / np.where(crosses, z0 - z1, 1.0), 1.0)
        cuts = np.sort(np.concatenate([cuts, zeros.reshape(n, -1)], axis=1), axis=1)
        # Padding 1s sort to the end: keep the widest row's cuts below 1 and one 1.
        cuts = cuts[:, :int((cuts < 1.0).sum(axis=1).max()) + 1]
    return cuts


def sample_attributions(params: ModelParams, samples: np.ndarray) -> np.ndarray:
    """Signed exact integrated gradients for many samples at once; returns (n, F)."""
    xs = np.asarray(samples, dtype=np.float64)
    if xs.ndim != 2:
        raise ValueError("samples must be a 2-D array")
    n, n_features = xs.shape
    cuts = _path_cuts(params, xs)
    mids = 0.5 * (cuts[:, :-1] + cuts[:, 1:])
    # One gradient pass over every piece's midpoint of every sample.
    points = (mids[:, :, None] * xs[:, None, :]).reshape(-1, n_features)
    grads = input_gradients_batch(params, points).reshape(n, -1, n_features)
    return xs * (np.diff(cuts, axis=1)[:, :, None] * grads).sum(axis=1)


def client_attribution(
    params: ModelParams, datasets, sample_count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Absolute-mean attribution of each client over its fixed sample pool, normalized.

    Every client's pool goes into one `sample_attributions` call. Returns
    (chi, degenerate): chi has one row per client of non-negative float64
    importances summing to 1, except where `degenerate` marks a client whose
    attributions are all zero; proportional normalization is undefined there
    and its row is left at zero.

    A pool is the client's seeded shuffle of its train split; the first
    `sample_count` rows are used every round so rounds stay comparable.
    """
    pools = [ds.attribution_pool(sample_count) for ds in datasets]
    ig = sample_attributions(params, np.concatenate(pools, axis=0))
    abs_mean = np.abs(ig).reshape(len(pools), sample_count, -1).mean(axis=1)
    total = abs_mean.sum(axis=1, keepdims=True)
    degenerate = total[:, 0] <= 0.0
    return abs_mean / np.where(degenerate[:, None], 1.0, total), degenerate


def uniform_attribution(n_features: int) -> np.ndarray:
    """Least-informative fallback used when attributions degenerate to zero."""
    return np.full(n_features, 1.0 / n_features)
