"""Integrated-gradients feature attributions and their per-client reduction.

Per sample, the attribution of feature i is x_i times the average input
gradient along the straight path from the zero baseline to x. Along that
path a ReLU network is piecewise linear in the path fraction alpha, so the
average is exact: cut [0, 1] where a hidden unit changes sign and sum, over
the pieces, piece length times the gradient at the piece's midpoint
(Sundararajan et al. 2017, "Axiomatic Attribution for Deep Networks").
Completeness then holds to rounding. A client's summary is the componentwise
absolute mean over a fixed pool of samples, normalized to sum to one, or the
uniform vector where every attribution is zero. `client_attribution` is the
one routine from a slice's pools to that finished matrix: it attributes as
many whole pools per call as fit in a row bound.
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


# Most sample rows one `sample_attributions` call takes; whole pools share a
# call up to this. Per-sample cost is flat from 800 to 4,000 rows, while one
# call over a 50-client federation's 40,000 rows (800 samples each) raised the
# CLI's peak RSS from 47 to 72 MiB.
_ATTRIBUTION_ROWS_PER_CALL = 2048


def client_attribution(
    params: ModelParams, datasets, sample_count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Absolute-mean attribution of each client over its fixed sample pool, normalized.

    Clients are attributed in id order, as many whole pools per
    `sample_attributions` call as fit in `_ATTRIBUTION_ROWS_PER_CALL` rows
    (at least one). Returns (chi, degenerate): chi is a read-only array with
    one row per client of non-negative float64 importances summing to 1.
    `degenerate` marks each client whose attributions are all zero;
    proportional normalization is undefined there, so its row holds the
    uniform vector 1/F, the least-informative fallback.

    A pool is the client's seeded shuffle of its train split; the first
    `sample_count` rows are used every round so rounds stay comparable.
    """
    per_call = max(_ATTRIBUTION_ROWS_PER_CALL // sample_count, 1)
    chi = np.empty((len(datasets), params.spec.n_features))
    for start in range(0, len(datasets), per_call):
        block = datasets[start:start + per_call]
        pools = np.concatenate([ds.attribution_pool(sample_count) for ds in block], axis=0)
        abs_ig = np.abs(sample_attributions(params, pools))
        chi[start:start + len(block)] = abs_ig.reshape(len(block), sample_count, -1).mean(axis=1)
    total = chi.sum(axis=1, keepdims=True)
    degenerate = total[:, 0] <= 0.0
    chi /= np.where(degenerate[:, None], 1.0, total)
    chi[degenerate] = 1.0 / chi.shape[1]
    chi.setflags(write=False)  # federations sharing the pass share the array
    return chi, degenerate
