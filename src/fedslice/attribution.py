"""Integrated-gradients feature attributions and their per-client reduction.

Per sample, the attribution of feature i is x_i times the average input
gradient along the straight path alpha * x, alpha in [0, 1], from the zero
baseline (Sundararajan et al. 2017, "Axiomatic Attribution for Deep
Networks"). A ReLU network is piecewise linear along that path, so the
average is computed exactly, in closed form:

- First hidden layer: its pre-activation is alpha * (W1^T x) + b1, affine
  in alpha, so unit j crosses zero once, at -b_j / (W1^T x)_j, where that
  lies in (0, 1). These crossings cut [0, 1] into pieces.
- Hidden layers between the first and the last: each is evaluated at the
  current cuts, where the layers before it keep their signs, so it is
  affine on each piece and its zeros are interpolated and added as cuts.
- Last hidden layer: not cut. Its pre-activation z is affine on each piece
  [a0, a1], so a unit's ReLU gate integrated over the piece is
  (a1 - a0) * (max(z0, 0) + max(z1, 0)) / (|z0| + |z1|). It is 0 where z is
  0 at both ends: the ReLU subgradient at exactly 0 is 0.
- One backward sweep starts from those integrated gates times the output
  weights, applies the earlier layers' masks at the piece midpoints, and
  sums over the pieces before the last product with W1.

Completeness then holds to rounding. A client's summary is the componentwise
absolute mean over a fixed pool of samples, normalized to sum to one, or the
uniform vector where every attribution is zero. `client_attribution` is the
one routine from a slice's pools to that finished matrix: it attributes as
many whole pools per call as fit in a row bound.
"""

from __future__ import annotations

import numpy as np

from .nn import ModelParams, _layer_views


def sample_attributions(params: ModelParams, samples: np.ndarray) -> np.ndarray:
    """Signed exact integrated gradients for many samples at once; returns (n, F).

    Arrays are feature-major, (units, pieces, samples) or (cuts, samples), so
    every elementwise operation runs along the contiguous samples.
    """
    xs = np.asarray(samples, dtype=np.float64)
    if xs.ndim != 2:
        raise ValueError("samples must be a 2-D array")
    ws, bs = _layer_views(params.values, params.spec, 1)
    ws = [w[0] for w in ws]  # (fan_in, fan_out)
    bs = [b[0, 0, :, None, None] for b in bs]  # (fan_out, 1, 1)
    last = len(ws) - 2  # index of the last hidden layer
    if last < 0:
        return xs * ws[0][:, 0]
    slope = ws[0].T @ xs.T  # first-layer pre-activation at alpha is alpha * slope + b
    cuts = np.array([[0.0], [1.0]])
    if last > 0:
        # Unit j's zero -b_j / slope_j lies in (0, 1) only where |slope_j| > |b_j|,
        # which also keeps out 0 / 0 (a unit that is 0 along the whole path).
        bias = bs[0][:, 0]
        zeros = np.ones_like(slope)
        np.divide(-bias, slope, out=zeros, where=np.abs(slope) > np.abs(bias))
        zeros[zeros <= 0.0] = 1.0
        cuts = _merge(cuts, zeros)
    slope = slope[:, None]
    for layer in range(1, last):
        cuts = _merge(cuts, _zeros(cuts, _forward(ws, bs, slope, cuts, layer)[1]))
    masks, z = _forward(ws, bs, slope, cuts, last)
    # The last hidden layer's gates integrated over each piece. Where z is 0
    # at both ends, both sums are 0 and the gate stays 0. The gate is the one
    # new (units, pieces, samples) array: each piece's far end is added to it
    # in place, the size is summed over z piece by piece (z's next cut is
    # still |z| when read) and the first delta is written over the gate.
    gate = np.maximum(z[:, :-1], 0.0)
    for piece in range(gate.shape[1]):
        gate[:, piece] += np.maximum(z[:, piece + 1], 0.0)
    np.abs(z, out=z)
    for piece in range(gate.shape[1]):
        z[:, piece] += z[:, piece + 1]
    size = z[:, :-1]
    np.divide(gate, size, out=gate, where=size > 0.0)
    del z, size  # so the backward sweep reuses z's memory
    gate *= np.diff(cuts, axis=0)
    delta = gate
    delta *= ws[-1][:, :, None]
    for layer in range(last - 1, -1, -1):
        delta = _matmul(ws[layer + 1], delta)
        delta *= masks[layer]
    return xs * (delta.sum(axis=1).T @ ws[0].T)


def _matmul(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """w (m, k) applied to the units of a (k, ...); returns (m, ...)."""
    return (w @ a.reshape(a.shape[0], -1)).reshape(w.shape[0], *a.shape[1:])


def _forward(
    ws: list[np.ndarray], bs: list[np.ndarray], slope: np.ndarray, cuts: np.ndarray, depth: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Hidden layer `depth`'s pre-activations at the cuts, and the masks before it.

    Returns the (units, C, n) pre-activations and, for each earlier hidden
    layer, its on-mask on every piece, (units, C - 1, n). An earlier layer
    is affine on each piece, so its value at the midpoint has the sign of the
    sum of its values at the two ends.
    """
    z = cuts * slope
    z += bs[0]
    masks = []
    for layer in range(1, depth + 1):
        masks.append(z[:, :-1] + z[:, 1:] > 0.0)
        np.maximum(z, 0.0, out=z)
        z = _matmul(ws[layer].T, z)
        z += bs[layer]
    return masks, z


def _zeros(cuts: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Where z, affine on each piece, changes sign inside it; 1 on the other pieces.

    Returns (units * (C - 1), n) path fractions.
    """
    z0, z1 = z[:, :-1], z[:, 1:]
    crosses = np.sign(z0) * np.sign(z1) < 0.0
    zeros = np.divide(z0, z0 - z1, out=np.ones(z0.shape), where=crosses)
    zeros *= np.diff(cuts, axis=0)
    zeros += cuts[:-1]
    return np.where(crosses, zeros, 1.0).reshape(-1, cuts.shape[1])


def _merge(cuts: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    """Sorted union of cuts (C, n or 1) and zeros (k, n), each column from 0 to 1.

    Padding 1s sort to the end: keep the widest column's cuts below 1 and one 1.
    """
    cuts = np.concatenate([np.broadcast_to(cuts, (cuts.shape[0], zeros.shape[1])), zeros])
    cuts.sort(axis=0)
    return cuts[:int((cuts < 1.0).sum(axis=0).max()) + 1]


# Most sample rows one `sample_attributions` call takes; whole pools share a
# call up to this. On a trained default network the per-sample cost is flat
# from 1,600 to 8,000 rows (0.31-0.37 us; 0.39 at 800), while one call over a
# 50-client federation's 40,000 rows (800 samples each) raised the CLI's peak
# RSS from 40 to 57 MiB.
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
