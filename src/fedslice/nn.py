"""Minimal fully-connected regression network on flat parameter vectors.

The network is deliberately tiny (default 3-3-2-1, ReLU hidden layers,
identity output) and every operation is a pure function over a flat float64
parameter vector, which is the unit exchanged between server and clients.
Gradients are hand-written reverse mode; the optimizer is Adam. One stacked
kernel computes every forward and backward pass, so the single-network
helpers run exactly the arithmetic that training runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

DEFAULT_LAYER_SIZES = (3, 3, 2, 1)

# ReLU subgradient at exactly 0 is taken as 0 (strict > in the masks below).

# Adam moment decay rates and denominator guard.
_BETA1 = 0.9
_BETA2 = 0.999
_EPSILON = 1e-8


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description: ordered layer widths, input first, output last."""

    layer_sizes: tuple[int, ...] = DEFAULT_LAYER_SIZES

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2:
            raise ConfigError("network needs at least an input and an output layer")
        if any(s < 1 for s in sizes):
            raise ConfigError(f"layer sizes must be positive, got {sizes}")
        if sizes[-1] != 1:
            raise ConfigError(f"output layer must have exactly 1 neuron, got {sizes[-1]}")
        object.__setattr__(self, "layer_sizes", sizes)

    @property
    def n_features(self) -> int:
        return self.layer_sizes[0]

    @property
    def param_count(self) -> int:
        return sum((n_in + 1) * n_out for n_in, n_out in self.layer_shapes())

    def layer_shapes(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per layer, in forward order."""
        return list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))


@dataclass(frozen=True)
class ModelParams:
    """Flat, ordered vector of all weights and biases for a NetworkSpec.

    Layout is layer-major: layer 1 weights (row-major, fan_in x fan_out),
    layer 1 biases, layer 2 weights, and so on.
    """

    values: np.ndarray
    spec: NetworkSpec

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ConfigError("parameter vector must be one-dimensional")
        if values.shape[0] != self.spec.param_count:
            raise ConfigError(
                f"parameter vector has {values.shape[0]} entries, "
                f"spec {self.spec.layer_sizes} needs {self.spec.param_count}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.shape[0]


def _unpack(params: ModelParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split the flat vector into per-layer (weights, biases) views."""
    out = []
    offset = 0
    for n_in, n_out in params.spec.layer_shapes():
        w = params.values[offset:offset + n_in * n_out].reshape(n_in, n_out)
        offset += n_in * n_out
        b = params.values[offset:offset + n_out]
        offset += n_out
        out.append((w, b))
    return out


def pack(spec: NetworkSpec, layers: list[tuple[np.ndarray, np.ndarray]]) -> ModelParams:
    """Assemble per-layer (weights, biases) arrays into a flat ModelParams."""
    chunks = []
    for (w, b), (n_in, n_out) in zip(layers, spec.layer_shapes()):
        w = np.asarray(w, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if w.shape != (n_in, n_out) or b.shape != (n_out,):
            raise ConfigError(f"layer arrays do not match spec {spec.layer_sizes}")
        chunks.append(w.reshape(-1))
        chunks.append(b)
    return ModelParams(np.concatenate(chunks), spec)


def init_params(spec: NetworkSpec, seed_or_rng: int | np.random.Generator) -> ModelParams:
    """Glorot-uniform weights, zero biases, drawn layer by layer in order."""
    rng = (seed_or_rng if isinstance(seed_or_rng, np.random.Generator)
           else np.random.default_rng(seed_or_rng))
    layers = []
    for n_in, n_out in spec.layer_shapes():
        limit = np.sqrt(6.0 / (n_in + n_out))
        w = rng.uniform(-limit, limit, size=(n_in, n_out))
        layers.append((w, np.zeros(n_out)))
    return pack(spec, layers)


def _as_batch(params: ModelParams, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != params.spec.n_features:
        raise ConfigError(
            f"expected feature dimension {params.spec.n_features}, got shape {x.shape}"
        )
    return x


def _stack(params: ModelParams) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weights as (1, fan_in, fan_out) and biases as (1, 1, fan_out) views."""
    layers = _unpack(params)
    return [w[None] for w, _ in layers], [b[None, None] for _, b in layers]


def _pass(
    ws: list[np.ndarray],
    bs: list[np.ndarray],
    x: np.ndarray,
    targets: np.ndarray | None = None,
    input_grads: bool = False,
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]] | None, np.ndarray | None]:
    """Forward and backward pass of K stacked networks over (K, B, F) inputs.

    `ws[i]` is (K, fan_in, fan_out) and `bs[i]` is (K, 1, fan_out). Returns the
    (K, B) predictions, then two optional gradients. The backward pass starts
    from the batch-mean squared error against `targets` (K, B) when given,
    else from the prediction itself. With `targets`, the first gradient lists
    each layer's (weights, biases) gradient; with `input_grads`, the second is
    the gradient with respect to every input row, (K, B, F).
    """
    n_layers = len(ws)
    layer_inputs, pre_acts = [], []  # inputs are kept only for parameter gradients
    a = x
    for i in range(n_layers):
        if targets is not None:
            layer_inputs.append(a)
        z = a @ ws[i] + bs[i]
        pre_acts.append(z)
        a = z if i == n_layers - 1 else np.maximum(z, 0.0)
    pred = pre_acts[-1][:, :, 0]
    if targets is None and not input_grads:
        return pred, None, None

    if targets is None:
        delta = np.ones_like(pre_acts[-1])
    else:
        delta = ((2.0 / targets.shape[1]) * (pred - targets))[:, :, None]
    param_grads: list = [None] * n_layers
    for i in range(n_layers - 1, -1, -1):
        if targets is not None:
            param_grads[i] = (layer_inputs[i].transpose(0, 2, 1) @ delta,
                              delta.sum(axis=1, keepdims=True))
        if i > 0:
            delta = (delta @ ws[i].transpose(0, 2, 1)) * (pre_acts[i - 1] > 0.0)
        elif input_grads:
            delta = delta @ ws[0].transpose(0, 2, 1)
    return (pred, param_grads if targets is not None else None,
            delta if input_grads else None)


def forward_batch(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Predictions for a batch of feature rows; returns shape (B,)."""
    pred, _, _ = _pass(*_stack(params), _as_batch(params, features)[None])
    return pred[0]


def param_gradients(params: ModelParams, features: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Gradient of batch-mean squared error with respect to every parameter."""
    x = _as_batch(params, features)
    y = np.asarray(targets, dtype=np.float64).reshape(-1)
    if y.shape[0] == 0:
        raise ValueError("gradient of an empty batch is undefined")
    if y.shape[0] != x.shape[0]:
        raise ConfigError(f"batch has {x.shape[0]} rows but {y.shape[0]} targets")
    _, grads, _ = _pass(*_stack(params), x[None], y[None])
    return np.concatenate([g[0].reshape(-1) for layer in grads for g in layer])


def input_gradients_batch(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """d(prediction)/d(input) for each row independently; returns (B, F)."""
    _, _, grads = _pass(*_stack(params), _as_batch(params, features)[None], input_grads=True)
    return grads[0]


def train_clients(
    params: ModelParams,
    features: list[np.ndarray],
    targets: list[np.ndarray],
    epochs: int,
    learning_rate: float = 0.0015,
    batch_size: int | None = None,
    shuffle_rngs: list[np.random.Generator] | None = None,
) -> list[ModelParams]:
    """Train one copy of `params` per client, all clients in lockstep.

    Every client starts from the same broadcast parameters with fresh Adam
    moments and sees only its own data, so results are mathematically
    independent per client; stacking them along a leading axis just amortizes
    array overhead. With `batch_size` set, each epoch walks a per-client
    permutation of the rows (from `shuffle_rngs`, or row order when absent);
    otherwise each epoch is one full-batch step. Clients must share a row
    count to train in lockstep.
    """
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    if not features or len(features) != len(targets):
        raise ValueError("need matching non-empty feature/target lists")
    xs = np.stack([np.asarray(f, dtype=np.float64) for f in features], axis=0)
    ys = np.stack([np.asarray(t, dtype=np.float64).reshape(-1) for t in targets], axis=0)
    n_clients, n_rows, _ = xs.shape
    if n_rows == 0:
        raise ValueError("cannot train on an empty dataset")
    if xs.shape[2] != params.spec.n_features:
        raise ConfigError(f"expected feature dimension {params.spec.n_features}, got {xs.shape}")

    n_layers = len(params.spec.layer_shapes())
    ws, bs = [], []
    mw, vw, mb, vb = [], [], [], []
    for w, b in _unpack(params):
        ws.append(np.broadcast_to(w, (n_clients, *w.shape)).copy())
        bs.append(np.broadcast_to(b, (n_clients, 1, b.shape[0])).copy())
        mw.append(np.zeros_like(ws[-1]))
        vw.append(np.zeros_like(ws[-1]))
        mb.append(np.zeros_like(bs[-1]))
        vb.append(np.zeros_like(bs[-1]))

    if batch_size is None or batch_size >= n_rows:
        batches = [np.arange(n_rows)]
        shuffle_rngs = None
    else:
        batches = [np.arange(start, min(start + batch_size, n_rows))
                   for start in range(0, n_rows, batch_size)]

    step = 0
    for _ in range(epochs):
        if shuffle_rngs is not None:
            orders = np.stack([rng.permutation(n_rows) for rng in shuffle_rngs], axis=0)
        else:
            orders = None
        for batch in batches:
            if orders is not None:
                idx = orders[:, batch]
                xb = np.take_along_axis(xs, idx[:, :, None], axis=1)
                yb = np.take_along_axis(ys, idx, axis=1)
            else:
                xb = xs[:, batch]
                yb = ys[:, batch]

            _, grads, _ = _pass(ws, bs, xb, yb)
            for gw, gb in grads:
                if not (np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))):
                    raise NumericError("non-finite gradient during local training")

            step += 1
            correction1 = 1.0 - _BETA1 ** step
            correction2 = 1.0 - _BETA2 ** step
            for i, (gw, gb) in enumerate(grads):
                mw[i] = _BETA1 * mw[i] + (1.0 - _BETA1) * gw
                vw[i] = _BETA2 * vw[i] + (1.0 - _BETA2) * gw * gw
                mb[i] = _BETA1 * mb[i] + (1.0 - _BETA1) * gb
                vb[i] = _BETA2 * vb[i] + (1.0 - _BETA2) * gb * gb
                ws[i] = ws[i] - learning_rate * (mw[i] / correction1) / (
                    np.sqrt(vw[i] / correction2) + _EPSILON)
                bs[i] = bs[i] - learning_rate * (mb[i] / correction1) / (
                    np.sqrt(vb[i] / correction2) + _EPSILON)

    out = []
    for c in range(n_clients):
        layers = [(ws[i][c], bs[i][c, 0]) for i in range(n_layers)]
        out.append(pack(params.spec, layers))
    return out
