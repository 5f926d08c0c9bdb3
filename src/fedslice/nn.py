"""Minimal fully-connected regression network on flat parameter vectors.

The network is deliberately tiny (default 3-3-2-1, ReLU hidden layers,
identity output) and every operation is a pure function over a flat float64
parameter vector, which is the unit exchanged between server and clients.
Gradients are hand-written reverse mode; the optimizer is Adam. One stacked
kernel computes every forward and backward pass, so the single-network
helpers run exactly the arithmetic that training runs.

Training stacks K client networks in flat layer-major buffers (see
`_layer_views`): parameters, gradient and both Adam moments are each one
K x param_count array whose per-layer views the kernel reads and writes in
place, so a step is one pass, one finiteness check and one Adam update.

The kernel is feature-major: inputs are (K, F, B) and activations and deltas
(K, fan, B), B being the batch rows, so bias adds, ReLU masks and delta
products run along B rather than over 1-3 units. A bias gradient is delta
summed over that contiguous axis (numpy's pairwise order). Callers pass
transposed views of row-major data; no input is copied.
"""

from __future__ import annotations

from collections.abc import Sequence
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
            raise ValueError("parameter vector must be one-dimensional")
        if values.shape[0] != self.spec.param_count:
            raise ValueError(
                f"parameter vector has {values.shape[0]} entries, "
                f"spec {self.spec.layer_sizes} needs {self.spec.param_count}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _layer_views(
    buf: np.ndarray, spec: NetworkSpec, n_networks: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight (n, fan_in, fan_out) and bias (n, 1, fan_out) views of a flat buffer.

    The buffer holds `n_networks` networks layer-major: every network's layer-1
    weights, then every network's layer-1 biases, then layer 2, and so on, so
    each view is C-contiguous. With one network this is the ModelParams layout.
    """
    ws, bs = [], []
    offset = 0
    for n_in, n_out in spec.layer_shapes():
        size = n_networks * n_in * n_out
        ws.append(buf[offset:offset + size].reshape(n_networks, n_in, n_out))
        offset += size
        bs.append(buf[offset:offset + n_networks * n_out].reshape(n_networks, 1, n_out))
        offset += n_networks * n_out
    return ws, bs


def pack(spec: NetworkSpec, layers: list[tuple[np.ndarray, np.ndarray]]) -> ModelParams:
    """Assemble per-layer (weights, biases) arrays into a flat ModelParams."""
    chunks = []
    for (w, b), (n_in, n_out) in zip(layers, spec.layer_shapes()):
        w = np.asarray(w, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if w.shape != (n_in, n_out) or b.shape != (n_out,):
            raise ValueError(f"layer arrays do not match spec {spec.layer_sizes}")
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
        raise ValueError(
            f"expected feature dimension {params.spec.n_features}, got shape {x.shape}"
        )
    return x


def _stack(params: ModelParams) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Layer views of one network, shaped as a K=1 stack for `_pass`."""
    return _layer_views(params.values, params.spec, 1)


def _pass(
    ws: list[np.ndarray],
    bs: list[np.ndarray],
    x: np.ndarray,
    targets: np.ndarray | None = None,
    grads: tuple[list[np.ndarray], list[np.ndarray]] | None = None,
    input_grads: bool = False,
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Forward and backward pass of K stacked networks over feature-major (K, F, B) inputs.

    `ws[i]` is (K, fan_in, fan_out) and `bs[i]` is (K, 1, fan_out); each layer
    computes z = W^T a + b^T, so activations are (K, fan, B) and every
    elementwise operation runs along the B batch rows. Returns every layer's
    pre-activations, (K, fan_out, B) each, the last of which holds the
    predictions, and, with `input_grads`, the gradient of each prediction with
    respect to its input column, (K, F, B). With `targets` (K, B), the
    gradient of the batch-mean squared error with respect to every weight and
    bias is written into `grads`, views shaped like `ws` and `bs`: a @ delta^T
    for the weights and delta summed over its contiguous batch axis for the
    biases; otherwise the backward pass starts from the prediction itself.
    """
    n_layers = len(ws)
    layer_inputs, pre_acts = [], []  # inputs are kept only for parameter gradients
    a = x
    for i in range(n_layers):
        if targets is not None:
            layer_inputs.append(a)
        z = ws[i].transpose(0, 2, 1) @ a + bs[i].transpose(0, 2, 1)
        pre_acts.append(z)
        a = z if i == n_layers - 1 else np.maximum(z, 0.0)
    if targets is None and not input_grads:
        return pre_acts, None

    if targets is None:
        delta = np.ones_like(pre_acts[-1])
    else:
        delta = ((2.0 / targets.shape[1]) * (pre_acts[-1][:, 0] - targets))[:, None]
    for i in range(n_layers - 1, -1, -1):
        if targets is not None:
            np.matmul(layer_inputs[i], delta.transpose(0, 2, 1), out=grads[0][i])
            delta.sum(axis=2, out=grads[1][i][:, 0])
        if i > 0:
            delta = (ws[i] @ delta) * (pre_acts[i - 1] > 0.0)
        elif input_grads:
            delta = ws[0] @ delta
    return pre_acts, delta if input_grads else None


def pre_activations(params: ModelParams, features: np.ndarray) -> list[np.ndarray]:
    """Every layer's pre-activations for a batch of feature rows; (B, fan_out) each."""
    pre_acts, _ = _pass(*_stack(params), _as_batch(params, features).T[None])
    return [z[0].T for z in pre_acts]


def forward_batch(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Predictions for a batch of feature rows; returns shape (B,)."""
    return pre_activations(params, features)[-1][:, 0]


def param_gradients(params: ModelParams, features: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Gradient of batch-mean squared error with respect to every parameter."""
    x = _as_batch(params, features)
    y = np.asarray(targets, dtype=np.float64).reshape(-1)
    if y.shape[0] == 0:
        raise ValueError("gradient of an empty batch is undefined")
    if y.shape[0] != x.shape[0]:
        raise ValueError(f"batch has {x.shape[0]} rows but {y.shape[0]} targets")
    grad = np.empty(params.spec.param_count)
    _pass(*_stack(params), x.T[None], y[None], _layer_views(grad, params.spec, 1))
    return grad


def input_gradients_batch(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """d(prediction)/d(input) for each row independently; returns (B, F)."""
    _, grads = _pass(*_stack(params), _as_batch(params, features).T[None], input_grads=True)
    return grads[0].T


def train_clients(
    start_params: Sequence[ModelParams],
    features: list[np.ndarray],
    targets: list[np.ndarray],
    epochs: int,
    learning_rate: float = 0.0015,
    batch_size: int | None = None,
    shuffle_rngs: list[np.random.Generator] | None = None,
    streams: Sequence[int] | None = None,
) -> list[ModelParams]:
    """Train client k from `start_params[k]` on data stream `streams[k]`, all clients in lockstep.

    Stream d is `features[d]` and `targets[d]` and, with `batch_size` set,
    walks a fresh permutation of its rows each epoch, drawn from
    `shuffle_rngs[d]` (row order when absent); otherwise each epoch is one
    full-batch step. `streams` defaults to one stream per client, and each
    stream must serve at least one. Clients that share a stream see the same
    rows in the same order. Each client starts with fresh Adam moments, so
    results are mathematically independent per client; stacking them along a
    leading axis just amortizes array overhead, and clients of different
    federations can share a call. Clients must share a network spec and
    streams a row count to train in lockstep.

    The K clients' parameters, gradient and Adam moments live in four flat
    K x param_count buffers (plus two scratch buffers of that size) laid out
    as `_layer_views` describes, so `_pass` reads the weights and writes the
    gradient in place, and each step is one finiteness check and one Adam
    update over the whole buffer. Under minibatches each epoch permutes every
    stream's rows once, stream by stream, into one streams x rows x features
    buffer. While no stream is shared, a minibatch is a slice of that buffer;
    otherwise each step gathers its clients' rows from the slice into one
    K x batch x features buffer (the ragged last minibatch uses its leading
    part). Full batch keeps one K x rows x features stack of each client's
    stream. `_pass` gets (K, features, batch) transposed views, so each
    layer's activations are (K, fan, batch) and its bias gradient sums delta
    over the batch axis. A non-finite gradient raises `NumericError` whose
    `clients` lists the stack positions at fault.
    """
    n_clients = len(start_params)
    # Plain lists, not np.unique or np.array_equal: on first use the one
    # imports numpy.ma (about 1 MiB of RSS), the other adds 128 KiB.
    identity = list(range(n_clients))
    stream_ids = identity if streams is None else [int(d) for d in streams]
    if (not features or len(features) != len(targets) or len(stream_ids) != n_clients
            or (shuffle_rngs is not None and len(shuffle_rngs) != len(features))
            or set(stream_ids) != set(range(len(features)))):
        raise ValueError("need one start model and stream index per client, and non-empty "
                         "feature, target and shuffle lists of one entry per stream, each used")
    spec = start_params[0].spec
    if any(p.spec != spec for p in start_params):
        raise ValueError("clients must share a network spec to train in lockstep")
    features = [np.asarray(f, dtype=np.float64) for f in features]
    targets = [np.asarray(t, dtype=np.float64).reshape(-1) for t in targets]
    row_counts = [f.shape[0] for f in features]
    if len(set(row_counts)) > 1:
        raise ValueError(f"clients must share a row count to train in lockstep, got {row_counts}")
    n_rows = row_counts[0]
    if n_rows == 0:
        raise ValueError("cannot train on an empty dataset")

    if batch_size is None or batch_size >= n_rows:
        # No shuffle to share: each client gets a copy of its stream's rows.
        features = [features[d] for d in stream_ids]
        targets = [targets[d] for d in stream_ids]
        stream_ids = identity
        batches = [slice(None)]
        shuffle_rngs = None
    else:
        batches = [slice(start, start + batch_size) for start in range(0, n_rows, batch_size)]
    # Client-major rows give each client's BLAS calls the same strides at any
    # stack width, so a client trains bit-identically alone or stacked; the
    # rows a step gathers for clients that share streams stay client-major.
    x_epoch = np.stack(features, axis=0)
    y_epoch = np.stack(targets, axis=0)
    n_features = spec.n_features
    if x_epoch.shape[2:] != (n_features,):
        raise ValueError(f"expected feature dimension {n_features}, got {x_epoch.shape}")
    shared = stream_ids != identity
    if shared:
        stream_ids = np.asarray(stream_ids, dtype=np.intp)
        x_step = np.empty(n_clients * batch_size * n_features)
        y_step = np.empty(n_clients * batch_size)

    theta = np.empty(n_clients * spec.param_count)
    grad = np.empty_like(theta)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    scratch = np.empty_like(theta)
    update = np.empty_like(theta)
    ws, bs = _layer_views(theta, spec, n_clients)
    grads = _layer_views(grad, spec, n_clients)
    # Row k of `starts` is client k's ModelParams layout: its per-layer chunks
    # fill the k-th network of each layer view.
    blocks = [a for w, b in zip(ws, bs) for a in (w, b)]
    starts = np.stack([p.values for p in start_params], axis=0)
    offset = 0
    for block in blocks:
        size = block[0].size
        block[...] = starts[:, offset:offset + size].reshape(block.shape)
        offset += size

    step = 0
    for _ in range(epochs):
        if shuffle_rngs is not None:
            for d, rng in enumerate(shuffle_rngs):
                order = rng.permutation(n_rows)
                # Permutations and stream ids never need clipping; unlike the
                # default "raise" mode, "clip" writes straight into `out`.
                np.take(features[d], order, axis=0, out=x_epoch[d], mode="clip")
                np.take(targets[d], order, out=y_epoch[d], mode="clip")
        for batch in batches:
            x, y = x_epoch[:, batch], y_epoch[:, batch]
            if shared:
                size = n_clients * y.shape[1]
                x = np.take(x, stream_ids, axis=0, mode="clip",
                            out=x_step[:size * n_features].reshape(n_clients, -1, n_features))
                y = np.take(y, stream_ids, axis=0, mode="clip",
                            out=y_step[:size].reshape(n_clients, -1))
            _pass(ws, bs, x.transpose(0, 2, 1), y, grads)
            if not np.isfinite(grad).all():
                finite = np.logical_and.reduce([np.isfinite(g).reshape(n_clients, -1).all(axis=1)
                                                for g in grads[0] + grads[1]])
                raise NumericError("non-finite gradient during local training",
                                   tuple(int(k) for k in np.flatnonzero(~finite)))

            # Same expression order as the textbook update, so each element
            # rounds exactly as m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
            # theta -= lr * (m / c1) / (sqrt(v / c2) + eps).
            step += 1
            correction1 = 1.0 - _BETA1 ** step
            correction2 = 1.0 - _BETA2 ** step
            m *= _BETA1
            np.multiply(grad, 1.0 - _BETA1, out=scratch)
            m += scratch
            v *= _BETA2
            np.multiply(grad, 1.0 - _BETA2, out=scratch)
            scratch *= grad
            v += scratch
            np.divide(v, correction2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += _EPSILON
            np.divide(m, correction1, out=update)
            update *= learning_rate
            update /= scratch
            theta -= update

    values = np.concatenate([block.reshape(n_clients, -1) for block in blocks], axis=1)
    return [ModelParams(row, spec) for row in values]
