"""Graph-convolution link predictor with hand-written reverse-mode gradients.

Each layer computes Y = relu([X | G X] W) where G mixes neighbor features.
The three aggregators differ only in how they weigh each edge (i, j) of the
row-major edge list, and G[i, j] is that weight: `mean` uses the degree
normalization, fixed per graph; `weighted` and `attention` take a softmax
over each node's edges of a per-layer score, the endpoints' cosine or a
learned MLP's output on the endpoint pair.
A linear 2-class head plus softmax turns the last layer's node features
into linkage likelihoods; loss and predictions cover 1-hop nodes only.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from linkgcn.config import PipelineConfig
from linkgcn.dataset import FormatError, check_end, read_array, read_header, read_struct
from linkgcn.ips import InstancePivotSubgraph

AGGREGATORS = ("mean", "weighted", "attention")
GCNM_MAGIC = b"GCNM"
GCNM_VERSION = 1
_AGG_TAG = {name: i for i, name in enumerate(AGGREGATORS)}


@dataclass
class GcnModel:
    aggregator: str
    layer_weights: list          # each 2*d_in x d_out
    head_weight: np.ndarray      # d_last x 2
    head_bias: np.ndarray        # (2,)
    attention_mlp: list | None = None  # per layer (2*d_in x m, m x 1)
    mean_row_normalized: bool = False

    def __post_init__(self):
        """Check the parameter count, then each shape against param_shapes
        for the widths the layer weights declare (an attention MLP's hidden
        width from the last parameter's rows), then that all are finite."""
        if self.aggregator not in AGGREGATORS:
            raise ValueError(f"unknown aggregator {self.aggregator!r}")
        params = self.parameters()
        shapes = param_shapes(self.layer_dims, self.aggregator, params[-1].shape[0])
        if len(params) != len(shapes):
            raise ValueError(f"{len(params)} parameters for {len(self.layer_weights)} "
                             f"{self.aggregator} layers, expected {len(shapes)}")
        for i, (arr, shape) in enumerate(zip(params, shapes)):
            if arr.shape != shape:
                raise ValueError(f"tensor {i} shape {arr.shape}, expected {shape}")
        for arr in params:
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite model parameter")

    @property
    def layer_dims(self) -> list:
        return [self.layer_weights[0].shape[0] // 2] + [w.shape[-1] for w in self.layer_weights]

    @property
    def dtype(self):
        return self.layer_weights[0].dtype

    def parameters(self) -> list:
        """Trainable arrays in a fixed order (shared with gradients)."""
        out = list(self.layer_weights) + [self.head_weight, self.head_bias]
        return out + [w for pair in self.attention_mlp or () for w in pair]

    @classmethod
    def from_parameters(cls, aggregator: str, params: list,
                        mean_row_normalized: bool = False) -> "GcnModel":
        """The model whose parameters() are params: the inverse of parameters()."""
        n_layers = (len(params) - 2) // (3 if aggregator == "attention" else 1)
        attn = params[n_layers + 2:]
        return cls(aggregator=aggregator, layer_weights=list(params[:n_layers]),
                   head_weight=params[n_layers], head_bias=params[n_layers + 1],
                   attention_mlp=list(zip(attn[::2], attn[1::2])) if attn else None,
                   mean_row_normalized=mean_row_normalized)


def param_shapes(dims, aggregator: str, attention_hidden: int) -> list:
    """Every parameter's shape, in GcnModel.parameters() order, for input
    width dims[0] and layer widths dims[1:]."""
    shapes = [(2 * d_in, d_out) for d_in, d_out in zip(dims[:-1], dims[1:])]
    shapes += [(dims[-1], 2), (2,)]
    if aggregator == "attention":
        for d_in in dims[:-1]:
            shapes += [(2 * d_in, attention_hidden), (attention_hidden, 1)]
    return shapes


def _glorot(rng, shape, dtype):
    fan_in, fan_out = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def init_model(dims, aggregator: str, rng: np.random.Generator,
               attention_hidden: int = PipelineConfig.attention_hidden, dtype=np.float32,
               mean_row_normalized: bool = False) -> GcnModel:
    """Fresh model for input width dims[0] and layer widths dims[1:]: Glorot
    weights drawn in parameters() order, and a zero head bias."""
    if len(dims) < 2:
        raise ValueError("dims needs an input width and at least one layer")
    params = [_glorot(rng, shape, dtype) if len(shape) == 2 else np.zeros(shape, dtype=dtype)
              for shape in param_shapes(dims, aggregator, attention_hidden)]
    return GcnModel.from_parameters(aggregator, params, mean_row_normalized)


# ---------------------------------------------------------------------------
# edge weights: every aggregator gives each edge (i, j) of the row-major edge
# list one weight, and G[i, j] is that weight

def _edge_segments(ei: np.ndarray, n: int):
    """Each node's count of out-edges in the row-major edge list ei, which
    nodes have any, and where their runs of edges start."""
    counts = np.bincount(ei, minlength=n)
    nz = counts > 0
    starts = (np.cumsum(counts) - counts)[nz]
    return counts, nz, starts


def _mean_weights(ei, ej, counts, dtype, row_normalized):
    """`mean` weights from the out-degrees `counts`: 1 / sqrt(deg_i deg_j),
    or 1 / deg_i when row-normalized. They do not depend on X."""
    deg = counts.astype(dtype)
    inv = np.zeros(deg.shape, dtype=dtype)
    has = deg > 0
    inv[has] = 1.0 / (deg[has] if row_normalized else np.sqrt(deg[has]))
    return inv[ei] if row_normalized else inv[ei] * inv[ej]


def _segment_softmax(vals, counts, nz, starts):
    reps = counts[nz]
    m = np.repeat(np.maximum.reduceat(vals, starts), reps)
    e = np.exp(vals - m)
    z = np.repeat(np.add.reduceat(e, starts), reps)
    return e / z


def _segment_softmax_backward(dw, w, counts, nz, starts):
    """Gradient of the scores given the gradient of their softmax weights w."""
    return w * (dw - np.repeat(np.add.reduceat(dw * w, starts), counts[nz]))


def _cosine_scores(X, ei, ej):
    r = np.linalg.norm(X, axis=1)
    safe = np.where(r > 0, r, 1.0)
    U = X / safe[:, None]          # zero rows stay zero -> similarity 0
    return np.sum(U[ei] * U[ej], axis=1), (U, r)


def _cosine_backward(dscores, ei, ej, cache):
    U, r = cache
    dU = np.zeros_like(U)
    np.add.at(dU, ei, dscores[:, None] * U[ej])
    np.add.at(dU, ej, dscores[:, None] * U[ei])
    dX = dU - np.sum(dU * U, axis=1, keepdims=True) * U
    nz = r > 0
    dX[nz] /= r[nz, None]
    dX[~nz] = 0.0
    return dX


def _mlp_scores(X, ei, ej, w1, w2):
    C = np.concatenate([X[ei], X[ej]], axis=1)
    Hpre = C @ w1
    H = np.maximum(Hpre, 0)
    return (H @ w2).ravel(), (C, Hpre, H)


def _mlp_backward(dscores, ei, ej, cache, X, w1, w2):
    C, Hpre, H = cache
    dH = dscores[:, None] * w2.ravel()[None, :]
    dH[Hpre <= 0] = 0.0
    dC = dH @ w1.T
    d = X.shape[1]
    dX = np.zeros_like(X)
    np.add.at(dX, ei, dC[:, :d])
    np.add.at(dX, ej, dC[:, d:])
    return dX, (C.T @ dH, (H.T @ dscores)[:, None])


# ---------------------------------------------------------------------------
# forward / backward

def _forward_edges(model: GcnModel, X0: np.ndarray, ei: np.ndarray, ej: np.ndarray,
                   head_rows: int | None = None, caches: list | None = None):
    """Every layer and the head over the graph with edges (ei, ej), sorted
    row-major. The last layer and the head cover only the first head_rows
    nodes (all of them by default). Returns (logits, last layer's output).
    Layer l holds one buffer C = [X | G X]: its mix writes the right half,
    and its GEMM writes layer l + 1's left half, where the ReLU runs in
    place. A `caches` list receives each layer's (X, G, C, Y, softmax cache
    or None), Y the ReLU output, which the backward pass reads; without
    one, a layer's arrays are freed as the next layer starts."""
    n = X0.shape[0]
    C = np.empty((n, 2 * X0.shape[1]), dtype=model.dtype)
    C[:, :X0.shape[1]] = X0
    last = len(model.layer_weights) - 1
    segs = _edge_segments(ei, n)
    mean_w = None
    if model.aggregator == "mean":
        mean_w = _mean_weights(ei, ej, segs[0], model.dtype, model.mean_row_normalized)
    for l, W in enumerate(model.layer_weights):
        d = C.shape[1] // 2
        X = C[:, :d]
        w, soft = mean_w, None
        if mean_w is None:
            # softmax over each node's out-edges of the edge's cosine or attention score
            mlp = model.attention_mlp[l] if model.attention_mlp is not None else None
            scores, score_cache = (_cosine_scores(X, ei, ej) if mlp is None
                                   else _mlp_scores(X, ei, ej, *mlp))
            w = _segment_softmax(scores, *segs)
            soft = (ei, ej, segs, w, score_cache)
        if l == 0 or soft is not None:  # `mean` weights ignore X: one G serves every layer
            G = np.zeros((n, n), dtype=model.dtype)
            G[ei, ej] = w
        r = head_rows if l == last else n
        np.matmul(G[:r], X, out=C[:r, d:])
        if l == last:
            Y = C[:r] @ W
        else:  # the left half of the next layer's buffer
            C_next = np.empty((n, 2 * W.shape[1]), dtype=model.dtype)
            Y = np.matmul(C, W, out=C_next[:, :W.shape[1]])
        np.maximum(Y, 0, out=Y)
        if caches is not None:
            caches.append((X, G, C[:r], Y, soft))
        if l < last:
            C = C_next
    logits = Y @ model.head_weight + model.head_bias
    return logits, Y


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def forward(model: GcnModel, ips: InstancePivotSubgraph) -> np.ndarray:
    """Linkage likelihood for every 1-hop node of the subgraph.

    Node order is hop-major, so the 1-hop nodes are the first hop1_count
    rows; the last layer and the head run on those rows only.
    """
    logits, _ = _forward_edges(model, ips.features, ips.edges[0], ips.edges[1],
                               head_rows=ips.hop1_count)
    return _softmax(logits)[:, 1]


def _cross_entropy(logits, labels, denom):
    """Cross-entropy of each row of logits against its 0/1 label, summed and
    divided by denom, and its gradient with respect to the logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    rows = np.arange(labels.size)
    loss = -float(np.sum(logp[rows, labels])) / denom
    dlogits = np.exp(logp)
    dlogits[rows, labels] -= 1.0
    dlogits /= denom
    return loss, dlogits


def _backward(model: GcnModel, caches, last, dlogits) -> list:
    """Gradients of every parameter, in the order of model.parameters(), from
    the gradient of the logits. A last layer that ran on its first r rows
    reaches the other rows through their neighbor mixing only."""
    d_head_w = last.T @ dlogits
    d_head_b = dlogits.sum(axis=0)
    dY = dlogits @ model.head_weight.T

    d_layers = [None] * len(model.layer_weights)
    d_attn = ([None] * len(model.layer_weights)) if model.attention_mlp is not None else None
    for l in range(len(model.layer_weights) - 1, -1, -1):
        X, G, C, Y, soft = caches[l]
        dZ = dY  # the ReLU's gradient, taken in place
        dZ *= Y > 0
        d_layers[l] = C.T @ dZ
        if l == 0 and model.attention_mlp is None:
            break  # only the attention MLP needs gradient below the first layer
        r, d = Y.shape[0], X.shape[1]
        dC = dZ @ model.layer_weights[l].T
        dM = dC[:, d:]
        dY = G[:r].T @ dM
        dY[:r] += dC[:, :d]
        if soft is not None:  # softmax weights: X also reaches G through the edge scores
            ei, ej, segs, w, score_cache = soft
            if r < X.shape[0]:
                dM = np.concatenate([dM, np.zeros((X.shape[0] - r, d), dM.dtype)])
            dw = np.sum(dM[ei] * X[ej], axis=1)          # dL/dG at each edge
            dscores = _segment_softmax_backward(dw, w, *segs)
            if d_attn is None:
                dY += _cosine_backward(dscores, ei, ej, score_cache)
            else:
                dx, d_attn[l] = _mlp_backward(dscores, ei, ej, score_cache, X,
                                              *model.attention_mlp[l])
                dY += dx

    return d_layers + [d_head_w, d_head_b] + [g for pair in d_attn or () for g in pair]


def loss_and_grads_edges(model: GcnModel, X0, edges, hop1_labels, denom=None):
    """Cross-entropy over the first len(hop1_labels) nodes of the graph with
    the (2, m) edge list `edges`, sorted row-major, plus gradients for every
    parameter. The loss is summed and divided by denom, by default the
    number of those nodes; a batch of subgraphs that all divide by the
    batch's total gets the batch mean by summing. The last layer and the
    head run on those nodes' rows only.
    """
    labels = np.asarray(hop1_labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("no nodes carry loss (empty 1-hop set)")
    caches = []
    logits, last = _forward_edges(model, X0, edges[0], edges[1], head_rows=labels.size,
                                  caches=caches)
    loss, dlogits = _cross_entropy(logits, labels, labels.size if denom is None else denom)
    return loss, _backward(model, caches, last, dlogits)


# ---------------------------------------------------------------------------
# checkpoint IO

def save_model(model: GcnModel, path) -> None:
    tensors = model.parameters()
    with open(path, "wb") as fh:
        fh.write(GCNM_MAGIC)
        fh.write(struct.pack("<IBBI", GCNM_VERSION, _AGG_TAG[model.aggregator],
                             1 if model.mean_row_normalized else 0, len(model.layer_weights)))
        fh.write(struct.pack("<I", len(tensors)))
        for t in tensors:
            fh.write(struct.pack("<I", t.ndim))
            fh.write(struct.pack(f"<{t.ndim}Q", *t.shape))
            fh.write(np.ascontiguousarray(t, dtype="<f4").tobytes())


def load_model(path) -> GcnModel:
    """Read a GCNM checkpoint tensor by tensor, checking its header, the
    tensor count, each tensor's rank and size, and that nothing trails the
    last tensor; GcnModel checks the shapes and values."""
    with open(path, "rb") as fh:
        agg_tag, row_norm, n_layers, n_tensors = read_header(fh, path, GCNM_MAGIC,
                                                             GCNM_VERSION, "<BBII")
        if agg_tag >= len(AGGREGATORS):
            raise FormatError(f"{path}: unknown aggregator tag {agg_tag}")
        if row_norm > 1:
            raise FormatError(f"{path}: row-normalization flag {row_norm}, expected 0 or 1")
        aggregator = AGGREGATORS[agg_tag]
        expected = n_layers + 2 + (2 * n_layers if aggregator == "attention" else 0)
        if n_layers < 1 or n_tensors != expected:
            raise FormatError(f"{path}: {n_tensors} tensors for {n_layers} {aggregator} "
                              f"layers, expected {expected}")
        tensors = []
        for _ in range(n_tensors):
            (rank,) = read_struct(fh, path, "<I", "tensor shape")
            if rank not in (1, 2):
                raise FormatError(f"{path}: tensor rank {rank}, expected 1 or 2")
            shape = read_struct(fh, path, f"<{rank}Q", "tensor shape")
            if 0 in shape:
                raise FormatError(f"{path}: empty tensor shape {shape}")
            tensors.append(read_array(fh, path, "<f4", shape, "tensor payload"))
        check_end(fh, path)
    try:
        return GcnModel.from_parameters(aggregator, tensors, bool(row_norm))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
