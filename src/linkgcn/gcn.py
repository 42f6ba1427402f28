"""Graph-convolution link predictor with hand-written reverse-mode gradients.

Each layer computes Y = relu([X | G X] W) where G mixes neighbor features.
Three aggregation matrices are supported: degree-normalized mean, cosine
softmax weights, and a learned attention MLP over edge endpoint pairs.
A linear 2-class head plus softmax turns the last layer's node features
into linkage likelihoods; loss and predictions cover 1-hop nodes only.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from linkgcn.dataset import FormatError
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
        if self.aggregator not in AGGREGATORS:
            raise ValueError(f"unknown aggregator {self.aggregator!r}")
        if self.aggregator == "attention" and (
                self.attention_mlp is None or len(self.attention_mlp) != len(self.layer_weights)):
            raise ValueError("attention aggregator needs one MLP per layer")
        for arr in self.parameters():
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite model parameter")

    @property
    def layer_dims(self) -> list:
        dims = [self.layer_weights[0].shape[0] // 2]
        dims += [w.shape[1] for w in self.layer_weights]
        return dims

    @property
    def dtype(self):
        return self.layer_weights[0].dtype

    def parameters(self) -> list:
        """Trainable arrays in a fixed order (shared with gradients)."""
        out = list(self.layer_weights) + [self.head_weight, self.head_bias]
        if self.attention_mlp is not None:
            for w1, w2 in self.attention_mlp:
                out += [w1, w2]
        return out


def _glorot(rng, fan_in, fan_out, shape, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def init_model(dims, aggregator: str, rng: np.random.Generator,
               attention_hidden: int = 64, dtype=np.float32,
               mean_row_normalized: bool = False) -> GcnModel:
    """Fresh model for input width dims[0] and layer widths dims[1:]."""
    if len(dims) < 2:
        raise ValueError("dims needs an input width and at least one layer")
    weights = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weights.append(_glorot(rng, 2 * d_in, d_out, (2 * d_in, d_out), dtype))
    head_w = _glorot(rng, dims[-1], 2, (dims[-1], 2), dtype)
    head_b = np.zeros(2, dtype=dtype)
    attn = None
    if aggregator == "attention":
        attn = []
        for d_in in dims[:-1]:
            w1 = _glorot(rng, 2 * d_in, attention_hidden, (2 * d_in, attention_hidden), dtype)
            w2 = _glorot(rng, attention_hidden, 1, (attention_hidden, 1), dtype)
            attn.append((w1, w2))
    return GcnModel(aggregator=aggregator, layer_weights=weights, head_weight=head_w,
                    head_bias=head_b, attention_mlp=attn,
                    mean_row_normalized=mean_row_normalized)


# ---------------------------------------------------------------------------
# aggregation matrices

def mean_mixing(n: int, ei: np.ndarray, ej: np.ndarray, dtype, row_normalized: bool = False,
                weights: np.ndarray | None = None) -> np.ndarray:
    """Degree-normalized mixing matrix of the n-node graph with edges
    (ei, ej), each of weight 1 or the given weight a_ij:
    G[i, j] = a_ij / sqrt(deg_i deg_j), or a_ij / deg_i when row-normalized.
    Isolated nodes get all-zero rows."""
    deg = np.bincount(ei, weights, minlength=n).astype(dtype)
    inv = np.zeros(n, dtype=dtype)
    has = deg > 0
    inv[has] = 1.0 / (deg[has] if row_normalized else np.sqrt(deg[has]))
    a = 1.0 if weights is None else weights
    G = np.zeros((n, n), dtype=dtype)
    G[ei, ej] = inv[ei] * a if row_normalized else inv[ei] * a * inv[ej]
    return G


def aggregate_mean(A: np.ndarray, row_normalized: bool = False) -> np.ndarray:
    """Degree-normalized mixing matrix of a dense adjacency."""
    A = np.asarray(A)
    ei, ej = np.nonzero(A)
    return mean_mixing(A.shape[0], ei, ej, A.dtype, row_normalized, A[ei, ej])


def _edge_segments(ei: np.ndarray, ej: np.ndarray, n: int):
    """An edge list sorted row-major, with each node's count of out-edges and
    where the nonempty rows start."""
    counts = np.bincount(ei, minlength=n)
    nz = counts > 0
    starts = np.concatenate([[0], np.cumsum(counts)])[:-1][nz]
    return ei, ej, counts, nz, starts


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


def _softmax_forward(X, edges, mlp=None):
    """Softmax over each node's neighbors of one score per edge: the cosine of
    its endpoints, or the attention MLP's output when mlp = (w1, w2)."""
    ei, ej, counts, nz, starts = edges
    G = np.zeros((X.shape[0], X.shape[0]), dtype=X.dtype)
    if ei.size == 0:
        return G, (edges, None, None)
    if mlp is None:
        scores, score_cache = _cosine_scores(X, ei, ej)
    else:
        scores, score_cache = _mlp_scores(X, ei, ej, *mlp)
    w = _segment_softmax(scores, counts, nz, starts)
    G[ei, ej] = w
    return G, (edges, w, score_cache)


def _softmax_backward(dM, X, cache, mlp=None):
    """Gradient reaching X, and the MLP when given, through the weights of
    M = G X. Returns (dX, (dw1, dw2) or None)."""
    (ei, ej, counts, nz, starts), w, score_cache = cache
    if ei.size == 0:
        return np.zeros_like(X), None if mlp is None else tuple(np.zeros_like(p) for p in mlp)
    dw = np.sum(dM[ei] * X[ej], axis=1)          # dL/dG at each edge
    dscores = _segment_softmax_backward(dw, w, counts, nz, starts)
    if mlp is None:
        return _cosine_backward(dscores, ei, ej, score_cache), None
    return _mlp_backward(dscores, ei, ej, score_cache, X, *mlp)


def aggregate_weighted(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Cosine-similarity softmax over each node's neighbors."""
    return _softmax_forward(np.asarray(X), _edge_segments(*np.nonzero(A), len(A)))[0]


def aggregate_attention(A: np.ndarray, X: np.ndarray, w1: np.ndarray,
                        w2: np.ndarray) -> np.ndarray:
    """Learned softmax weights: a 2-layer MLP scores each edge's endpoint pair."""
    return _softmax_forward(np.asarray(X), _edge_segments(*np.nonzero(A), len(A)),
                            (w1, w2))[0]


# ---------------------------------------------------------------------------
# forward / backward

def _mlp(model: GcnModel, layer: int):
    return model.attention_mlp[layer] if model.aggregator == "attention" else None


def _forward_edges(model: GcnModel, X0: np.ndarray, ei: np.ndarray, ej: np.ndarray,
                   weights: np.ndarray | None = None, head_rows: int | None = None):
    """Every layer and the head over the graph with edges (ei, ej), sorted
    row-major. The last layer and the head cover only the first head_rows
    nodes (all of them by default). Returns (logits, last layer's output,
    per-layer caches)."""
    X = np.ascontiguousarray(X0, dtype=model.dtype)
    n = X.shape[0]
    last = len(model.layer_weights) - 1
    if model.aggregator == "mean":
        g_mean = mean_mixing(n, ei, ej, model.dtype, model.mean_row_normalized, weights)
    else:
        edges = _edge_segments(ei, ej, n)
    caches = []
    for l, W in enumerate(model.layer_weights):
        if model.aggregator == "mean":
            G, agg_cache = g_mean, None
        else:
            G, agg_cache = _softmax_forward(X, edges, _mlp(model, l))
        r = head_rows if l == last else None
        C = np.concatenate([X[:r], G[:r] @ X], axis=1)
        Z = C @ W
        Y = np.maximum(Z, 0)
        caches.append((X, G, C, Z, agg_cache))
        X = Y
    logits = X @ model.head_weight + model.head_bias
    return logits, X, caches


def _forward_full(model: GcnModel, X0: np.ndarray, A: np.ndarray):
    """_forward_edges over a dense adjacency, whose nonzeros are the edges and
    their weights."""
    A = np.asarray(A, dtype=model.dtype)
    ei, ej = np.nonzero(A != 0)  # a bool mask's nonzeros are found faster than a float's
    return _forward_edges(model, X0, ei, ej, A[ei, ej])


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def forward(model: GcnModel, ips: InstancePivotSubgraph) -> np.ndarray:
    """Linkage likelihood for every 1-hop node of the subgraph.

    Node order is hop-major, so the 1-hop nodes are the first hop1_count
    rows; the last layer and the head run on those rows only.
    """
    logits, _, _ = _forward_edges(model, ips.features, ips.edges[0], ips.edges[1],
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
        X, G, C, Z, agg_cache = caches[l]
        dZ = dY * (Z > 0)
        d_layers[l] = C.T @ dZ
        if l == 0 and model.attention_mlp is None:
            break  # only the attention MLP needs gradient below the first layer
        r, d = Z.shape[0], X.shape[1]
        dC = dZ @ model.layer_weights[l].T
        dM = dC[:, d:]
        dY = G[:r].T @ dM
        dY[:r] += dC[:, :d]
        if model.aggregator != "mean":
            if r < X.shape[0]:
                dM = np.concatenate([dM, np.zeros((X.shape[0] - r, d), dM.dtype)])
            dx_extra, d_mlp = _softmax_backward(dM, X, agg_cache, _mlp(model, l))
            dY += dx_extra
            if d_mlp is not None:
                d_attn[l] = d_mlp

    grads = d_layers + [d_head_w, d_head_b]
    if d_attn is not None:
        for dw1, dw2 in d_attn:
            grads += [dw1, dw2]
    return grads


def loss_and_grads_arrays(model: GcnModel, X0, A, labels, loss_mask):
    """Mean cross-entropy over masked nodes plus gradients for every parameter,
    on a dense adjacency.

    Gradient arrays come back in the order of model.parameters().
    """
    labels = np.asarray(labels, dtype=np.int64)
    loss_mask = np.asarray(loss_mask, dtype=bool)
    rows = np.flatnonzero(loss_mask)
    if rows.size == 0:
        raise ValueError("no nodes carry loss (empty 1-hop set)")
    logits, last, caches = _forward_full(model, X0, A)
    loss, d_rows = _cross_entropy(logits[rows], labels[rows], rows.size)
    dlogits = np.zeros_like(logits)
    dlogits[rows] = d_rows
    return loss, _backward(model, caches, last, dlogits)


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
    logits, last, caches = _forward_edges(model, X0, edges[0], edges[1],
                                          head_rows=labels.size)
    loss, dlogits = _cross_entropy(logits, labels, labels.size if denom is None else denom)
    return loss, _backward(model, caches, last, dlogits)


def loss_and_grads(model: GcnModel, ips: InstancePivotSubgraph, hop1_labels):
    """Loss/gradients for a single subgraph; labels cover the 1-hop nodes."""
    n1 = ips.hop1_count
    hop1_labels = np.asarray(hop1_labels, dtype=np.int64)
    if hop1_labels.shape != (n1,):
        raise ValueError(f"expected {n1} labels for 1-hop nodes, got {hop1_labels.shape}")
    return loss_and_grads_edges(model, ips.features, ips.edges, hop1_labels)


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
    """Read a GCNM checkpoint, checking its header, tensor count, that layer
    shapes chain, and that nothing trails the last tensor."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != GCNM_MAGIC:
        raise FormatError(f"{path}: bad magic")
    pos = 4

    def take(fmt, what):
        nonlocal pos
        size = struct.calcsize(fmt)
        if pos + size > len(buf):
            raise FormatError(f"{path}: truncated {what}")
        pos += size
        return struct.unpack_from(fmt, buf, pos - size)

    version, agg_tag, row_norm, n_layers = take("<IBBI", "header")
    if version != GCNM_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if agg_tag >= len(AGGREGATORS):
        raise FormatError(f"{path}: unknown aggregator tag {agg_tag}")
    if row_norm > 1:
        raise FormatError(f"{path}: row-normalization flag {row_norm}, expected 0 or 1")
    aggregator = AGGREGATORS[agg_tag]
    (n_tensors,) = take("<I", "header")
    expected = n_layers + 2 + (2 * n_layers if aggregator == "attention" else 0)
    if n_layers < 1 or n_tensors != expected:
        raise FormatError(f"{path}: {n_tensors} tensors for {n_layers} {aggregator} "
                          f"layers, expected {expected}")
    tensors = []
    for _ in range(n_tensors):
        (rank,) = take("<I", "tensor shape")
        if rank not in (1, 2):
            raise FormatError(f"{path}: tensor rank {rank}, expected 1 or 2")
        shape = take(f"<{rank}Q", "tensor shape")
        if 0 in shape:
            raise FormatError(f"{path}: empty tensor shape {shape}")
        count = math.prod(shape)
        if pos + 4 * count > len(buf):
            raise FormatError(f"{path}: truncated tensor payload")
        tensors.append(np.frombuffer(buf, dtype="<f4", count=count, offset=pos)
                       .reshape(shape).copy())
        pos += 4 * count
    if pos != len(buf):
        raise FormatError(f"{path}: {len(buf) - pos} trailing bytes after the last tensor")

    layers = tensors[:n_layers]
    head_w, head_b = tensors[n_layers], tensors[n_layers + 1]
    attn = None
    if aggregator == "attention":
        rest = tensors[n_layers + 2:]
        attn = [(rest[2 * i], rest[2 * i + 1]) for i in range(n_layers)]
    d = layers[0].shape[0] // 2 if layers[0].ndim == 2 else 0
    for i, w in enumerate(layers):
        if d < 1 or w.ndim != 2 or w.shape[0] != 2 * d or w.shape[1] < 1:
            raise FormatError(f"{path}: layer {i} weight shape {w.shape} "
                              f"does not fit input width {d}")
        if attn is not None:
            w1, w2 = attn[i]
            if w1.ndim != 2 or w1.shape[0] != 2 * d or w1.shape[1] < 1 \
                    or w2.shape != (w1.shape[1], 1):
                raise FormatError(f"{path}: layer {i} attention shapes {w1.shape}, "
                                  f"{w2.shape} do not fit input width {d}")
        d = w.shape[1]
    if head_w.shape != (d, 2) or head_b.shape != (2,):
        raise FormatError(f"{path}: head shapes {head_w.shape}, {head_b.shape} "
                          f"do not fit width {d}")
    try:
        return GcnModel(aggregator=aggregator, layer_weights=layers, head_weight=head_w,
                        head_bias=head_b, attention_mlp=attn,
                        mean_row_normalized=bool(row_norm))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
