"""Shared independent oracles for the test suite."""

import numpy as np

from linkgcn import gcn
from linkgcn.config import seed_stream


def random_instance(aggregator, seed, n=8, dims=(4, 3, 3, 3, 3), attention_hidden=3,
                    kink_margin=1e-3):
    """Random small model + graph for gradient checking. The loss mask is a
    prefix of the nodes, so its rows can stand for a subgraph's hop-1 nodes.

    Draws are rejected while any ReLU preactivation sits within kink_margin
    of zero: central differences are invalid across the kink, so the oracle
    only applies away from it.
    """
    for attempt in range(100):
        rng = np.random.default_rng([seed, attempt])
        model = gcn.init_model(list(dims), aggregator, seed_stream(seed * 100 + attempt, "init"),
                               attention_hidden=attention_hidden, dtype=np.float64)
        X = rng.standard_normal((n, dims[0]))
        A = np.zeros((n, n))
        for _ in range(2 * n):
            i, j = rng.integers(0, n, 2)
            if i != j:
                A[i, j] = A[j, i] = 1.0
        labels = rng.integers(0, 2, n)
        mask = np.zeros(n, dtype=bool)
        mask[: n // 2 + 1] = True
        ei, ej = np.nonzero(A)
        _, _, caches = gcn._forward_edges(model, X, ei, ej)
        margin = np.inf
        for layer, (X_in, _, _, Z, _) in enumerate(caches):
            margin = min(margin, float(np.min(np.abs(Z))))
            if model.aggregator == "attention":
                # the attention MLP's hidden ReLU, recomputed from the layer input
                w1, _ = model.attention_mlp[layer]
                hidden = np.concatenate([X_in[ei], X_in[ej]], axis=1) @ w1
                margin = min(margin, float(np.min(np.abs(hidden))))
        if margin > kink_margin:
            return model, X, A, labels, mask
    raise RuntimeError("could not draw a kink-free instance")


def weighted_dense_oracle(A, X):
    """Reference `weighted` aggregation: the dense s x s cosine matrix with a
    row softmax over each node's neighbors; isolated nodes get zero rows and
    zero feature rows get similarity 0."""
    mask = np.asarray(A) > 0
    X = np.asarray(X, dtype=np.float64)
    r = np.linalg.norm(X, axis=1)
    U = X / np.where(r > 0, r, 1.0)[:, None]
    S = U @ U.T
    G = np.zeros_like(S)
    rows = mask.any(axis=1)
    if rows.any():
        neg = np.where(mask[rows], S[rows], -np.inf)
        e = np.exp(neg - neg.max(axis=1, keepdims=True))
        e[~mask[rows]] = 0.0
        G[rows] = e / e.sum(axis=1, keepdims=True)
    return G


def dense_mean_oracle(A, row_normalized=False):
    """Reference `mean` mixing matrix: the dense degree-normalized formula,
    in A's dtype, with all-zero rows for isolated nodes."""
    A = np.asarray(A)
    deg = A.sum(axis=1)
    if row_normalized:
        inv = np.divide(1.0, deg, out=np.zeros_like(deg, dtype=A.dtype), where=deg > 0)
        return inv[:, None] * A
    inv_sqrt = np.divide(1.0, np.sqrt(deg), out=np.zeros_like(deg, dtype=A.dtype),
                         where=deg > 0)
    return inv_sqrt[:, None] * A * inv_sqrt[None, :]


def discover_nodes_loop(pivot, nbr_idx, k_per_hop):
    """Reference node discovery: the one-pivot walk over a visited set.
    Returns (nodes, hops) in discovery order."""
    seen = {int(pivot)}
    nodes, hops = [], []
    frontier = [int(pivot)]
    for t, k in enumerate(k_per_hop, 1):
        nxt = []
        for q in frontier:
            for r in nbr_idx[q, :k]:
                r = int(r)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
                    nodes.append(r)
                    hops.append(t)
        frontier = nxt
        if not frontier:
            break
    return np.asarray(nodes, dtype=np.int64), np.asarray(hops, dtype=np.int64)


def subgraph_adjacency_oracle(nodes, nbr_idx, u):
    """Reference edge wiring for one subgraph: symmetric 0/1 float32
    adjacency with (q, r) when r is among q's top-u global neighbors and
    both are nodes."""
    nodes = np.asarray(nodes, dtype=np.int64)
    n = nodes.shape[0]
    adj = np.zeros((n, n), dtype=np.float32)
    cand = nbr_idx[nodes, :u]
    sorter = np.argsort(nodes)
    p = sorter[np.minimum(np.searchsorted(nodes, cand, sorter=sorter), n - 1)]
    q = np.broadcast_to(np.arange(n)[:, None], cand.shape)
    hit = (nodes[p] == cand) & (p != q)
    adj[q[hit], p[hit]] = 1.0
    adj[p[hit], q[hit]] = 1.0
    return adj


def block_diagonal_batch(examples):
    """Reference training batch: (features, adjacency, labels, hop1_count)
    tuples stacked into one dense graph with no cross-subgraph edges; the
    loss mask covers each subgraph's first hop1_count nodes."""
    sizes = [ex[0].shape[0] for ex in examples]
    total = sum(sizes)
    d = examples[0][0].shape[1]
    X = np.zeros((total, d), dtype=examples[0][0].dtype)
    A = np.zeros((total, total), dtype=np.float32)
    labels = np.zeros(total, dtype=np.int64)
    mask = np.zeros(total, dtype=bool)
    offset = 0
    for feats, adj, labs, n1 in examples:
        n = feats.shape[0]
        X[offset:offset + n] = feats
        A[offset:offset + n, offset:offset + n] = adj
        labels[offset:offset + n1] = labs
        mask[offset:offset + n1] = True
        offset += n
    return X, A, labels, mask


def masked_loss_and_grads(model, X, A, labels, loss_mask):
    """Reference loss: mean cross-entropy over the masked nodes of the graph
    with the dense 0/1 adjacency A, every layer and the head run on every
    row, plus gradients in the order of model.parameters()."""
    rows = np.flatnonzero(loss_mask)
    logits, last, caches = gcn._forward_edges(model, X, *np.nonzero(A))
    loss, d_rows = gcn._cross_entropy(logits[rows], np.asarray(labels, np.int64)[rows],
                                      rows.size)
    dlogits = np.zeros_like(logits)
    dlogits[rows] = d_rows
    return loss, gcn._backward(model, caches, last, dlogits)


def finite_difference_grads(model, X, edges, hop1_labels, eps=1e-4):
    """Central-difference gradient of the edge-list loss for every parameter."""
    out = []
    for p in model.parameters():
        fd = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = p[ix]
            p[ix] = orig + eps
            lp, _ = gcn.loss_and_grads_edges(model, X, edges, hop1_labels)
            p[ix] = orig - eps
            lm, _ = gcn.loss_and_grads_edges(model, X, edges, hop1_labels)
            p[ix] = orig
            fd[ix] = (lp - lm) / (2 * eps)
        out.append(fd)
    return out


def max_relative_error(analytic, numeric, floor=1e-6):
    worst = 0.0
    for a, b in zip(analytic, numeric):
        denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
        worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return worst


def union_find_components(n, src, dst):
    """Independent connected-components oracle (union by size)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(src, dst):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    roots = [find(x) for x in range(n)]
    remap = {}
    out = np.empty(n, dtype=np.int64)
    for x, r in enumerate(roots):
        if r not in remap:
            remap[r] = len(remap)
        out[x] = remap[r]
    return out


def topk_cosine_oracle(unit, k):
    """Reference exact top-k: a full lexsort over all N columns of each row,
    with the same float64 row blocks as `_kernels.topk_cosine`, so the matmul
    rounds the same way."""
    unit = np.ascontiguousarray(unit, dtype=np.float64)
    n = unit.shape[0]
    out_idx = np.empty((n, k), dtype=np.int64)
    out_sim = np.empty((n, k), dtype=np.float64)
    block = max(1, min(n, (64 << 20) // (8 * n)))
    ids = np.arange(n)
    for start in range(0, n, block):
        stop = min(start + block, n)
        sims = unit[start:stop] @ unit.T
        for r in range(start, stop):
            sims[r - start, r] = -np.inf
        for r in range(stop - start):
            order = np.lexsort((ids, -sims[r]))[:k]
            out_idx[start + r] = order
            out_sim[start + r] = sims[r, order]
    return out_idx, out_sim


def bfs_components(n, src, dst):
    """Reference connected components: BFS from each unlabelled node in id
    order, so components are numbered by smallest member."""
    from collections import deque

    both_src = np.concatenate([src, dst]).astype(np.int64)
    both_dst = np.concatenate([dst, src]).astype(np.int64)
    order = np.argsort(both_src, kind="stable")
    both_src, both_dst = both_src[order], both_dst[order]
    adj_start = np.zeros(n + 1, dtype=np.int64)
    np.add.at(adj_start, both_src + 1, 1)
    adj_start = np.cumsum(adj_start)
    labels = np.full(n, -1, dtype=np.int64)
    next_label = 0
    queue = deque()
    for s in range(n):
        if labels[s] >= 0:
            continue
        labels[s] = next_label
        queue.append(s)
        while queue:
            v = queue.popleft()
            for t in both_dst[adj_start[v]:adj_start[v + 1]]:
                if labels[t] < 0:
                    labels[t] = next_label
                    queue.append(t)
        next_label += 1
    return labels


def pool_edges_oracle(pivots, hop1_nodes, likelihoods):
    """Reference edge pooling: a dict keyed by canonical pair, keeping the
    larger likelihood; returns sorted (i, j, w) arrays."""
    best = {}
    for pivot, nodes, probs in zip(pivots, hop1_nodes, likelihoods):
        for q, w in zip(nodes, probs):
            key = (int(pivot), int(q)) if pivot < q else (int(q), int(pivot))
            w = float(w)
            if key not in best or w > best[key]:
                best[key] = w
    items = sorted(best.items())
    i = np.array([a for (a, _), _ in items], dtype=np.int64)
    j = np.array([b for (_, b), _ in items], dtype=np.int64)
    w = np.array([v for _, v in items], dtype=np.float64)
    return i, j, w


def propagate_oracle(edges, n, tau0, dtau, max_size):
    """Reference pseudo-label propagation: the original per-component loop,
    with union-find components. Returns (canonical assignment, rounds run)."""
    from linkgcn.merge import canonical_labels

    assignment = np.full(n, -1, dtype=np.int64)
    queued = np.ones(n, dtype=bool)
    next_label = 0
    t = 0
    while queued.any():
        tau = tau0 + t * dtau
        keep = (edges.w >= tau) & queued[edges.i] & queued[edges.j]
        comp = union_find_components(n, edges.i[keep], edges.j[keep])
        comp[~queued] = -1
        sizes = np.bincount(comp[queued])
        for c in np.unique(comp[queued]):
            members = np.flatnonzero(comp == c)
            if sizes[c] <= max_size or tau > 1.0:
                assignment[members] = next_label
                next_label += 1
                queued[members] = False
        t += 1
    return canonical_labels(assignment), t


def bcubed_pair_oracle(truth, pred):
    """Exhaustive pair enumeration, self-pairs included, float64."""
    n = len(truth)
    p_sum = r_sum = 0.0
    for i in range(n):
        same_cluster = [j for j in range(n) if pred[j] == pred[i]]
        same_class = [j for j in range(n) if truth[j] == truth[i]]
        correct_c = sum(1 for j in same_cluster if truth[j] == truth[i])
        correct_l = sum(1 for j in same_class if pred[j] == pred[i])
        p_sum += correct_c / len(same_cluster)
        r_sum += correct_l / len(same_class)
    precision, recall = p_sum / n, r_sum / n
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f


def nmi_contingency_oracle(truth, pred):
    """Direct contingency-table mutual information, float64, natural log."""
    import math
    n = len(truth)
    t_sizes, p_sizes, joint = {}, {}, {}
    for a, b in zip(truth, pred):
        t_sizes[a] = t_sizes.get(a, 0) + 1
        p_sizes[b] = p_sizes.get(b, 0) + 1
        joint[(a, b)] = joint.get((a, b), 0) + 1
    h_t = -sum(c / n * math.log(c / n) for c in t_sizes.values())
    h_p = -sum(c / n * math.log(c / n) for c in p_sizes.values())
    if h_t == 0.0 and h_p == 0.0:
        return 1.0
    if h_t == 0.0 or h_p == 0.0:
        return 0.0
    mi = sum(c / n * math.log(n * c / (t_sizes[a] * p_sizes[b]))
             for (a, b), c in joint.items())
    return mi / math.sqrt(h_t * h_p)
