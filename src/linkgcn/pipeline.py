"""End-to-end clustering: kNN -> pivot subgraphs -> link scoring -> merging,
with per-stage wall times."""

from __future__ import annotations

import time

import numpy as np

from linkgcn.config import PipelineConfig
from linkgcn.dataset import FeatureSet
from linkgcn.gcn import GcnModel, forward
from linkgcn.ips import BLOCK_PIVOTS, IpsConfig, build_block
from linkgcn.knn import NeighborTable, build_knn, run_threads, thread_count
from linkgcn.merge import WeightedEdgeSet, bfs_cluster, check_merge, pool_edges, propagate_cluster


def _check_width(fs: FeatureSet, model: GcnModel) -> None:
    if model.layer_dims[0] != fs.dim:
        raise ValueError(f"model expects D={model.layer_dims[0]}, features have D={fs.dim}")


def predict_links(fs: FeatureSet, nbrs: NeighborTable, model: GcnModel,
                  ips_cfg: IpsConfig, workers: int = 0) -> WeightedEdgeSet:
    """Score every pivot's link to each of its nbrs.width(k1) nearest
    neighbors into an (N, width) likelihood table, row p for pivot p, and pool
    it into one edge set. A pivot's 1-hop nodes are the first width ids of its
    kNN row, in order, since a row holds neither self nor duplicates (a row
    that lists its pivot gives fewer, and writing them raises ValueError).
    Each of thread_count(workers) threads writes the rows of its blocks of
    BLOCK_PIVOTS consecutive pivots; invariant to worker count and block
    size. An empty table, of one instance, scores nothing."""
    threads = thread_count(workers)
    _check_width(fs, model)
    probs = np.empty((fs.n, nbrs.width(ips_cfg.k_per_hop[0])), dtype=model.dtype)

    def run_block(lo):
        with np.errstate(all="ignore"):  # per thread; pool_edges rejects non-finite rows
            for ips in build_block(range(lo, min(lo + BLOCK_PIVOTS, fs.n)), fs, nbrs, ips_cfg):
                probs[ips.pivot] = forward(model, ips)

    run_threads(run_block, range(0, fs.n if probs.size else 0, BLOCK_PIVOTS), threads)
    return pool_edges(nbrs.indices[:, :probs.shape[1]], probs)


def cluster(fs: FeatureSet, model: GcnModel, ips_cfg: IpsConfig,
            merge: str = PipelineConfig.merge, tau: float = PipelineConfig.tau,
            tau0: float = PipelineConfig.tau0, dtau: float = PipelineConfig.dtau,
            max_size: int = PipelineConfig.max_size, workers: int = PipelineConfig.workers):
    """Full pipeline. Returns (assignment, edges, seconds), seconds mapping
    the stages "knn", "link-prediction" and "merge", in that order, to their
    wall times. `workers` threads select the kNN top-k and score the pivots;
    0 derives the count from the cores the BLAS pool leaves idle
    (knn.thread_count).

    The kNN table is ips_cfg.table_k wide, clamped to N-1 with one warning
    by build_knn. A one-instance collection has no neighbor to link: its
    table is empty, no pivot is scored, and an empty edge set merges into
    one cluster. Every merge setting is checked before any work."""
    check_merge(merge, tau=tau, tau0=tau0, dtau=dtau, max_size=max_size)
    workers = thread_count(workers)
    _check_width(fs, model)
    t0 = time.perf_counter()
    nbrs = build_knn(fs, ips_cfg.table_k, workers=workers)
    t1 = time.perf_counter()
    edges = predict_links(fs, nbrs, model, ips_cfg, workers=workers)
    del nbrs  # merging reads only the edges
    t2 = time.perf_counter()
    if merge == "propagate":
        assignment = propagate_cluster(edges, fs.n, tau0=tau0, dtau=dtau,
                                       max_size=max_size)
    else:
        assignment = bfs_cluster(edges, tau, fs.n)
    t3 = time.perf_counter()
    return assignment, edges, {"knn": t1 - t0, "link-prediction": t2 - t1, "merge": t3 - t2}
