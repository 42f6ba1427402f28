"""End-to-end clustering: kNN -> pivot subgraphs -> link scoring -> merging,
with per-stage wall-time accounting."""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from linkgcn.dataset import FeatureSet
from linkgcn.gcn import GcnModel, forward
from linkgcn.ips import IpsConfig, build_ips, clamp_config
from linkgcn.knn import NeighborTable, build_knn
from linkgcn.merge import WeightedEdgeSet, bfs_cluster, pool_edges, propagate_cluster


@dataclass
class TimingReport:
    knn_seconds: float
    link_prediction_seconds: float
    merge_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.knn_seconds + self.link_prediction_seconds + self.merge_seconds

    def as_text(self) -> str:
        return ("stage            seconds\n"
                f"knn              {self.knn_seconds:.3f}\n"
                f"link-prediction  {self.link_prediction_seconds:.3f}\n"
                f"merge            {self.merge_seconds:.3f}\n"
                f"total            {self.total_seconds:.3f}")


def predict_links(fs: FeatureSet, nbrs: NeighborTable, model: GcnModel,
                  ips_cfg: IpsConfig, workers: int = 1) -> WeightedEdgeSet:
    """Score pivot/1-hop-neighbor linkage for every instance and pool the
    results into one undirected edge set. Worker-count invariant."""
    if model.layer_dims[0] != fs.dim:
        raise ValueError(f"model expects D={model.layer_dims[0]}, features have D={fs.dim}")
    ips_cfg = clamp_config(ips_cfg, fs.n)
    hop1 = [None] * fs.n
    probs = [None] * fs.n

    def run_chunk(lo: int, hi: int):
        for pivot in range(lo, hi):
            ips = build_ips(pivot, fs, nbrs, ips_cfg)
            likelihood, _ = forward(model, ips)
            hop1[pivot] = ips.nodes[: ips.hop1_count]
            probs[pivot] = likelihood

    if workers <= 1:
        run_chunk(0, fs.n)
    else:
        chunk = (fs.n + workers - 1) // workers
        bounds = [(lo, min(lo + chunk, fs.n)) for lo in range(0, fs.n, chunk)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda b: run_chunk(*b), bounds))
    return pool_edges(range(fs.n), hop1, probs)


def cluster(fs: FeatureSet, model: GcnModel, ips_cfg: IpsConfig,
            merge: str = "propagate", tau: float = 0.5, tau0: float = 0.5,
            dtau: float = 0.05, max_size: int = 600, workers: int = 1,
            nbrs: NeighborTable | None = None):
    """Full pipeline. Returns (assignment, edges, TimingReport)."""
    t0 = time.perf_counter()
    if nbrs is None:
        nbrs = build_knn(fs, clamp_config(ips_cfg, fs.n).table_k)
    t1 = time.perf_counter()
    edges = predict_links(fs, nbrs, model, ips_cfg, workers=workers)
    t2 = time.perf_counter()
    if merge == "propagate":
        assignment = propagate_cluster(edges, fs.n, tau0=tau0, dtau=dtau,
                                       max_size=max_size)
    elif merge == "bfs":
        assignment = bfs_cluster(edges, tau, fs.n)
    else:
        raise ValueError(f"unknown merge strategy {merge!r}")
    t3 = time.perf_counter()
    timing = TimingReport(knn_seconds=t1 - t0, link_prediction_seconds=t2 - t1,
                          merge_seconds=t3 - t2)
    return assignment, edges, timing
