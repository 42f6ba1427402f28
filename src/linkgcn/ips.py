"""Instance pivot subgraphs: hop-limited node discovery around a pivot,
pivot-relative feature normalization, and top-u edge wiring."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from linkgcn import _kernels
from linkgcn.dataset import FeatureSet
from linkgcn.knn import NeighborTable


@dataclass(frozen=True)
class IpsConfig:
    h: int                # hop count
    k_per_hop: tuple      # neighbors picked at each hop, length h
    u: int                # global neighbors considered per node when wiring edges

    def __post_init__(self):
        if self.h < 1:
            raise ValueError("h must be >= 1")
        ks = tuple(int(k) for k in self.k_per_hop)
        if len(ks) != self.h:
            raise ValueError(f"k_per_hop has {len(ks)} entries, expected h={self.h}")
        if any(k < 1 for k in ks):
            raise ValueError("every k_per_hop entry must be >= 1")
        if self.u < 1:
            raise ValueError("u must be >= 1")
        object.__setattr__(self, "k_per_hop", ks)

    @property
    def table_k(self) -> int:
        """Neighbor-table width that discovery and edge wiring read."""
        return max(max(self.k_per_hop), self.u)


def regime_config(k1: int, k2: int, u: int, hops: int) -> IpsConfig:
    """A (k1, k2, u) regime over `hops` hops: k1 neighbors at hop 1, k2 at
    every later hop."""
    return IpsConfig(h=hops, k_per_hop=(k1,) + (k2,) * (hops - 1), u=u)


def clamp_config(cfg: IpsConfig, n: int) -> IpsConfig:
    """Clamp per-hop neighbor counts and u to N-1 so large regimes still run
    on small collections. Warns when clamping happens."""
    cap = n - 1
    ks = tuple(min(k, cap) for k in cfg.k_per_hop)
    u = min(cfg.u, cap)
    if ks != cfg.k_per_hop or u != cfg.u:
        warnings.warn(f"subgraph config clamped to N-1={cap}: "
                      f"k_per_hop {cfg.k_per_hop} -> {ks}, u {cfg.u} -> {u}")
        return IpsConfig(h=cfg.h, k_per_hop=ks, u=u)
    return cfg


@dataclass(frozen=True)
class InstancePivotSubgraph:
    pivot: int
    nodes: np.ndarray       # instance ids, hop-major discovery order, pivot excluded
    hop_of: np.ndarray      # minimum hop at which each node was discovered
    features: np.ndarray    # node features minus the pivot feature (float32)
    adjacency: np.ndarray   # symmetric 0/1, zero diagonal

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    @property
    def hop1_count(self) -> int:
        return int(np.sum(self.hop_of == 1))


def discover_nodes(pivot: int, nbrs: NeighborTable, cfg: IpsConfig):
    """Collect neighbors of the pivot up to h hops.

    Hop 1 is the pivot's first k1 neighbors; hop t is the union of the first
    k_t neighbors of every hop-(t-1) node, minus the pivot and anything seen
    earlier. A node reachable at several hops keeps the smallest.
    """
    for t, k in enumerate(cfg.k_per_hop, 1):
        if k > nbrs.k:
            raise ValueError(f"k_per_hop[{t - 1}]={k} exceeds neighbor table k={nbrs.k}")
    seen = {int(pivot)}
    nodes: list[int] = []
    hops: list[int] = []
    frontier = [int(pivot)]
    for t, k in enumerate(cfg.k_per_hop, 1):
        nxt = []
        for q in frontier:
            for r in nbrs.indices[q, :k]:
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


def normalize_node_features(fs: FeatureSet, pivot: int, nodes: np.ndarray) -> np.ndarray:
    """Node features re-expressed relative to the pivot: row q is x_q - x_p."""
    if len(nodes) == 0:
        raise ValueError("empty node set")
    return fs.features[nodes] - fs.features[pivot]


def add_edges(nodes: np.ndarray, nbrs: NeighborTable, u: int) -> np.ndarray:
    """Wire edges: (q, r) when r is among q's top-u neighbors in the whole
    collection and r is also a subgraph node; symmetrized, zero diagonal."""
    if u > nbrs.k:
        raise ValueError(f"u={u} exceeds neighbor table k={nbrs.k}")
    return _kernels.subgraph_adjacency(nodes, nbrs.indices, u)


def build_ips(pivot: int, fs: FeatureSet, nbrs: NeighborTable,
              cfg: IpsConfig) -> InstancePivotSubgraph:
    """Full subgraph construction: discovery, pivot normalization, edges."""
    nodes, hop_of = discover_nodes(pivot, nbrs, cfg)
    feats = normalize_node_features(fs, pivot, nodes)
    adj = add_edges(nodes, nbrs, cfg.u)
    return InstancePivotSubgraph(pivot=int(pivot), nodes=nodes, hop_of=hop_of,
                                 features=feats, adjacency=adj)
