"""Linkage-based clustering of embedding collections.

Pipeline: exact kNN search -> per-instance pivot subgraphs -> a small
graph-convolution network scoring pivot/neighbor linkage -> transitive
merging of likely links into clusters.
"""

from linkgcn.dataset import FeatureSet, SynthSpec, load_features, save_features, \
    load_labels, save_labels, normalize_rows, synth_generate
from linkgcn.knn import NeighborTable, build_knn
from linkgcn.ips import IpsConfig, InstancePivotSubgraph, build_block
from linkgcn.gcn import GcnModel, init_model, forward, loss_and_grads_edges
from linkgcn.merge import WeightedEdgeSet, pool_edges, bfs_cluster, \
    propagate_cluster, filter_singletons, threshold_baseline
from linkgcn.metrics import EvalReport, nmi, bcubed, evaluate, knn_upper_bound

__version__ = "0.1.0"
