"""Graph substrate: storage, IO, generators, traversal and decompositions.

The paper's algorithms need undirected simple graphs, so the substrate is
specialised for that case and optimised for the access patterns the samplers
use (neighbour iteration, membership tests, BFS frontiers).  Edges may
optionally carry positive weights: the unified SSSP layer (see
:mod:`repro.graphs.sssp`) routes weighted graphs through deterministic
Dijkstra kernels while unit-weight graphs keep the exact BFS hot paths.
"""

from __future__ import annotations

from repro.graphs.biconnected import BiconnectedDecomposition, biconnected_components
from repro.graphs.bidirectional import BidirectionalBFSResult, bidirectional_shortest_paths
from repro.graphs.block_cut_tree import BlockCutTree, build_block_cut_tree
from repro.graphs.csr import (
    BACKENDS,
    CSRGraph,
    as_csr,
    default_backend,
    resolve_backend,
    set_default_backend,
)
from repro.graphs.components import connected_components, largest_connected_component
from repro.graphs.delta import (
    EdgeDelta,
    MutationJournal,
    deltas_between,
)
from repro.graphs.diameter import (
    estimate_diameter,
    estimate_subset_diameter,
    two_sweep_lower_bound,
)
from repro.graphs.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    grid_road_graph,
    powerlaw_cluster_graph,
    watts_strogatz_graph,
    weighted_barabasi_albert_graph,
    weighted_grid_road_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.io import (
    iter_dimacs_arcs,
    iter_edge_list,
    read_dimacs_graph,
    read_edge_list,
    write_edge_list,
)
from repro.graphs.properties import GraphSummary, summarize
from repro.graphs.sssp import (
    default_weighted,
    effective_weighted,
    resolve_weighted,
    set_default_weighted,
)
from repro.graphs.traversal import (
    ShortestPathDAG,
    bfs_distances,
    sample_shortest_path,
    shortest_path_dag,
    sssp_distances,
)

__all__ = [
    "Graph",
    "CSRGraph",
    "as_csr",
    "BACKENDS",
    "default_backend",
    "set_default_backend",
    "resolve_backend",
    "read_edge_list",
    "write_edge_list",
    "read_dimacs_graph",
    "iter_edge_list",
    "iter_dimacs_arcs",
    "erdos_renyi_graph",
    "barabasi_albert_graph",
    "watts_strogatz_graph",
    "powerlaw_cluster_graph",
    "grid_road_graph",
    "bfs_distances",
    "sssp_distances",
    "default_weighted",
    "set_default_weighted",
    "resolve_weighted",
    "effective_weighted",
    "weighted_barabasi_albert_graph",
    "weighted_grid_road_graph",
    "shortest_path_dag",
    "sample_shortest_path",
    "ShortestPathDAG",
    "bidirectional_shortest_paths",
    "BidirectionalBFSResult",
    "connected_components",
    "largest_connected_component",
    "biconnected_components",
    "BiconnectedDecomposition",
    "build_block_cut_tree",
    "BlockCutTree",
    "estimate_diameter",
    "estimate_subset_diameter",
    "two_sweep_lower_bound",
    "GraphSummary",
    "summarize",
    "EdgeDelta",
    "MutationJournal",
    "deltas_between",
]
