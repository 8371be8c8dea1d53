"""Synthetic surrogate generators for the paper's benchmark networks.

Structural traits the surrogates preserve (and why they matter):

* **Social surrogates** (Flickr / LiveJournal / Orkut): a heavy-tailed
  2-connected core plus a configurable fraction of pendant (degree-1) nodes.
  Pendant nodes have betweenness exactly 0, so the fraction controls the
  *true zero* rate that drives the Fig. 6 analysis; the core's density
  controls how hard ranking the remaining low-centrality nodes is.
* **Road surrogate** (USA-road): a jittered planar grid with removed edges —
  tiny average degree, huge diameter, many cut vertices and bridge blocks —
  together with node coordinates so geographic sub-areas (Table III) can be
  carved out.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import GraphError
from repro.graphs.generators import (
    grid_road_graph,
    powerlaw_cluster_graph,
    weighted_grid_road_graph,
)
from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, ensure_rng

#: Zachary's karate club (34 nodes, 78 edges) — the classic tiny test graph.
_KARATE_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 10),
    (0, 11), (0, 12), (0, 13), (0, 17), (0, 19), (0, 21), (0, 31), (1, 2),
    (1, 3), (1, 7), (1, 13), (1, 17), (1, 19), (1, 21), (1, 30), (2, 3),
    (2, 7), (2, 8), (2, 9), (2, 13), (2, 27), (2, 28), (2, 32), (3, 7),
    (3, 12), (3, 13), (4, 6), (4, 10), (5, 6), (5, 10), (5, 16), (6, 16),
    (8, 30), (8, 32), (8, 33), (9, 33), (13, 33), (14, 32), (14, 33),
    (15, 32), (15, 33), (18, 32), (18, 33), (19, 33), (20, 32), (20, 33),
    (22, 32), (22, 33), (23, 25), (23, 27), (23, 29), (23, 32), (23, 33),
    (24, 25), (24, 27), (24, 31), (25, 31), (26, 29), (26, 33), (27, 33),
    (28, 31), (28, 33), (29, 32), (29, 33), (30, 32), (30, 33), (31, 32),
    (31, 33), (32, 33),
]


def karate_club_graph() -> Graph:
    """Return Zachary's karate club graph (34 nodes, 78 edges)."""
    return Graph.from_edges(_KARATE_EDGES)


def social_surrogate(
    num_nodes: int,
    *,
    pendant_fraction: float = 0.3,
    edges_per_node: int = 4,
    triangle_probability: float = 0.3,
    seed: SeedLike = None,
) -> Graph:
    """Generate a social-network surrogate.

    Parameters
    ----------
    num_nodes:
        Total number of nodes (core + pendants).
    pendant_fraction:
        Fraction of nodes attached as degree-1 leaves to the core.  Leaves
        have betweenness 0 and their attachment points become cutpoints,
        which is exactly the structure the bi-component sampling exploits.
    edges_per_node:
        Preferential-attachment edges per core node (controls density).
    triangle_probability:
        Triangle-closure probability of the Holme–Kim core (controls
        clustering / block sizes).
    seed:
        RNG seed.
    """
    if num_nodes < 10:
        raise GraphError(f"the surrogate needs at least 10 nodes, got {num_nodes}")
    if not 0.0 <= pendant_fraction < 1.0:
        raise GraphError(
            f"pendant_fraction must be in [0, 1), got {pendant_fraction}"
        )
    rng = ensure_rng(seed)
    num_pendants = int(num_nodes * pendant_fraction)
    num_core = num_nodes - num_pendants
    if num_core < edges_per_node + 2:
        raise GraphError(
            "core too small for the requested density; lower pendant_fraction "
            "or edges_per_node"
        )
    graph = powerlaw_cluster_graph(
        num_core, edges_per_node, triangle_probability, seed=rng
    )
    # Attach pendants preferentially (hubs accumulate more leaves, as in real
    # social networks where celebrities have many silent followers).
    core_nodes = list(graph.nodes())
    attachment_pool = []
    for node in core_nodes:
        attachment_pool.extend([node] * graph.degree(node))
    next_id = num_core
    for _ in range(num_pendants):
        anchor = rng.choice(attachment_pool)
        graph.add_edge(next_id, anchor)
        attachment_pool.append(anchor)
        next_id += 1
    return graph


def road_surrogate(
    rows: int,
    cols: int,
    *,
    seed: SeedLike = None,
    removal_probability: float = 0.12,
    diagonal_probability: float = 0.04,
) -> Tuple[Graph, Dict[int, Tuple[float, float]]]:
    """Generate a road-network surrogate with coordinates.

    Returns ``(graph, coordinates)``; the graph is the largest connected
    component of a perturbed grid, relabelled only implicitly (node ids keep
    their grid positions so coordinates stay aligned).
    """
    graph, coordinates = grid_road_graph(
        rows,
        cols,
        diagonal_probability=diagonal_probability,
        removal_probability=removal_probability,
        seed=seed,
    )
    return graph, coordinates


def weighted_road_surrogate(
    rows: int,
    cols: int,
    *,
    seed: SeedLike = None,
    removal_probability: float = 0.12,
    diagonal_probability: float = 0.04,
) -> Tuple[Graph, Dict[int, Tuple[float, float]]]:
    """A :func:`road_surrogate` whose edges carry road-length weights.

    Same structural parameters as the unweighted surrogate; each edge's
    weight is the Euclidean distance between its jittered endpoints times a
    deterministic per-edge jitter (see
    :func:`repro.graphs.generators.weighted_grid_road_graph`), modelling the
    edge lengths the DIMACS USA-road files carry in the wild.
    """
    return weighted_grid_road_graph(
        rows,
        cols,
        diagonal_probability=diagonal_probability,
        removal_probability=removal_probability,
        seed=seed,
    )
