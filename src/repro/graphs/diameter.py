"""Diameter estimation used by the VC-dimension bounds.

Exact diameter computation is ``O(nm)`` and therefore only done for small
graphs (tests, Table II on small scales).  The samplers only need an *upper
bound* on the diameter: the paper (end of Section IV-C) uses the standard
``2 * ecc(s)`` bound — the diameter of a set is at most twice the maximum
distance from any member — which one BFS per estimate provides.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Sequence

from repro.errors import GraphError
from repro.graphs import csr as _csr
from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_distances
from repro.utils.rng import SeedLike, ensure_rng

Node = Hashable


def eccentricity(graph: Graph, source: Node) -> int:
    """Return the eccentricity of ``source`` within its connected component."""
    distances = bfs_distances(graph, source)
    return max(distances.values())


def exact_diameter(graph: Graph) -> int:
    """Compute the exact diameter (max eccentricity) by one BFS per node.

    Only intended for small graphs; cost is ``O(n (n + m))``.
    Returns 0 for graphs with fewer than 2 nodes.
    """
    best = 0
    for node in graph.nodes():
        ecc = eccentricity(graph, node)
        if ecc > best:
            best = ecc
    return best


def two_sweep_lower_bound(graph: Graph, seed: SeedLike = None) -> int:
    """Two-sweep diameter *lower* bound: BFS from a random node, then BFS from
    the farthest node found.  On real-world graphs this is usually tight."""
    rng = ensure_rng(seed)
    nodes = list(graph.nodes())
    if not nodes:
        raise GraphError("cannot estimate the diameter of an empty graph")
    start = rng.choice(nodes)
    distances = bfs_distances(graph, start)
    far_node = max(distances, key=distances.get)
    second = bfs_distances(graph, far_node)
    return max(second.values())


def estimate_diameter(graph: Graph, seed: SeedLike = None, *, sweeps: int = 2) -> int:
    """Return an *upper bound* on the diameter of (the component of) ``graph``.

    For each sweep a random source ``s`` is chosen and ``2 * ecc(s)`` is an
    upper bound on the diameter; the minimum over sweeps is returned, floored
    by the two-sweep lower bound so the result is never an underestimate of
    the true diameter.
    """
    if graph.number_of_nodes() == 0:
        raise GraphError("cannot estimate the diameter of an empty graph")
    if graph.number_of_nodes() == 1:
        return 0
    rng = ensure_rng(seed)
    nodes = list(graph.nodes())
    lower = two_sweep_lower_bound(graph, rng)
    upper = None
    for _ in range(max(1, sweeps)):
        source = rng.choice(nodes)
        bound = 2 * eccentricity(graph, source)
        if upper is None or bound < upper:
            upper = bound
    return max(lower, min(upper, 2 * lower) if lower > 0 else upper)


def estimate_subset_diameter(
    graph: Graph,
    subset: Sequence[Node],
    seed: SeedLike = None,
) -> int:
    """Upper bound on ``VD(A) = max_{s,t in A} d(s, t)`` for a node subset.

    Implements the paper's bound: for any ``s in A``,
    ``VD(A) <= 2 * max_{t in A} d(s, t)``; one BFS from a random member of
    the subset suffices.  Returns 0 for subsets of size < 2.  Members of the
    subset that are unreachable from the probe source are ignored (they
    cannot co-occur on a shortest path with it anyway).
    """
    members = [node for node in subset if graph.has_node(node)]
    if len(members) < 2:
        return 0
    rng = ensure_rng(seed)
    source = rng.choice(members)
    distances = bfs_distances(graph, source)
    reachable = [distances[node] for node in members if node in distances]
    if not reachable:
        return 0
    return 2 * max(reachable)


def exact_subset_diameter(graph: Graph, subset: Iterable[Node]) -> int:
    """Exact ``max_{s,t in A} d(s, t)`` (small inputs only; BFS per member).

    Where :func:`bfs_distances` would run on the CSR backend, the members
    are swept as stacked multi-source batches instead, one batch of rows at
    a time; distances are exact either way, so the result is the same.
    """
    members: List[Node] = [node for node in subset if graph.has_node(node)]
    best = 0
    if members and _csr.effective_backend(graph) == _csr.CSR_BACKEND:
        snapshot = _csr.as_csr(graph)
        indices = [snapshot.index_of(node) for node in members]
        step = _csr.distance_sweep_batch(snapshot)
        for start in range(0, len(indices), step):
            for row in _csr.multi_source_sweep(
                snapshot, indices[start : start + step],
                kind=_csr.SWEEP_DISTANCE,
            ):
                best = max(best, max(int(row[index]) for index in indices))
        return best
    for source in members:
        distances = bfs_distances(graph, source)
        for target in members:
            if target in distances and distances[target] > best:
                best = distances[target]
    return best
