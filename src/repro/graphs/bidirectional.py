"""Balanced bidirectional BFS with exact shortest-path counting.

This is the sample-generation workhorse used by KADABRA [Borassi & Natale,
ESA 2016] and by SaPHyRa_bc's ``Gen_bc``: growing BFS balls from both
endpoints and always expanding the cheaper frontier makes the expected work
``n^{1/2+o(1)}`` on graphs whose degree distribution has a finite second
moment (Lemma 21 in the paper), instead of ``Theta(m)`` for a full BFS.

Besides the distance we also recover, for a *cut level* ``L``:

* ``sigma_s(w)`` — number of shortest ``s -> w`` paths for every ``w`` with
  ``d_s(w) = L``;
* ``sigma_t(w)`` — number of shortest ``w -> t`` paths;

which is enough to compute ``sigma_st`` exactly and to sample a shortest
path uniformly at random (pick the cut node proportional to
``sigma_s * sigma_t``, then walk predecessor DAGs on both sides).

Two interchangeable backends implement the search (see
:mod:`repro.graphs.csr`): the dict reference over the hash-based adjacency,
and a CSR variant expanding whole levels over integer index arrays.  Both
produce identical results — including identical sampled paths from identical
seeds.

The search is defined on *hop* distances: its balanced level expansion is a
unit-weight optimisation.  Weighted workloads sample shortest paths from
the Dijkstra source DAGs of the unified SSSP engine instead (see
:mod:`repro.graphs.sssp` and the weighted path in
:mod:`repro.baselines.kadabra`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional

from repro.errors import GraphError, SamplingError
from repro.graphs import csr as _csr
from repro.graphs.csr import sigma_choice as _weighted_choice
from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, ensure_rng

if _csr.HAS_NUMPY:
    import numpy as _np

Node = Hashable

#: ``auto`` backend cutoff for the bidirectional search.  One query touches
#: only ~``n^{1/2+o(1)}`` edges but the CSR variant allocates O(n) state
#: arrays per query, so the array kernels need a much larger graph to pay
#: off than a full-graph BFS does.
AUTO_CSR_BIDIRECTIONAL_THRESHOLD = 16384


@dataclass
class BidirectionalBFSResult:
    """Outcome of a balanced bidirectional BFS between ``source`` and ``target``.

    Attributes
    ----------
    source, target:
        Endpoints of the query.
    distance:
        Hop distance, or ``None`` if the endpoints are disconnected.
    num_shortest_paths:
        ``sigma_{st}``; 0 when disconnected.
    cut_level:
        The forward distance ``L`` at which paths are counted/stitched.
    cut_nodes:
        Nodes ``w`` with ``d_s(w) = L`` and ``d_t(w) = distance - L`` lying on
        at least one shortest path, with their ``(sigma_s(w), sigma_t(w))``.
    visited_edges:
        Number of adjacency entries scanned — the cost measure used when
        comparing against a full BFS.
    """

    source: Node
    target: Node
    distance: Optional[int]
    num_shortest_paths: int
    cut_level: int = 0
    cut_nodes: Dict[Node, tuple] = field(default_factory=dict)
    visited_edges: int = 0
    _forward: Optional[object] = None
    _backward: Optional[object] = None

    @property
    def connected(self) -> bool:
        """``True`` when a path between the endpoints exists."""
        return self.distance is not None

    def sample_path(self, rng: SeedLike = None) -> List[Node]:
        """Sample a shortest path uniformly at random as ``[source, ..., target]``.

        Raises
        ------
        SamplingError
            If the endpoints are disconnected.
        """
        if not self.connected or self._forward is None or self._backward is None:
            raise SamplingError(
                f"no path between {self.source!r} and {self.target!r}"
            )
        rng = ensure_rng(rng)
        # Pick the cut node proportional to the number of paths through it.
        nodes = list(self.cut_nodes)
        weights = [
            self.cut_nodes[w][0] * self.cut_nodes[w][1] for w in nodes
        ]
        middle = _weighted_choice(nodes, weights, rng)
        first_half = self._forward.sample_path_to(middle, rng)
        second_half = self._backward.sample_path_to(middle, rng)
        second_half.reverse()
        return first_half + second_half[1:]


class _SearchSide:
    """One direction of the bidirectional search (complete BFS levels)."""

    __slots__ = ("root", "adj", "dist", "sigma", "preds", "frontier", "level",
                 "cost")

    def __init__(self, graph: Graph, root: Node) -> None:
        self.root = root
        # The graph's own adjacency dicts, read only: neighbour order is
        # ``graph.neighbors`` order, without one method call per node.
        self.adj = graph._adj
        self.dist: Dict[Node, int] = {root: 0}
        self.sigma: Dict[Node, int] = {root: 1}
        self.preds: Dict[Node, List[Node]] = {root: []}
        self.frontier: List[Node] = [root]
        self.level: int = 0
        # Total degree of the frontier — the cost of expanding one level —
        # summed as its nodes are discovered, so the balancer never re-sums.
        self.cost = len(self.adj[root])

    def expand(self) -> int:
        """Expand one complete BFS level; return the number of scanned entries."""
        adj = self.adj
        dist = self.dist
        sigma = self.sigma
        preds = self.preds
        # repro-lint: disable=kernel-ownership — audited: KADABRA's dict-backend balanced search needs per-level predecessor bookkeeping _BatchSweep doesn't expose; equivalence is pinned by test_bidirectional
        next_frontier: List[Node] = []
        next_level = self.level + 1
        scanned = 0
        cost = 0
        for node in self.frontier:
            neighbors = adj[node]
            scanned += len(neighbors)
            sigma_node = sigma[node]
            for neighbor in neighbors:
                known = dist.get(neighbor)
                if known is None:
                    dist[neighbor] = next_level
                    sigma[neighbor] = sigma_node
                    preds[neighbor] = [node]
                    next_frontier.append(neighbor)
                    cost += len(adj[neighbor])
                elif known == next_level:
                    sigma[neighbor] += sigma_node
                    preds[neighbor].append(node)
        self.frontier = next_frontier
        self.level = next_level
        self.cost = cost
        return scanned

    def sample_path_to(self, node: Node, rng) -> List[Node]:
        """Sample a shortest path from ``root`` to ``node`` uniformly;
        returned as ``[root, ..., node]``."""
        path = [node]
        current = node
        while current != self.root:
            preds = self.preds[current]
            weights = [self.sigma[p] for p in preds]
            current = _weighted_choice(preds, weights, rng)
            path.append(current)
        path.reverse()
        return path


class _CSRSearchSide:
    """Index-space search side: level-synchronous expansion over CSR arrays.

    The expansion itself is the shared hybrid kernel
    :class:`repro.graphs.csr._BatchSweep` (single-slot), so the
    vectorised/sequential strategy choice and the sigma overflow guard exist
    in exactly one place; this class only adds the bidirectional bookkeeping
    (predecessor reconstruction and path sampling back to the root).
    """

    __slots__ = ("csr", "root", "sweep", "_pred_groups")

    def __init__(self, csr, root: int) -> None:
        self.csr = csr
        self.root = root
        # repro-lint: disable=kernel-ownership — audited: this *is* the sanctioned reuse — a single-slot handle on the shared kernel instead of a private loop
        self.sweep = _csr._BatchSweep(
            csr, (root,), sigma_mode="int", track_edges=True
        )
        # Lazily built per-level ``{head: [tails]}`` groupings, so repeated
        # path sampling pays one scan of a level's edge list, not one per
        # visited node.
        self._pred_groups: Dict[int, Dict[int, List[int]]] = {}

    @property
    def has_frontier(self) -> bool:
        return self.sweep.has_frontier

    @property
    def frontier(self):
        return self.sweep.frontier

    @property
    def level(self) -> int:
        return self.sweep.depth

    @property
    def levels(self):
        return self.sweep.levels

    @property
    def dist(self):
        # The element-indexable container (``array`` buffer or plain list).
        return self.sweep.dist_store

    @property
    def sigma(self):
        return self.sweep.sigma

    @property
    def cost(self) -> int:
        """Total degree of the frontier (kept current by the sweep)."""
        return self.sweep.frontier_cost()

    def expand(self) -> int:
        """Expand one complete BFS level; return the number of scanned entries."""
        return self.sweep.expand()

    def preds_of(self, node: int) -> List[int]:
        """Predecessor indices of ``node`` in the dict backend's append order."""
        level = self.sweep.dist_store[node]
        if level <= 0 or level > len(self.sweep.level_edges):
            return []
        edge_u, edge_v = self.sweep.level_edges[level - 1]
        if _csr.HAS_NUMPY:
            # One vectorised scan per query; a path visits each level once.
            return edge_u[edge_v == node].tolist()
        # Pure Python: group the level's edges by head once and reuse, so a
        # query costs O(deg) instead of rescanning the whole level.
        groups = self._pred_groups.get(level)
        if groups is None:
            groups = {}
            for tail, head in zip(edge_u, edge_v):
                groups.setdefault(head, []).append(tail)
            self._pred_groups[level] = groups
        return groups.get(node, [])

    def sample_path_to(self, node_index: int, rng) -> List[int]:
        """Sample a shortest path ``root -> node`` as an index list."""
        path = [node_index]
        current = node_index
        while current != self.root:
            preds = self.preds_of(current)
            weights = [int(self.sigma[p]) for p in preds]
            current = _weighted_choice(preds, weights, rng)
            path.append(current)
        path.reverse()
        return path


class _CSRSideView:
    """Label-facing adapter so ``BidirectionalBFSResult.sample_path`` can walk
    a CSR search side exactly like a dict one."""

    __slots__ = ("side", "csr")

    def __init__(self, side: _CSRSearchSide, csr) -> None:
        self.side = side
        self.csr = csr

    def sample_path_to(self, node: Node, rng) -> List[Node]:
        labels = self.csr.labels
        path = self.side.sample_path_to(self.csr.index[node], rng)
        return [labels[index] for index in path]


def bidirectional_shortest_paths(
    graph: Graph, source: Node, target: Node, *, backend: Optional[str] = None
) -> BidirectionalBFSResult:
    """Run a balanced bidirectional BFS between ``source`` and ``target``.

    Both BFS trees are expanded level-by-level, always growing the side whose
    frontier has the smaller total degree.  The search stops as soon as the
    best meeting distance can no longer be improved, i.e. when
    ``best <= level_s + level_t``.

    Raises
    ------
    GraphError
        If either endpoint does not exist or ``source == target``.
    """
    if not graph.has_node(source):
        raise GraphError(f"source node {source!r} does not exist")
    if not graph.has_node(target):
        raise GraphError(f"target node {target!r} does not exist")
    if source == target:
        raise GraphError("source and target must be distinct")
    choice = _csr.effective_backend(
        graph, backend, auto_threshold=AUTO_CSR_BIDIRECTIONAL_THRESHOLD
    )
    if choice == _csr.CSR_BACKEND:
        return _bidirectional_csr(graph, source, target)
    return _bidirectional_dict(graph, source, target)


def _bidirectional_dict(
    graph: Graph, source: Node, target: Node
) -> BidirectionalBFSResult:
    forward = _SearchSide(graph, source)
    backward = _SearchSide(graph, target)
    visited_edges = 0
    best = None  # best known meeting distance

    while True:
        level_sum = forward.level + backward.level
        if best is not None and best <= level_sum:
            break
        # Choose the cheaper side that still has a frontier to expand.
        side: Optional[_SearchSide]
        if forward.frontier and backward.frontier:
            if forward.cost <= backward.cost:
                side = forward
            else:
                side = backward
        elif forward.frontier:
            side = forward
        elif backward.frontier:
            side = backward
        else:
            side = None
        if side is None:
            # Both searches exhausted without meeting: disconnected.
            if best is None:
                return BidirectionalBFSResult(
                    source=source,
                    target=target,
                    distance=None,
                    num_shortest_paths=0,
                    visited_edges=visited_edges,
                )
            break
        other = backward if side is forward else forward
        visited_edges += side.expand()
        for node in side.frontier:
            other_dist = other.dist.get(node)
            if other_dist is not None:
                candidate = side.level + other_dist
                if best is None or candidate < best:
                    best = candidate

    distance = best
    if distance is None:  # pragma: no cover - defensive; handled above
        return BidirectionalBFSResult(
            source=source,
            target=target,
            distance=None,
            num_shortest_paths=0,
            visited_edges=visited_edges,
        )

    # Choose a cut level L such that forward levels <= L and backward levels
    # <= distance - L are both fully expanded, then stitch counts at the cut.
    cut_level = max(0, distance - backward.level)
    cut_level = min(cut_level, forward.level)
    cut_nodes: Dict[Node, tuple] = {}
    sigma_total = 0
    for node, d_forward in forward.dist.items():
        if d_forward != cut_level:
            continue
        d_backward = backward.dist.get(node)
        if d_backward is None or d_forward + d_backward != distance:
            continue
        pair = (forward.sigma[node], backward.sigma[node])
        cut_nodes[node] = pair
        sigma_total += pair[0] * pair[1]

    return BidirectionalBFSResult(
        source=source,
        target=target,
        distance=distance,
        num_shortest_paths=sigma_total,
        cut_level=cut_level,
        cut_nodes=cut_nodes,
        visited_edges=visited_edges,
        _forward=forward,
        _backward=backward,
    )


def _bidirectional_csr(
    graph: Graph, source: Node, target: Node
) -> BidirectionalBFSResult:
    snapshot = _csr.as_csr(graph)
    forward = _CSRSearchSide(snapshot, snapshot.index[source])
    backward = _CSRSearchSide(snapshot, snapshot.index[target])
    visited_edges = 0
    best = None

    while True:
        level_sum = forward.level + backward.level
        if best is not None and best <= level_sum:
            break
        side: Optional[_CSRSearchSide]
        if forward.has_frontier and backward.has_frontier:
            side = forward if forward.cost <= backward.cost else backward
        elif forward.has_frontier:
            side = forward
        elif backward.has_frontier:
            side = backward
        else:
            side = None
        if side is None:
            if best is None:
                return BidirectionalBFSResult(
                    source=source,
                    target=target,
                    distance=None,
                    num_shortest_paths=0,
                    visited_edges=visited_edges,
                )
            break
        other = backward if side is forward else forward
        visited_edges += side.expand()
        best = _best_meeting(side, other, best)

    distance = best
    if distance is None:  # pragma: no cover - defensive; handled above
        return BidirectionalBFSResult(
            source=source,
            target=target,
            distance=None,
            num_shortest_paths=0,
            visited_edges=visited_edges,
        )

    cut_level = max(0, distance - backward.level)
    cut_level = min(cut_level, forward.level)
    labels = snapshot.labels
    cut_nodes: Dict[Node, tuple] = {}
    sigma_total = 0
    candidates = (
        forward.levels[cut_level] if cut_level < len(forward.levels) else ()
    )
    for node in candidates:
        d_backward = int(backward.dist[node])
        if d_backward < 0 or cut_level + d_backward != distance:
            continue
        pair = (int(forward.sigma[node]), int(backward.sigma[node]))
        cut_nodes[labels[node]] = pair
        sigma_total += pair[0] * pair[1]

    return BidirectionalBFSResult(
        source=source,
        target=target,
        distance=distance,
        num_shortest_paths=sigma_total,
        cut_level=cut_level,
        cut_nodes=cut_nodes,
        visited_edges=visited_edges,
        _forward=_CSRSideView(forward, snapshot),
        _backward=_CSRSideView(backward, snapshot),
    )


def _best_meeting(side: _CSRSearchSide, other: _CSRSearchSide, best):
    """Update the best meeting distance after ``side`` expanded one level."""
    frontier = side.frontier
    if len(frontier) == 0:
        return best
    if _csr.HAS_NUMPY and len(frontier) >= 64:
        other_dist = other.sweep.dist[_np.asarray(frontier, dtype=_np.int64)]
        reached = other_dist >= 0
        if reached.any():
            candidate = side.level + int(other_dist[reached].min())
            if best is None or candidate < best:
                best = candidate
        return best
    other_distances = other.dist
    for node in frontier:
        other_dist = other_distances[node]
        if other_dist >= 0:
            candidate = side.level + other_dist
            if best is None or candidate < best:
                best = candidate
    return best
