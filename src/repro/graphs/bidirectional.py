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
path uniformly at random: pick the cut node proportional to
``sigma_s * sigma_t``, then walk back to both endpoints, taking each
predecessor — a neighbour one level closer, in adjacency order — with
probability proportional to its count.  Each pick among several candidates
draws one ``rng.randrange`` over the integer total; a lone candidate draws
nothing.

Two interchangeable backends implement the search (see
:mod:`repro.graphs.csr`): the dict reference over the hash-based adjacency,
and :func:`bidirectional_searches`, which runs ``K`` pairs as the ``2K``
slots of one staggered sweep (:func:`repro.graphs.csr.staggered_sweep`);
every pair still picks its side per step by the same rule, so the
single-pair CSR search is its ``K = 1`` case.  Both produce identical
results — including identical sampled paths from identical seeds.  The
samplers (``Gen_bc`` and KADABRA) search their CSR sub-batches with
:func:`stacked_paths`, which samples each pair's path before it recycles
the sweep's arrays through the sampler's :class:`~repro.graphs.csr.SweepSpare`.

The search is defined on *hop* distances: its balanced level expansion is a
unit-weight optimisation.  Weighted workloads sample shortest paths from
the Dijkstra source DAGs of the unified SSSP engine instead (see
:mod:`repro.graphs.sssp` and the weighted path in
:mod:`repro.baselines.kadabra`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.errors import GraphError, SamplingError
from repro.graphs import csr as _csr
from repro.graphs.csr import sigma_choice
from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, ensure_rng

Node = Hashable

#: ``auto`` backend cutoff for one lone bidirectional search
#: (:func:`bidirectional_shortest_paths`).  One query touches only
#: ~``n^{1/2+o(1)}`` edges but the CSR variant allocates O(n) state arrays
#: per query, so the array kernels need a much larger graph to pay off than
#: a full-graph BFS does.  The samplers (``Gen_bc``, KADABRA) stack their
#: searches and follow the plain ``auto`` rule; besides the single-pair
#: search, only the benchmark's backend label reads this cutoff.
AUTO_CSR_BIDIRECTIONAL_THRESHOLD = 16384

#: Below this many entries the per-step meeting test and the cut-level scan
#: run as Python loops; numpy call overhead dominates such small arrays.
_SMALL_SCAN = 64

#: Edge budget (``K * 2m``) of one stacked search batch of ``K`` pairs.
_STACKED_EDGE_BUDGET = 2**20


def stacked_batch_pairs(snapshot) -> int:
    """Pairs per :func:`bidirectional_searches` batch on ``snapshot``: the
    largest power of two within the edge budget, at most 64.

    A batch's ``2K`` slots are rounded up to a power of two anyway, so a
    ``K`` in between would allocate the larger batch's state for fewer
    pairs per batch.
    """
    pairs = max(1, min(64, _STACKED_EDGE_BUDGET // max(1, 2 * snapshot.m)))
    return 1 << (pairs.bit_length() - 1)


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
        at least one shortest path, with their ``(sigma_s(w), sigma_t(w))``,
        in the forward search's discovery order.
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
        # Pick the cut node proportional to the number of paths through it;
        # here and in the walks back, a lone candidate consumes no draw.
        nodes = list(self.cut_nodes)
        middle = nodes[0] if len(nodes) == 1 else sigma_choice(
            nodes, [a * b for a, b in self.cut_nodes.values()], rng
        )
        first_half = self._forward.sample_path_to(middle, rng)
        second_half = self._backward.sample_path_to(middle, rng)
        second_half.reverse()
        return first_half + second_half[1:]


class _SearchSide:
    """One direction of the dict search (complete BFS levels)."""

    __slots__ = ("adj", "dist", "sigma", "frontier", "level", "cost")

    def __init__(self, graph: Graph, root: Node) -> None:
        # The graph's own adjacency dicts, read only: neighbour order is
        # ``graph.neighbors`` order, without one method call per node.
        self.adj = graph._adj
        self.dist: Dict[Node, int] = {root: 0}
        self.sigma: Dict[Node, int] = {root: 1}
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
        # repro-lint: disable=kernel-ownership — audited: the hash-adjacency reference search the stacked CSR search is pinned against (TestBidirectionalEquivalence); _BatchSweep reads only CSR arrays
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
                    next_frontier.append(neighbor)
                    cost += len(adj[neighbor])
                elif known == next_level:
                    sigma[neighbor] += sigma_node
        self.frontier = next_frontier
        self.level = next_level
        self.cost = cost
        return scanned

    def sample_path_to(self, node: Node, rng) -> List[Node]:
        """Sample a shortest path from ``root`` to ``node`` uniformly;
        returned as ``[root, ..., node]``."""
        adj = self.adj
        dist = self.dist
        sigma = self.sigma
        path = [node]
        depth = dist[node]
        while depth > 0:
            depth -= 1
            preds = [w for w in adj[node] if dist.get(w) == depth]
            node = (
                preds[0] if len(preds) == 1
                else sigma_choice(preds, [sigma[w] for w in preds], rng)
            )
            path.append(node)
        path.reverse()
        return path


class _SweepSide:
    """One slot of a stacked CSR search, walked back in label space exactly
    like a dict :class:`_SearchSide`."""

    __slots__ = ("sweep", "slot")

    def __init__(self, sweep, slot: int) -> None:
        self.sweep = sweep
        self.slot = slot

    def sample_path_to(self, node: Node, rng) -> List[Node]:
        sweep = self.sweep
        indptr, indices = sweep.csr.adjacency_lists()
        shift = sweep.shift
        slot = self.slot
        dist = sweep.dist_store
        sigma = sweep.sigma
        current = sweep.csr.index[node]
        path = [current]
        depth = dist[(current << shift) | slot]
        while depth > 0:
            depth -= 1
            first, stop = indptr[current], indptr[current + 1]
            if stop - first >= _SMALL_SCAN:
                flats = (sweep.csr.indices[first:stop] << shift) | slot
                preds = flats[sweep.dist[flats] == depth].tolist()
            else:
                preds = [
                    (w << shift) | slot for w in indices[first:stop]
                    if dist[(w << shift) | slot] == depth
                ]
            flat = (
                preds[0] if len(preds) == 1
                else sigma_choice(preds, [sigma[p] for p in preds], rng)
            )
            current = flat >> shift
            path.append(current)
        labels = sweep.csr.labels
        return [labels[index] for index in reversed(path)]


def _check_pair(graph, source: Node, target: Node) -> None:
    if not graph.has_node(source):
        raise GraphError(f"source node {source!r} does not exist")
    if not graph.has_node(target):
        raise GraphError(f"target node {target!r} does not exist")
    if source == target:
        raise GraphError("source and target must be distinct")


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
    _check_pair(graph, source, target)
    choice = _csr.effective_backend(
        graph, backend, auto_threshold=AUTO_CSR_BIDIRECTIONAL_THRESHOLD
    )
    if choice == _csr.CSR_BACKEND:
        [result] = bidirectional_searches(graph, [(source, target)])
        return result
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


def stacked_paths(
    graph, pairs: Sequence[Tuple[Node, Node]], rng, spare: _csr.SweepSpare
) -> List[Tuple[int, Optional[List[Node]]]]:
    """Search ``pairs`` as one stacked search, then sample one shortest path
    per pair, in pair order.

    Returns ``(visited edges, path)`` per pair; the path is ``None`` for a
    disconnected pair.  Everything equals :func:`bidirectional_searches`
    followed by ``sample_path(rng)`` on each result, and hence the dict
    search's per-pair results.  The sweep runs on the arrays parked in
    ``spare`` when their size fits, and only once every path is sampled are
    they reset and parked again; no search result outlives the call, so no
    caller can read the arrays after they are recycled.  If anything raises,
    the arrays are dropped with the sweep.
    """
    pairs = list(pairs)
    sweep, results = _stacked_searches(graph, pairs, spare)
    sampled = [
        (result.visited_edges,
         result.sample_path(rng) if result.connected else None)
        for result in results
    ]
    sweep.park(spare)
    return sampled


def bidirectional_searches(
    graph, pairs: Sequence[Tuple[Node, Node]]
) -> List[BidirectionalBFSResult]:
    """Run one balanced bidirectional BFS per ``(source, target)`` pair, stacked.

    Pair ``k`` owns slots ``2k`` (forward, from the source) and ``2k + 1``
    (backward, from the target) of one staggered CSR sweep.  Every step,
    each unfinished pair picks its side by the dict search's rule — the
    cheaper non-empty frontier, forward on ties — and all picked slots
    expand together, each at its own depth, so the pairs' thin frontiers
    merge into one fat one.  A pair stops exactly when the dict search
    would; its distance, ``sigma_st``, cut nodes, visited edges and
    sampled paths equal :func:`bidirectional_shortest_paths`' with the dict
    backend.  ``graph`` may be a :class:`Graph` or a CSR snapshot; the
    results keep the sweep's O(K n) state alive for path sampling.

    Raises
    ------
    GraphError
        If an endpoint does not exist or a pair has ``source == target``.
    """
    return _stacked_searches(graph, list(pairs))[1]


def _stacked_searches(graph, pairs, spare=None):
    """The stacked search of :func:`bidirectional_searches`: returns the
    sweep and the per-pair results that read it."""
    for source, target in pairs:
        _check_pair(graph, source, target)
    snapshot = _csr.as_csr(graph)
    roots = [snapshot.index[node] for pair in pairs for node in pair]
    sweep = _csr.staggered_sweep(snapshot, roots, spare)
    depth = sweep.slot_depth
    cost = sweep.slot_cost
    size = sweep.slot_size
    best: List[Optional[int]] = [None] * len(pairs)
    visited = [0] * len(pairs)
    active = range(len(pairs))
    while True:
        running = []
        chosen = []
        for pair in active:
            forward = 2 * pair
            backward = forward + 1
            meet = best[pair]
            if meet is not None and meet <= depth[forward] + depth[backward]:
                continue
            if size[forward] and size[backward]:
                side = forward if cost[forward] <= cost[backward] else backward
            elif size[forward]:
                side = forward
            elif size[backward]:
                side = backward
            else:
                continue  # both sides exhausted
            running.append(pair)
            chosen.append(side)
            visited[pair] += cost[side]
        if not chosen:
            break
        start = sweep.log_size
        sweep.expand_slots(chosen)
        _record_meetings(sweep, start, best)
        active = running
    return sweep, [
        _stacked_result(sweep, pair, source, target, best[pair], visited[pair])
        for pair, (source, target) in enumerate(pairs)
    ]


def _record_meetings(sweep, start: int, best: List[Optional[int]]) -> None:
    """Lower each pair's best meeting distance with the nodes its expanded
    side just discovered (``log[start:]``) that the other side has reached."""
    # Slots 2k and 2k + 1 hold the same node at ids differing in bit 0.
    mask = (1 << sweep.shift) - 1
    stop = sweep.log_size
    if stop - start >= _SMALL_SCAN:
        fresh = sweep.log[start:stop]
        other = sweep.dist[fresh ^ 1]
        hit = other >= 0
        if not hit.any():
            return
        met = fresh[hit]
        found = zip(
            ((met & mask) >> 1).tolist(), (sweep.dist[met] + other[hit]).tolist()
        )
    else:
        log = sweep.log_store
        dist = sweep.dist_store
        found = []
        for position in range(start, stop):
            flat = log[position]
            other = dist[flat ^ 1]
            if other >= 0:
                found.append(((flat & mask) >> 1, dist[flat] + other))
    for pair, length in found:
        meet = best[pair]
        if meet is None or length < meet:
            best[pair] = length


def _stacked_result(
    sweep, pair: int, source: Node, target: Node,
    distance: Optional[int], visited_edges: int,
) -> BidirectionalBFSResult:
    if distance is None:
        return BidirectionalBFSResult(
            source=source,
            target=target,
            distance=None,
            num_shortest_paths=0,
            visited_edges=visited_edges,
        )
    forward = 2 * pair
    cut_level = min(
        max(0, distance - sweep.slot_depth[forward + 1]),
        sweep.slot_depth[forward],
    )
    # Cut nodes in the forward level's discovery order (the dict search's
    # ``dist`` insertion order) whose backward distance completes a path.
    first, stop = sweep.slot_levels[forward][cut_level]
    remaining = distance - cut_level
    if stop - first >= _SMALL_SCAN:
        level = sweep.log[first:stop]
        cut = level[sweep.dist[level ^ 1] == remaining].tolist()
    else:
        dist = sweep.dist_store
        cut = [
            flat for flat in sweep.log_store[first:stop]
            if dist[flat ^ 1] == remaining
        ]
    labels = sweep.csr.labels
    sigma = sweep.sigma
    shift = sweep.shift
    cut_nodes: Dict[Node, tuple] = {}
    sigma_total = 0
    for flat in cut:
        counts = (int(sigma[flat]), int(sigma[flat ^ 1]))
        cut_nodes[labels[flat >> shift]] = counts
        sigma_total += counts[0] * counts[1]
    return BidirectionalBFSResult(
        source=source,
        target=target,
        distance=distance,
        num_shortest_paths=sigma_total,
        cut_level=cut_level,
        cut_nodes=cut_nodes,
        visited_edges=visited_edges,
        _forward=_SweepSide(sweep, forward),
        _backward=_SweepSide(sweep, forward + 1),
    )
