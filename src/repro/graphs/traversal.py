"""Shortest-path primitives: distances, shortest-path DAGs and uniform
shortest-path sampling.

These are the building blocks shared by the exact Brandes algorithm, the
sampling baselines and SaPHyRa_bc's sample generator.

Every public function takes a ``backend`` argument (``None``/``"auto"``,
``"dict"`` or ``"csr"``; see :mod:`repro.graphs.csr`).  The dict backend is
the readable reference implementation over the hash-based adjacency; the CSR
backend runs the same algorithms over integer indices on a cached
compressed-sparse-row snapshot and returns bit-identical results.

There is ONE SSSP abstraction with two engines behind it (routing policy in
:mod:`repro.graphs.sssp`): the level-synchronous BFS for unit weights — the
exact historical code paths — and a deterministic Dijkstra for graphs with
edge weights.  :func:`shortest_path_dag` and :func:`sssp_distances` accept a
``weighted`` argument (``None``/``"auto"``/``"on"``/``"off"``) and dispatch;
:func:`bfs_distances` is always the hop-distance BFS (diameter estimation
and the VC-dimension machinery are defined on hop distances).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, Hashable, List, Optional, Union

from repro.errors import GraphError, SamplingError
from repro.graphs import csr as _csr
from repro.graphs import sssp as _sssp
from repro.graphs.csr import sigma_choice
from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, ensure_rng

Node = Hashable


def bfs_distances(
    graph: Graph,
    source: Node,
    *,
    max_depth: Optional[int] = None,
    backend: Optional[str] = None,
) -> Dict[Node, int]:
    """Return ``{node: hop distance}`` for every node reachable from ``source``.

    Always the unit-weight BFS engine — hop distances ignore edge weights
    by definition (diameter estimation and the VC-dimension machinery are
    hop-based); use :func:`sssp_distances` for weight-aware distances.

    Parameters
    ----------
    max_depth:
        If given, stop expanding once this depth is reached (nodes farther
        than ``max_depth`` are absent from the result).
    backend:
        Traversal backend (``"dict"``, ``"csr"`` or ``None`` for the
        default); the result — including key order — is identical.
    """
    if not graph.has_node(source):
        raise GraphError(f"source node {source!r} does not exist")
    if _csr.effective_backend(graph, backend) == _csr.CSR_BACKEND:
        snapshot = _csr.as_csr(graph)
        dist, order = _csr.csr_bfs(
            snapshot, snapshot.index[source], max_depth=max_depth
        )
        order_list = order.tolist()
        values = dist[order].tolist()
        if snapshot.identity_labels:
            return dict(zip(order_list, values))
        labels = snapshot.labels
        return dict(zip(map(labels.__getitem__, order_list), values))
    distances: Dict[Node, int] = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        depth = distances[node]
        if max_depth is not None and depth >= max_depth:
            continue
        for neighbor in graph.neighbors(node):
            if neighbor not in distances:
                distances[neighbor] = depth + 1
                queue.append(neighbor)
    return distances


@dataclass
class ShortestPathDAG:
    """The shortest-path DAG rooted at ``source``.

    Attributes
    ----------
    source:
        Root of the search.
    distances:
        ``{node: distance from source}`` for reachable nodes — integer hop
        counts for BFS-built DAGs, float path lengths for weighted
        (Dijkstra-built) DAGs.
    sigma:
        ``{node: number of distinct shortest paths from source}``.
    predecessors:
        ``{node: [predecessors on shortest paths]}``.
    order:
        Nodes in non-decreasing distance order (the order they were settled),
        which is the reverse of the order Brandes' dependency accumulation
        walks them in.
    weighted:
        ``True`` when the DAG was built by the weighted (Dijkstra) engine.
    """

    source: Node
    distances: Dict[Node, Union[int, float]]
    sigma: Dict[Node, int]
    predecessors: Dict[Node, List[Node]]
    order: List[Node]
    weighted: bool = False

    def number_of_shortest_paths(self, target: Node) -> int:
        """Return ``sigma_{source, target}`` (0 if unreachable)."""
        return self.sigma.get(target, 0)

    def path_counts_to(self, target: Node) -> Dict[Node, float]:
        """Shortest-path counts *to* ``target`` inside the DAG.

        The backward "beta" pass used by pair estimators (ABRA): for every
        node ``w`` on at least one shortest source→target path, the number
        of shortest ``w → target`` paths.  Counts are accumulated as floats
        in a reference order the CSR kernel
        (:meth:`~repro.graphs.csr.CSRShortestPathDAG.path_counts_to`)
        replays bit for bit.

        BFS-built DAGs walk predecessor lists level by level: every
        predecessor edge drops the distance by exactly one level, so a
        node's count is complete before its own propagation.  Weighted
        (Dijkstra-built) DAGs have no such level structure — a node can be
        a predecessor of targets at several hop depths — so they propagate
        in reverse settle order (a topological order of the DAG, since
        positive weights settle every predecessor strictly earlier),
        restricted to the nodes that actually reach ``target``.
        """
        if self.weighted:
            members = {target}
            stack = [target]
            while stack:
                for predecessor in self.predecessors[stack.pop()]:
                    if predecessor not in members:
                        members.add(predecessor)
                        stack.append(predecessor)
            beta: Dict[Node, float] = {target: 1.0}
            for node in reversed(self.order):
                if node not in members:
                    continue
                value = beta[node]
                for predecessor in self.predecessors[node]:
                    beta[predecessor] = beta.get(predecessor, 0.0) + value
            return beta
        beta = {target: 1.0}
        frontier = [target]
        while frontier:
            next_frontier: List[Node] = []
            for node in frontier:
                for predecessor in self.predecessors[node]:
                    if predecessor not in beta:
                        beta[predecessor] = 0.0
                        next_frontier.append(predecessor)
                    beta[predecessor] += beta[node]
            frontier = next_frontier
        return beta

    def sample_path(self, target: Node, rng: SeedLike = None) -> List[Node]:
        """Sample a shortest path from ``source`` to ``target`` uniformly.

        The path is returned as a node list ``[source, ..., target]``.

        Raises
        ------
        SamplingError
            If ``target`` is unreachable from ``source``.
        """
        if target not in self.distances:
            raise SamplingError(
                f"target {target!r} is unreachable from source {self.source!r}"
            )
        rng = ensure_rng(rng)
        path = [target]
        current = target
        while current != self.source:
            preds = self.predecessors[current]
            weights = [self.sigma[p] for p in preds]
            current = sigma_choice(preds, weights, rng)
            path.append(current)
        path.reverse()
        return path


def shortest_path_dag(
    graph: Graph,
    source: Node,
    *,
    max_depth: Optional[int] = None,
    backend: Optional[str] = None,
    weighted: Optional[str] = None,
) -> ShortestPathDAG:
    """Compute distances, path counts and the shortest-path DAG from ``source``.

    ``weighted`` (``None``/``"auto"``/``"on"``/``"off"``; see
    :mod:`repro.graphs.sssp`) routes between the BFS engine — the exact
    historical path, always taken for unit-weight graphs under ``"auto"`` —
    and the deterministic Dijkstra engine for weighted graphs.  Both
    backends return bit-identical DAGs either way.
    """
    if not graph.has_node(source):
        raise GraphError(f"source node {source!r} does not exist")
    if _sssp.effective_weighted(graph, weighted):
        if max_depth is not None:
            raise ValueError(
                "max_depth is a hop-count cap; it is not supported by the "
                "weighted (Dijkstra) SSSP engine"
            )
        if _csr.effective_backend(graph, backend) == _csr.CSR_BACKEND:
            snapshot = _csr.as_csr(graph)
            dag = _csr.csr_sssp_dag(
                snapshot, snapshot.index[source], weighted=True
            )
            return _dag_to_labels(snapshot, dag, source)
        return dict_dijkstra_dag(graph, source)
    if _csr.effective_backend(graph, backend) == _csr.CSR_BACKEND:
        snapshot = _csr.as_csr(graph)
        dag = _csr.csr_shortest_path_dag(
            snapshot, snapshot.index[source], max_depth=max_depth
        )
        return _dag_to_labels(snapshot, dag, source)
    distances: Dict[Node, int] = {source: 0}
    sigma: Dict[Node, int] = {source: 1}
    predecessors: Dict[Node, List[Node]] = {source: []}
    order: List[Node] = []
    queue = deque([source])
    while queue:
        node = queue.popleft()
        order.append(node)
        depth = distances[node]
        if max_depth is not None and depth >= max_depth:
            continue
        for neighbor in graph.neighbors(node):
            if neighbor not in distances:
                distances[neighbor] = depth + 1
                sigma[neighbor] = 0
                predecessors[neighbor] = []
                queue.append(neighbor)
            if distances[neighbor] == depth + 1:
                sigma[neighbor] += sigma[node]
                predecessors[neighbor].append(node)
    return ShortestPathDAG(
        source=source,
        distances=distances,
        sigma=sigma,
        predecessors=predecessors,
        order=order,
    )


def _dag_to_labels(snapshot, dag, source: Node) -> ShortestPathDAG:
    """Translate an index-space DAG back to the label-keyed dataclass."""
    labels = snapshot.labels
    order_list = dag.order.tolist()
    dist, sigma = dag.dist, dag.sigma
    pred_indptr = dag.pred_indptr
    pred_list = dag.pred_indices.tolist()
    weighted = bool(getattr(dag, "weighted", False))
    # Weighted DAGs carry float path lengths; truncating them to int would
    # corrupt distances, so only hop-count DAGs go through int().
    cast = float if weighted else int
    distances: Dict[Node, Union[int, float]] = {}
    sigmas: Dict[Node, int] = {}
    predecessors: Dict[Node, List[Node]] = {}
    order: List[Node] = []
    for index in order_list:
        label = labels[index]
        order.append(label)
        distances[label] = cast(dist[index])
        sigmas[label] = int(sigma[index])
        predecessors[label] = [
            labels[p]
            for p in pred_list[int(pred_indptr[index]) : int(pred_indptr[index + 1])]
        ]
    return ShortestPathDAG(
        source=source,
        distances=distances,
        sigma=sigmas,
        predecessors=predecessors,
        order=order,
        weighted=weighted,
    )


def dict_dijkstra_dag(
    graph: Graph, source: Node, *, float_sigma: bool = False
) -> ShortestPathDAG:
    """Weighted shortest-path DAG from ``source`` — the dict reference engine.

    A deterministic binary-heap Dijkstra over the insertion-ordered
    adjacency: heap entries are ``(distance, push counter, node)``, so
    distance ties settle in push order — a pure function of the edge scan
    order that the CSR kernel (:func:`repro.graphs.csr.csr_dijkstra_dag`)
    replays exactly, making the two backends bit-identical (float
    distances, exact integer sigma, predecessor append order, settle
    order).  Absent weights count as ``1`` (the forced-weighted A/B path).
    ``float_sigma`` accumulates path counts as floats — the Brandes mode,
    matching the CSR kernel's float accumulation bit for bit.
    """
    if not graph.has_node(source):
        raise GraphError(f"source node {source!r} does not exist")
    distances: Dict[Node, float] = {source: 0.0}
    sigma: Dict[Node, int] = {source: 1.0 if float_sigma else 1}
    predecessors: Dict[Node, List[Node]] = {source: []}
    order: List[Node] = []
    settled = set()
    heap = [(0.0, 0, source)]
    counter = 1
    while heap:
        d, _, node = heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        order.append(node)
        sigma_node = sigma[node]
        for neighbor, weight in graph.neighbor_weights(node):
            candidate = d + weight
            known = distances.get(neighbor)
            if known is None or candidate < known:
                distances[neighbor] = candidate
                sigma[neighbor] = sigma_node
                predecessors[neighbor] = [node]
                heappush(heap, (candidate, counter, neighbor))
                counter += 1
            elif candidate == known:
                # Positive weights guarantee ``neighbor`` is unsettled here.
                sigma[neighbor] += sigma_node
                predecessors[neighbor].append(node)
    # Re-key the result dicts in settle order so iteration order matches
    # the BFS reference's settled-order dict layout (and the CSR backend's
    # order translation).
    distances = {node: distances[node] for node in order}
    sigma = {node: sigma[node] for node in order}
    predecessors = {node: predecessors[node] for node in order}
    return ShortestPathDAG(
        source=source,
        distances=distances,
        sigma=sigma,
        predecessors=predecessors,
        order=order,
        weighted=True,
    )


def dict_dijkstra_distances(graph: Graph, source: Node) -> Dict[Node, float]:
    """Weighted distances from ``source`` — the lean dict reference kernel.

    The no-sigma, no-predecessor form of :func:`dict_dijkstra_dag`: same
    heap, same relaxations, identical float distances, keys in settle
    order.  Distance-only consumers (closeness sweeps) use this to skip
    the DAG bookkeeping.
    """
    if not graph.has_node(source):
        raise GraphError(f"source node {source!r} does not exist")
    distances: Dict[Node, float] = {source: 0.0}
    order: List[Node] = []
    settled = set()
    heap = [(0.0, 0, source)]
    counter = 1
    while heap:
        d, _, node = heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        order.append(node)
        for neighbor, weight in graph.neighbor_weights(node):
            candidate = d + weight
            known = distances.get(neighbor)
            if known is None or candidate < known:
                distances[neighbor] = candidate
                heappush(heap, (candidate, counter, neighbor))
                counter += 1
    return {node: distances[node] for node in order}


def sssp_distances(
    graph: Graph,
    source: Node,
    *,
    backend: Optional[str] = None,
    weighted: Optional[str] = None,
) -> Dict[Node, Union[int, float]]:
    """``{node: distance}`` for every node reachable from ``source``.

    The single-source distance face of the unified SSSP abstraction:
    ``weighted`` (see :mod:`repro.graphs.sssp`) routes between
    :func:`bfs_distances` (hop counts, the exact historical path) and the
    Dijkstra engine (float path lengths over edge weights).  Keys are in
    settle order under both backends.
    """
    if _sssp.effective_weighted(graph, weighted):
        if not graph.has_node(source):
            raise GraphError(f"source node {source!r} does not exist")
        if _csr.effective_backend(graph, backend) == _csr.CSR_BACKEND:
            snapshot = _csr.as_csr(graph)
            # Lean kernel: distance queries skip the sigma/predecessor
            # bookkeeping of the full DAG (identical floats, same order).
            row, order = _csr.csr_dijkstra_distances(
                snapshot, snapshot.index[source], with_order=True
            )
            labels = snapshot.labels
            if snapshot.identity_labels:
                return {index: float(row[index]) for index in order}
            return {labels[index]: float(row[index]) for index in order}
        return dict_dijkstra_distances(graph, source)
    return bfs_distances(graph, source, backend=backend)


def sample_shortest_path(
    graph: Graph,
    source: Node,
    target: Node,
    rng: SeedLike = None,
    *,
    backend: Optional[str] = None,
) -> List[Node]:
    """Sample a uniformly random shortest path between two nodes.

    This is the straightforward (single-direction BFS) sampler; the balanced
    bidirectional variant in :mod:`repro.graphs.bidirectional` is what the
    fast samplers use.
    """
    dag = shortest_path_dag(graph, source, backend=backend)
    return dag.sample_path(target, rng)


def k_hop_neighborhood(
    graph: Graph, center: Node, hops: int, *, backend: Optional[str] = None
) -> List[Node]:
    """Return all nodes within ``hops`` of ``center`` (including ``center``)."""
    if hops < 0:
        raise ValueError(f"hops must be >= 0, got {hops}")
    return list(bfs_distances(graph, center, max_depth=hops, backend=backend))
