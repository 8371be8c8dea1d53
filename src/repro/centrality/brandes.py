"""Exact betweenness centrality via Brandes' algorithm (ground truth).

The paper normalises betweenness by ``n (n - 1)`` over *ordered* node pairs
(Eq. 3)::

    bc(v) = 1 / (n (n-1)) * sum_{s != v != t} sigma_st(v) / sigma_st

On undirected graphs ``sigma_st(v)/sigma_st`` is symmetric in ``(s, t)``, so
the ordered-pair sum equals twice the unordered sum; Brandes' one-pass
dependency accumulation naturally computes the unordered sum, which we double
before normalising.

The exact algorithm is ``O(n m)`` and is only used to produce ground truth on
the (scaled-down) benchmark graphs, exactly as the supercomputer runs in the
paper produced ground truth for the full-size networks.

Both traversal backends are supported (see :mod:`repro.graphs.csr`): the
dict reference below, and a CSR path that runs the identical accumulation
over integer index arrays — the per-node dependencies match bit for bit.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, List, Optional, Sequence

from repro.engine.driver import sweep_sources
from repro.errors import GraphError
from repro.graphs import csr as _csr
from repro.graphs import sssp as _sssp
from repro.graphs.graph import Graph

Node = Hashable


def single_source_dependencies(
    graph: Graph,
    source: Node,
    *,
    backend: Optional[str] = None,
    weighted: Optional[str] = None,
) -> Dict[Node, float]:
    """Brandes' single-source dependency accumulation ``delta_s(v)``.

    ``delta_s(v) = sum_{t != s} sigma_st(v) / sigma_st`` — the total
    contribution of source ``s`` to the (unordered-pair, unnormalised)
    betweenness of every node ``v``.  ``weighted`` (see
    :mod:`repro.graphs.sssp`) routes the forward pass through the Dijkstra
    engine: shortest paths are then weight-minimal instead of hop-minimal,
    which is the weighted-betweenness definition.
    """
    if not graph.has_node(source):
        raise GraphError(f"source node {source!r} does not exist")
    if _sssp.effective_weighted(graph, weighted):
        return _weighted_dependencies(graph, source, backend=backend)
    if _csr.effective_backend(graph, backend) == _csr.CSR_BACKEND:
        snapshot = _csr.as_csr(graph)
        source_index = snapshot.index[source]
        delta, order, _ = _csr.csr_brandes(snapshot, source_index)
        labels = snapshot.labels
        return {
            labels[node]: value
            for node, value in zip(order.tolist(), delta[order].tolist())
            if node != source_index
        }
    distances: Dict[Node, int] = {source: 0}
    sigma: Dict[Node, float] = {source: 1.0}
    predecessors: Dict[Node, list] = {source: []}
    order = []
    queue = deque([source])
    while queue:
        node = queue.popleft()
        order.append(node)
        for neighbor in graph.neighbors(node):
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                sigma[neighbor] = 0.0
                predecessors[neighbor] = []
                queue.append(neighbor)
            if distances[neighbor] == distances[node] + 1:
                sigma[neighbor] += sigma[node]
                predecessors[neighbor].append(node)
    dependency: Dict[Node, float] = {node: 0.0 for node in order}
    for node in reversed(order):
        for predecessor in predecessors[node]:
            dependency[predecessor] += (
                sigma[predecessor] / sigma[node] * (1.0 + dependency[node])
            )
    dependency.pop(source, None)
    return dependency


def _weighted_dependencies(
    graph: Graph, source: Node, *, backend: Optional[str]
) -> Dict[Node, float]:
    """Weighted single-source dependencies (Dijkstra forward pass).

    The backward accumulation is Brandes' unchanged: it only consumes the
    DAG (settle order, predecessor lists, float sigma), which the weighted
    engine produces with the same ordering contracts as the BFS — so the
    dict and CSR paths stay bit-identical.
    """
    if _csr.effective_backend(graph, backend) == _csr.CSR_BACKEND:
        snapshot = _csr.as_csr(graph)
        source_index = snapshot.index[source]
        delta, order, _ = _csr.csr_dijkstra_brandes(snapshot, source_index)
        labels = snapshot.labels
        return {
            labels[node]: value
            for node, value in zip(order.tolist(), delta[order].tolist())
            if node != source_index
        }
    from repro.graphs.traversal import dict_dijkstra_dag

    dag = dict_dijkstra_dag(graph, source, float_sigma=True)
    sigma = dag.sigma
    dependency: Dict[Node, float] = {node: 0.0 for node in dag.order}
    for node in reversed(dag.order):
        for predecessor in dag.predecessors[node]:
            dependency[predecessor] += (
                sigma[predecessor] / sigma[node] * (1.0 + dependency[node])
            )
    dependency.pop(source, None)
    return dependency


def betweenness_centrality(
    graph: Graph,
    *,
    normalized: bool = True,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    weighted: Optional[str] = None,
) -> Dict[Node, float]:
    """Exact betweenness centrality of every node.

    Parameters
    ----------
    normalized:
        When ``True`` (default) divide by ``n (n - 1)`` as in Eq. 3 of the
        paper; otherwise return the raw ordered-pair path counts.
    backend:
        Traversal backend; the CSR path runs batched multi-source sweeps
        (:func:`repro.graphs.csr.multi_source_sweep`) instead of per-source
        dicts, with bit-identical totals.
    weighted:
        SSSP engine selection (``None``/``"auto"``/``"on"``/``"off"``; see
        :mod:`repro.graphs.sssp`).  Weighted betweenness counts
        weight-minimal shortest paths; unit-weight graphs under ``"auto"``
        take the exact historical BFS paths.
    workers:
        Worker processes for the all-sources loop (``None`` resolves via
        ``REPRO_WORKERS``).  Each chunk of sources is reduced to one
        dependency partial inside the worker and partials are folded in
        chunk order — the serial path applies the identical chunk-partial
        fold, so any worker count returns bit-identical results while
        shipping O(n) floats per chunk instead of O(chunk x n).
    """
    _csr.require_graph(graph, "betweenness_centrality")
    n = graph.number_of_nodes()
    # Summing the single-source dependencies over every source already covers
    # each *ordered* pair (s, t) exactly once, which is what Eq. 3 sums over.
    centrality = _sum_dependencies(
        graph, list(graph.nodes()), backend=backend, workers=workers,
        weighted=weighted,
    )
    if normalized and n > 1:
        scale = 1.0 / (n * (n - 1))
        for node in centrality:
            centrality[node] *= scale
    return centrality


def betweenness_subset(
    graph: Graph,
    targets: Iterable[Node],
    *,
    normalized: bool = True,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    weighted: Optional[str] = None,
) -> Dict[Node, float]:
    """Exact betweenness centrality restricted to the nodes in ``targets``.

    The computation still needs the full all-sources pass (the exact value of
    even a single node depends on all shortest paths), so this is a
    convenience filter, not a faster algorithm — the whole point of the paper
    is that *sampling* can focus on a subset while exact computation cannot.
    """
    wanted = set(targets)
    missing = [node for node in wanted if not graph.has_node(node)]
    if missing:
        raise GraphError(f"target nodes not in graph: {missing[:5]!r}")
    full = betweenness_centrality(
        graph, normalized=normalized, backend=backend, workers=workers,
        weighted=weighted,
    )
    return {node: full[node] for node in wanted}


def betweenness_from_pivots(
    graph: Graph,
    pivots: Iterable[Node],
    *,
    normalized: bool = True,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    weighted: Optional[str] = None,
) -> Dict[Node, float]:
    """Estimate betweenness from a subset of source pivots (Bader-style).

    Each pivot contributes its single-source dependencies; the result is
    scaled by ``n / #pivots`` to estimate the full sum.  Used by the
    :mod:`repro.baselines.bader` baseline and by tests.
    """
    pivot_list = list(pivots)
    if not pivot_list:
        raise ValueError("at least one pivot is required")
    n = graph.number_of_nodes()
    centrality = _sum_dependencies(
        graph, pivot_list, backend=backend, workers=workers,
        weighted=weighted,
    )
    # Extrapolate the sum over all n sources (which covers all ordered pairs).
    scale = n / len(pivot_list)
    if normalized and n > 1:
        scale /= n * (n - 1)
    for node in centrality:
        centrality[node] *= scale
    return centrality


def _dependency_chunk(payload, chunk: Sequence[Node]):
    """Worker task: the chunk's *reduced* Brandes dependency partial.

    The fold happens in the worker: per-source vectors are summed in source
    order into one chunk-partial — a single length-``n`` vector (CSR) or one
    label-keyed dict (dict backend) — so a chunk ships O(n) floats back to
    the master instead of O(chunk x n).  The addition order (sources within
    the chunk, then chunks in chunk order at the master) is a pure function
    of the fixed chunk layout, so serial and any worker count produce
    bit-identical totals.

    CSR backend: one batched multi-source sweep per chunk, with each row's
    ``delta[source]`` residue zeroed before folding — mirroring the
    ``dependency.pop(source)`` of the dict implementation.  On CSR the
    payload's graph slot holds the snapshot
    (:func:`repro.graphs.csr.shareable_graph`).
    """
    graph, backend, use_weights = payload
    if backend == _csr.CSR_BACKEND:
        snapshot = _csr.as_csr(graph)
        indices = [snapshot.index_of(source) for source in chunk]
        rows = _csr.multi_source_sweep(
            snapshot, indices, kind=_csr.SWEEP_BRANDES, weighted=use_weights
        )
        import numpy as np

        partial = np.zeros(snapshot.n, dtype=np.float64)
        for index, row in zip(indices, rows):
            row[index] = 0.0
            np.add(partial, row, out=partial)
        return partial
    partial_map: Dict[Node, float] = {}
    for source in chunk:
        dependencies = single_source_dependencies(
            graph, source, backend=_csr.DICT_BACKEND,
            weighted=_sssp.WEIGHTED_ON if use_weights else _sssp.WEIGHTED_OFF,
        )
        for node, value in dependencies.items():
            partial_map[node] = partial_map.get(node, 0.0) + value
    return partial_map


def _sum_dependencies(
    graph: Graph,
    sources: List[Node],
    *,
    backend: Optional[str],
    workers: Optional[int],
    weighted: Optional[str] = None,
) -> Dict[Node, float]:
    """Sum per-source dependency vectors over ``sources``, in source order.

    The chunked fold runs through the engine's
    :func:`~repro.engine.driver.sweep_sources` with in-worker partial
    accumulation: each chunk reduces its sources locally (in source order)
    and the master adds one partial per chunk, in chunk order.  The float
    addition order is therefore a pure function of the fixed chunk layout —
    identical for the serial path, any worker count, and both backends (the
    backend-equivalence tests assert bit-identical totals).  CSR payloads
    carry the frozen snapshot, which ``spawn`` workers unpickle once
    (:meth:`repro.graphs.csr.CSRGraph.__reduce__`).
    """
    choice = _csr.effective_backend(graph, backend)
    use_weights = _sssp.effective_weighted(graph, weighted)
    if choice == _csr.CSR_BACKEND:
        import numpy as np

        snapshot = _csr.as_csr(graph)
        totals = np.zeros(snapshot.n, dtype=np.float64)

        def fold(chunk, partial) -> None:
            np.add(totals, partial, out=totals)

        def finalize() -> Dict[Node, float]:
            return dict(zip(snapshot.labels, totals.tolist()))

    else:
        centrality: Dict[Node, float] = {node: 0.0 for node in graph.nodes()}

        def fold(chunk, partial) -> None:
            for node, value in partial.items():
                centrality[node] += value

        def finalize() -> Dict[Node, float]:
            return centrality

    sweep_sources(
        _dependency_chunk, sources, fold,
        payload=(_csr.shareable_graph(graph, choice), choice, use_weights),
        workers=workers,
    )
    return finalize()
