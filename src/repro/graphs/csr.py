"""Compressed-sparse-row graph engine and the pluggable traversal backends.

Every traversal hot path in this reproduction (plain BFS, shortest-path DAG
construction, Brandes dependency accumulation, bidirectional search, the
samplers built on top of them) was originally written against the
``dict[node, dict[node, None]]`` adjacency of :class:`~repro.graphs.graph.Graph`.
That representation is flexible — nodes are arbitrary hashables — but every
edge scan pays Python-level hashing.  This module provides the array-based
alternative:

* :class:`CSRGraph` — a frozen compressed-sparse-row snapshot of a
  :class:`Graph`: ``indptr``/``indices`` arrays over integer node indices
  ``0..n-1`` plus the label↔index mapping (labels keep the graph's insertion
  order, exactly like :meth:`Graph.relabeled`).
* :func:`as_csr` — build-and-cache: the snapshot lives in the graph's
  versioned slot (:meth:`Graph.memo <repro.graphs.graph.Graph.memo>`) and is
  patched or rebuilt automatically after the graph mutates.
* Integer-index kernels — ``csr_bfs``, ``csr_shortest_path_dag``,
  ``csr_brandes`` — over numpy arrays.  All of them drive the one shared
  expand-one-level kernel, :class:`_BatchSweep`; the stacked bidirectional
  search in :mod:`repro.graphs.bidirectional` drives its per-slot sibling,
  :class:`_StaggeredSweep`.
* Batched sweeps — :func:`multi_source_sweep` runs K sources per call over
  stacked ``(K, n)`` state arrays, merging the thin per-source frontiers of
  high-diameter (road-style) graphs into fat vectorised ones, with results
  bit-identical to the per-source kernels.
* Weighted SSSP — snapshots of weighted graphs carry a float64 ``weights``
  array aligned with ``indices``; :func:`csr_sssp_dag` is the one SSSP
  entry point routing between the BFS kernels (unit weights) and the
  deterministic Dijkstra kernels (``csr_dijkstra_dag`` /
  ``csr_dijkstra_distances`` / ``csr_dijkstra_brandes``).  Routing policy
  lives in :mod:`repro.graphs.sssp`.
* Backend selection — :func:`effective_backend` maps a user-facing
  ``backend=`` argument (``None``/``"auto"``/``"dict"``/``"csr"``, the
  ``backend`` knob of :mod:`repro.knobs`) to a concrete backend per graph.

numpy is optional for the package but required here: every module imports
without it, ``auto`` then picks the dict backend, and an explicit ``csr``
(or building a snapshot) raises :class:`~repro.errors.GraphError` from
:func:`require_numpy`.

Determinism contract
--------------------
The CSR kernels are written to be *bit-identical* to the dict reference
implementations, not merely statistically equivalent: neighbour order equals
dict insertion order, BFS settles nodes in the same order, sigma counts and
Brandes dependencies accumulate in the same order (so even float rounding
matches), and path sampling consumes the RNG identically.  The backend
equivalence property tests assert this.

Shortest-path counts (``sigma``) are exact.  They start in fast ``int64``
arrays; before expanding a level whose counts could overflow (conservative
guard: ``max sigma * max degree >= 2**63``), the kernel switches to
arbitrary-precision Python ints for the remaining levels.  This matters in
practice: on road-style grids ``sigma`` grows like a binomial coefficient
and exceeds ``2**63`` at hop distances around 70.
"""

from __future__ import annotations

from array import array
from heapq import heappop, heappush
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro import knobs as _knobs
from repro.errors import GraphError, SamplingError
from repro.graphs import delta as _delta
from repro.graphs.graph import Graph

try:  # numpy is optional: without it only the dict backend runs.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-less installs
    _np = None

HAS_NUMPY = _np is not None

Node = Hashable

#: Backend names accepted by every ``backend=`` parameter.
DICT_BACKEND = "dict"
CSR_BACKEND = "csr"
AUTO_BACKEND = "auto"
BACKENDS = (DICT_BACKEND, CSR_BACKEND)

#: Below this many nodes + edges the ``auto`` choice stays on the dict
#: backend: snapshot construction and per-level array overhead only pay off
#: once a graph has a few hundred adjacency entries.
AUTO_CSR_THRESHOLD = 512

#: The :meth:`Graph.memo <repro.graphs.graph.Graph.memo>` slot holding a
#: graph's CSR snapshot (see :func:`as_csr`).
SNAPSHOT_KEY = "csr"

#: The ``backend`` row of :mod:`repro.knobs`: ``resolve_backend`` may
#: return ``"auto"`` ("decide per graph"), which dispatch sites hand to
#: :func:`effective_backend` together with the graph.
BACKEND_ENV_VAR = _knobs.BACKEND.env
default_backend = _knobs.BACKEND.resolve
set_default_backend = _knobs.BACKEND.override
resolve_backend = _knobs.BACKEND.resolve


def require_numpy(what: str) -> None:
    """Raise :class:`GraphError` naming numpy unless it is importable.

    The one numpy check of the CSR backend, whose arrays are numpy
    arrays.  ``what`` names the operation that needs it.
    """
    if not HAS_NUMPY:
        raise GraphError(
            f"{what} requires numpy, which is not importable; install numpy "
            "or use backend='dict' (or 'auto', which picks dict without numpy)"
        )


def effective_backend(
    graph: Graph,
    backend: Optional[str] = None,
    *,
    auto_threshold: Optional[int] = None,
) -> str:
    """Choose the concrete backend for one operation on ``graph``.

    Explicit choices (argument, :func:`set_default_backend`, or the
    ``REPRO_BACKEND`` variable) are always honoured; an explicit ``csr``
    without numpy raises :class:`GraphError`.  The remaining ``auto`` case
    picks CSR when numpy is available and the graph is large enough for the
    array kernels to win (or already has a cached snapshot), and the dict
    reference otherwise.  Both backends return identical results, so the
    heuristic affects speed only.

    Parameters
    ----------
    auto_threshold:
        Override the ``n + m`` size cutoff for the ``auto`` case; kernels
        whose CSR variant has a higher per-call fixed cost (the bidirectional
        search allocates per-query state arrays) pass a larger cutoff.
    """
    if isinstance(graph, CSRGraph):
        # A frozen snapshot (e.g. the graph slot of a worker payload, see
        # shareable_graph) can only run the array kernels; there is no dict
        # adjacency to fall back to.
        return CSR_BACKEND
    resolved = resolve_backend(backend)
    if resolved == CSR_BACKEND:
        require_numpy("the csr backend")
    if resolved != AUTO_BACKEND:
        return resolved
    if not HAS_NUMPY:
        return DICT_BACKEND
    threshold = AUTO_CSR_THRESHOLD if auto_threshold is None else auto_threshold
    if graph.number_of_nodes() + graph.number_of_edges() >= threshold:
        return CSR_BACKEND
    if auto_threshold is None and graph.memo_deltas(SNAPSHOT_KEY) is not None:
        # The graph holds a current snapshot, or one the mutation journal
        # can patch cheaply (see ``as_csr``), so the array kernels are free
        # to use even though the graph is small.  A snapshot past journal
        # coverage was dropped by the probe: re-freezing a small graph is
        # not worth it, and keeping dead arrays alive under mutate/query
        # cycles would grow without bound.
        return CSR_BACKEND
    return DICT_BACKEND


# ----------------------------------------------------------------------
# The CSR snapshot
# ----------------------------------------------------------------------
class CSRGraph:
    """A frozen compressed-sparse-row view of an undirected graph.

    Attributes
    ----------
    n, m:
        Node and (undirected) edge counts.
    indptr:
        Length ``n + 1`` array; the neighbours of node ``i`` occupy
        ``indices[indptr[i]:indptr[i + 1]]``.
    indices:
        Length ``2 m`` array of neighbour indices, ordered exactly like the
        source graph's (insertion-ordered) adjacency.
    labels:
        ``labels[i]`` is the original node label of index ``i`` (graph
        insertion order, the same mapping :meth:`Graph.relabeled` produces).
    index:
        Inverse mapping ``{label: i}``.
    max_degree:
        Largest degree in the snapshot (drives the sigma overflow guard).

    Examples
    --------
    >>> from repro.graphs.graph import Graph
    >>> graph = Graph.from_edges([("a", "b"), ("b", "c")])
    >>> csr = CSRGraph.from_graph(graph)
    >>> csr.n, csr.m
    (3, 2)
    >>> [csr.labels[j] for j in csr.neighbors(csr.index["b"])]
    ['a', 'c']
    """

    __slots__ = (
        "n",
        "m",
        "indptr",
        "indices",
        "weights",
        "labels",
        "index",
        "identity_labels",
        "max_degree",
        "_indptr_list",
        "_indices_list",
        "_weights_list",
        "_degrees",
        "__weakref__",
    )

    #: Snapshots are frozen, so their "version" never changes.  Exposing the
    #: :class:`Graph` version attribute (plus the weakref slot above and the
    #: count/lookup methods below) lets the engine's ``SourceDAGCache`` and
    #: backend dispatch treat a bare snapshot exactly like a graph.  Chunk
    #: tasks on the CSR backend receive bare snapshots
    #: (:func:`shareable_graph`).
    _version = 0

    def __init__(self, indptr, indices, labels: List[Node], weights=None) -> None:
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.labels = labels
        self.index: Dict[Node, int] = {label: i for i, label in enumerate(labels)}
        self.n = len(labels)
        self.m = len(indices) // 2
        # When labels are already 0..n-1 the label<->index translation is the
        # identity, which lets hot paths skip the dict lookups entirely.
        self.identity_labels = all(
            isinstance(label, int) and label == i for i, label in enumerate(labels)
        )
        self.max_degree = int((indptr[1:] - indptr[:-1]).max()) if self.n else 0
        self._indptr_list: Optional[List[int]] = None
        self._indices_list: Optional[List[int]] = None
        self._weights_list: Optional[List[float]] = None
        self._degrees = None

    @property
    def is_weighted(self) -> bool:
        """Whether the snapshot carries an edge-weight array (O(1))."""
        return self.weights is not None

    def weight_list(self) -> Optional[List[float]]:
        """``weights`` as a cached Python list (``None`` when unweighted).

        The sequential Dijkstra kernel indexes this alongside
        :meth:`adjacency_lists` — plain-list subscription avoids boxing one
        numpy scalar per relaxed edge.
        """
        if self.weights is None:
            return None
        if self._weights_list is None:
            self._weights_list = self.weights.tolist()
        return self._weights_list

    def adjacency_lists(self) -> Tuple[List[int], List[int]]:
        """Return ``(indptr, indices)`` as cached Python lists.

        The sequential small-frontier fast path indexes these instead of the
        numpy arrays: plain-list subscription is several times faster than
        boxing one numpy scalar per edge.
        """
        if self._indptr_list is None:
            self._indptr_list = self.indptr.tolist()
            self._indices_list = self.indices.tolist()
        return self._indptr_list, self._indices_list

    def degrees(self):
        """Every node's degree as a cached, read-only int64 array.

        The staggered sweep reads its frontier costs from it: one gather
        instead of two ``indptr`` gathers and a subtraction per step.
        """
        if self._degrees is None:
            degrees = self.indptr[1:] - self.indptr[:-1]
            degrees.flags.writeable = False
            self._degrees = degrees
        return self._degrees

    def __reduce__(self):
        """Pickle by value: the arrays and the labels (``None`` for the
        identity labelling).

        Only ``spawn``/``forkserver`` workers unpickle payloads (``fork``
        workers inherit them).  The label index, the list caches and the
        degree array are rebuilt on demand, never shipped.
        """
        return (
            _snapshot_from_arrays,
            (
                _np.asarray(self.indptr),
                _np.asarray(self.indices),
                None if self.identity_labels else self.labels,
                None if self.weights is None else _np.asarray(self.weights),
            ),
        )

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Snapshot ``graph`` preserving its insertion-ordered adjacency.

        Weighted graphs additionally get a float64 ``weights`` array aligned
        with ``indices`` (one entry per directed adjacency slot); unit-weight
        graphs keep ``weights is None`` and the exact historical snapshot.
        Raises :class:`GraphError` when numpy is not importable.
        """
        require_numpy("a CSR snapshot")
        labels = list(graph.nodes())
        index = {label: i for i, label in enumerate(labels)}
        flat: List[int] = []
        indptr_list = [0]
        weighted = graph.is_weighted
        flat_weights: List[float] = [] if weighted else None
        for label in labels:
            if weighted:
                for neighbor, weight in graph.neighbor_weights(label):
                    flat.append(index[neighbor])
                    flat_weights.append(float(weight))
            else:
                for neighbor in graph.neighbors(label):
                    flat.append(index[neighbor])
            indptr_list.append(len(flat))
        indptr = _np.asarray(indptr_list, dtype=_np.int64)
        indices = _np.asarray(flat, dtype=_np.int64)
        weights = _np.asarray(flat_weights, dtype=_np.float64) if weighted else None
        return cls(indptr, indices, labels, weights)

    # ------------------------------------------------------------------
    def number_of_nodes(self) -> int:
        """Node count (the :class:`Graph` interface name for ``n``)."""
        return self.n

    def number_of_edges(self) -> int:
        """Undirected edge count (the :class:`Graph` interface name for ``m``)."""
        return self.m

    def has_node(self, label: Node) -> bool:
        """Whether ``label`` is part of the snapshot."""
        return label in self.index

    def degree(self, node_index: int) -> int:
        """Degree of the node at ``node_index``."""
        return int(self.indptr[node_index + 1] - self.indptr[node_index])

    def neighbors(self, node_index: int):
        """Neighbour indices of ``node_index`` (a zero-copy array slice)."""
        return self.indices[self.indptr[node_index] : self.indptr[node_index + 1]]

    def index_of(self, label: Node) -> int:
        """Translate a node label to its CSR index.

        Raises
        ------
        GraphError
            If the label is not part of the snapshot.
        """
        try:
            return self.index[label]
        except KeyError:
            raise GraphError(f"node {label!r} does not exist") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(n={self.n}, m={self.m})"


def _snapshot_from_arrays(indptr, indices, labels, weights) -> CSRGraph:
    """Unpickle a by-value snapshot (``labels is None``: labels ``0..n-1``)."""
    if labels is None:
        labels = list(range(len(indptr) - 1))
    return CSRGraph(indptr, indices, labels, weights)


def require_graph(graph, what: str) -> None:
    """Raise :class:`GraphError` when a public entry point gets a snapshot.

    The estimators and exact references run on a mutable :class:`Graph`
    (its adjacency, versioned slot and block-cut tree); a frozen
    :class:`CSRGraph` has none of them.  Chunk tasks, which receive bare
    snapshots on purpose (:func:`shareable_graph`), do not call this.
    """
    if isinstance(graph, CSRGraph):
        raise GraphError(
            f"{what} needs a Graph, got a CSRGraph snapshot; pass the Graph "
            "it was taken from"
        )


def _patched_snapshot(
    graph: Graph, old: CSRGraph, deltas: List[_delta.EdgeDelta]
) -> Optional[CSRGraph]:
    """Patch a stale snapshot with the journalled ``deltas``, or ``None``.

    Replays the journalled edge deltas against the frozen
    ``indptr``/``indices``/``weights`` arrays: only the adjacency segments
    of nodes an edit touched are rebuilt (in Python, they are tiny);
    everything else is block-copied.  The replay mirrors the dict
    adjacency's semantics exactly — an insert appends at the end of both
    endpoints' segments, a delete closes the gap preserving order, a
    reweight edits in place — so the result is **byte-identical** to
    :meth:`CSRGraph.from_graph` on the mutated graph (asserted by the
    equivalence tests).  This is the snapshot slot's ``refresh``: it runs
    only when the journal covers the gap, and returns ``None`` when a
    sanity check fails, which makes the slot rebuild.
    """
    if old.n != graph.number_of_nodes():
        return None  # node set changed without a structural marker: rebuild
    index = old.index
    old_weighted = old.weights is not None
    # Materialise the adjacency segment of each touched node once, as a
    # plain list; weights ride along (unit edges expand to 1.0 so a graph
    # turning weighted mid-journal patches cleanly).
    segments: Dict[int, List[int]] = {}
    weight_segments: Dict[int, List[float]] = {}

    def segment(a: int) -> List[int]:
        seg = segments.get(a)
        if seg is None:
            start = int(old.indptr[a])
            end = int(old.indptr[a + 1])
            seg = old.indices[start:end].tolist()
            segments[a] = seg
            if old_weighted:
                weight_segments[a] = old.weights[start:end].tolist()
            else:
                weight_segments[a] = [1.0] * len(seg)
        return seg

    try:
        for d in deltas:
            iu = index[d.u]
            iv = index[d.v]
            for a, b in ((iu, iv), (iv, iu)):
                seg = segment(a)
                wseg = weight_segments[a]
                if d.op == _delta.OP_INSERT:
                    seg.append(b)
                    wseg.append(d.new)
                elif d.op == _delta.OP_DELETE:
                    pos = seg.index(b)
                    del seg[pos]
                    del wseg[pos]
                elif d.op == _delta.OP_REWEIGHT:
                    wseg[seg.index(b)] = d.new
                else:
                    return None
    except (KeyError, ValueError):
        # The journal disagrees with the snapshot (an endpoint or edge it
        # names is missing): never patch on faith, rebuild from scratch.
        return None

    new_weighted = graph.is_weighted
    n = old.n
    total = 2 * graph.number_of_edges()
    affected = sorted(segments)
    counts = (old.indptr[1:] - old.indptr[:-1]).copy()
    for a in affected:
        counts[a] = len(segments[a])
    indptr = _np.empty(n + 1, dtype=_np.int64)
    indptr[0] = 0
    _np.cumsum(counts, out=indptr[1:])
    if int(indptr[n]) != total:
        return None
    indices = _np.empty(total, dtype=_np.int64)
    weights = _np.empty(total, dtype=_np.float64) if new_weighted else None
    src = 0  # read cursor into the old arrays
    dst = 0  # write cursor into the new arrays

    def copy_run(src: int, end: int, dst: int) -> int:
        length = end - src
        if length:
            indices[dst : dst + length] = old.indices[src:end]
            if weights is not None:
                if old_weighted:
                    weights[dst : dst + length] = old.weights[src:end]
                else:
                    weights[dst : dst + length] = 1.0
        return dst + length

    for a in affected:
        dst = copy_run(src, int(old.indptr[a]), dst)
        src = int(old.indptr[a + 1])
        seg = segments[a]
        if seg:
            indices[dst : dst + len(seg)] = seg
            if weights is not None:
                weights[dst : dst + len(seg)] = weight_segments[a]
        dst += len(seg)
    dst = copy_run(src, int(old.indptr[n]), dst)
    if dst != total:
        return None
    return CSRGraph(indptr, indices, old.labels, weights)


def as_csr(graph: Graph) -> CSRGraph:
    """Return the (cached) CSR snapshot of ``graph``.

    The snapshot lives in the graph's :data:`SNAPSHOT_KEY` slot
    (:meth:`Graph.memo`).  It is rebuilt automatically if the graph has
    mutated since it was taken — *incrementally*, when the mutation journal
    (see :mod:`repro.graphs.delta`) covers the gap: the frozen arrays are
    patched in O(|Δ| + copy) instead of re-walking the whole adjacency,
    byte-identical to a from-scratch build.  Repeated calls on an unchanged
    graph are O(1).  A :class:`CSRGraph` passes through unchanged, so code
    holding either a graph or a bare snapshot (a worker payload) can
    normalise with one call.
    """
    if isinstance(graph, CSRGraph):
        return graph
    return graph.memo(SNAPSHOT_KEY, CSRGraph.from_graph, _patched_snapshot)


def shareable_graph(graph, backend: Optional[str]):
    """The graph slot of a worker payload for a chunk task on ``backend``.

    CSR chunk tasks get the cached snapshot (:func:`as_csr`), so ``fork``
    workers inherit the arrays and ``spawn`` workers unpickle them once
    (:meth:`CSRGraph.__reduce__`) instead of rebuilding them from a
    pickled dict graph; dict chunk tasks get ``graph`` itself.
    """
    if backend == CSR_BACKEND:
        return as_csr(graph)
    return graph


# ----------------------------------------------------------------------
# Index-space kernels
# ----------------------------------------------------------------------
class CSRShortestPathDAG:
    """Index-space shortest-path DAG (the CSR analogue of ``ShortestPathDAG``).

    Attributes
    ----------
    csr:
        The snapshot the DAG was computed on.
    source:
        Source node *index*.
    dist:
        Length-``n`` distance array, ``-1`` for unreachable nodes.  Hop
        counts (int64) for BFS-built DAGs; float64 path lengths for
        weighted (Dijkstra-built) DAGs, see :attr:`weighted`.
    sigma:
        Length-``n`` shortest-path counts: an ``int64``-backed buffer (or
        float64 for the Brandes variant), or a list of Python ints if the
        overflow guard switched representations mid-BFS.  Always exact.
    order:
        Settled node indices in BFS order.
    pred_indptr, pred_indices:
        CSR layout of the predecessor lists: the predecessors of node ``v``
        (in the same append order as the dict backend) occupy
        ``pred_indices[pred_indptr[v]:pred_indptr[v + 1]]``.
    levels, level_edges:
        Per-BFS-level settled nodes and DAG edge arrays ``(u, v)`` in scan
        order — consumed by the backward passes.
    """

    __slots__ = (
        "csr",
        "source",
        "dist",
        "sigma",
        "order",
        "levels",
        "level_edges",
        "weighted",
        "_pred_indptr",
        "_pred_indices",
    )

    def __init__(self, csr, source, dist, sigma, order, levels, level_edges,
                 pred_indptr=None, pred_indices=None, weighted=False) -> None:
        self.csr = csr
        self.source = source
        self.dist = dist
        self.sigma = sigma
        self.order = order
        self.levels = levels
        self.level_edges = level_edges
        self.weighted = weighted
        self._pred_indptr = pred_indptr
        self._pred_indices = pred_indices

    @property
    def pred_indptr(self):
        if self._pred_indptr is None:
            self._build_predecessors()
        return self._pred_indptr

    @property
    def pred_indices(self):
        if self._pred_indices is None:
            self._build_predecessors()
        return self._pred_indices

    def _build_predecessors(self) -> None:
        """Assemble the predecessor CSR lazily (only path sampling needs it).

        A stable grouping of the per-level DAG edges by head node keeps each
        predecessor list in the exact order the dict backend appended it.
        """
        n = self.csr.n
        if self.level_edges:
            all_u = _np.concatenate([edges[0] for edges in self.level_edges])
            all_v = _np.concatenate([edges[1] for edges in self.level_edges])
        else:
            all_u = _np.empty(0, dtype=_np.int64)
            all_v = _np.empty(0, dtype=_np.int64)
        pred_counts = _np.bincount(all_v, minlength=n)
        pred_indptr = _np.zeros(n + 1, dtype=_np.int64)
        _np.cumsum(pred_counts, out=pred_indptr[1:])
        self._pred_indptr = pred_indptr
        self._pred_indices = all_u[_np.argsort(all_v, kind="stable")]

    def predecessors(self, node_index: int):
        """Predecessor indices of ``node_index`` in append order."""
        return self.pred_indices[
            self.pred_indptr[node_index] : self.pred_indptr[node_index + 1]
        ]

    def path_counts_to(self, target_index: int) -> Dict[int, float]:
        """Shortest-path counts *to* ``target_index`` inside the DAG.

        The backward "beta" pass of ABRA's pair estimator: walking the DAG
        from the target along predecessor lists yields, for every node ``w``
        with ``d(w) <= d(target)`` lying on at least one shortest
        source→target path, the number of shortest ``w → target`` paths.
        The accumulation replays the dict backend's exact order, so the
        float sums are bit-identical to the label-space reference
        (:meth:`ShortestPathDAG.path_counts_to`).  BFS-built DAGs walk
        level by level; weighted (Dijkstra-built) DAGs propagate in
        reverse settle order instead — there are no levels, and a node can
        be a predecessor of targets at several hop depths, so the level
        walk would propagate counts before they are complete.
        """
        if self.weighted:
            members = {target_index}
            stack = [target_index]
            while stack:
                for predecessor in self.predecessors(stack.pop()).tolist():
                    if predecessor not in members:
                        members.add(predecessor)
                        stack.append(predecessor)
            beta: Dict[int, float] = {target_index: 1.0}
            for node in reversed(self.order.tolist()):
                if node not in members:
                    continue
                value = beta[node]
                for predecessor in self.predecessors(node).tolist():
                    beta[predecessor] = beta.get(predecessor, 0.0) + value
            return beta
        beta = {target_index: 1.0}
        frontier = [target_index]
        while frontier:
            next_frontier: List[int] = []
            for node in frontier:
                for predecessor in self.predecessors(node).tolist():
                    if predecessor not in beta:
                        beta[predecessor] = 0.0
                        next_frontier.append(predecessor)
                    beta[predecessor] += beta[node]
            frontier = next_frontier
        return beta

    def sample_path_indices(self, target_index: int, rng) -> List[int]:
        """Sample a uniform shortest path as an index list (source..target).

        Consumes the RNG exactly like ``ShortestPathDAG.sample_path`` so both
        backends draw identical paths from identical seeds.
        """
        if self.dist[target_index] < 0:
            raise SamplingError(
                f"target {self.csr.labels[target_index]!r} is unreachable "
                f"from source {self.csr.labels[self.source]!r}"
            )
        path = [target_index]
        current = target_index
        sigma = self.sigma
        while current != self.source:
            preds = self.predecessors(current).tolist()
            weights = [int(sigma[p]) for p in preds]
            current = sigma_choice(preds, weights, rng)
            path.append(current)
        path.reverse()
        return path


def sigma_choice(items: Sequence, weights: Sequence[int], rng):
    """Pick one of ``items`` with probability proportional to sigma counts.

    The threshold is drawn with ``rng.randrange(total)`` over the *integer*
    total, so the choice is exact — no float accumulation bias even when the
    sigma counts (shortest-path counts) exceed ``2**53``.  Named
    ``sigma_choice`` so "weighted" unambiguously refers to *edge weights*
    across the codebase; the probability weights here are path counts.

    Raises
    ------
    SamplingError
        If the lengths differ (a silent ``zip`` truncation would otherwise
        return an arbitrary item), or if the total weight is not positive.
    """
    if len(items) != len(weights):
        raise SamplingError(
            f"sigma_choice needs one weight per item, got {len(items)} "
            f"items but {len(weights)} weights"
        )
    total = 0
    for weight in weights:
        total += weight
    if total <= 0:
        raise SamplingError("cannot sample from an empty/zero-weight set")
    threshold = rng.randrange(total)
    cumulative = 0
    for item, weight in zip(items, weights):
        cumulative += weight
        if threshold < cumulative:
            return item
    return items[-1]


# ---------------------- the level-expansion kernel --------------------
#
# The expansion kernel is *hybrid*: each BFS level is expanded either with
# vectorised array operations (large frontiers — social networks collapse to
# a handful of huge levels) or with a sequential Python loop over cached
# adjacency lists (small frontiers — road networks have hundreds of thin
# levels where per-call numpy overhead would dominate).  Both expansion
# strategies visit edges in exactly the same order, so the choice never
# affects results, only speed.  Traversal state lives in ``array`` buffers
# shared with numpy views (``np.frombuffer``), giving the sequential path
# fast C-array subscription and the vectorised path zero-copy arrays.
#
# :class:`_BatchSweep` below is the ONLY copy of this hybrid expansion and
# of the int64→Python-int sigma overflow guard.  Every level-synchronous
# consumer — ``csr_bfs``, ``csr_shortest_path_dag``, ``csr_brandes`` and
# the batched :func:`multi_source_sweep` — drives the same kernel, so the
# expansion logic cannot silently diverge between call sites again.  The
# one exception is :class:`_StaggeredSweep`, whose slots each grow at their
# own depth (the stacked balanced bidirectional search); it reuses the same
# threshold, scatter and overflow test.

#: Frontiers whose total degree falls below this are expanded sequentially.
_SEQUENTIAL_EDGE_THRESHOLD = 192

#: ``direction`` values accepted by order-insensitive sweeps.
TOP_DOWN = "top-down"
DIRECTION_AUTO = "auto"
_DIRECTIONS = (TOP_DOWN, DIRECTION_AUTO)

#: Direction-optimisation switch (Beamer-style): a level goes bottom-up when
#: the unexplored edge cost is at most this multiple of the frontier's edge
#: cost.  Our bottom-up step has no per-vertex early exit (it is a single
#: vectorised gather), so the classic alpha=14 would switch far too early;
#: the break-even is roughly "one unexplored gather costs what one frontier
#: gather plus dedup/scatter costs".
_BOTTOM_UP_ALPHA = 2

#: ``int64`` ceiling for shortest-path counts.  A level expansion adds at
#: most ``max_degree`` predecessor counts per node, so once the largest
#: frontier count reaches ``2**63 / max_degree`` the kernels switch sigma to
#: arbitrary-precision Python ints *before* the first wrap can happen.
_SIGMA_INT64_LIMIT = 2**63

#: :class:`_StaggeredSweep` keeps ``dist`` as int32, so a vectorised step's
#: dedup marks (one per scanned entry) must stay below this.
_DIST_LIMIT = 2**31 - 1

#: :meth:`_StaggeredSweep.park` resets a sweep's whole prefix with one
#: contiguous fill once its log covers at least ``1 / 2**_PARK_FILL_SHIFT``
#: of it, and only the logged entries below that.
_PARK_FILL_SHIFT = 3


def _sigma_may_overflow(frontier_max_sigma: int, max_degree: int) -> bool:
    """True when the next level's counts could exceed the int64 range."""
    return frontier_max_sigma * max_degree >= _SIGMA_INT64_LIMIT


def _shared_state(n: int, typecode: str):
    """Return ``(buffer, numpy view)`` over the same ``n``-element memory."""
    store = array(typecode, bytes(8 * n))
    view = _np.frombuffer(store, dtype=_np.int64 if typecode == "q" else _np.float64)
    return store, view


def _np_first_occurrence(values, scratch):
    """Deduplicate ``values`` keeping the first occurrence of each element.

    O(k): writing positions back-to-front makes the *first* occurrence the
    last (surviving) write into ``scratch``, identifying it without a sort.
    """
    size = values.size
    if size <= 1:
        return values
    positions = _np.arange(size, dtype=_np.int64)
    scratch[values[::-1]] = positions[::-1]
    return values[scratch[values] == positions]


class _BatchSweep:
    """Level-synchronous sweep state over ``B`` stacked sources.

    This class is the single copy of the hybrid vectorised/sequential
    expand-one-level kernel *and* of the int64→Python-int sigma overflow
    guard (see the module comment above).  It runs ``B`` independent
    single-source searches over one flattened state space of size ``B * n``:
    source slot ``k`` owns the flat ids ``k * n .. k * n + n - 1`` and a
    node ``v`` in slot ``k`` is the flat id ``k * n + v``.  With ``B == 1``
    flat ids equal node ids and the sweep *is* the single-source kernel; with
    ``B > 1`` the per-slot thin frontiers merge into one fat frontier, which
    is what makes high-diameter (road-style) graphs vectorise.

    Per-slot determinism: the flattened frontier keeps every slot's nodes in
    that slot's discovery order, so the edge stream restricted to one slot is
    exactly the edge stream the single-source kernel scans.  All per-node
    accumulations (integer and float sigma, Brandes dependencies) therefore
    see the same additions in the same order, and batched results are
    bit-identical to per-source results.

    Parameters
    ----------
    csr:
        The snapshot to sweep over.
    roots:
        One source node index per slot.
    sigma_mode:
        ``None`` (distances only), ``"int"`` (exact shortest-path counts with
        the overflow guard) or ``"float"`` (Brandes-style float counts).
    track_edges:
        Record the per-level DAG edge arrays ``(u, v)`` in scan order (needed
        by predecessor reconstruction and the Brandes backward pass).
    """

    __slots__ = ("csr", "batch", "n", "size", "float_sigma", "track_edges",
                 "dist_store", "dist", "sigma", "sigma_view", "frontier",
                 "depth", "levels", "level_edges", "frontier_max_sigma",
                 "scratch", "direction", "bottom_up_levels",
                 "_explored_cost", "_frontier_cost", "_unvisited")

    def __init__(self, csr: CSRGraph, roots, *, sigma_mode: Optional[str] = None,
                 track_edges: bool = False, direction: str = TOP_DOWN) -> None:
        if track_edges and sigma_mode is None:
            # Only the sigma-tracking loops record DAG edges; allowing the
            # combination would let the two expansion strategies disagree on
            # level_edges content, breaking the strategy-never-affects-
            # results invariant.
            raise ValueError("track_edges requires a sigma_mode")
        if direction not in _DIRECTIONS:
            raise ValueError(
                f"direction={direction!r} is not valid; choose one of {_DIRECTIONS}"
            )
        if direction == DIRECTION_AUTO and (sigma_mode is not None or track_edges):
            # Bottom-up discovery settles a level in node-index order, not in
            # edge-scan order; only sweeps whose results are pure functions
            # of the distance labels (no sigma, no recorded DAG edges, no
            # consumed ``levels`` ordering) may opt in.
            raise ValueError(
                "direction='auto' requires an order-insensitive sweep "
                "(no sigma_mode, no track_edges)"
            )
        self.csr = csr
        self.batch = len(roots)
        self.n = csr.n
        self.size = self.batch * csr.n
        self.float_sigma = sigma_mode == "float"
        self.track_edges = track_edges
        n = csr.n
        flat_roots = (
            list(roots) if self.batch == 1
            else [slot * n + root for slot, root in enumerate(roots)]
        )
        self.dist_store, self.dist = _shared_state(self.size, "q")
        self.dist.fill(-1)
        self.scratch = _np.empty(self.size, dtype=_np.int64)
        if sigma_mode is None:
            self.sigma = None
            self.sigma_view = None
        else:
            # ``sigma`` is what gets indexed element-wise: the shared buffer
            # while counts fit in int64, a plain list of Python ints after
            # the overflow guard trips (float sigma — the Brandes case —
            # never overflows).
            self.sigma, self.sigma_view = _shared_state(
                self.size, "d" if self.float_sigma else "q"
            )
        for flat in flat_roots:
            self.dist_store[flat] = 0
            if self.sigma is not None:
                self.sigma[flat] = 1.0 if self.float_sigma else 1
        self.frontier: object = flat_roots
        self.depth = 0
        self.levels: List[object] = [_np.asarray(flat_roots, dtype=_np.int64)]
        self.level_edges: List[Tuple[object, object]] = []
        self.frontier_max_sigma = 1
        self.direction = direction
        self.bottom_up_levels = 0
        self._unvisited = None
        # Cumulative degree of every already-*expanded* frontier.  Each node
        # enters exactly one frontier, so the degree of the undiscovered
        # nodes — what one bottom-up step would scan — is always
        # ``batch * 2m - explored - current frontier cost``, with no extra
        # per-level scans.
        self._explored_cost = 0
        # Total degree of the current frontier, summed as its nodes are
        # discovered, so the balanced bidirectional search can compare
        # frontier costs on every step without re-summing either side.
        indptr, _ = csr.adjacency_lists()
        self._frontier_cost = int(
            sum(indptr[root + 1] - indptr[root] for root in roots)
        )

    # ------------------------------------------------------------------
    @property
    def has_frontier(self) -> bool:
        return len(self.frontier) > 0

    def frontier_cost(self) -> int:
        """Total degree of the current frontier (the cost of one expansion)."""
        return self._frontier_cost

    def expand(self) -> int:
        """Expand one complete BFS level; return the number of scanned entries.

        The level is always recorded — possibly empty when the sweep is
        exhausted — so ``levels``/``level_edges`` stay aligned with
        ``depth``; drivers that want no trailing empty level call
        :meth:`trim` once the loop ends.
        """
        frontier_cost = self._frontier_cost
        # Shortest-path counts grow multiplicatively per level (binomially on
        # grids); leave the int64 buffer for exact Python ints before the
        # next expansion could wrap.  Float sigma never overflows.
        if (
            self.sigma_view is not None
            and not self.float_sigma
            and _sigma_may_overflow(self.frontier_max_sigma, self.csr.max_degree)
        ):
            self.sigma = self.sigma_view.tolist()
            self.sigma_view = None
        if (
            self.direction == DIRECTION_AUTO
            and frontier_cost >= _SEQUENTIAL_EDGE_THRESHOLD
            and self.batch * 2 * self.csr.m - self._explored_cost
            <= frontier_cost * (_BOTTOM_UP_ALPHA + 1)
        ):
            scanned = self._expand_bottom_up()
        elif frontier_cost >= _SEQUENTIAL_EDGE_THRESHOLD:
            scanned = self._expand_vectorised()
            self._unvisited = None
        else:
            scanned = self._expand_sequential()
            self._unvisited = None
        self._explored_cost += frontier_cost
        self.depth += 1
        return scanned

    def trim(self) -> None:
        """Drop a trailing empty level recorded by the final expansion."""
        if len(self.levels) > 1 and len(self.levels[-1]) == 0:
            self.levels.pop()
            if self.track_edges and self.level_edges:
                self.level_edges.pop()

    # ------------------------------------------------------------------
    def _expand_sequential(self) -> int:
        """Expand via a Python loop over cached adjacency lists."""
        indptr, indices = self.csr.adjacency_lists()
        frontier = self.frontier
        if not isinstance(frontier, list):
            frontier = frontier.tolist()
        n = self.n
        single = self.batch == 1
        next_depth = self.depth + 1
        dist = self.dist_store
        sigma = self.sigma
        track_edges = self.track_edges
        fresh: List[int] = []
        edge_u: List[int] = []
        edge_v: List[int] = []
        scanned = 0
        fresh_cost = 0
        if sigma is None:
            for flat in frontier:
                node = flat if single else flat % n
                base = flat - node
                start = indptr[node]
                stop = indptr[node + 1]
                scanned += stop - start
                for position in range(start, stop):
                    target = indices[position]
                    neighbor = base + target
                    if dist[neighbor] < 0:
                        dist[neighbor] = next_depth
                        fresh.append(neighbor)
                        fresh_cost += indptr[target + 1] - indptr[target]
        else:
            for flat in frontier:
                node = flat if single else flat % n
                base = flat - node
                sigma_flat = sigma[flat]
                for position in range(indptr[node], indptr[node + 1]):
                    target = indices[position]
                    neighbor = base + target
                    scanned += 1
                    known = dist[neighbor]
                    if known < 0:
                        dist[neighbor] = next_depth
                        fresh.append(neighbor)
                        fresh_cost += indptr[target + 1] - indptr[target]
                        known = next_depth
                    if known == next_depth:
                        sigma[neighbor] += sigma_flat
                        if track_edges:
                            edge_u.append(flat)
                            edge_v.append(neighbor)
            if fresh and not self.float_sigma and self.sigma_view is not None:
                self.frontier_max_sigma = max(sigma[flat] for flat in fresh)
        self.levels.append(_np.asarray(fresh, dtype=_np.int64))
        if track_edges:
            self.level_edges.append(
                (
                    _np.asarray(edge_u, dtype=_np.int64),
                    _np.asarray(edge_v, dtype=_np.int64),
                )
            )
        self.frontier = fresh
        self._frontier_cost = fresh_cost
        return scanned

    def _expand_vectorised(self) -> int:
        """Expand via numpy gather/scatter over the whole frontier at once."""
        indptr, indices = self.csr.indptr, self.csr.indices
        frontier = self.frontier
        if isinstance(frontier, list):
            frontier = _np.asarray(frontier, dtype=_np.int64)
        nodes = frontier if self.batch == 1 else frontier % self.n
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        total = int(counts.sum())
        empty = _np.empty(0, dtype=_np.int64)
        if total == 0:
            self.levels.append(empty)
            if self.track_edges:
                self.level_edges.append((empty, empty))
            self.frontier = empty
            self._frontier_cost = 0
            return 0
        # Concatenating the per-node adjacency slices in frontier order
        # reproduces exactly the edge scan order of the sequential dict BFS.
        row_offsets = _np.cumsum(counts)
        row_offsets -= counts
        positions = _np.arange(total, dtype=_np.int64)
        positions += _np.repeat(starts - row_offsets, counts)
        nbrs = indices[positions]
        if self.batch > 1:
            nbrs = nbrs + _np.repeat(frontier - nodes, counts)
        srcs = _np.repeat(frontier, counts) if self.sigma is not None else None
        next_depth = self.depth + 1
        dist = self.dist
        # In a level-synchronous BFS every neighbour that was undiscovered
        # when the level started sits at the next depth, so the unseen mask
        # doubles as the DAG-edge mask (in dict scan order).
        unseen = dist[nbrs] < 0
        edge_v = nbrs[unseen]
        fresh = _np_first_occurrence(edge_v, self.scratch)
        dist[fresh] = next_depth
        if self.sigma is not None:
            edge_u = srcs[unseen]
            if self.sigma_view is not None:
                _accumulate_level(
                    self.sigma_view, edge_v, self.sigma_view[edge_u],
                    self.float_sigma, self.size,
                )
                if not self.float_sigma and fresh.size:
                    self.frontier_max_sigma = int(self.sigma_view[fresh].max())
            else:
                sigma = self.sigma
                for tail, head in zip(edge_u.tolist(), edge_v.tolist()):
                    sigma[head] += sigma[tail]
            if self.track_edges:
                self.level_edges.append((edge_u, edge_v))
        self.levels.append(fresh)
        self.frontier = fresh
        fresh_nodes = fresh if self.batch == 1 else fresh % self.n
        self._frontier_cost = int(
            (indptr[fresh_nodes + 1] - indptr[fresh_nodes]).sum()
        )
        return total


    def _expand_bottom_up(self) -> int:
        """Expand one level bottom-up: scan *undiscovered* nodes for frontier
        parents instead of scattering from the frontier.

        On very fat levels — social graphs collapse most of the graph into
        two or three levels, and batched road sweeps merge dozens of thin
        frontiers into one fat one — the set of still-undiscovered nodes is
        smaller (in edge cost) than the frontier, so one gather over the
        candidates beats the top-down gather + dedup + scatter.  The level's
        distance labels are identical to top-down's; only the order in which
        the fresh nodes are recorded differs (node-index order), which is
        why this strategy is restricted to order-insensitive sweeps.
        """
        indptr, indices = self.csr.indptr, self.csr.indices
        n = self.n
        cand = self._unvisited
        if cand is None:
            cand = _np.nonzero(self.dist < 0)[0]
            nodes = cand if self.batch == 1 else cand % n
            # Isolated nodes can never be discovered; dropping them keeps
            # every reduceat segment non-empty.
            cand = cand[indptr[nodes + 1] - indptr[nodes] > 0]
        empty = _np.empty(0, dtype=_np.int64)
        self.bottom_up_levels += 1
        if cand.size == 0:
            self.levels.append(empty)
            self.frontier = empty
            self._frontier_cost = 0
            self._unvisited = cand
            return 0
        nodes = cand if self.batch == 1 else cand % n
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        total = int(counts.sum())
        row_offsets = _np.cumsum(counts)
        row_offsets -= counts
        positions = _np.arange(total, dtype=_np.int64)
        positions += _np.repeat(starts - row_offsets, counts)
        nbrs = indices[positions]
        if self.batch > 1:
            nbrs = nbrs + _np.repeat(cand - nodes, counts)
        # A candidate joins the level iff any neighbour sits on the current
        # frontier (distance == depth); maximum.reduceat over the boolean
        # per-edge hits is a segmented logical OR.
        at_frontier = self.dist[nbrs] == self.depth
        hit = _np.maximum.reduceat(at_frontier, row_offsets)
        fresh = cand[hit]
        self.dist[fresh] = self.depth + 1
        self.levels.append(fresh)
        self.frontier = fresh
        self._frontier_cost = int(counts[hit].sum())
        self._unvisited = cand[~hit]
        return total


class _StaggeredSweep:
    """Exact-sigma sweep over ``K`` stacked sources whose slots advance
    independently.

    The stacked balanced bidirectional search runs its pairs on it: each
    :meth:`expand_slots` step grows a chosen subset of slots by one complete
    level, every slot at its own depth, while the other slots stay as they
    are.  Per slot the edge stream is exactly the single-source stream of
    :class:`_BatchSweep` — the same sequential/vectorised split at
    ``_SEQUENTIAL_EDGE_THRESHOLD``, the same order-preserving
    :func:`_accumulate_level` and the same int64 overflow guard — so
    distances and counts are too.

    Ids are node-major over a power-of-two slot count: node ``v`` of slot
    ``k`` is ``(v << shift) | k``, so a node and its slot are one shift and
    one mask away, and slots ``2j``/``2j + 1`` hold the same node at ids that
    differ in the lowest bit.  Every node a slot discovers is appended to
    ``log``, one contiguous run per slot and step; ``slot_levels[k][d]`` is
    the ``(start, stop)`` run of slot ``k``'s depth-``d`` nodes in discovery
    order, and ``slot_depth``, ``slot_cost`` (total degree) and
    ``slot_size`` describe every slot's current frontier.

    Once a step completes, ``log[:log_size]`` names every ``dist`` and
    ``sigma`` entry the sweep has written, which is what lets :meth:`park`
    clean the arrays for a :class:`SweepSpare`.  ``dist``, ``sigma_view``
    and ``log`` are the first ``size`` entries of ``arrays``, which a
    larger sweep may have allocated.  ``dist`` is int32: it holds depths
    (below ``n``) and a vectorised step's negative dedup marks (at most its
    scanned entries, which :meth:`_expand_vectorised` checks); the log
    stays int64, since flat ids pass ``2**31`` on large graphs.
    """

    __slots__ = ("csr", "shift", "size", "arrays", "dist", "dist_store",
                 "sigma", "sigma_view", "log", "log_store", "log_size",
                 "frontier_max_sigma", "slot_levels", "slot_depth",
                 "slot_cost", "slot_size")

    def __init__(
        self, csr: CSRGraph, roots: Sequence[int],
        spare: Optional["SweepSpare"] = None,
    ) -> None:
        batch = len(roots)
        self.csr = csr
        self.shift = shift = (batch - 1).bit_length()
        self.size = size = csr.n << shift
        # numpy buffers, with memoryviews for the element-wise loops.
        arrays = None if spare is None else spare.take(size)
        if arrays is None:
            arrays = (
                _np.full(size, -1, dtype=_np.int32),
                _np.zeros(size, dtype=_np.int64),
                _np.empty(size, dtype=_np.int64),
            )
        self.arrays = arrays
        self.dist, self.sigma_view, self.log = (array[:size] for array in arrays)
        self.dist_store = memoryview(self.dist)
        self.sigma = memoryview(self.sigma_view)
        self.log_store = memoryview(self.log)
        for slot, root in enumerate(roots):
            flat = (root << shift) | slot
            self.dist_store[flat] = 0
            self.sigma[flat] = 1
            self.log_store[slot] = flat
        self.log_size = batch
        self.frontier_max_sigma = 1
        self.slot_levels = [[(slot, slot + 1)] for slot in range(batch)]
        self.slot_depth = [0] * batch
        self.slot_cost = csr.degrees()[roots].tolist()
        self.slot_size = [1] * batch

    def expand_slots(self, slots: Sequence[int]) -> None:
        """Grow each slot in ``slots`` (distinct) by one complete level.

        The new levels land in ``log`` in the order of ``slots``.
        """
        costs = self.slot_cost
        total = 0
        for slot in slots:
            total += costs[slot]
        # A running maximum over every discovered count bounds any frontier
        # a step may expand, whatever the slot depths; see _BatchSweep.expand.
        if self.sigma_view is not None and _sigma_may_overflow(
            self.frontier_max_sigma, self.csr.max_degree
        ):
            self.sigma = self.sigma_view.tolist()
            self.sigma_view = None
        if total >= _SEQUENTIAL_EDGE_THRESHOLD:
            self._expand_vectorised(slots)
        else:
            self._expand_sequential(slots)

    def _expand_sequential(self, slots: Sequence[int]) -> None:
        indptr, indices = self.csr.adjacency_lists()
        shift = self.shift
        dist = self.dist_store
        sigma = self.sigma
        log = self.log_store
        start = write = self.log_size
        for slot in slots:
            levels = self.slot_levels[slot]
            first, stop = levels[-1]
            next_depth = self.slot_depth[slot] + 1
            level_start = write
            fresh_cost = 0
            for position in range(first, stop):
                flat = log[position]
                node = flat >> shift
                sigma_flat = sigma[flat]
                for entry in range(indptr[node], indptr[node + 1]):
                    target = indices[entry]
                    neighbor = (target << shift) | slot
                    known = dist[neighbor]
                    if known < 0:
                        dist[neighbor] = next_depth
                        log[write] = neighbor
                        write += 1
                        fresh_cost += indptr[target + 1] - indptr[target]
                        known = next_depth
                    if known == next_depth:
                        sigma[neighbor] += sigma_flat
            levels.append((level_start, write))
            self.slot_depth[slot] = next_depth
            self.slot_cost[slot] = fresh_cost
            self.slot_size[slot] = write - level_start
        self.log_size = write
        if self.sigma_view is not None and write > start:
            self.frontier_max_sigma = max(
                self.frontier_max_sigma,
                max(sigma[log[position]] for position in range(start, write)),
            )

    def _expand_vectorised(self, slots: Sequence[int]) -> None:
        indptr, indices = self.csr.indptr, self.csr.indices
        degrees = self.csr.degrees()
        shift = self.shift
        mask = (1 << shift) - 1
        log = self.log
        levels = self.slot_levels
        # The chosen frontiers, concatenated in slot order: each slot's
        # edges keep their single-source scan order.
        frontier = _np.concatenate(
            [log[first:stop] for first, stop in (levels[slot][-1] for slot in slots)]
        )
        nodes = frontier >> shift
        starts = indptr[nodes]
        counts = degrees[nodes]
        row_offsets = _np.cumsum(counts)
        total = int(row_offsets[-1])
        if total >= _DIST_LIMIT:
            raise GraphError(
                f"a stacked step scans {total} entries; its dedup marks "
                "must stay below 2**31"
            )
        row_offsets -= counts
        positions = _np.arange(total, dtype=_np.int64)
        positions += _np.repeat(starts - row_offsets, counts)
        tails = _np.repeat(frontier, counts)
        nbrs = (indices[positions] << shift) | (tails & mask)
        dist = self.dist
        unseen = dist[nbrs] < 0
        edge_v = nbrs[unseen]
        edge_u = tails[unseen]
        # Deduplicate in first-occurrence order through ``dist`` itself:
        # mark each head with its (negative) edge position, writing back to
        # front so the first occurrence's mark survives.
        marks = _np.arange(-edge_v.size - 1, -1, dtype=_np.int32)
        dist[edge_v[::-1]] = marks[::-1]
        fresh = edge_v[dist[edge_v] == marks]
        # Every tail of a slot sits at that slot's depth, so each head gets
        # its slot's next depth (duplicate heads write the same value).
        dist[edge_v] = dist[edge_u] + 1
        if self.sigma_view is not None:
            _accumulate_level(
                self.sigma_view, edge_v, self.sigma_view[edge_u], False, self.size
            )
            if fresh.size:
                self.frontier_max_sigma = max(
                    self.frontier_max_sigma, int(self.sigma_view[fresh].max())
                )
        else:
            sigma = self.sigma
            for tail, head in zip(edge_u.tolist(), edge_v.tolist()):
                sigma[head] += sigma[tail]
        base = self.log_size
        log[base : base + fresh.size] = fresh
        self.log_size = base + fresh.size
        # ``fresh`` is grouped by slot in the order of ``slots``: split it
        # into the chosen slots' new levels and their degree sums.
        fresh_slots = fresh & mask
        sizes = _np.bincount(fresh_slots, minlength=mask + 1).tolist()
        costs = _np.bincount(
            fresh_slots, degrees[fresh >> shift], minlength=mask + 1
        ).tolist()
        for slot in slots:
            size = sizes[slot]
            levels[slot].append((base, base + size))
            base += size
            self.slot_depth[slot] += 1
            self.slot_cost[slot] = int(costs[slot])
            self.slot_size[slot] = size

    def park(self, spare: "SweepSpare") -> None:
        """Reset the entries ``log`` recorded and hand the arrays to ``spare``,
        unless it already holds a larger set.

        Entries past the sweep's prefix were never written, so a log that
        covers a large share of the prefix resets it with one contiguous
        fill, and a shorter one resets just the logged entries.  Call only
        once the sweep and everything reading it are done, and never after
        an exception: an interrupted step may have written entries it had
        not logged yet.  A sweep whose overflow guard tripped no longer
        holds an int64 ``sigma`` and is not recycled.
        """
        if self.sigma_view is None:
            return
        if self.log_size >= self.size >> _PARK_FILL_SHIFT:
            self.dist.fill(-1)
            self.sigma_view.fill(0)
        else:
            written = self.log[: self.log_size]
            self.dist[written] = -1
            self.sigma_view[written] = 0
        parked = spare.arrays
        if parked is None or parked[0].size < self.arrays[0].size:
            spare.arrays = self.arrays


class SweepSpare:
    """Caller-owned slot for the clean arrays of one finished staggered sweep.

    A caller that runs stacked searches back to back passes the same spare
    to each :func:`staggered_sweep`: a sweep over ``n << shift`` ids runs on
    prefix views of the parked arrays whenever they hold at least that many
    entries, and :meth:`_StaggeredSweep.park` returns the whole set clean
    after a search completes, which saves allocating and faulting in
    ``n << shift`` int32 and ``2 * (n << shift)`` int64 entries per
    search.  So the short sub-batches that end a chunk or redraw rejected
    pairs reuse the full-size set instead of evicting it.  A larger sweep
    allocates its own arrays and leaves the smaller parked set in place;
    parking keeps the larger set.  The spare is empty while a sweep runs on
    its arrays, so a search that raises simply drops them.  It pickles
    empty: its arrays live for one serial run, or one worker pool in each
    worker.
    """

    __slots__ = ("arrays",)

    def __init__(self) -> None:
        self.arrays: Optional[Tuple[object, object, object]] = None

    def __reduce__(self):
        return (SweepSpare, ())

    def take(self, size: int):
        """Return the parked ``(dist, sigma, log)`` and empty the spare if
        they hold at least ``size`` entries, else ``None``."""
        arrays = self.arrays
        if arrays is None or arrays[0].size < size:
            return None
        self.arrays = None
        return arrays


def staggered_sweep(
    csr: CSRGraph, roots: Sequence[int], spare: Optional[SweepSpare] = None
) -> _StaggeredSweep:
    """Exact-sigma sweep over ``roots`` whose slots advance independently.

    Drive it with ``expand_slots``; the stacked balanced bidirectional
    search (:mod:`repro.graphs.bidirectional`) runs its pairs on it.  With
    a ``spare`` the sweep reuses its parked arrays (see :class:`SweepSpare`).
    """
    return _StaggeredSweep(csr, roots, spare)


def _accumulate_level(totals, heads, values, as_float: bool, size: int) -> None:
    """Scatter-add ``values`` into ``totals[heads]`` preserving input order.

    Every head receives *all* of its contributions within this one call while
    its total is still zero, so per-bin summation in input order reproduces
    the dict backend's float rounding exactly.  Both float strategies have
    that property — ``bincount`` sums each bin sequentially in input order,
    ``np.add.at`` applies the additions one by one — so the choice between
    them (bincount allocates ``size`` floats per call, add.at pays a high
    per-element cost) affects speed only.  Integer totals always use
    ``np.add.at`` (bincount would go through float64 and lose exactness past
    ``2**53``).
    """
    if not as_float:
        _np.add.at(totals, heads, values)
    elif heads.size:
        if 8 * heads.size >= size:
            totals += _np.bincount(heads, weights=values, minlength=size)
        else:
            _np.add.at(totals, heads, values)


def _backward_dependencies(levels, level_edges, sigma, size, scratch):
    """Brandes' backward accumulation over a (possibly batched) sweep.

    Bit-identical to the dict implementation: the edge sequence of each level
    is re-ordered so contributions hit ``delta`` in exactly the order the
    sequential ``for node in reversed(order)`` loop produces (per slot, for
    batched sweeps — flat ids never collide across slots), and each tail's
    contributions land while its ``delta`` entry is still zero (its own
    additions happen one level earlier), so per-level scatter-adds preserve
    the rounding order too.  Returns the flat ``delta`` array.
    """
    delta_store, delta = _shared_state(size, "d")
    for level in range(len(levels) - 1, 0, -1):
        edge_u, edge_v = level_edges[level - 1]
        count = edge_u.size
        if count == 0:
            continue
        if count < _SEQUENTIAL_EDGE_THRESHOLD:
            # Sequential: group predecessor edges per head, walk heads in
            # reverse discovery order — the dict backend's exact sequence.
            per_head: Dict[int, List[int]] = {}
            for tail, head in zip(edge_u.tolist(), edge_v.tolist()):
                per_head.setdefault(head, []).append(tail)
            for head in reversed(levels[level].tolist()):
                tails = per_head.get(head)
                if not tails:
                    continue
                coefficient = 1.0 + delta_store[head]
                sigma_head = sigma[head]
                for tail in tails:
                    delta_store[tail] += sigma[tail] / sigma_head * coefficient
        else:
            nodes = levels[level]
            scratch[nodes] = _np.arange(nodes.size)
            reorder = _np.argsort(nodes.size - 1 - scratch[edge_v], kind="stable")
            heads = edge_v[reorder]
            tails = edge_u[reorder]
            contributions = sigma[tails] / sigma[heads] * (1.0 + delta[heads])
            _accumulate_level(delta, tails, contributions, True, size)
    return delta


# ------------------------- public kernels -----------------------------
def csr_bfs(csr: CSRGraph, source: int, *, max_depth: Optional[int] = None):
    """BFS from index ``source``; returns ``(dist, order)``.

    ``dist`` holds ``-1`` for unreachable nodes; ``order`` lists the settled
    indices in discovery order (the dict backend's result-dict key order).
    """
    sweep = _BatchSweep(csr, (source,))
    while sweep.has_frontier and (max_depth is None or sweep.depth < max_depth):
        sweep.expand()
    sweep.trim()
    levels = sweep.levels
    order = _np.concatenate(levels) if len(levels) > 1 else levels[0]
    return sweep.dist, order


def csr_shortest_path_dag(
    csr: CSRGraph,
    source: int,
    *,
    max_depth: Optional[int] = None,
    float_sigma: bool = False,
) -> CSRShortestPathDAG:
    """Build the shortest-path DAG rooted at index ``source``."""
    sweep = _BatchSweep(
        csr, (source,),
        sigma_mode="float" if float_sigma else "int",
        track_edges=True,
    )
    while sweep.has_frontier and (max_depth is None or sweep.depth < max_depth):
        sweep.expand()
    sweep.trim()
    levels = sweep.levels
    order = _np.concatenate(levels) if len(levels) > 1 else levels[0]
    sigma = sweep.sigma_view if float_sigma else sweep.sigma
    return CSRShortestPathDAG(
        csr, source, sweep.dist, sigma, order, levels, sweep.level_edges
    )


def csr_brandes(csr: CSRGraph, source: int):
    """Brandes single-source dependencies from index ``source``.

    Returns ``(delta, order, dist)`` where ``delta[v]`` is the dependency of
    the source on ``v`` (``delta[source]`` carries a partial sum the caller
    must ignore, mirroring the dict implementation's ``pop``).
    """
    sweep = _BatchSweep(csr, (source,), sigma_mode="float", track_edges=True)
    while sweep.has_frontier:
        sweep.expand()
    sweep.trim()
    levels = sweep.levels
    order = _np.concatenate(levels) if len(levels) > 1 else levels[0]
    delta = _backward_dependencies(
        levels, sweep.level_edges, sweep.sigma_view, sweep.size, sweep.scratch
    )
    return delta, order, sweep.dist


# ----------------------- the weighted SSSP engine ---------------------
#
# The second engine behind the one SSSP abstraction (see
# :mod:`repro.graphs.sssp`): a deterministic binary-heap Dijkstra over the
# same flat CSR arrays.  Heap entries are ``(distance, push counter, node)``
# — the counter breaks distance ties by *push order*, which is a pure
# function of the edge scan order (== dict insertion order), so the dict
# reference in :mod:`repro.graphs.traversal` and this kernel settle nodes
# in the same order, accumulate sigma in the same order and return
# bit-identical float distances.  Shortest-path counts are plain Python
# ints throughout (exact past ``2**63`` by construction — no overflow
# guard needed, unlike the int64 buffers of the BFS engine).

def csr_dijkstra_dag(
    csr: CSRGraph, source: int, *, float_sigma: bool = False
) -> CSRShortestPathDAG:
    """Weighted shortest-path DAG rooted at index ``source``.

    Runs Dijkstra over the snapshot's ``weights`` array (implicit ``1.0``
    per edge when the snapshot is unweighted — the forced-weighted A/B
    path).  Returns a :class:`CSRShortestPathDAG` with ``weighted=True``:
    ``dist`` is a float row (``-1.0`` = unreachable), ``sigma`` holds exact
    counts (Python ints, or floats in Brandes mode), ``order`` is the
    settle order, and the predecessor CSR is materialised eagerly (there
    are no BFS levels to rebuild it from lazily).
    """
    indptr, indices = csr.adjacency_lists()
    weight_list = csr.weight_list()
    n = csr.n
    dist: List[Optional[float]] = [None] * n
    sigma: List = [0.0 if float_sigma else 0] * n
    preds: List[List[int]] = [[] for _ in range(n)]
    order: List[int] = []
    dist[source] = 0.0
    sigma[source] = 1.0 if float_sigma else 1
    settled = bytearray(n)
    heap: List[Tuple[float, int, int]] = [(0.0, 0, source)]
    counter = 1
    while heap:
        d, _, node = heappop(heap)
        if settled[node]:
            continue
        settled[node] = 1
        order.append(node)
        sigma_node = sigma[node]
        for position in range(indptr[node], indptr[node + 1]):
            neighbor = indices[position]
            weight = weight_list[position] if weight_list is not None else 1.0
            candidate = d + weight
            known = dist[neighbor]
            if known is None or candidate < known:
                dist[neighbor] = candidate
                sigma[neighbor] = sigma_node
                preds[neighbor] = [node]
                heappush(heap, (candidate, counter, neighbor))
                counter += 1
            elif candidate == known:
                # Positive weights guarantee ``neighbor`` is unsettled here,
                # so its count is still accumulating.
                sigma[neighbor] += sigma_node
                preds[neighbor].append(node)
    pred_indptr = [0] * (n + 1)
    pred_indices: List[int] = []
    for node in range(n):
        pred_indices.extend(preds[node])
        pred_indptr[node + 1] = len(pred_indices)
    dist_out = _np.asarray(
        [-1.0 if value is None else value for value in dist], dtype=_np.float64
    )
    return CSRShortestPathDAG(
        csr, source, dist_out, sigma, _np.asarray(order, dtype=_np.int64),
        None, None,
        pred_indptr=_np.asarray(pred_indptr, dtype=_np.int64),
        pred_indices=_np.asarray(pred_indices, dtype=_np.int64),
        weighted=True,
    )


def csr_dijkstra_distances(csr: CSRGraph, source: int, *, with_order: bool = False):
    """Weighted distance row from index ``source`` (``-1.0`` = unreachable).

    The lean (no sigma, no predecessors) form of :func:`csr_dijkstra_dag`,
    used by distance sweeps; the float distances are identical.  With
    ``with_order=True`` returns ``(row, order)`` where ``order`` lists the
    settled indices — the same settle order the full DAG records.
    """
    indptr, indices = csr.adjacency_lists()
    weight_list = csr.weight_list()
    n = csr.n
    dist: List[Optional[float]] = [None] * n
    dist[source] = 0.0
    settled = bytearray(n)
    order: List[int] = []
    heap: List[Tuple[float, int, int]] = [(0.0, 0, source)]
    counter = 1
    while heap:
        d, _, node = heappop(heap)
        if settled[node]:
            continue
        settled[node] = 1
        order.append(node)
        for position in range(indptr[node], indptr[node + 1]):
            neighbor = indices[position]
            weight = weight_list[position] if weight_list is not None else 1.0
            candidate = d + weight
            known = dist[neighbor]
            if known is None or candidate < known:
                dist[neighbor] = candidate
                heappush(heap, (candidate, counter, neighbor))
                counter += 1
    row = _np.asarray(
        [-1.0 if value is None else value for value in dist], dtype=_np.float64
    )
    if with_order:
        return row, order
    return row


def weighted_backward_dependencies(dag: CSRShortestPathDAG):
    """Backward Brandes accumulation over a weighted DAG's settle order.

    The backward half of :func:`csr_dijkstra_brandes`: node by node in
    reverse settle order, predecessors in append order, exactly the dict
    reference's float addition sequence.
    """
    n = dag.csr.n
    sigma = dag.sigma
    pred_indptr, pred_indices = dag.pred_indptr, dag.pred_indices
    delta = [0.0] * n
    for node in reversed(dag.order.tolist()):
        coefficient = 1.0 + delta[node]
        sigma_node = sigma[node]
        for position in range(pred_indptr[node], pred_indptr[node + 1]):
            predecessor = pred_indices[position]
            delta[predecessor] += sigma[predecessor] / sigma_node * coefficient
    return _np.asarray(delta, dtype=_np.float64)


def csr_dijkstra_brandes(csr: CSRGraph, source: int):
    """Weighted Brandes single-source dependencies from index ``source``.

    The Dijkstra analogue of :func:`csr_brandes`: forward pass via
    :func:`csr_dijkstra_dag` (float sigma), backward accumulation via
    :func:`weighted_backward_dependencies`.  Returns ``(delta, order,
    dist)`` with the same ``delta[source]`` residue contract as the
    unweighted kernel.
    """
    dag = csr_dijkstra_dag(csr, source, float_sigma=True)
    return weighted_backward_dependencies(dag), dag.order, dag.dist


def csr_sssp_dag(
    csr: CSRGraph,
    source: int,
    *,
    weighted: bool = False,
    max_depth: Optional[int] = None,
    float_sigma: bool = False,
) -> CSRShortestPathDAG:
    """The one SSSP entry point: route to the BFS or the Dijkstra engine.

    ``weighted=False`` is the exact historical
    :func:`csr_shortest_path_dag` BFS path; ``weighted=True`` runs
    :func:`csr_dijkstra_dag` (edge weights, or implicit ``1.0`` on an
    unweighted snapshot).  ``max_depth`` is a hop-count cap and therefore
    only meaningful for the BFS engine.
    """
    if weighted:
        if max_depth is not None:
            raise ValueError(
                "max_depth is a hop-count cap; it is not supported by the "
                "weighted (Dijkstra) SSSP engine"
            )
        return csr_dijkstra_dag(csr, source, float_sigma=float_sigma)
    return csr_shortest_path_dag(
        csr, source, max_depth=max_depth, float_sigma=float_sigma
    )


#: ``kind`` values accepted by :func:`multi_source_sweep`.
SWEEP_DISTANCE = "distance"
SWEEP_SIGMA = "sigma"
SWEEP_BRANDES = "brandes"
_SWEEP_KINDS = (SWEEP_DISTANCE, SWEEP_SIGMA, SWEEP_BRANDES)

#: Rough cap on the flattened edge-stream footprint of one batch; the
#: default batch size is derived from it so batching never allocates more
#: than a few tens of megabytes of transient level state.
_BATCH_EDGE_BUDGET = 2_000_000


def default_sweep_batch(csr: CSRGraph) -> int:
    """Default number of sources stacked per :func:`multi_source_sweep` batch.

    Sized so one batch's flattened state (``B * n`` arrays plus up to
    ``B * 2m`` of recorded level edges) stays within a fixed memory budget:
    high-diameter road graphs (small ``m``) get large batches — where
    batching is the whole point — while dense social graphs, whose fat
    frontiers already vectorise per source, get small ones.
    """
    return max(1, min(64, _BATCH_EDGE_BUDGET // max(1, 2 * csr.m)))


#: Edge budget (``B * 2m``) of one stacked unweighted distance batch.  Such a
#: sweep keeps no sigma and records no edges, so memory is not what limits
#: it: its fat levels go bottom-up, and one bottom-up step gathers all
#: ``B * 2m`` adjacency entries of the batch.  Measured per source (2-CPU
#: host, 192 random sources): 2**18 is within 8% of the best budget on each
#: of the usa-road, flickr and orkut surrogates, while ``_BATCH_EDGE_BUDGET``
#: is 25-54% slower than it on the social ones (table in README, "Batched
#: multi-source sweeps").
_DISTANCE_EDGE_BUDGET = 2**18


def distance_sweep_batch(csr: CSRGraph) -> int:
    """Default sources per unweighted ``kind="distance"`` sweep batch.

    Road graphs still stack dozens of thin frontiers (59 on the usa-road
    surrogate); dense social graphs stack a handful (18 on flickr, 4 on
    orkut), where larger batches make every bottom-up gather slower than
    the per-source sweeps they replace.
    """
    return max(1, min(64, _DISTANCE_EDGE_BUDGET // max(1, 2 * csr.m)))


def multi_source_sweep(
    csr: CSRGraph,
    sources: Sequence[int],
    *,
    kind: str = SWEEP_DISTANCE,
    batch_size: Optional[int] = None,
    direction: Optional[str] = None,
    weighted: bool = False,
) -> List[object]:
    """Run one sweep per source, ``batch_size`` sources at a time.

    The batched kernel stacks ``B`` single-source sweeps onto flattened
    ``(B * n)`` state arrays and expands them level-synchronously together
    (see :class:`_BatchSweep`): the per-slot thin frontiers of high-diameter
    graphs merge into one fat frontier that the vectorised expansion path
    can chew through, which is where per-source kernels lose to per-level
    numpy overhead.  Results are **bit-identical** to running the per-source
    kernels (``csr_bfs`` / ``csr_shortest_path_dag`` / ``csr_brandes``) one
    source at a time.

    Parameters
    ----------
    csr:
        The snapshot to sweep.
    sources:
        Source node *indices* (one result per source, in order).
    kind:
        ``"distance"`` — per-source length-``n`` hop-distance arrays
        (``-1`` = unreachable);
        ``"sigma"`` — per-source ``(dist, sigma)`` pairs with exact
        shortest-path counts (Python ints once the int64 overflow guard
        trips, exactly like the per-source kernel);
        ``"brandes"`` — per-source Brandes dependency arrays, including the
        ``delta[source]`` residue the caller must ignore (mirroring
        ``csr_brandes``).
    batch_size:
        Sources per stacked batch; defaults to :func:`distance_sweep_batch`
        for unweighted ``"distance"`` sweeps and to
        :func:`default_sweep_batch` otherwise.
    direction:
        ``"top-down"`` or ``"auto"`` (direction-optimising: very fat levels
        switch to a bottom-up step).  Only ``"distance"`` sweeps — whose
        results are pure functions of the distance labels — may use
        ``"auto"``, and they default to it; the distance rows are identical
        either way, only wall-clock time changes.  Order-sensitive kinds
        (``"sigma"``, ``"brandes"``) always run top-down.
    weighted:
        Run the weighted SSSP engine instead of BFS: one per-source
        Dijkstra per source, float distance rows (``-1.0`` = unreachable).
        ``batch_size`` and ``direction`` are ignored (there is nothing to
        stack and no bottom-up step to take).
    """
    if kind not in _SWEEP_KINDS:
        raise ValueError(f"unknown sweep kind {kind!r}; choose one of {_SWEEP_KINDS}")
    if direction is None:
        direction = DIRECTION_AUTO if kind == SWEEP_DISTANCE else TOP_DOWN
    elif direction not in _DIRECTIONS:
        raise ValueError(
            f"direction={direction!r} is not valid; choose one of {_DIRECTIONS}"
        )
    elif direction == DIRECTION_AUTO and kind != SWEEP_DISTANCE:
        raise ValueError(
            f"direction='auto' is only valid for kind='{SWEEP_DISTANCE}' "
            "sweeps; sigma/Brandes sweeps are order-sensitive"
        )
    source_list = [int(source) for source in sources]
    for source in source_list:
        if source < 0 or source >= csr.n:
            raise GraphError(
                f"source index {source} out of range for a {csr.n}-node snapshot"
            )
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    results: List[object] = []
    if weighted:
        for source in source_list:
            if kind == SWEEP_DISTANCE:
                results.append(csr_dijkstra_distances(csr, source))
            elif kind == SWEEP_SIGMA:
                dag = csr_dijkstra_dag(csr, source)
                results.append((dag.dist, dag.sigma))
            else:
                delta, _, _ = csr_dijkstra_brandes(csr, source)
                results.append(delta)
        return results
    if batch_size is None:
        batch_size = (
            distance_sweep_batch(csr) if kind == SWEEP_DISTANCE
            else default_sweep_batch(csr)
        )
    n = csr.n
    for start in range(0, len(source_list), batch_size):
        roots = source_list[start : start + batch_size]
        sweep = _BatchSweep(
            csr,
            roots,
            sigma_mode=(
                "float" if kind == SWEEP_BRANDES
                else "int" if kind == SWEEP_SIGMA
                else None
            ),
            track_edges=kind == SWEEP_BRANDES,
            direction=direction if kind == SWEEP_DISTANCE else TOP_DOWN,
        )
        while sweep.has_frontier:
            sweep.expand()
        sweep.trim()
        if kind == SWEEP_BRANDES:
            delta = _backward_dependencies(
                sweep.levels, sweep.level_edges, sweep.sigma_view,
                sweep.size, sweep.scratch,
            )
            for slot in range(len(roots)):
                results.append(delta[slot * n : (slot + 1) * n].copy())
        elif kind == SWEEP_SIGMA:
            for slot in range(len(roots)):
                dist_row = sweep.dist[slot * n : (slot + 1) * n].copy()
                if sweep.sigma_view is not None:
                    sigma_row: object = sweep.sigma_view[
                        slot * n : (slot + 1) * n
                    ].copy()
                else:
                    sigma_row = sweep.sigma[slot * n : (slot + 1) * n]
                results.append((dist_row, sigma_row))
        else:
            for slot in range(len(roots)):
                results.append(sweep.dist[slot * n : (slot + 1) * n].copy())
    return results


def distance_stats_from_row(dist):
    """``(reachable node count, total distance)`` of one distance row.

    ``dist`` is a row from :func:`multi_source_sweep` (``-1`` =
    unreachable).  Hop-distance rows yield an integer total; weighted
    (float) rows yield a float total.
    """
    reached = dist >= 0
    if dist.dtype.kind == "f":
        # Sequential left-to-right sum in node-index order: numpy's
        # pairwise .sum() re-associates float additions, which would
        # break bit-identity with the dict backend's sequential total.
        return int(reached.sum()), sum(dist[reached].tolist())
    return int(reached.sum()), int(dist[reached].sum())


def csr_distance_stats(csr: CSRGraph, source: int) -> Tuple[int, int]:
    """Return ``(reachable node count, total hop distance)`` from ``source``.

    The single-source convenience form of the closeness statistic;
    bulk callers run :func:`multi_source_sweep` over whole source chunks
    instead (see ``repro.centrality.closeness``).
    """
    [dist] = multi_source_sweep(csr, (source,), kind=SWEEP_DISTANCE)
    return distance_stats_from_row(dist)
