"""An undirected simple graph tuned for sampling algorithms.

Design notes
------------
* Nodes may be any hashable objects; the synthetic generators use ``int``
  node ids ``0..n-1``.
* Adjacency is stored as ``dict[node, dict[node, weight]]``: insertion
  ordered (deterministic iteration, which matters for reproducible
  sampling), with O(1) membership tests and O(deg) neighbour iteration.
  A *unit-weight* edge stores ``None`` in the value slot, so graphs that
  never pass ``weight=`` keep exactly the historical layout and cost.
* Edges may optionally carry a positive length (``add_edge(u, v, weight=w)``).
  Weights must be strictly positive: a zero-weight undirected edge would
  put both endpoints at the same distance and turn the shortest-path
  "DAG" cyclic, breaking exact path counting.  :attr:`Graph.is_weighted`
  is an O(1) check the traversal layer uses to route between the BFS and
  Dijkstra engines (see :mod:`repro.graphs.sssp`).
* The graph is *simple*: self loops and parallel edges are rejected /
  collapsed.  Direction is intentionally unsupported (the paper treats all
  evaluation networks as undirected).
"""

from __future__ import annotations

import math
from typing import (
    Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple, TypeVar,
    Union,
)

from repro.errors import GraphError
from repro.graphs.delta import (
    STRUCTURAL_DELTA,
    EdgeDelta,
    OP_DELETE,
    OP_INSERT,
    OP_REWEIGHT,
    OP_STRUCTURAL,
    deltas_between,
    track,
)

Node = Hashable
Edge = Tuple[Node, Node]
Weight = Union[int, float]
T = TypeVar("T")


def _check_weight(weight: Weight, *, edge: Optional[Tuple[Node, Node]] = None) -> Optional[float]:
    """Validate an edge weight; return the stored form (``None`` = unit).

    Unit weights are stored as ``None`` so unit-weight graphs keep the exact
    pre-weights adjacency layout (and ``is_weighted`` stays ``False``).
    Rejections name the offending edge when the caller knows it, so a bad
    weight deep inside a bulk load points at the edge, not just the value.
    """
    if weight == 1:
        return None
    where = "" if edge is None else f" for edge {edge[0]!r}-{edge[1]!r}"
    if isinstance(weight, bool) or not isinstance(weight, (int, float)):
        raise GraphError(
            f"edge weight must be a positive real number, got {weight!r}{where}"
        )
    if not math.isfinite(weight) or weight <= 0:
        raise GraphError(
            f"edge weight must be positive and finite, got {weight!r}{where} "
            "(zero-weight undirected edges would make the shortest-path "
            "DAG cyclic)"
        )
    return float(weight)


#: Every slot but the journal, the memo and the weakref slot: the state a
#: pickle keeps.  A copy has no memo value its journal could patch.
_PICKLED_SLOTS = ("_adj", "_num_edges", "_num_weighted", "_version")


class Graph:
    """An undirected simple graph with optional positive edge weights.

    Examples
    --------
    >>> g = Graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
    >>> g.number_of_nodes(), g.number_of_edges()
    (4, 4)
    >>> sorted(g.neighbors(2))
    [0, 1, 3]
    >>> g.degree(2)
    3
    >>> g.is_weighted
    False
    >>> w = Graph.from_edges([(0, 1, 2.5), (1, 2)])
    >>> w.is_weighted, w.edge_weight(0, 1), w.edge_weight(1, 2)
    (True, 2.5, 1)
    """

    __slots__ = (
        "_adj",
        "_num_edges",
        "_num_weighted",
        "_version",
        "_journal",
        "_memo",
        "__weakref__",
    )

    def __init__(self) -> None:
        self._adj: Dict[Node, Dict[Node, Optional[float]]] = {}
        self._num_edges: int = 0
        # Count of edges carrying a non-unit weight; ``is_weighted`` is the
        # O(1) fast path the SSSP dispatch layer checks per traversal.
        self._num_weighted: int = 0
        # Monotonic mutation counter, written only here, in _commit and in
        # __setstate__; derived state (see memo) detects staleness by it.
        self._version: int = 0
        # Mutation journal (:class:`repro.graphs.delta.MutationJournal`),
        # armed lazily via :func:`repro.graphs.delta.track` once a slot
        # can be refreshed from it.  ``None`` until then, so bulk
        # construction pays one attribute check per mutation.
        self._journal = None
        # ``{key: (version, value)}`` behind :meth:`memo`.
        self._memo: Dict[str, Tuple[int, object]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, edges: Iterable[Tuple], nodes: Optional[Iterable[Node]] = None
    ) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` or ``(u, v, weight)``.

        Parameters
        ----------
        edges:
            Edge pairs, optionally with a positive weight as third element.
            Duplicate edges are collapsed (first occurrence wins, weight
            included); self loops raise :class:`~repro.errors.GraphError`.
        nodes:
            Optional extra nodes to add (possibly isolated).
        """
        graph = cls()
        if nodes is not None:
            for node in nodes:
                graph.add_node(node)
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                graph.add_edge(u, v)
            elif len(edge) == 3:
                u, v, weight = edge
                graph.add_edge(u, v, weight=weight)
            else:
                raise GraphError(
                    f"edges must be (u, v) or (u, v, weight) tuples, got {edge!r}"
                )
        return graph

    def add_node(self, node: Node) -> None:
        """Add ``node`` if not already present."""
        if node not in self._adj:
            self._adj[node] = {}
            self._commit(OP_STRUCTURAL)

    def add_edge(self, u: Node, v: Node, weight: Weight = 1) -> None:
        """Add the undirected edge ``{u, v}``, creating endpoints as needed.

        Parameters
        ----------
        weight:
            Optional positive edge length (default 1).  Adding an edge that
            already exists is a no-op — the stored weight is kept; use
            :meth:`set_edge_weight` to change it.

        Raises
        ------
        GraphError
            If ``u == v`` (self loops are not allowed in a simple graph) or
            the weight is not a positive finite number.
        """
        if u == v:
            raise GraphError(f"self loops are not allowed (node {u!r})")
        stored = _check_weight(weight, edge=(u, v))
        self.add_node(u)
        self.add_node(v)
        if v not in self._adj[u]:
            self._adj[u][v] = stored
            self._adj[v][u] = stored
            self._num_edges += 1
            if stored is not None:
                self._num_weighted += 1
            self._commit(
                OP_INSERT, u, v, None, 1.0 if stored is None else stored
            )

    def set_edge_weight(self, u: Node, v: Node, weight: Weight) -> None:
        """Set the weight of the existing edge ``{u, v}``.

        Raises
        ------
        GraphError
            If the edge does not exist or the weight is invalid.
        """
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) does not exist")
        stored = _check_weight(weight, edge=(u, v))
        previous = self._adj[u][v]
        if previous is stored or previous == (1 if stored is None else stored):
            return
        if previous is not None:
            self._num_weighted -= 1
        if stored is not None:
            self._num_weighted += 1
        self._adj[u][v] = stored
        self._adj[v][u] = stored
        self._commit(
            OP_REWEIGHT, u, v,
            1.0 if previous is None else previous,
            1.0 if stored is None else stored,
        )

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge ``{u, v}``.

        Raises
        ------
        GraphError
            If the edge does not exist.
        """
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) does not exist")
        stored = self._adj[u][v]
        if stored is not None:
            self._num_weighted -= 1
        del self._adj[u][v]
        del self._adj[v][u]
        self._num_edges -= 1
        self._commit(OP_DELETE, u, v, 1.0 if stored is None else stored)

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident edges.

        Raises
        ------
        GraphError
            If the node does not exist.
        """
        if node not in self._adj:
            raise GraphError(f"node {node!r} does not exist")
        for neighbor, stored in list(self._adj[node].items()):
            if stored is not None:
                self._num_weighted -= 1
            del self._adj[neighbor][node]
            self._num_edges -= 1
        del self._adj[node]
        self._commit(OP_STRUCTURAL)

    def _commit(
        self,
        op: str,
        u: Optional[Node] = None,
        v: Optional[Node] = None,
        old: Optional[float] = None,
        new: Optional[float] = None,
    ) -> None:
        """Bump the version after one effective mutation and journal it.

        The only code that advances ``_version`` and records to the
        mutation journal: every mutator calls it once per change it makes
        and never for a no-op.  ``old``/``new`` are effective weights as
        in :class:`~repro.graphs.delta.EdgeDelta`.  Node-set changes pass
        ``OP_STRUCTURAL``: they invalidate the label<->index mapping of
        every snapshot, so consumers rebuild across them.  The delta is
        built only when a journal is armed.
        """
        self._version += 1
        if self._journal is not None:
            self._journal.record(
                self._version,
                STRUCTURAL_DELTA if op == OP_STRUCTURAL
                else EdgeDelta(op, u, v, old, new),
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def is_weighted(self) -> bool:
        """``True`` when at least one edge carries a non-unit weight.

        O(1): the traversal layer checks this per call to route unit-weight
        graphs through the exact historical BFS paths.
        """
        return self._num_weighted > 0

    def has_node(self, node: Node) -> bool:
        """Return ``True`` if ``node`` is in the graph."""
        return node in self._adj

    def has_edge(self, u: Node, v: Node) -> bool:
        """Return ``True`` if the undirected edge ``{u, v}`` exists."""
        return u in self._adj and v in self._adj[u]

    def neighbors(self, node: Node) -> Iterable[Node]:
        """Return an iterable view over the neighbours of ``node``.

        Raises
        ------
        GraphError
            If the node does not exist.
        """
        try:
            return self._adj[node].keys()
        except KeyError:
            raise GraphError(f"node {node!r} does not exist") from None

    def neighbor_weights(self, node: Node) -> Iterator[Tuple[Node, Weight]]:
        """Iterate ``(neighbour, weight)`` pairs in insertion order.

        Unit-weight edges yield ``1``; this is the edge scan the Dijkstra
        reference kernel drives (same order as :meth:`neighbors`).

        Raises
        ------
        GraphError
            If the node does not exist.
        """
        try:
            items = self._adj[node].items()
        except KeyError:
            raise GraphError(f"node {node!r} does not exist") from None
        return ((nbr, 1 if w is None else w) for nbr, w in items)

    def edge_weight(self, u: Node, v: Node) -> Weight:
        """Return the weight of edge ``{u, v}`` (``1`` for unit edges).

        Raises
        ------
        GraphError
            If the edge does not exist.
        """
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) does not exist")
        stored = self._adj[u][v]
        return 1 if stored is None else stored

    def degree(self, node: Node) -> int:
        """Return the degree of ``node``."""
        try:
            return len(self._adj[node])
        except KeyError:
            raise GraphError(f"node {node!r} does not exist") from None

    def number_of_nodes(self) -> int:
        """Return ``|V|``."""
        return len(self._adj)

    def number_of_edges(self) -> int:
        """Return ``|E|`` (each undirected edge counted once)."""
        return self._num_edges

    def nodes(self) -> Iterator[Node]:
        """Iterate over the nodes in insertion order."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over each undirected edge exactly once as ``(u, v)``."""
        seen = set()
        for u, nbrs in self._adj.items():
            seen.add(u)
            for v in nbrs:
                if v not in seen:
                    yield (u, v)

    def weighted_edges(self) -> Iterator[Tuple[Node, Node, Weight]]:
        """Iterate each undirected edge once as ``(u, v, weight)``.

        Same edge order as :meth:`edges`; unit edges yield weight ``1``.
        """
        seen = set()
        for u, nbrs in self._adj.items():
            seen.add(u)
            for v, stored in nbrs.items():
                if v not in seen:
                    yield (u, v, 1 if stored is None else stored)

    def adjacency(self) -> Dict[Node, List[Node]]:
        """Return a plain ``dict`` mapping each node to a neighbour list."""
        return {node: list(nbrs) for node, nbrs in self._adj.items()}

    def memo(
        self,
        key: str,
        build: Callable[["Graph"], T],
        refresh: Optional[
            Callable[["Graph", T, List[EdgeDelta]], Optional[T]]
        ] = None,
    ) -> T:
        """Return the value of slot ``key`` for this graph's current version.

        The one versioned slot for state derived from a graph version: the
        CSR snapshot (:func:`~repro.graphs.csr.as_csr`),
        :func:`~repro.graphs.components.is_connected` and
        :func:`~repro.graphs.block_cut_tree.build_block_cut_tree` keep their
        values here, so queries on an unchanged graph share them.  Each
        value is kept with the version it was built from and served by the
        staleness rule of :func:`~repro.graphs.delta.deltas_between`:

        * built at the current version: returned as it is;
        * stale, with the mutation journal covering the gap:
          ``refresh(graph, value, deltas)`` replaces it, unless it returns
          ``None``, which falls through to a rebuild;
        * otherwise: ``build(graph)`` replaces it.

        A stale value leaves the slot before ``refresh`` or ``build`` runs,
        and a value is stored only once complete: a build that raises
        leaves no entry.  A slot with a ``refresh`` arms the journal
        (:func:`~repro.graphs.delta.track`).  The values live in this
        graph's own slot and are freed with it, provided none of them
        refers back to the graph; pickles and copies leave them out.
        """
        version = self._version
        entry = self._memo.get(key)
        value = None
        if entry is not None:
            deltas = deltas_between(self, entry[0])
            if deltas == []:
                return entry[1]
            del self._memo[key]
            if deltas and refresh is not None:
                value = refresh(self, entry[1], deltas)
        if value is None:
            value = build(self)
        self._memo[key] = (version, value)
        if refresh is not None:
            track(self)
        return value

    def memo_deltas(self, key: str) -> Optional[List[EdgeDelta]]:
        """The staleness rule for slot ``key``, without building anything.

        ``[]`` when the slot holds a current value, the journalled edits a
        ``refresh`` would replay when it holds a stale value the journal
        covers, and ``None`` when it is empty or its value could only be
        rebuilt; such a value is dropped here, so it holds no memory until
        the next :meth:`memo` read rebuilds it.
        """
        entry = self._memo.get(key)
        if entry is None:
            return None
        deltas = deltas_between(self, entry[0])
        if deltas is None:
            del self._memo[key]
        return deltas

    def __getstate__(self) -> Dict[str, object]:
        # A copy starts with an empty memo and no journal, and builds its
        # own values.
        return {name: getattr(self, name) for name in _PICKLED_SLOTS}

    def __setstate__(self, state: Dict[str, object]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._journal = None
        self._memo = {}

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Return a deep copy of the graph structure (weights included)."""
        clone = Graph()
        for node, nbrs in self._adj.items():
            clone._adj[node] = dict(nbrs)
        clone._num_edges = self._num_edges
        clone._num_weighted = self._num_weighted
        return clone

    def __copy__(self) -> "Graph":
        # A shallow copy would share ``_adj``: an edit through either graph
        # would change the other without its ``_commit``, leaving its
        # memoised values current for a graph they no longer describe.
        return self.copy()

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """Return the induced subgraph on ``nodes`` (weights preserved).

        Nodes not present in the graph are ignored.  The subgraph's nodes are
        created in the iteration order of ``nodes`` (first occurrence wins),
        so callers passing a deterministic sequence get a deterministic,
        insertion-ordered subgraph — which reproducible sampling relies on.
        """
        keep = dict.fromkeys(node for node in nodes if node in self._adj)
        sub = Graph()
        for node in keep:
            sub.add_node(node)
        for node in keep:
            for neighbor, stored in self._adj[node].items():
                if neighbor in keep and not sub.has_edge(node, neighbor):
                    sub.add_edge(
                        node, neighbor, 1 if stored is None else stored
                    )
        return sub

    def relabeled(self) -> Tuple["Graph", Dict[Node, int]]:
        """Return a copy with nodes relabeled to ``0..n-1`` and the mapping.

        Useful for exporting to array-based tooling; the mapping preserves
        the original insertion order (weights are preserved too).
        """
        mapping = {node: index for index, node in enumerate(self._adj)}
        relabeled = Graph()
        for node in self._adj:
            relabeled.add_node(mapping[node])
        for u, v, weight in self.weighted_edges():
            relabeled.add_edge(mapping[u], mapping[v], weight)
        return relabeled, mapping

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph(nodes={self.number_of_nodes()}, edges={self.number_of_edges()})"
        )
