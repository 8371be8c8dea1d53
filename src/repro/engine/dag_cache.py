"""Cross-sample caching of shortest-path DAGs and BFS distance rows.

Sampling estimators repeat traversals: ABRA rebuilds the shortest-path DAG
of every sampled source, RK does the same before sampling one path from it,
closeness-style problems sweep the same target set once per run, and pivot
workloads hammer a small source set.  A traversal from a fixed source on a
fixed graph is a pure function, so those repeats are pure waste.

:class:`SourceDAGCache` memoises them, keyed on
``(Graph._version, source, backend, weighted)`` — the ``weighted`` flag
distinguishes hop-distance (BFS) traversals from weighted (Dijkstra)
traversals of the same source, so estimators running both engines on one
graph never cross-contaminate:

* entries are stored per graph object (weakly — a collected graph drops its
  entries), in one store built at one ``Graph._version``: the first lookup
  after any effective edit drops the stale store whole and counts its
  entries as evictions, whether or not the edit moved them.  The stores
  stay here, in the cache, so that :meth:`SourceDAGCache.clear` and
  :func:`clear_default_dag_cache` drop every graph's entries at once;
* each graph's store is an LRU bounded *twice*: by entry count
  (``max_entries``) and by an estimated element budget (``max_cost``, in
  stored int64/float64-sized elements), so pivot-heavy workloads keep their
  hot sources resident while a uniform-random workload on a huge graph —
  where a single DAG is already hundreds of megabytes — degrades to
  holding roughly one traversal at a time (the pre-cache peak memory)
  instead of pinning hundreds of them;
* hit/miss/eviction counters make the behaviour testable and benchable.

Caching **never changes results**: a cached DAG is the same object a
miss computes (:meth:`SourceDAGCache.compute_dag`), DAG construction
consumes no RNG, and path sampling only reads the DAG.  The equivalence
tests assert that the default cache, a one-entry cache evicting on nearly
every draw and ``workers > 1`` give the same answers bit for bit.

The samplers always consult the process-wide :func:`default_dag_cache`,
bounded by the constants :data:`DEFAULT_DAG_CACHE_SIZE` (512 entries per
graph) and :data:`DEFAULT_DAG_CACHE_BUDGET` (16M elements ≈ 128 MB per
graph); the budget is what bounds it on huge graphs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

from repro.graphs import csr as _csr
from repro.graphs.graph import Graph

Node = Hashable

#: Default per-graph LRU capacity (DAGs *and* distance rows count as entries).
DEFAULT_DAG_CACHE_SIZE = 512

#: Default per-graph element budget (one unit ~ one stored int64/float64,
#: so ~128 MB).
DEFAULT_DAG_CACHE_BUDGET = 16_000_000


def _entry_cost(value: object) -> int:
    """Rough element count of one cached value (1 unit ~ 8 bytes stored).

    Distance rows cost their length; DAGs cost their state arrays plus a
    conservative bound on the recorded DAG edges.  The estimate only has to
    be the right order of magnitude — it drives the LRU budget, nothing
    else.
    """
    size = getattr(value, "size", None)  # numpy distance row
    if isinstance(size, int):
        return max(1, size)
    if isinstance(value, dict):  # label-keyed distance map
        return max(1, len(value))
    csr = getattr(value, "csr", None)
    if csr is not None:  # CSRShortestPathDAG: ~4 state arrays + DAG edges
        return max(1, 4 * csr.n + 2 * csr.m)
    distances = getattr(value, "distances", None)
    if distances is not None:  # label-space ShortestPathDAG
        predecessors = sum(len(p) for p in value.predecessors.values())
        return max(1, 4 * len(distances) + 2 * predecessors)
    return 1


class _GraphStore:
    """One graph's LRU entries plus their summed element-cost estimate."""

    __slots__ = ("version", "entries", "cost")

    def __init__(self, version: int) -> None:
        self.version = version
        self.entries: "OrderedDict[Tuple, Tuple[object, int]]" = OrderedDict()
        self.cost = 0

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, key: Tuple) -> object:
        value, _ = self.entries[key]
        self.entries.move_to_end(key)
        return value

    def put(self, key: Tuple, value: object) -> None:
        cost = _entry_cost(value)
        self.entries[key] = (value, cost)
        self.cost += cost

    def pop_oldest(self) -> None:
        _, (_, cost) = self.entries.popitem(last=False)
        self.cost -= cost


class SourceDAGCache:
    """Bounded per-graph LRU of traversal results keyed on source and backend.

    Parameters
    ----------
    max_entries:
        LRU capacity per graph.
    max_cost:
        Element budget per graph, in stored int64/float64-sized units.
        When a workload's traversals are individually huge — one DAG on a
        paper-scale graph is already hundreds of megabytes — the budget
        degrades the cache to roughly one resident traversal (the most
        recent entry is always kept), matching the pre-cache peak memory
        instead of pinning ``max_entries`` of them.

    Examples
    --------
    >>> from repro.graphs.generators import cycle_graph
    >>> cache = SourceDAGCache(max_entries=4)
    >>> graph = cycle_graph(6)
    >>> first = cache.dag(graph, 0, backend="dict")
    >>> second = cache.dag(graph, 0, backend="dict")
    >>> first is second, cache.hits, cache.misses
    (True, 1, 1)
    >>> graph.add_edge(0, 3)  # a new version: the graph's store is dropped
    >>> cache.dag(graph, 0, backend="dict") is first
    False
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_DAG_CACHE_SIZE,
        *,
        max_cost: int = DEFAULT_DAG_CACHE_BUDGET,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_cost < 1:
            raise ValueError(f"max_cost must be >= 1, got {max_cost}")
        self.max_entries = max_entries
        self.max_cost = max_cost
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._stores: "WeakKeyDictionary[Graph, _GraphStore]" = (
            WeakKeyDictionary()
        )

    # ------------------------------------------------------------------
    def _store(self, graph: Graph) -> _GraphStore:
        """The entry store of ``graph`` at its current version.

        A store built at an older ``Graph._version`` is dropped whole, its
        entries counted as evictions, and replaced by an empty one.
        """
        store = self._stores.get(graph)
        if store is None or store.version != graph._version:
            if store is not None:
                self.evictions += len(store)
            store = self._stores[graph] = _GraphStore(graph._version)
        return store

    def _trim(self, store: _GraphStore) -> None:
        while len(store) > self.max_entries or (
            store.cost > self.max_cost and len(store) > 1
        ):
            store.pop_oldest()
            self.evictions += 1

    def lookup(self, graph: Graph, key: Tuple, compute: Callable[[], object]):
        """Return the cached value for ``key``, computing and storing on miss."""
        store = self._store(graph)
        if key in store.entries:
            self.hits += 1
            return store.get(key)
        self.misses += 1
        value = compute()
        store.put(key, value)
        self._trim(store)
        return value

    # ------------------------------------------------------------------
    @staticmethod
    def compute_dag(graph: Graph, source: Node, *, backend: str,
                    weighted: bool = False):
        """The uncached computation a :meth:`dag` miss performs."""
        if backend == _csr.CSR_BACKEND:
            snapshot = _csr.as_csr(graph)
            return _csr.csr_sssp_dag(
                snapshot, snapshot.index_of(source), weighted=weighted
            )
        from repro.graphs.traversal import dict_dijkstra_dag, shortest_path_dag

        if weighted:
            return dict_dijkstra_dag(graph, source)
        # Pin the hop metric (like the CSR branch): the ``weighted`` flag is
        # part of the cache key, so a ``False`` entry must stay a BFS DAG
        # even if the graph has since grown weights under ``weighted=auto``.
        return shortest_path_dag(
            graph, source, backend=_csr.DICT_BACKEND, weighted="off"
        )

    def dag(self, graph: Graph, source: Node, *, backend: str,
            weighted: bool = False):
        """The shortest-path DAG rooted at ``source`` (label space).

        Returns a :class:`~repro.graphs.csr.CSRShortestPathDAG` for the
        ``"csr"`` backend and a label-keyed
        :class:`~repro.graphs.traversal.ShortestPathDAG` for ``"dict"`` —
        the exact objects :meth:`compute_dag` builds.  ``weighted``
        selects the Dijkstra engine and is part of the cache key.
        """
        if backend not in _csr.BACKENDS:
            raise ValueError(
                f"backend={backend!r} must be a concrete backend, one of "
                f"{_csr.BACKENDS} (resolve 'auto' before caching)"
            )
        return self.lookup(
            graph,
            ("dag", backend, weighted, source),
            lambda: self.compute_dag(
                graph, source, backend=backend, weighted=weighted
            ),
        )

    def distance_map(self, graph: Graph, source: Node, *, backend: str):
        """The label-keyed ``{node: hop distance}`` map of ``source``.

        A miss runs ``bfs_distances``: reachable nodes only, in its
        insertion order.
        """
        from repro.graphs.traversal import bfs_distances

        if backend not in _csr.BACKENDS:
            raise ValueError(
                f"backend={backend!r} must be a concrete backend, one of "
                f"{_csr.BACKENDS} (resolve 'auto' before caching)"
            )
        return self.lookup(
            graph,
            ("dist-map", backend, source),
            lambda: bfs_distances(graph, source, backend=backend),
        )

    def distance_rows(self, graph: Graph, sources: Sequence[Node]) -> List[object]:
        """CSR hop-distance rows (``-1`` = unreachable) for many sources.

        Misses run as one batched sweep, whose rows are bit-identical to
        the per-source kernel's, so mixing cached and freshly-computed
        rows cannot change results.  Every source counts
        as one lookup, in list order: a source repeated within the call is
        a hit (its row is cached or pending by then).
        """
        source_list = list(sources)
        store = self._store(graph)
        rows: Dict[Node, object] = {}
        pending: Dict[Node, None] = {}
        for source in source_list:
            if source in rows or source in pending:
                self.hits += 1
                continue
            key = ("dist", source)
            if key in store.entries:
                self.hits += 1
                rows[source] = store.get(key)
            else:
                self.misses += 1
                pending[source] = None
        if pending:
            snapshot = _csr.as_csr(graph)
            fresh = _csr.multi_source_sweep(
                snapshot,
                [snapshot.index_of(source) for source in pending],
                kind=_csr.SWEEP_DISTANCE,
            )
            for source, row in zip(pending, fresh):
                rows[source] = row
                store.put(("dist", source), row)
            self._trim(store)
        return [rows[source] for source in source_list]

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters plus the live entry count and cost."""
        entries = sum(len(store) for store in self._stores.values())
        cost = sum(store.cost for store in self._stores.values())
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": entries,
            "cost": cost,
        }

    def clear(self) -> None:
        """Drop every entry (counters are kept; they describe the lifetime)."""
        self._stores = WeakKeyDictionary()


# ----------------------------------------------------------------------
# The process-wide default cache the samplers consult
# ----------------------------------------------------------------------
_default_cache: Optional[SourceDAGCache] = None


def default_dag_cache() -> SourceDAGCache:
    """The lazily-created process-wide cache (one per worker process too)."""
    global _default_cache
    if _default_cache is None:
        _default_cache = SourceDAGCache()
    return _default_cache


def clear_default_dag_cache() -> None:
    """Drop the default cache; the next use builds a fresh one."""
    global _default_cache
    _default_cache = None
