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
  entries); a ``Graph._version`` bump triggers **delta validation** (PR 8):
  when the mutation journal of :mod:`repro.graphs.delta` covers the gap,
  each entry is tested against the journalled edits (an inserted edge can
  only affect a source whose cached distances it shortens — or ties, for
  DAG entries; a deletion only one whose shortest paths it lies on) and
  survivors re-key to the new version.  Uncovered gaps — or
  ``dag_cache_delta=off`` (``REPRO_DAG_CACHE_DELTA``) — fall back to the
  historical wholesale eviction, exactly like the CSR snapshot cache in
  :mod:`repro.graphs.csr`;
* each graph's store is an LRU bounded *twice*: by entry count
  (``max_entries``) and by an estimated element budget (``max_cost``, in
  stored int64/float64-sized elements), so pivot-heavy workloads keep their
  hot sources resident while a uniform-random workload on a huge graph —
  where a single DAG is already hundreds of megabytes — degrades to
  holding roughly one traversal at a time (the pre-cache peak memory)
  instead of pinning hundreds of them;
* hit/miss/eviction counters make the behaviour testable and benchable.

Caching **never changes results**: a cached DAG is the same object the
uncached code path would recompute, DAG construction consumes no RNG, and
path sampling only reads the DAG.  The equivalence tests assert cached ==
uncached == ``workers > 1`` bit for bit.

Configuration: the process-wide default cache follows the ``dag_cache``
(on by default), ``dag_cache_size`` (max entries per graph, default 512)
and ``dag_cache_budget`` (max estimated elements per graph, default 16M ≈
128 MB) rows of :mod:`repro.knobs` — :func:`set_dag_cache_enabled`,
:func:`set_default_dag_cache_size` and :func:`set_default_dag_cache_budget`
override their ``REPRO_*`` variables, and :func:`default_dag_cache`
rebuilds the cache when its bounds change.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

from repro import knobs
from repro.graphs import csr as _csr
from repro.graphs import delta as _delta
from repro.graphs.delta import (  # re-exported via repro.engine
    DAG_CACHE_DELTA_ENV_VAR,
    DELTA_JOURNAL_SIZE_ENV_VAR,
    default_dag_cache_delta,
    resolve_dag_cache_delta,
    resolve_delta_journal_size,
    set_default_dag_cache_delta,
    set_default_delta_journal_size,
)
from repro.graphs.graph import Graph

Node = Hashable

DAG_CACHE_ENV_VAR = knobs.DAG_CACHE.env
set_dag_cache_enabled = knobs.DAG_CACHE.override

DAG_CACHE_SIZE_ENV_VAR = knobs.DAG_CACHE_SIZE.env
#: Default per-graph LRU capacity (DAGs *and* distance rows count as entries).
DEFAULT_DAG_CACHE_SIZE = knobs.DAG_CACHE_SIZE.default
set_default_dag_cache_size = knobs.DAG_CACHE_SIZE.override
resolve_dag_cache_size = knobs.DAG_CACHE_SIZE.resolve

DAG_CACHE_BUDGET_ENV_VAR = knobs.DAG_CACHE_BUDGET.env
#: Default per-graph element budget (one unit ~ one stored int64/float64,
#: so ~128 MB).
DEFAULT_DAG_CACHE_BUDGET = knobs.DAG_CACHE_BUDGET.default
set_default_dag_cache_budget = knobs.DAG_CACHE_BUDGET.override
resolve_dag_cache_budget = knobs.DAG_CACHE_BUDGET.resolve


def dag_cache_enabled() -> bool:
    """Whether the shared default cache is consulted by the samplers.

    The size and budget variables are validated here too, so a typo'd
    bound fails at the first cache decision, naming the variable, instead
    of deep inside a sampler.
    """
    knobs.DAG_CACHE_SIZE.resolve()
    knobs.DAG_CACHE_BUDGET.resolve()
    return knobs.DAG_CACHE.resolve()


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
        LRU capacity per graph (``None`` resolves via
        :func:`resolve_dag_cache_size`: the
        :func:`set_default_dag_cache_size` override, then
        ``REPRO_DAG_CACHE_SIZE``, then the default).
    max_cost:
        Element budget per graph, in stored int64/float64-sized units
        (``None`` resolves via :func:`resolve_dag_cache_budget`).  When a workload's
        traversals are individually huge — one DAG on a paper-scale graph
        is already hundreds of megabytes — the budget degrades the cache to
        roughly one resident traversal (the most recent entry is always
        kept), matching the pre-cache peak memory instead of pinning
        ``max_entries`` of them.

    Examples
    --------
    >>> from repro.graphs.generators import cycle_graph
    >>> cache = SourceDAGCache(max_entries=4)
    >>> graph = cycle_graph(6)
    >>> first = cache.dag(graph, 0, backend="dict")
    >>> second = cache.dag(graph, 0, backend="dict")
    >>> first is second, cache.hits, cache.misses
    (True, 1, 1)
    >>> graph.add_edge(0, 3)  # this shortcut shortens paths from 0: evicted
    >>> cache.dag(graph, 0, backend="dict") is first
    False
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        *,
        max_cost: Optional[int] = None,
    ) -> None:
        if max_entries is None:
            max_entries = resolve_dag_cache_size()
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_cost is None:
            max_cost = resolve_dag_cache_budget()
        if max_cost < 1:
            raise ValueError(f"max_cost must be >= 1, got {max_cost}")
        self.max_entries = max_entries
        self.max_cost = max_cost
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Delta-invalidation counters (PR 8): entries kept across a version
        # bump because the journalled edits provably cannot affect them,
        # entries evicted by a failed validity test, and version bumps that
        # fell back to wholesale eviction (journal uncovered / overflowed /
        # past the auto-mode validation limit).
        self.delta_retained = 0
        self.delta_evictions = 0
        self.journal_overflows = 0
        self._stores: "WeakKeyDictionary[Graph, _GraphStore]" = (
            WeakKeyDictionary()
        )

    # ------------------------------------------------------------------
    def _store(self, graph: Graph) -> _GraphStore:
        """The live entry store of ``graph``, revalidating on a version bump.

        A version bump first tries delta validation (see
        :meth:`_revalidate`): when the mutation journal covers the gap,
        each entry is tested against the edits and survivors re-key to the
        new version.  Uncovered gaps — and ``dag_cache_delta=off`` — keep
        the historical wholesale eviction.
        """
        cached = self._stores.get(graph)
        if cached is not None and cached.version == graph._version:
            return cached
        if cached is not None:
            if self._revalidate(graph, cached):
                return cached
            self.evictions += len(cached)
        store = _GraphStore(graph._version)
        self._stores[graph] = store
        # Arm the mutation journal so the next version bump is coverable.
        _delta.track(graph)
        return store

    def _revalidate(self, graph: Graph, store: _GraphStore) -> bool:
        """Delta-validate ``store`` in place; ``True`` when re-keyed.

        Runs the O(|Δ|) per-entry validity test of
        :func:`repro.graphs.delta.delta_affects_source` against the cached
        distances.  Entries an edit *could* affect are evicted; provably
        untouched ones survive and re-key to ``graph._version``.  Returns
        ``False`` (wholesale fallback) when the journal does not cover the
        gap or ``auto`` mode's validation limit is exceeded.
        """
        deltas = _delta.deltas_between(graph, store.version)
        if deltas is None:
            if len(store) and resolve_dag_cache_delta() != _delta.DELTA_OFF:
                self.journal_overflows += 1
            return False
        if (
            resolve_dag_cache_delta() == _delta.DELTA_AUTO
            and len(deltas) > _delta.AUTO_DELTA_VALIDATION_LIMIT
        ):
            self.journal_overflows += 1
            return False
        survivors: "OrderedDict[Tuple, Tuple[object, int]]" = OrderedDict()
        cost = 0
        for key, (value, entry_cost) in store.entries.items():
            if self._entry_survives(graph, key, value, deltas):
                survivors[key] = (value, entry_cost)
                cost += entry_cost
                self.delta_retained += 1
            else:
                self.delta_evictions += 1
                self.evictions += 1
        store.entries = survivors
        store.cost = cost
        store.version = graph._version
        return True

    def _entry_survives(
        self, graph: Graph, key: Tuple, value: object, deltas
    ) -> bool:
        """Whether no journalled edit can affect one cached entry."""
        kind = key[0]
        if kind == "dag":
            # ("dag", backend, weighted, source): full DAGs carry sigma and
            # predecessor lists, so equal-length (tie) paths matter too.
            weighted = bool(key[2])
            tie_sensitive = True
        elif kind == "dist-map":
            # ("dist-map", backend, source): hop distances, reachable only.
            weighted = False
            tie_sensitive = False
        elif kind == "dist":
            # ("dist", source) hop row | ("dist", True, source) weighted row.
            weighted = len(key) == 3
            tie_sensitive = False
        else:
            return False  # unknown entry shape: never retain on faith
        dist_of = self._distance_accessor(graph, kind, value)
        if dist_of is None:
            return False
        for delta in deltas:
            if _delta.delta_affects_source(
                delta, dist_of, weighted=weighted, tie_sensitive=tie_sensitive
            ):
                return False
        return True

    @staticmethod
    def _distance_accessor(graph: Graph, kind: str, value: object):
        """A ``label -> distance-or-None`` view of one cached entry.

        DAGs and distance maps are self-contained; index-space rows
        translate labels through the current snapshot — pure edge deltas
        preserve the label order, so its ``index`` equals the one the row
        was computed with.
        """
        if kind == "dag":
            snapshot = getattr(value, "csr", None)
            if snapshot is not None:  # CSRShortestPathDAG (index space)
                dist = value.dist
                index = snapshot.index

                def dist_of(label, _dist=dist, _index=index):
                    i = _index.get(label)
                    if i is None:
                        return None
                    d = _dist[i]
                    return None if d < 0 else d

                return dist_of
            distances = getattr(value, "distances", None)
            if distances is not None:  # label-space ShortestPathDAG
                return distances.get
            return None
        if kind == "dist-map":
            return value.get if isinstance(value, dict) else None
        row = value  # CSR distance row, -1/-1.0 = unreachable

        def row_dist_of(label, _row=row, _index=_csr.as_csr(graph).index):
            i = _index.get(label)
            if i is None:
                return None
            d = _row[i]
            return None if d < 0 else d

        return row_dist_of

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
        the exact objects the uncached code paths build.  ``weighted``
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

    @staticmethod
    def compute_distance_map(graph: Graph, source: Node, *, backend: str):
        """The uncached computation a :meth:`distance_map` miss performs."""
        from repro.graphs.traversal import bfs_distances

        return bfs_distances(graph, source, backend=backend)

    def distance_map(self, graph: Graph, source: Node, *, backend: str):
        """The label-keyed ``{node: hop distance}`` map of ``source``.

        The dict-backend analogue of :meth:`distances` (reachable nodes
        only, insertion-ordered exactly like ``bfs_distances``).
        """
        if backend not in _csr.BACKENDS:
            raise ValueError(
                f"backend={backend!r} must be a concrete backend, one of "
                f"{_csr.BACKENDS} (resolve 'auto' before caching)"
            )
        return self.lookup(
            graph,
            ("dist-map", backend, source),
            lambda: self.compute_distance_map(graph, source, backend=backend),
        )

    @staticmethod
    def compute_distances(graph: Graph, source: Node, *, weighted: bool = False):
        """The uncached computation a :meth:`distances` miss performs."""
        snapshot = _csr.as_csr(graph)
        [row] = _csr.multi_source_sweep(
            snapshot, (snapshot.index_of(source),), kind=_csr.SWEEP_DISTANCE,
            weighted=weighted,
        )
        return row

    def distances(self, graph: Graph, source: Node, *, weighted: bool = False):
        """The CSR distance row of ``source`` (``-1`` = unreachable).

        Hop counts by default; with ``weighted=True`` (a separate cache
        key) float path lengths from the Dijkstra engine.
        """
        return self.lookup(
            graph,
            ("dist", weighted, source) if weighted else ("dist", source),
            lambda: self.compute_distances(graph, source, weighted=weighted),
        )

    def distance_rows(self, graph: Graph, sources: Sequence[Node]) -> List[object]:
        """Distance rows for many sources; misses run as one batched sweep.

        The batched sweep produces rows bit-identical to the per-source
        kernel (the PR 2 contract), so mixing cached and freshly-computed
        rows cannot change results.  Every source counts as one lookup, as
        if it were a :meth:`distances` call in list order: a source repeated
        within the call is a hit (its row is cached or pending by then).
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
        """Hit/miss/eviction counters plus the live entry count and cost.

        The delta counters (PR 8): ``delta_retained`` entries survived a
        version bump via the journal validity test, ``delta_evictions``
        failed it (also counted in ``evictions``), ``journal_overflows``
        version bumps fell back to wholesale eviction for lack of journal
        coverage.
        """
        entries = sum(len(store) for store in self._stores.values())
        cost = sum(store.cost for store in self._stores.values())
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "delta_retained": self.delta_retained,
            "delta_evictions": self.delta_evictions,
            "journal_overflows": self.journal_overflows,
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
    """The lazily-created process-wide cache (one per worker process too).

    It is rebuilt whenever the resolved size or budget differs from the
    bounds it was built with; the cache never changes results, so
    dropping its entries is free of correctness concerns.
    """
    global _default_cache
    size, budget = resolve_dag_cache_size(), resolve_dag_cache_budget()
    cache = _default_cache
    if cache is None or (cache.max_entries, cache.max_cost) != (size, budget):
        cache = _default_cache = SourceDAGCache(size, max_cost=budget)
    return cache


def clear_default_dag_cache() -> None:
    """Drop the default cache; the next use builds a fresh one."""
    global _default_cache
    _default_cache = None


def source_dag(graph: Graph, source: Node, *, backend: str,
               weighted: bool = False):
    """Shared-cache :meth:`SourceDAGCache.dag` (straight computation when off)."""
    if dag_cache_enabled():
        return default_dag_cache().dag(
            graph, source, backend=backend, weighted=weighted
        )
    return SourceDAGCache.compute_dag(
        graph, source, backend=backend, weighted=weighted
    )


def source_distance_map(graph: Graph, source: Node, *, backend: str):
    """Shared-cache :meth:`SourceDAGCache.distance_map` (straight when off)."""
    if dag_cache_enabled():
        return default_dag_cache().distance_map(graph, source, backend=backend)
    return SourceDAGCache.compute_distance_map(graph, source, backend=backend)


def source_distance_rows(graph: Graph, sources: Sequence[Node]) -> List[object]:
    """Shared-cache :meth:`SourceDAGCache.distance_rows` (straight when off)."""
    if dag_cache_enabled():
        return default_dag_cache().distance_rows(graph, sources)
    snapshot = _csr.as_csr(graph)
    return _csr.multi_source_sweep(
        snapshot,
        [snapshot.index_of(source) for source in sources],
        kind=_csr.SWEEP_DISTANCE,
    )
