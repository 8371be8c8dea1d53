"""Edge-level mutation journal and the delta cache-invalidation knob.

State derived from a graph version — the CSR snapshot and the other
values in the graph's versioned slot (:meth:`Graph.memo
<repro.graphs.graph.Graph.memo>`), the engine's ``SourceDAGCache``, the
dataset layer's ``GroundTruthCache`` — records the ``Graph._version`` it
was computed from.  This module records *what changed* since, so that
state can be patched or kept instead of rebuilt after every edit:

* :class:`MutationJournal` — a bounded record of edge-level deltas
  (insert / delete / reweight) between ``Graph._version`` values, armed
  per graph by :func:`track` the first time a slot or a cache can use it.
  ``Graph._commit`` is its one recorder: every effective mutation passes
  through it.  Node additions/removals are recorded as *structural*
  markers: they change the label set, so consumers rebuild across them.
  The journal is capped (:data:`DELTA_JOURNAL_SIZE` entries):
  overflowing drops the oldest entries, after which version ranges
  reaching past the cap are reported as uncovered — again a rebuild,
  never a wrong answer.
* :func:`deltas_between` — the staleness rule every consumer applies:
  ``[]`` when the recorded version is current, the exact delta list
  covering ``old_version -> graph._version`` when the journal covers it,
  or ``None`` (rebuild) when it does not (journal disabled, overflowed,
  or crossed a structural edit).
* :func:`delta_affects_source` — the O(1)-per-edge validity test the
  ``SourceDAGCache`` runs per cached entry: an inserted edge ``(u, v, w)``
  can only change distances from source ``s`` if it *shortens* a path
  (``dist[u] + w < dist[v]`` or the symmetric test); a deletion only if
  the edge lies on a shortest path (``dist[u] + w == dist[v]``); DAG/sigma
  entries additionally evict on *ties* (a new equal-length path changes
  path counts without changing distances).  Unreachable endpoints are
  handled conservatively.  The comparisons replicate the relaxation
  arithmetic of the Dijkstra/BFS kernels exactly (one addition, one
  compare), so retention decisions agree bit-for-bit with what a fresh
  traversal would compute.

The knob (a row of :mod:`repro.knobs`): ``dag_cache_delta`` = ``auto`` |
``on`` | ``off`` (:func:`set_default_dag_cache_delta`).  ``off`` disables
journaling entirely: every stale value is rebuilt and every stale cache
evicted wholesale; ``on`` always validates per entry; ``auto`` (the
default) validates but falls back to wholesale eviction when the delta
range exceeds :data:`AUTO_DELTA_VALIDATION_LIMIT` edits, bounding the
per-entry scan cost.

Correctness stance: the journal only ever *retains* work that a validity
test proves unaffected, and patches only what the journal names; anything
uncertain — uncovered ranges, structural edits, mixed reachability — is
rebuilt or evicted.  The equivalence suite asserts
``dag_cache_delta=on`` == ``off`` == a freshly built graph, bit for bit,
across the whole knob matrix.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Callable, Hashable, List, NamedTuple, Optional

from repro import knobs

Node = Hashable

DELTA_AUTO = "auto"
DELTA_ON = "on"
DELTA_OFF = "off"

DAG_CACHE_DELTA_ENV_VAR = knobs.DAG_CACHE_DELTA.env
default_dag_cache_delta = knobs.DAG_CACHE_DELTA.resolve
set_default_dag_cache_delta = knobs.DAG_CACHE_DELTA.override
resolve_dag_cache_delta = knobs.DAG_CACHE_DELTA.resolve

#: The cap :func:`track` arms journals with: generous for interactive edit
#: streams, small enough that the per-entry validation scan (O(cap)
#: comparisons) stays negligible next to one traversal.
DELTA_JOURNAL_SIZE = 256

#: In ``auto`` mode a delta range longer than this skips per-entry
#: validation and wholesale-evicts instead: past a few dozen edits the
#: odds that an entry survives every test drop fast, while the scan cost
#: (entries x deltas comparisons) keeps growing.  ``on`` always validates.
AUTO_DELTA_VALIDATION_LIMIT = 64

# Delta op codes (EdgeDelta.op).
OP_INSERT = "insert"
OP_DELETE = "delete"
OP_REWEIGHT = "reweight"
OP_STRUCTURAL = "structural"


class EdgeDelta(NamedTuple):
    """One journalled mutation.

    ``old``/``new`` are *effective* weights (unit edges record ``1.0``):
    ``old`` is the pre-mutation weight (``None`` for inserts), ``new`` the
    post-mutation weight (``None`` for deletions).  Structural entries
    (node add/remove) carry ``None`` everywhere except ``op`` — consumers
    must treat any range containing one as uncovered.
    """

    op: str
    u: Optional[Node]
    v: Optional[Node]
    old: Optional[float]
    new: Optional[float]


#: The shared marker for node-set changes; one object, compared by ``op``.
STRUCTURAL_DELTA = EdgeDelta(OP_STRUCTURAL, None, None, None, None)


class MutationJournal:
    """A bounded, contiguous record of one graph's edge-level mutations.

    Invariant: the journal covers exactly the version range
    ``[base_version, base_version + len(entries)]`` — entry ``i`` is the
    mutation that produced version ``base_version + i + 1``.  ``record``
    repairs any contiguity break (a version recorded out of order, which
    ``Graph._commit`` never does) by restarting coverage at the new
    version, so consumers can never be handed deltas for the wrong range.
    """

    __slots__ = ("base_version", "entries", "cap", "overflows")

    def __init__(self, base_version: int, cap: int) -> None:
        self.base_version = base_version
        self.entries: "deque[EdgeDelta]" = deque()
        self.cap = cap
        self.overflows = 0

    @property
    def version(self) -> int:
        """The newest graph version the journal covers."""
        return self.base_version + len(self.entries)

    def record(self, version: int, delta: EdgeDelta) -> None:
        """Append the delta that produced ``version``."""
        if version != self.base_version + len(self.entries) + 1:
            self.entries.clear()
            self.base_version = version - 1
        self.entries.append(delta)
        while len(self.entries) > self.cap:
            self.entries.popleft()
            self.base_version += 1
            self.overflows += 1

    def slice(self, old_version: int, new_version: int) -> Optional[List[EdgeDelta]]:
        """The deltas covering ``old_version -> new_version``, or ``None``.

        ``None`` means the range is uncovered (overflowed past the cap,
        or the journal is not at ``new_version``) or crosses a structural
        edit; callers fall back to wholesale eviction.
        """
        if (
            old_version < self.base_version
            or old_version > new_version
            or new_version != self.version
        ):
            return None
        deltas = list(islice(self.entries, old_version - self.base_version, None))
        for delta in deltas:
            if delta.op == OP_STRUCTURAL:
                return None
        return deltas


# ---------------------------------------------------------------------------
# Per-graph journal plumbing
# ---------------------------------------------------------------------------
def track(graph) -> Optional[MutationJournal]:
    """Arm the mutation journal of ``graph`` (no-op when the knob is off).

    Refreshable slots and caches call this when they store state derived
    from a graph, so subsequent mutations are journalled and that state
    can be patched / validated instead of rebuilt.  With
    ``dag_cache_delta=off`` nothing is armed and ``Graph._commit`` stays
    one ``None`` check cheap.
    """
    if resolve_dag_cache_delta() == DELTA_OFF:
        return None
    journal = getattr(graph, "_journal", None)
    if journal is None:
        journal = MutationJournal(graph._version, DELTA_JOURNAL_SIZE)
        try:
            graph._journal = journal
        except AttributeError:
            # Frozen snapshots (CSRGraph payloads) have no journal slot —
            # they never mutate, so there is nothing to track.
            return None
    return journal


def deltas_between(graph, old_version: int) -> Optional[List[EdgeDelta]]:
    """The staleness rule for state recorded at ``old_version`` of ``graph``.

    ``[]`` when ``old_version`` is current (serve the state as it is); the
    edge deltas covering ``old_version -> graph._version`` when the
    journal covers the gap (patch or validate the state against them);
    ``None`` — rebuild — when delta invalidation is off, the graph has no
    journal, the range is uncovered (overflow), or it crosses a structural
    (node-set) change.
    """
    if old_version == graph._version:
        return []
    if resolve_dag_cache_delta() == DELTA_OFF:
        return None
    journal = getattr(graph, "_journal", None)
    if journal is None:
        return None
    return journal.slice(old_version, graph._version)


# ---------------------------------------------------------------------------
# The per-source validity test
# ---------------------------------------------------------------------------
def delta_affects_source(
    delta: EdgeDelta,
    dist_of: Callable[[Node], Optional[float]],
    *,
    weighted: bool,
    tie_sensitive: bool,
) -> bool:
    """Whether one journalled edit can change a cached traversal.

    ``dist_of`` maps a node label to its cached distance from the entry's
    source (``None`` = unreachable).  ``weighted`` selects the entry's
    metric: hop entries see every edge at weight 1 and are immune to
    reweights; weighted entries use the journalled weights.
    ``tie_sensitive`` is set for DAG/sigma entries, which must also evict
    when an edit creates or destroys an *equal-length* path (path counts
    change even though distances do not).

    The arithmetic deliberately replicates the kernels' relaxation step —
    one addition, one comparison on the cached float distances — so the
    verdict matches what a fresh traversal would do, bit for bit.  Any
    uncertain case (an edit touching exactly one reachable endpoint, an
    unknown op) reports "affected": retention is only ever claimed when
    provably safe.
    """
    if delta.op == OP_STRUCTURAL:
        return True
    du = dist_of(delta.u)
    dv = dist_of(delta.v)
    if du is None and dv is None:
        # Both endpoints unreachable from the source: the edit lives in a
        # component the traversal never saw.  A pure edge edit cannot
        # connect it (that would need an endpoint on the reachable side).
        return False
    if du is None or dv is None:
        # One endpoint reachable: an insert bridges components, a delete
        # here means the cached entry disagrees with the journal.  Evict.
        return True
    if delta.op == OP_INSERT:
        w = delta.new if weighted else 1
        if du + w < dv or dv + w < du:
            return True
        return tie_sensitive and (du + w == dv or dv + w == du)
    if delta.op == OP_DELETE:
        w = delta.old if weighted else 1
        # The edge matters iff it lies on some shortest path from the
        # source — exactly the relaxation equality.  (Equality may keep
        # distances intact via an alternative path, but proving that
        # needs more than O(1); evict conservatively.)
        return du + w == dv or dv + w == du
    if delta.op == OP_REWEIGHT:
        if not weighted:
            return False  # hop metric: weights are invisible
        if delta.new < delta.old:
            # A decrease behaves like inserting the cheaper edge.
            if du + delta.new < dv or dv + delta.new < du:
                return True
            return tie_sensitive and (
                du + delta.new == dv or dv + delta.new == du
            )
        # An increase behaves like deleting the old edge: it only matters
        # if the edge was on a shortest path at its old weight.
        return du + delta.old == dv or dv + delta.old == du
    return True
