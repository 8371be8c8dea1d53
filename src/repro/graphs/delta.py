"""Edge-level mutation journal: what changed since a graph version.

The CSR snapshot in a graph's versioned slot (:meth:`Graph.memo
<repro.graphs.graph.Graph.memo>`, read through
:func:`repro.graphs.csr.as_csr`) records the ``Graph._version`` it was
built from.  This module records *what changed* since, so that the slot
can patch a stale snapshot instead of rebuilding it after every edit:

* :class:`MutationJournal` — a bounded record of edge-level deltas
  (insert / delete / reweight) between ``Graph._version`` values, armed
  per graph by :func:`track` when a slot stores a value a later read may
  patch.  ``Graph._commit`` is its one recorder: every effective mutation
  passes through it.  Node additions/removals are recorded as
  *structural* markers: they change the label set, so the slot rebuilds
  across them.  The journal is capped (:data:`DELTA_JOURNAL_SIZE`
  entries): overflowing drops the oldest entries, after which version
  ranges reaching past the cap are reported as uncovered — again a
  rebuild, never a wrong answer.
* :func:`deltas_between` — the slot's staleness rule: ``[]`` when the
  recorded version is current, the exact delta list covering
  ``old_version -> graph._version`` when the journal covers it, or
  ``None`` (rebuild) when it does not (no journal, overflowed, or crossed
  a structural edit).

Every other cache of graph-derived state — the other slot values, the
engine's ``SourceDAGCache``, the dataset layer's ``GroundTruthCache`` —
keys on ``Graph._version`` alone and drops what a version change made
stale; none of them reads the journal.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Hashable, List, NamedTuple, Optional

Node = Hashable

#: The cap :func:`track` arms journals with: generous for interactive edit
#: streams, small enough that replaying a full journal into a snapshot
#: stays cheap next to rebuilding it.
DELTA_JOURNAL_SIZE = 256

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
        edit; the caller rebuilds.
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
def track(graph) -> MutationJournal:
    """Arm the mutation journal of ``graph`` and return it.

    ``Graph.memo`` calls this when a slot with a ``refresh`` stores a
    value a later read may patch, so the mutations after it are
    journalled.
    """
    journal = graph._journal
    if journal is None:
        journal = graph._journal = MutationJournal(
            graph._version, DELTA_JOURNAL_SIZE
        )
    return journal


def deltas_between(graph, old_version: int) -> Optional[List[EdgeDelta]]:
    """The staleness rule for state recorded at ``old_version`` of ``graph``.

    ``[]`` when ``old_version`` is current (serve the state as it is); the
    edge deltas covering ``old_version -> graph._version`` when the
    journal covers the gap (patch the state with them); ``None`` —
    rebuild — when the graph has no journal, the range is uncovered
    (overflow), or it crosses a structural (node-set) change.
    """
    if old_version == graph._version:
        return []
    journal = graph._journal
    if journal is None:
        return None
    return journal.slice(old_version, graph._version)
