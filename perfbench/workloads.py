"""Workload definitions and the seed-driven plan generator.

A workload is a registry dataset plus a *pattern*: the fixed order of
operations one closed-loop client sends.  :func:`make_plan` turns a pattern
and a seed into concrete operations (target sets, estimator seeds, edge
batches), so the program under test only ever receives generated inputs and
the same ``(workload, seed)`` always yields the same plan.

Operation kinds in a pattern:

``bc``    ``SaPHyRaBC.rank`` on a random target subset
``full``  ``SaPHyRaBC.rank`` with ``targets=None`` (SaPHyRa_bc-full)
``cc``    ``SaPHyRaCC.rank`` on a random target subset
``kad``   ``KADABRA.estimate`` (whole network)
``ins``   insert a batch of random non-edges, then ``as_csr(graph)``
``del``   delete the most recently inserted batch, then ``as_csr(graph)``

Deleting only edges the benchmark inserted keeps every graph state
connected, and every query names the graph state (the set of live inserted
batches) it runs against, so the checker can compute exact truth per state
before anything is timed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

QUERY_KINDS = ("bc", "full", "cc", "kad")
EDIT_KINDS = ("ins", "del")

#: Accuracy parameters of every query (the paper's defaults).
EPSILON = 0.05
DELTA = 0.01
#: Targets per subset query and inserted edges per edit batch.
TARGETS_PER_QUERY = 50
EDGES_PER_BATCH = 128
#: Registry seed of every dataset: the graph is fixed, the seed varies the rest.
DATASET_SEED = 7

Edge = Tuple[int, int]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``pattern`` is the operation list of one round; ``workers`` is passed
    explicitly to every estimator (``0`` = the repo default, serial).
    """

    name: str
    dataset: str
    scale: float
    pattern: Tuple[str, ...]
    why: str
    workers: int = 0


@dataclass(frozen=True)
class Op:
    """One generated operation.

    ``state`` is the tuple of live inserted batch ids the operation sees
    (for ``ins``/``del``: the state it leaves behind).  Query fields:
    ``targets`` (``None`` for ``full`` and ``kad``: every node) and ``seed``;
    edit field: ``edges``.
    """

    index: int
    kind: str
    state: Tuple[int, ...]
    targets: Optional[Tuple[int, ...]] = None
    seed: Optional[int] = None
    edges: Optional[Tuple[Edge, ...]] = None


def _pattern(text: str) -> Tuple[str, ...]:
    tokens = tuple(text.split())
    unknown = sorted(set(tokens) - set(QUERY_KINDS) - set(EDIT_KINDS))
    if unknown:
        raise ValueError(f"unknown operation kinds {unknown}")
    return tokens


# Every workload runs every operation kind at least once, so each workload
# reports every end-to-end metric; the mix decides which layer dominates.
# Back-to-back "ins del" pairs time the write path without creating a graph
# state any query reads (no extra ground truth) and give edit_s_p50 enough
# samples; "ins ... del" spans put reads on the edited graph.
_EDIT_PAIRS = "ins del " * 16
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="road-subset",
            dataset="usa-road",
            scale=0.8,
            pattern=_pattern(
                "bc kad bc cc " * 3 + "bc kad " + _EDIT_PAIRS
            ),
            why=(
                "long-diameter road graph: per-sample bidirectional search "
                "in Gen_bc dominates every subset query"
            ),
        ),
        Workload(
            name="social-full",
            dataset="orkut",
            scale=2.0,
            pattern=_pattern("full kad kad cc " * 3 + _EDIT_PAIRS),
            why=(
                "dense social graph, all nodes ranked: the exact 2-hop "
                "subspace and the fold dominate; KADABRA shares the BFS layer"
            ),
        ),
        Workload(
            name="social-mixed",
            dataset="flickr",
            scale=2.0,
            pattern=_pattern(
                "bc cc " * 3 + "ins " + "bc cc " * 6 + "kad kad del "
                + "bc cc " * 2 + "kad kad ins " + "bc cc " * 6 + "kad kad del "
                + "bc cc " * 3 + "kad kad " + _EDIT_PAIRS
            ),
            why=(
                "short bc and cc queries with edits between: per-query fixed "
                "cost, the DAG cache and the write path are a large share"
            ),
        ),
        Workload(
            name="social-parallel",
            dataset="flickr",
            scale=2.0,
            pattern=_pattern("bc " * 16 + "cc kad " * 4 + _EDIT_PAIRS),
            why=(
                "the social-mixed bc queries at workers=2: pool start-up, "
                "graph handoff and chunk IPC are a visible share"
            ),
            workers=2,
        ),
    )
}


def make_plan(
    workload: Workload, nodes: Sequence[int], edges: Sequence[Edge], seed: int
) -> List[Op]:
    """The deterministic operation list of one round of ``workload``.

    ``nodes``/``edges`` describe the base graph; only their sorted contents
    matter, so the plan does not depend on adjacency order.
    """
    rng = random.Random(f"perfbench:{workload.name}:{seed}")
    node_list = sorted(nodes)
    present = {(min(u, v), max(u, v)) for u, v in edges}
    live: List[int] = []
    batches: Dict[int, Tuple[Edge, ...]] = {}
    plan: List[Op] = []
    for index, kind in enumerate(workload.pattern):
        if kind == "ins":
            batch_id = len(batches)
            batch = _insert_non_edges(rng, node_list, present, EDGES_PER_BATCH)
            batches[batch_id] = batch
            live.append(batch_id)
            plan.append(Op(index, kind, tuple(live), edges=batch))
        elif kind == "del":
            if not live:
                raise ValueError(f"{workload.name}: 'del' with no live batch")
            batch = batches[live.pop()]
            present.difference_update(batch)
            plan.append(Op(index, kind, tuple(live), edges=batch))
        else:
            targets = (
                tuple(rng.sample(node_list, TARGETS_PER_QUERY))
                if kind in ("bc", "cc")
                else None
            )
            plan.append(
                Op(index, kind, tuple(live), targets=targets,
                   seed=rng.getrandbits(32))
            )
    if live:
        raise ValueError(f"{workload.name}: pattern leaves inserted edges live")
    return plan


def _insert_non_edges(
    rng: random.Random, nodes: Sequence[int], present: set, count: int
) -> Tuple[Edge, ...]:
    """Draw ``count`` distinct non-edges and add them to ``present``."""
    chosen: List[Edge] = []
    while len(chosen) < count:
        u, v = rng.sample(nodes, 2)
        edge = (min(u, v), max(u, v))
        if edge not in present:
            present.add(edge)
            chosen.append(edge)
    return tuple(chosen)


def batches_of_state(plan: Sequence[Op]) -> Dict[Tuple[int, ...], List[Edge]]:
    """Inserted edges live in each graph state some query reads."""
    inserted: Dict[int, Tuple[Edge, ...]] = {}
    states: Dict[Tuple[int, ...], List[Edge]] = {}
    for op in plan:
        if op.kind == "ins":
            inserted[op.state[-1]] = op.edges
        elif op.kind in QUERY_KINDS and op.state not in states:
            states[op.state] = [e for b in op.state for e in inserted[b]]
    return states
