"""Ego-network betweenness (Everett & Borgatti, Social Networks 2005).

One of the "localised heuristics" the paper's related-work section contrasts
against: the betweenness of a node computed only inside its ego network
(the node, its neighbours and the edges among them).  It is cheap —
``O(sum_v deg(v)^2)`` overall — and needs no samples, but it comes with *no*
guarantee of any kind on the estimation error or the induced ranking, which
is exactly the gap SaPHyRa fills.  It is included as the no-guarantee
reference point for examples and ablations.

Like every other entry point it accepts ``backend=`` / ``workers=``: the
per-ego Brandes passes run on the selected traversal backend and the
per-node loop is chunked through the engine's source sweep, bit-identical
for any worker count (the fold is a plain per-node assignment).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence

from repro.baselines.base import BaselineResult
from repro.centrality.brandes import single_source_dependencies
from repro.engine.driver import sweep_sources
from repro.errors import GraphError
from repro.graphs.csr import require_graph
from repro.graphs.graph import Graph
from repro.utils.timing import Timer

Node = Hashable


def ego_betweenness(
    graph: Graph,
    node: Node,
    *,
    normalized: bool = True,
    backend: Optional[str] = None,
) -> float:
    """Betweenness of ``node`` within its ego network.

    The ego network contains ``node``, its neighbours, and every edge among
    them.  With ``normalized=True`` the value is divided by ``n (n - 1)`` of
    the *full* graph so it is on the same scale as the other estimators
    (the ranking is unaffected by the choice).
    """
    if not graph.has_node(node):
        raise GraphError(f"node {node!r} does not exist")
    members = [node] + list(graph.neighbors(node))
    ego = graph.subgraph(members)
    # Brandes restricted to the ego network: sum the pair dependencies of
    # ``node`` over all sources in the ego network.
    total = 0.0
    for source in ego.nodes():
        if source == node:
            continue
        dependencies = single_source_dependencies(ego, source, backend=backend)
        total += dependencies.get(node, 0.0)
    n = graph.number_of_nodes()
    if normalized and n > 1:
        return total / (n * (n - 1))
    return total


def _ego_chunk(payload, chunk: Sequence[Node]) -> List[float]:
    """Worker task: ego betweenness for one chunk of nodes (in chunk order)."""
    graph, backend = payload
    return [ego_betweenness(graph, node, backend=backend) for node in chunk]


class EgoBetweenness:
    """Whole-network ego-betweenness "estimator" (heuristic, no guarantees).

    Parameters
    ----------
    nodes:
        Restrict the computation to these nodes (default: all nodes); unlike
        the sampling estimators this heuristic *can* focus on a subset, but
        its values are not estimates of true betweenness — only a proxy
        ranking signal.
    backend:
        Traversal backend for the per-ego Brandes passes (``"dict"``,
        ``"csr"`` or ``None`` for the default); ego networks are tiny, so
        the ``auto`` default almost always stays on the dict reference.
    workers:
        Worker processes for the per-node loop (``None`` resolves via
        ``REPRO_WORKERS``); bit-identical for any worker count.
    """

    name = "ego"

    def __init__(
        self,
        nodes: Optional[Iterable[Node]] = None,
        *,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> None:
        self.nodes = list(nodes) if nodes is not None else None
        self.backend = backend
        self.workers = workers

    def estimate(self, graph: Graph) -> BaselineResult:
        """Compute ego betweenness for the selected nodes of ``graph``."""
        require_graph(graph, "EgoBetweenness.estimate")
        if graph.number_of_nodes() < 3:
            raise GraphError("need at least 3 nodes")
        selected = self.nodes if self.nodes is not None else list(graph.nodes())
        timer = Timer()
        with timer:
            scores: Dict[Node, float] = {}

            def fold(chunk, values) -> None:
                for node, value in zip(chunk, values):
                    scores[node] = value

            sweep_sources(
                _ego_chunk, selected, fold,
                payload=(graph, self.backend), workers=self.workers,
            )
        return BaselineResult(
            algorithm=self.name,
            scores=scores,
            num_samples=0,
            epsilon=float("nan"),
            delta=float("nan"),
            converged_by="heuristic",
            wall_time_seconds=timer.elapsed,
        )
