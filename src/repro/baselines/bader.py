"""Bader et al. adaptive source (pivot) sampling (WAW 2007).

The oldest of the compared approaches: sample source pivots, run one full
single-source shortest-path dependency accumulation per pivot (Brandes'
inner loop), and extrapolate.  The original paper adapts the number of
pivots to the centrality of a single node of interest; this implementation
keeps the per-pivot machinery and exposes either a fixed pivot count or an
``epsilon``-derived default, which is how the benchmark study the paper cites
([AlGhamdi et al., SSDBM 2017]) ran it.
"""

from __future__ import annotations

import math
from typing import Hashable, Optional

from repro.baselines.base import BaselineResult
from repro.centrality.brandes import betweenness_from_pivots
from repro.errors import GraphError
from repro.graphs.components import is_connected
from repro.graphs.csr import require_graph
from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.timing import Timer
from repro.utils.validation import check_probability_pair

Node = Hashable


class BaderPivot:
    """Pivot-based betweenness estimation for all nodes.

    Parameters
    ----------
    epsilon, delta:
        Used only to derive the default pivot count
        (``ln(1/delta) / (2 epsilon^2)`` capped at ``n``); the method's own
        guarantee is multiplicative for high-centrality nodes rather than the
        additive one the other baselines offer.
    num_pivots:
        Explicit pivot count overriding the default.
    seed:
        RNG seed.
    backend:
        Traversal backend forwarded to the Brandes pivot passes.
    weighted:
        SSSP engine selection (``None``/``"auto"``/``"on"``/``"off"``; see
        :mod:`repro.graphs.sssp`) forwarded to the Brandes pivot passes —
        with weights on, each pivot runs a Dijkstra dependency pass, so the
        extrapolated scores estimate *weighted* betweenness.
    workers:
        Worker processes for the pivot passes (``None`` resolves via
        ``REPRO_WORKERS``); bit-identical for any worker count.  The pivot
        sweep inherits the exact-Brandes fold contract: each chunk of pivots
        reduces to one dependency partial in-worker, and CSR payloads carry
        the frozen snapshot.
    """

    name = "bader"

    def __init__(
        self,
        epsilon: float = 0.05,
        delta: float = 0.01,
        *,
        num_pivots: Optional[int] = None,
        seed: SeedLike = None,
        backend: Optional[str] = None,
        weighted: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> None:
        check_probability_pair(epsilon, delta)
        if num_pivots is not None and num_pivots < 1:
            raise ValueError(f"num_pivots must be >= 1, got {num_pivots}")
        self.epsilon = epsilon
        self.delta = delta
        self.num_pivots = num_pivots
        self.seed = seed
        self.backend = backend
        self.weighted = weighted
        self.workers = workers

    def estimate(self, graph: Graph) -> BaselineResult:
        """Estimate betweenness for every node of ``graph``."""
        require_graph(graph, "BaderPivot.estimate")
        if graph.number_of_nodes() < 3:
            raise GraphError("need at least 3 nodes to estimate betweenness")
        if not is_connected(graph):
            raise GraphError("the pivot estimator requires a connected graph")
        rng = ensure_rng(self.seed)
        n = graph.number_of_nodes()
        pivots_needed = self.num_pivots
        if pivots_needed is None:
            pivots_needed = math.ceil(
                math.log(1.0 / self.delta) / (2.0 * self.epsilon**2)
            )
        pivots_needed = max(1, min(pivots_needed, n))

        timer = Timer()
        with timer:
            nodes = list(graph.nodes())
            pivots = rng.sample(nodes, pivots_needed)
            scores = betweenness_from_pivots(
                graph, pivots, normalized=True, backend=self.backend,
                workers=self.workers, weighted=self.weighted,
            )

        return BaselineResult(
            algorithm=self.name,
            scores=scores,
            num_samples=pivots_needed,
            epsilon=self.epsilon,
            delta=self.delta,
            converged_by="fixed",
            wall_time_seconds=timer.elapsed,
        )
