"""KADABRA: adaptive path sampling with balanced bidirectional BFS
(Borassi & Natale, ESA 2016).

Each sample picks a random node pair and one uniformly random shortest path
between them, found with the balanced bidirectional BFS that makes the
per-sample cost ``n^{1/2+o(1)}`` instead of ``Theta(m)``.  Every inner node
of the sampled path gets a +1; the estimate is the hit frequency.  The
number of samples adapts: after every doubling the per-node empirical
Bernstein deviations (with a union-bound allocation of ``delta``) are
checked, and sampling stops early when they are all below ``epsilon``,
capped by the diameter-based VC bound.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from repro import parallel as _parallel
from repro.baselines.base import BaselineResult
from repro.engine import dag_cache as _dag_cache
from repro.engine.driver import SampleDriver
from repro.engine.schedule import SampleSchedule
from repro.engine.stopping import HitCountRule
from repro.errors import GraphError
from repro.graphs import csr as _csr
from repro.graphs.bidirectional import (
    AUTO_CSR_BIDIRECTIONAL_THRESHOLD,
    bidirectional_shortest_paths,
)
from repro.graphs import sssp as _sssp
from repro.graphs.components import is_connected
from repro.graphs.diameter import estimate_diameter, exact_diameter
from repro.graphs.graph import Graph
from repro.stats.vc import vc_sample_size
from repro.saphyra_bc.vc_bounds import vc_from_hop_diameter
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.timing import Timer
from repro.utils.validation import check_probability_pair

Node = Hashable


def _kadabra_sample_chunk(payload, piece: Tuple[int, int]):
    """Worker task: one chunk of path samples.

    Unit-weight graphs sample through the balanced bidirectional BFS — the
    KADABRA workhorse, whose level balancing is specific to hop distances.
    With weights on, samples route through the unified SSSP engine instead:
    one Dijkstra source DAG per drawn source (reused across samples via the
    cross-sample cache) and a uniform weight-minimal path sampled from it;
    the accounted cost is the full adjacency scan of that traversal.

    Returns ``(sparse hit counts, visited adjacency entries)``; hit counts
    are integer-valued floats, so folding them is exact in any order, and the
    chunk RNG streams make results independent of the worker count.
    """
    graph, nodes, backend, use_weights, base_seed = payload
    chunk_index, draws = piece
    rng = _parallel.chunk_rng(base_seed, chunk_index)
    counts: Dict[Node, float] = {}
    visited_edges = 0
    for _ in range(draws):
        source = rng.choice(nodes)
        endpoint = rng.choice(nodes)
        while endpoint == source:
            endpoint = rng.choice(nodes)
        if use_weights:
            dag = _dag_cache.source_dag(
                graph, source, backend=backend, weighted=True
            )
            visited_edges += 2 * graph.number_of_edges()
            if backend == _csr.CSR_BACKEND:
                snapshot = dag.csr
                path_indices = dag.sample_path_indices(
                    snapshot.index[endpoint], rng
                )
                labels = snapshot.labels
                path = [labels[index] for index in path_indices]
            else:
                path = dag.sample_path(endpoint, rng)
        else:
            result = bidirectional_shortest_paths(
                graph, source, endpoint, backend=backend
            )
            visited_edges += result.visited_edges
            if not result.connected:  # pragma: no cover - connected graphs
                continue
            path = result.sample_path(rng)
        for inner in path[1:-1]:
            counts[inner] = counts.get(inner, 0.0) + 1.0
    return counts, visited_edges


class KADABRA:
    """Adaptive path-sampling betweenness estimation for all nodes.

    Parameters
    ----------
    epsilon, delta:
        Additive accuracy / confidence.
    seed:
        RNG seed.
    sample_constant:
        Constant ``c`` of the sample-size formulas.
    max_samples_cap:
        Optional hard cap on the number of samples.
    backend:
        Traversal backend (``"dict"``, ``"csr"`` or ``None`` for the
        default); both draw identical samples from identical seeds.
    weighted:
        SSSP engine selection (``None``/``"auto"``/``"on"``/``"off"``; see
        :mod:`repro.graphs.sssp`).  With weights on, samples are uniform
        weight-minimal shortest paths drawn from cached Dijkstra source
        DAGs (the bidirectional balancing is a hop-distance optimisation);
        the hop-diameter-based sample sizes are kept as a documented
        heuristic surrogate.
    workers:
        Worker processes for the sampling rounds (``None`` resolves via
        ``REPRO_WORKERS``).  Samples are drawn from per-chunk seeded RNG
        streams folded in chunk order, so any worker count returns
        bit-identical results.
    """

    name = "kadabra"

    def __init__(
        self,
        epsilon: float = 0.05,
        delta: float = 0.01,
        *,
        seed: SeedLike = None,
        sample_constant: float = 0.5,
        max_samples_cap: Optional[int] = None,
        backend: Optional[str] = None,
        weighted: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> None:
        check_probability_pair(epsilon, delta)
        self.epsilon = epsilon
        self.delta = delta
        self.seed = seed
        self.sample_constant = sample_constant
        self.max_samples_cap = max_samples_cap
        self.backend = backend
        self.weighted = weighted
        self.workers = workers

    def estimate(self, graph: Graph) -> BaselineResult:
        """Estimate betweenness for every node of ``graph``."""
        if graph.number_of_nodes() < 3:
            raise GraphError("need at least 3 nodes to estimate betweenness")
        if not is_connected(graph):
            raise GraphError("KADABRA requires a connected graph")
        rng = ensure_rng(self.seed)
        timer = Timer()
        with timer:
            n = graph.number_of_nodes()
            nodes = list(graph.nodes())
            if n <= 300:
                diameter = exact_diameter(graph)
            else:
                diameter = estimate_diameter(graph, rng)
            vc_bound = vc_from_hop_diameter(diameter)
            max_samples = vc_sample_size(
                self.epsilon, self.delta, vc_bound, constant=self.sample_constant
            )
            if self.max_samples_cap is not None:
                max_samples = min(max_samples, self.max_samples_cap)
            schedule = SampleSchedule.from_guarantee(
                self.epsilon,
                self.delta,
                max_samples,
                sample_constant=self.sample_constant,
            )
            per_check_delta = self.delta / (schedule.num_stages() * n)

            counts: Dict[Node, float] = {node: 0.0 for node in nodes}
            use_weights = _sssp.effective_weighted(graph, self.weighted)
            # Weighted sampling runs full source traversals (no per-query
            # state arrays), so the plain auto threshold applies.
            choice = _csr.effective_backend(
                graph, self.backend,
                auto_threshold=(
                    None if use_weights else AUTO_CSR_BIDIRECTIONAL_THRESHOLD
                ),
            )
            base_seed = _parallel.derive_base_seed(rng)
            visited = {"edges": 0}

            def fold(partial) -> None:
                part, part_visited = partial
                visited["edges"] += part_visited
                for node, value in part.items():
                    counts[node] += value

            stopping = HitCountRule(
                counts, epsilon=self.epsilon, per_check_delta=per_check_delta
            )
            with SampleDriver(
                _kadabra_sample_chunk,
                payload=(
                    _csr.shareable_graph(graph, choice),
                    nodes,
                    choice,
                    use_weights,
                    base_seed,
                ),
                workers=self.workers,
            ) as driver:
                outcome = driver.run_schedule(schedule, stopping, fold)
            drawn = outcome.num_samples
            converged_by = outcome.converged_by
            visited_edges = visited["edges"]
            scores = {node: counts[node] / drawn for node in nodes}

        return BaselineResult(
            algorithm=self.name,
            scores=scores,
            num_samples=drawn,
            epsilon=self.epsilon,
            delta=self.delta,
            converged_by=converged_by,
            wall_time_seconds=timer.elapsed,
            extra={
                "vc_dimension": float(vc_bound),
                "max_samples": float(max_samples),
                "visited_edges": float(visited_edges),
                "weighted": float(use_weights),
            },
        )

