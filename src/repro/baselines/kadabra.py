"""KADABRA: adaptive path sampling with balanced bidirectional BFS
(Borassi & Natale, ESA 2016).

Each sample picks a random node pair and one uniformly random shortest path
between them, found with the balanced bidirectional BFS that makes the
per-sample cost ``n^{1/2+o(1)}`` instead of ``Theta(m)``; a chunk of samples
draws its pairs first and, on the CSR backend, runs their searches stacked.
Every inner node of the sampled path gets a +1; the estimate is the hit
frequency.  The number of samples adapts: after every doubling the
per-node empirical Bernstein deviations (with a union-bound allocation of
``delta``) are checked, and sampling stops early when they are all below
``epsilon``, capped by the diameter-based VC bound.
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
    bidirectional_shortest_paths,
    stacked_batch_pairs,
    stacked_paths,
)
from repro.graphs import sssp as _sssp
from repro.graphs.components import is_connected
from repro.graphs.diameter import estimate_diameter, exact_diameter
from repro.graphs.graph import Graph
from repro.stats.vc import vc_sample_size
from repro.saphyra_bc.vc_bounds import vc_from_hop_diameter
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.timing import Timer
from repro.utils.validation import check_probability_pair, check_sample_cap

Node = Hashable


def _kadabra_sample_chunk(payload, piece: Tuple[int, int]):
    """Worker task: one chunk of path samples.

    Unit-weight graphs sample through the balanced bidirectional BFS — the
    KADABRA workhorse, whose level balancing is specific to hop distances —
    in ``Gen_bc``'s chunk order: the chunk first draws all its pairs (a
    uniform source, then a uniform endpoint redrawn until it differs), then
    searches them and samples one path per pair, in pair order.  Searching
    consumes no randomness.  On the CSR backend the pairs run as stacked
    searches (:func:`~repro.graphs.bidirectional.stacked_paths`) of
    :func:`~repro.graphs.bidirectional.stacked_batch_pairs` pairs on sweep
    arrays recycled through the payload's
    :class:`~repro.graphs.csr.SweepSpare`; the dict backend searches pair by
    pair.  Both give the same paths from the same seed.

    With weights on, samples route through the unified SSSP engine instead,
    one draw at a time: one Dijkstra source DAG per drawn source (reused
    across samples via the cross-sample cache) and a uniform weight-minimal
    path sampled from it; the accounted cost is the full adjacency scan of
    that traversal.

    Returns ``(sparse hit counts, visited adjacency entries)``; hit counts
    are integer-valued floats, so folding them is exact in any order, and the
    chunk RNG streams make results independent of the worker count.
    """
    graph, nodes, backend, use_weights, base_seed, spare = payload
    chunk_index, draws = piece
    rng = _parallel.chunk_rng(base_seed, chunk_index)
    if use_weights:
        sampled = _dag_paths(graph, nodes, backend, draws, rng)
    else:
        pairs = [_draw_pair(nodes, rng) for _ in range(draws)]
        sampled = _search_paths(graph, pairs, backend, rng, spare)
    counts: Dict[Node, float] = {}
    visited_edges = 0
    for visited, path in sampled:
        visited_edges += visited
        if path is None:  # pragma: no cover - connected graphs
            continue
        for inner in path[1:-1]:
            counts[inner] = counts.get(inner, 0.0) + 1.0
    return counts, visited_edges


def _draw_pair(nodes, rng) -> Tuple[Node, Node]:
    source = rng.choice(nodes)
    endpoint = rng.choice(nodes)
    while endpoint == source:
        endpoint = rng.choice(nodes)
    return source, endpoint


def _dag_paths(graph, nodes, backend, draws, rng):
    """Yield ``(visited edges, path)`` per weighted draw: the pair, then its
    path from the source's cached Dijkstra DAG."""
    for _ in range(draws):
        source, endpoint = _draw_pair(nodes, rng)
        dag = _dag_cache.source_dag(graph, source, backend=backend, weighted=True)
        if backend == _csr.CSR_BACKEND:
            snapshot = dag.csr
            path_indices = dag.sample_path_indices(snapshot.index[endpoint], rng)
            labels = snapshot.labels
            path = [labels[index] for index in path_indices]
        else:
            path = dag.sample_path(endpoint, rng)
        yield 2 * graph.number_of_edges(), path


def _search_paths(graph, pairs, backend, rng, spare):
    """Yield ``(visited edges, path or None)`` per pair, in pair order."""
    if backend != _csr.CSR_BACKEND:
        for source, endpoint in pairs:
            result = bidirectional_shortest_paths(
                graph, source, endpoint, backend=backend
            )
            yield result.visited_edges, (
                result.sample_path(rng) if result.connected else None
            )
        return
    step = stacked_batch_pairs(_csr.as_csr(graph))
    for first in range(0, len(pairs), step):
        yield from stacked_paths(graph, pairs[first : first + step], rng, spare)


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
        default, which follows the plain ``auto`` rule of
        :func:`~repro.graphs.csr.effective_backend`); both draw identical
        samples from identical seeds.  Unit-weight samples follow
        ``Gen_bc``'s chunk order (see :func:`_kadabra_sample_chunk`): a
        chunk draws all its pairs first, and on CSR searches them as
        stacked sub-batches.
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
        check_sample_cap(max_samples_cap)
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
            choice = _csr.effective_backend(graph, self.backend)
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
                    _csr.SweepSpare(),
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

