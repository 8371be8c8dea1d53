"""Riondato–Kornaropoulos fixed-size shortest-path sampling (DMKD 2016).

The estimator draws a *fixed* number of samples

    r = c / eps^2 * (floor(log2(VD - 2)) + 1 + ln(1/delta))

where ``VD`` is (an upper bound on) the number of nodes on the longest
shortest path, samples one uniformly random shortest path per random node
pair, and adds ``1/r`` to every inner node.  It is the conceptual ancestor
of both ABRA and KADABRA and the reference point for the VC-dimension
comparison in Table I of the paper.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from repro import parallel as _parallel
from repro.baselines.base import BaselineResult
from repro.engine import dag_cache as _dag_cache
from repro.engine.driver import SampleDriver
from repro.engine.schedule import SampleSchedule
from repro.engine.stopping import FixedSampleRule
from repro.errors import GraphError
from repro.graphs import csr as _csr
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


def _rk_sample_chunk(payload, piece: Tuple[int, int]) -> Dict[Node, float]:
    """Worker task: draw one chunk of path samples; return sparse hit counts.

    The chunk draws from its own seeded RNG stream (see
    :mod:`repro.parallel`), so the same chunk produces the same samples in
    any process — worker counts never change results.
    """
    graph, nodes, backend, use_weights, base_seed = payload
    chunk_index, draws = piece
    rng = _parallel.chunk_rng(base_seed, chunk_index)
    counts: Dict[Node, float] = {}
    for _ in range(draws):
        source = rng.choice(nodes)
        target = rng.choice(nodes)
        while target == source:
            target = rng.choice(nodes)
        # The source DAG comes from the shared cross-sample cache: a source
        # drawn twice reuses its traversal (path sampling only reads the
        # DAG and consumes the RNG identically either way).  With weights
        # on, the DAG is Dijkstra-built and the sampled paths are uniform
        # over *weight-minimal* shortest paths.
        dag = _dag_cache.default_dag_cache().dag(
            graph, source, backend=backend, weighted=use_weights
        )
        if backend == _csr.CSR_BACKEND:
            snapshot = dag.csr
            path = dag.sample_path_indices(snapshot.index[target], rng)
            labels = snapshot.labels
            for inner in path[1:-1]:
                label = labels[inner]
                counts[label] = counts.get(label, 0.0) + 1.0
        else:
            path = dag.sample_path(target, rng)
            for inner in path[1:-1]:
                counts[inner] = counts.get(inner, 0.0) + 1.0
    return counts


class RiondatoKornaropoulos:
    """Fixed-sample-size betweenness estimation for all nodes.

    Parameters
    ----------
    epsilon, delta:
        Additive accuracy / confidence.
    seed:
        RNG seed.
    sample_constant:
        Constant ``c`` in the sample-size formula.
    max_samples_cap:
        Optional hard cap on the number of samples.
    backend:
        Traversal backend (``"dict"``, ``"csr"`` or ``None`` for the
        default); both draw identical samples from identical seeds.
    weighted:
        SSSP engine selection (``None``/``"auto"``/``"on"``/``"off"``; see
        :mod:`repro.graphs.sssp`).  With weights on, samples are uniform
        weight-minimal shortest paths; the hop-diameter-based sample size
        is kept as a documented heuristic surrogate (the VC machinery is
        defined on hop distances).
    workers:
        Worker processes for the sampling loop (``None`` resolves via
        ``REPRO_WORKERS``).  Samples are drawn from per-chunk seeded RNG
        streams folded in chunk order, so any worker count returns
        bit-identical results.
    """

    name = "rk"

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
        _csr.require_graph(graph, "RiondatoKornaropoulos.estimate")
        if graph.number_of_nodes() < 3:
            raise GraphError("need at least 3 nodes to estimate betweenness")
        if not is_connected(graph):
            raise GraphError("the RK estimator requires a connected graph")
        rng = ensure_rng(self.seed)
        timer = Timer()
        with timer:
            if graph.number_of_nodes() <= 300:
                diameter = exact_diameter(graph)
            else:
                diameter = estimate_diameter(graph, rng)
            vc_bound = vc_from_hop_diameter(diameter)
            num_samples = vc_sample_size(
                self.epsilon, self.delta, vc_bound, constant=self.sample_constant
            )
            if self.max_samples_cap is not None:
                num_samples = min(num_samples, self.max_samples_cap)

            nodes = list(graph.nodes())
            counts: Dict[Node, float] = {node: 0.0 for node in nodes}
            choice = _csr.effective_backend(graph, self.backend)
            use_weights = _sssp.effective_weighted(graph, self.weighted)
            base_seed = _parallel.derive_base_seed(rng)

            def fold(part) -> None:
                for node, value in part.items():
                    counts[node] += value

            with SampleDriver(
                _rk_sample_chunk,
                payload=(
                    _csr.shareable_graph(graph, choice),
                    nodes,
                    choice,
                    use_weights,
                    base_seed,
                ),
                workers=self.workers,
            ) as driver:
                driver.run_schedule(
                    SampleSchedule.fixed(num_samples), FixedSampleRule(), fold
                )
            scores = {node: counts[node] / num_samples for node in nodes}

        return BaselineResult(
            algorithm=self.name,
            scores=scores,
            num_samples=num_samples,
            epsilon=self.epsilon,
            delta=self.delta,
            converged_by="fixed",
            wall_time_seconds=timer.elapsed,
            extra={
                "vc_dimension": float(vc_bound),
                "diameter_bound": float(diameter),
                "weighted": float(use_weights),
            },
        )
