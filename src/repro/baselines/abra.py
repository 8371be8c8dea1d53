"""ABRA: progressive node-pair sampling (Riondato & Upfal, KDD 2016 / TKDD 2018).

Each sample is a random ordered node pair ``(u, v)``; the estimator adds the
*fraction of shortest u-v paths through w*, ``sigma_uv(w) / sigma_uv``, to
every node ``w`` — so one sample updates every node on the shortest-path DAG
between the endpoints, which is why ABRA is the slowest of the compared
methods per sample.  Sampling proceeds in geometric stages; after every
stage a stopping condition is evaluated and the estimator halts as soon as
every node's deviation bound is below ``epsilon``.

Substitution note (documented in DESIGN.md): the original stopping rule is
based on Rademacher averages; this reproduction uses the empirical Bernstein
bound with a union bound over nodes, which provides the same
``(epsilon, delta)`` guarantee and the same qualitative behaviour (progressive
stages, earlier stops on easier inputs) with a slightly more conservative
constant.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Hashable, Optional, Tuple

from repro import parallel as _parallel
from repro.baselines.base import BaselineResult
from repro.engine import dag_cache as _dag_cache
from repro.engine.driver import SampleDriver
from repro.engine.schedule import SampleSchedule
from repro.engine.stopping import BernsteinSumsRule
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


def _abra_sample_chunk(payload, piece: Tuple[int, int]):
    """Worker task: one chunk of node-pair samples; returns sparse partial
    sums ``(totals, totals_sq)`` accumulated in draw order.

    The chunk's RNG stream is seeded from ``(base_seed, chunk_index)`` only,
    so the partials — and the chunk-order fold of them — are identical for
    any worker count.  On CSR the payload's graph slot holds the snapshot
    (:func:`repro.graphs.csr.shareable_graph`); the source-DAG cache keys
    on it exactly as it would on a graph.
    """
    estimator, graph, nodes, backend, use_weights, base_seed = payload
    chunk_index, draws = piece
    rng = _parallel.chunk_rng(base_seed, chunk_index)
    totals: Dict[Node, float] = defaultdict(float)
    totals_sq: Dict[Node, float] = defaultdict(float)
    for _ in range(draws):
        if backend == _csr.CSR_BACKEND:
            estimator._add_pair_sample_csr(
                graph, nodes, totals, totals_sq, rng, use_weights
            )
        else:
            estimator._add_pair_sample(
                graph, nodes, totals, totals_sq, rng, use_weights
            )
    return dict(totals), dict(totals_sq)


class ABRA:
    """Progressive-sampling betweenness estimation for all nodes.

    Parameters
    ----------
    epsilon, delta:
        Additive accuracy / confidence.
    seed:
        RNG seed.
    stage_growth:
        Multiplicative growth of the sample schedule between stages.
    sample_constant:
        Constant ``c`` of the sample-size formulas.
    max_samples_cap:
        Optional hard cap on the number of samples.
    backend:
        Traversal backend (``"dict"``, ``"csr"`` or ``None`` for the
        default); both draw identical samples from identical seeds.
    weighted:
        SSSP engine selection (``None``/``"auto"``/``"on"``/``"off"``; see
        :mod:`repro.graphs.sssp`).  With weights on, each sample's
        fractional path counts are taken over *weight-minimal* shortest
        paths (Dijkstra-built DAGs); the hop-diameter-based sample sizes
        are kept as a documented heuristic surrogate.
    workers:
        Worker processes for the sampling stages (``None`` resolves via
        ``REPRO_WORKERS``).  Samples are drawn from per-chunk seeded RNG
        streams and partial sums are folded in chunk order, so any worker
        count returns bit-identical results.
    """

    name = "abra"

    def __init__(
        self,
        epsilon: float = 0.05,
        delta: float = 0.01,
        *,
        seed: SeedLike = None,
        stage_growth: float = 2.0,
        sample_constant: float = 0.5,
        max_samples_cap: Optional[int] = None,
        backend: Optional[str] = None,
        weighted: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> None:
        check_probability_pair(epsilon, delta)
        check_sample_cap(max_samples_cap)
        if stage_growth <= 1.0:
            raise ValueError(f"stage_growth must be > 1, got {stage_growth}")
        self.epsilon = epsilon
        self.delta = delta
        self.seed = seed
        self.stage_growth = stage_growth
        self.sample_constant = sample_constant
        self.max_samples_cap = max_samples_cap
        self.backend = backend
        self.weighted = weighted
        self.workers = workers

    # ------------------------------------------------------------------
    def estimate(self, graph: Graph) -> BaselineResult:
        """Estimate betweenness for every node of ``graph``."""
        _csr.require_graph(graph, "ABRA.estimate")
        if graph.number_of_nodes() < 3:
            raise GraphError("need at least 3 nodes to estimate betweenness")
        if not is_connected(graph):
            raise GraphError("ABRA requires a connected graph")
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
                growth=self.stage_growth,
            )
            # Union bound over nodes and stages.
            per_check_delta = self.delta / (schedule.num_stages() * n)

            totals: Dict[Node, float] = {node: 0.0 for node in nodes}
            totals_sq: Dict[Node, float] = {node: 0.0 for node in nodes}
            choice = _csr.effective_backend(graph, self.backend)
            use_weights = _sssp.effective_weighted(graph, self.weighted)
            base_seed = _parallel.derive_base_seed(rng)

            def fold(partial) -> None:
                part, part_sq = partial
                for node, value in part.items():
                    totals[node] += value
                for node, value in part_sq.items():
                    totals_sq[node] += value

            stopping = BernsteinSumsRule(
                totals, totals_sq,
                epsilon=self.epsilon, per_check_delta=per_check_delta,
            )
            with SampleDriver(
                _abra_sample_chunk,
                payload=(
                    self,
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
            scores = {node: totals[node] / drawn for node in nodes}

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
                "weighted": float(use_weights),
            },
        )

    # ------------------------------------------------------------------
    def _add_pair_sample(
        self,
        graph: Graph,
        nodes,
        totals: Dict[Node, float],
        totals_sq: Dict[Node, float],
        rng,
        use_weights: bool = False,
    ) -> None:
        """Sample one node pair and add the fractional path counts.

        The source DAG comes from the shared :mod:`repro.engine.dag_cache`
        (a repeated source reuses the traversal) and the backward ``beta``
        pass is the shared :meth:`ShortestPathDAG.path_counts_to` kernel —
        ABRA no longer carries private traversal loops.  With weights on
        the DAG is Dijkstra-built; the distance comparisons below work
        unchanged on its float distances.
        """
        source = rng.choice(nodes)
        target = rng.choice(nodes)
        while target == source:
            target = rng.choice(nodes)
        dag = _dag_cache.default_dag_cache().dag(
            graph, source, backend=_csr.DICT_BACKEND, weighted=use_weights
        )
        if target not in dag.distances:  # pragma: no cover - connected graphs
            return
        # beta[w] = number of shortest paths from w to target inside the
        # DAG.  Only nodes with d(w) < d(target) can contribute.
        target_distance = dag.distances[target]
        beta = dag.path_counts_to(target)
        sigma_uv = dag.sigma[target]
        for node, paths_to_target in beta.items():
            if node == source or node == target:
                continue
            if dag.distances[node] >= target_distance:
                continue
            fraction = dag.sigma[node] * paths_to_target / sigma_uv
            totals[node] += fraction
            totals_sq[node] += fraction * fraction

    def _add_pair_sample_csr(
        self,
        graph: Graph,
        nodes,
        totals: Dict[Node, float],
        totals_sq: Dict[Node, float],
        rng,
        use_weights: bool = False,
    ) -> None:
        """Index-space twin of :meth:`_add_pair_sample`.

        Draws the same node pair (identical RNG consumption), reuses the
        cached index-space DAG, and runs the shared
        :meth:`~repro.graphs.csr.CSRShortestPathDAG.path_counts_to` kernel;
        the fractional updates to the label-keyed totals are identical.
        """
        source = rng.choice(nodes)
        target = rng.choice(nodes)
        while target == source:
            target = rng.choice(nodes)
        dag = _dag_cache.default_dag_cache().dag(
            graph, source, backend=_csr.CSR_BACKEND, weighted=use_weights
        )
        snapshot = dag.csr
        target_index = snapshot.index[target]
        dist = dag.dist
        if dist[target_index] < 0:  # pragma: no cover - connected graphs
            return
        target_distance = dist[target_index]
        beta = dag.path_counts_to(target_index)
        sigma = dag.sigma
        sigma_uv = sigma[target_index]
        source_index = dag.source
        labels = snapshot.labels
        for node, paths_to_target in beta.items():
            if node == source_index or node == target_index:
                continue
            if dist[node] >= target_distance:
                continue
            fraction = sigma[node] * paths_to_target / sigma_uv
            label = labels[node]
            totals[label] += fraction
            totals_sq[label] += fraction * fraction
