"""The SaPHyRa_cc algorithm: closeness ranking with the SaPHyRa framework."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence

from repro.core.estimation import SaPHyRaResult
from repro.core.ranking import rank_scores
from repro.core.saphyra import SaPHyRa
from repro.graphs.csr import require_graph
from repro.graphs.graph import Graph
from repro.saphyra_cc.problem import ClosenessProblem
from repro.utils.rng import SeedLike
from repro.utils.timing import Timer
from repro.utils.validation import check_probability_pair, check_sample_cap

Node = Hashable


@dataclass
class ClosenessRankingResult:
    """Closeness estimates and ranking for the target nodes.

    Attributes
    ----------
    targets:
        Target nodes in input order.
    closeness:
        ``{node: estimated closeness (n-1)/sum-of-distances}``.
    average_distance:
        ``{node: estimated average hop distance to the rest of the graph}``.
    ranking:
        Targets by decreasing estimated closeness (ties by id).
    epsilon, delta:
        Requested guarantee, expressed on the *normalised average distance*
        (the quantity the sampler actually estimates).
    num_samples:
        Samples drawn from the approximate subspace.
    lambda_exact:
        Mass of the exact subspace (``|A| / n``).
    wall_time_seconds:
        Total running time.
    framework:
        The underlying framework result (risks in normalised-distance units).
    """

    targets: List[Node]
    closeness: Dict[Node, float]
    average_distance: Dict[Node, float]
    ranking: List[Node]
    epsilon: float
    delta: float
    num_samples: int
    lambda_exact: float
    distance_bound: int
    wall_time_seconds: float = 0.0
    framework: Optional[SaPHyRaResult] = None
    extra: Dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.targets)


class SaPHyRaCC:
    """Rank a node subset by closeness centrality with the SaPHyRa framework.

    Parameters
    ----------
    epsilon, delta:
        ``(epsilon, delta)`` guarantee on the normalised average distance of
        every target (distances divided by the diameter bound, so epsilon is
        comparable across graphs).
    seed:
        RNG seed.
    max_samples_cap:
        Optional cap on the number of samples.
    workers:
        Worker processes for the sampling stage (``None`` resolves via
        ``REPRO_WORKERS``); bit-identical for any worker count.

    Examples
    --------
    >>> from repro.datasets.synthetic import karate_club_graph
    >>> result = SaPHyRaCC(epsilon=0.05, delta=0.1, seed=1).rank(
    ...     karate_club_graph(), [0, 5, 16, 33])
    >>> len(result.ranking)
    4
    """

    def __init__(
        self,
        epsilon: float = 0.05,
        delta: float = 0.01,
        *,
        seed: SeedLike = None,
        max_samples_cap: Optional[int] = None,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> None:
        check_probability_pair(epsilon, delta)
        check_sample_cap(max_samples_cap)
        self.epsilon = epsilon
        self.delta = delta
        self.seed = seed
        self.max_samples_cap = max_samples_cap
        self.backend = backend
        self.workers = workers

    def rank(
        self,
        graph: Graph,
        targets: Sequence[Node],
        *,
        distance_bound: Optional[int] = None,
    ) -> ClosenessRankingResult:
        """Estimate closeness for ``targets`` and rank them."""
        require_graph(graph, "SaPHyRaCC.rank")
        targets = list(targets)
        timer = Timer()
        with timer:
            problem = ClosenessProblem(
                graph,
                targets,
                distance_bound=distance_bound,
                seed=self.seed,
                backend=self.backend,
            )
            orchestrator = SaPHyRa(
                self.epsilon,
                self.delta,
                seed=self.seed,
                max_samples_cap=self.max_samples_cap,
                workers=self.workers,
            )
            framework_result = orchestrator.rank(problem)

            average_distance: Dict[Node, float] = {}
            closeness: Dict[Node, float] = {}
            for node, risk in zip(framework_result.names, framework_result.risks):
                average_distance[node] = problem.risk_to_average_distance(risk)
                closeness[node] = problem.risk_to_closeness(risk)

        return ClosenessRankingResult(
            targets=targets,
            closeness=closeness,
            average_distance=average_distance,
            ranking=rank_scores(closeness),
            epsilon=self.epsilon,
            delta=self.delta,
            num_samples=framework_result.num_samples,
            lambda_exact=framework_result.lambda_exact,
            distance_bound=problem.distance_bound,
            wall_time_seconds=timer.elapsed,
            framework=framework_result,
        )
