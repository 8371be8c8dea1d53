"""The SaPHyRa_bc algorithm (Section IV-D of the paper).

``SaPHyRaBC.rank(graph, targets)`` produces an ``(epsilon, delta)``-accurate
betweenness estimate for every target node together with the induced
ranking.  The pieces:

* block-cut tree + out-reach sets (``O(n + m)`` preprocessing, once per
  graph version);
* personalized ISP sample space with its scale factor ``gamma * eta``;
* ``Exact_bc`` for the 2-hop exact subspace (``O(K)``);
* ``Gen_bc`` + the adaptive empirical-Bernstein sampler with the
  personalized VC cap for the approximate subspace;
* the cutpoint correction ``bc_a`` added back at the end:
  ``bc~(v) = bc_a(v) + gamma * eta * l_v`` (Lemma 16).

Note on the accuracy target: since the framework estimate ``l_v`` is scaled
by ``gamma * eta`` when converted to betweenness, the accuracy requested from
the framework is ``epsilon / (gamma * eta)`` so the final betweenness error
is below ``epsilon`` (Theorem 24).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Union

from repro.core.estimation import ExactEvaluation, SaPHyRaResult
from repro.core.ranking import rank_scores
from repro.core.saphyra import SaPHyRa
from repro.errors import GraphError
from repro.graphs.block_cut_tree import BlockCutTree, build_block_cut_tree
from repro.graphs.components import is_connected
from repro.graphs.csr import require_graph
from repro.graphs.graph import Graph
from repro.saphyra_bc.exact_bc import ExactSubspaceEvaluation, exact_two_hop_risks
from repro.saphyra_bc.gen_bc import GenBC
from repro.saphyra_bc.isp import PersonalizedISP
from repro.saphyra_bc.vc_bounds import personalized_vc_dimension
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.timing import StageTimings
from repro.utils.validation import check_probability_pair, check_sample_cap

Node = Hashable


@dataclass
class BCRankingResult:
    """Betweenness estimates and ranking for the target nodes.

    Attributes
    ----------
    targets:
        The target nodes, in input order.
    scores:
        ``{node: estimated betweenness}`` (normalised by ``n(n-1)``).
    ranking:
        Targets sorted by decreasing estimated betweenness (ties by id).
    gamma, eta:
        ISP normaliser and personalization fraction.
    lambda_exact:
        Mass of the 2-hop exact subspace within the PISP space.
    vc_dimension:
        Personalized VC bound used for the sample cap.
    num_samples:
        Samples drawn from the approximate subspace (excluding the pilot).
    num_pilot_samples:
        Pilot samples used for variance estimation.
    converged_by:
        ``"bernstein"``, ``"vc"`` or ``"exact"``.
    epsilon, delta:
        Requested guarantee on the betweenness values.
    wall_time_seconds, stage_seconds:
        Timing breakdown (preprocess / exact / sampling).
    framework:
        The underlying :class:`~repro.core.estimation.SaPHyRaResult`
        (risks in PISP units), or ``None`` for degenerate inputs.
    exact_work:
        2-hop walks ``s -> m -> t`` scanned by ``Exact_bc`` from the
        targets' neighbours ``s``: ``sum_{s in B} sum_{m in N(s)} deg(m)``
        (see :mod:`repro.saphyra_bc.exact_bc`).
    rejections:
        Rejected samples in ``Gen_bc``.
    """

    targets: List[Node]
    scores: Dict[Node, float]
    ranking: List[Node]
    gamma: float
    eta: float
    lambda_exact: float
    vc_dimension: float
    num_samples: int
    num_pilot_samples: int
    converged_by: str
    epsilon: float
    delta: float
    wall_time_seconds: float = 0.0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    framework: Optional[SaPHyRaResult] = None
    exact_work: int = 0
    rejections: int = 0

    def __len__(self) -> int:
        return len(self.targets)


class _BCProblem:
    """Adapter exposing the PISP machinery as a hypothesis-ranking problem."""

    def __init__(
        self,
        space: PersonalizedISP,
        generator: GenBC,
        exact: ExactSubspaceEvaluation,
        vc_dimension: float,
    ) -> None:
        self._space = space
        self._generator = generator
        self._exact = exact
        self._vc_dimension = vc_dimension

    @property
    def hypothesis_names(self) -> Sequence[Node]:
        return self._space.targets

    def exact_evaluation(self) -> ExactEvaluation:
        return ExactEvaluation(
            lambda_exact=self._exact.lambda_exact, risks=list(self._exact.risks)
        )

    #: ``sample_losses`` takes a draw count, so the sampling engine hands it
    #: a whole chunk at once, drawn in ``Gen_bc``'s chunk order.
    chunk_draws = True

    def sample_losses(
        self, rng: SeedLike = None, draws: Optional[int] = None
    ) -> Union[Mapping[int, float], List[Mapping[int, float]]]:
        return self._generator.sample_losses(rng, draws)

    def collect_sample_stats(self):
        """Detach this copy's sampling counters (worker side of the
        stats round-trip the adaptive sampler runs per chunk)."""
        return self._generator.take_stats()

    def merge_sample_stats(self, stats) -> None:
        """Fold a chunk's counters back in (master side)."""
        self._generator.stats.merge(stats)

    def vc_dimension(self) -> float:
        return self._vc_dimension


class SaPHyRaBC:
    """Rank a node subset by betweenness centrality with SaPHyRa_bc.

    Parameters
    ----------
    epsilon:
        Additive accuracy target for the betweenness values (default 0.05,
        the paper's default).
    delta:
        Failure probability (default 0.01).
    seed:
        Seed or RNG for the sampling stage.
    sample_constant:
        Constant ``c`` of the sample-size formulas.
    max_samples_cap:
        Optional hard cap on the number of approximate-subspace samples.
    use_exact_subspace:
        Disable to run the pure-sampling ablation (no 2-hop exact subspace).
    backend:
        Traversal backend (``"dict"``, ``"csr"`` or ``None`` for the
        default); both draw identical samples from identical seeds.
    workers:
        Worker processes for the sampling stage (``None`` resolves via
        ``REPRO_WORKERS``).  Sampling uses per-chunk seeded RNG streams
        folded in chunk order, so any worker count returns bit-identical
        rankings.

    Examples
    --------
    >>> from repro.graphs.generators import barbell_graph
    >>> graph = barbell_graph(5, 3)
    >>> algo = SaPHyRaBC(epsilon=0.1, delta=0.1, seed=3)
    >>> result = algo.rank(graph, targets=list(graph.nodes())[:6])
    >>> len(result.ranking)
    6
    """

    def __init__(
        self,
        epsilon: float = 0.05,
        delta: float = 0.01,
        *,
        seed: SeedLike = None,
        sample_constant: float = 0.5,
        max_samples_cap: Optional[int] = None,
        use_exact_subspace: bool = True,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> None:
        check_probability_pair(epsilon, delta)
        check_sample_cap(max_samples_cap)
        self.epsilon = epsilon
        self.delta = delta
        self.seed = seed
        self.sample_constant = sample_constant
        self.max_samples_cap = max_samples_cap
        self.use_exact_subspace = use_exact_subspace
        self.backend = backend
        self.workers = workers

    # ------------------------------------------------------------------
    def rank(
        self,
        graph: Graph,
        targets: Optional[Sequence[Node]] = None,
        *,
        block_cut_tree: Optional[BlockCutTree] = None,
    ) -> BCRankingResult:
        """Estimate betweenness for ``targets`` and rank them.

        Parameters
        ----------
        graph:
            A connected, undirected graph with at least 3 nodes.
        targets:
            The nodes to rank; ``None`` ranks every node
            (the SaPHyRa_bc-full variant of the paper's experiments).
        block_cut_tree:
            The block-cut tree of ``graph`` as it is now.  Passing it is
            never needed: ``None`` reads the tree
            :func:`~repro.graphs.block_cut_tree.build_block_cut_tree` keeps
            per graph version, so queries on an unchanged graph share one
            tree, its block subgraphs and its exact block diameters.  A tree
            built for another graph, or before a mutation of this one,
            raises :class:`~repro.errors.GraphError` (it would give wrong
            scores).
        """
        require_graph(graph, "SaPHyRaBC.rank")
        self._validate_graph(graph)
        target_list = list(targets) if targets is not None else list(graph.nodes())
        if not target_list:
            raise ValueError("targets must not be empty")

        rng = ensure_rng(self.seed)
        timings = StageTimings()

        with timings.measure("preprocess"):
            bct = (
                block_cut_tree
                if block_cut_tree is not None
                else build_block_cut_tree(graph)
            )
            space = PersonalizedISP(
                graph, target_list, block_cut_tree=bct, backend=self.backend
            )
            vc_dimension = personalized_vc_dimension(
                bct, target_list, included_blocks=space.included_blocks, seed=rng
            )

        gamma_eta = space.gamma_eta
        if gamma_eta <= 0:
            # No block contains a target (only possible in degenerate graphs);
            # every target's ISP risk is zero and bc reduces to bc_a.
            scores = {node: space.bc_a(node) for node in target_list}
            return BCRankingResult(
                targets=target_list,
                scores=scores,
                ranking=rank_scores(scores),
                gamma=space.gamma,
                eta=space.eta,
                lambda_exact=0.0,
                vc_dimension=0.0,
                num_samples=0,
                num_pilot_samples=0,
                converged_by="exact",
                epsilon=self.epsilon,
                delta=self.delta,
                wall_time_seconds=timings.total(),
                stage_seconds=dict(timings.stages),
            )

        with timings.measure("exact"):
            if self.use_exact_subspace:
                exact = exact_two_hop_risks(space, target_list)
            else:
                exact = ExactSubspaceEvaluation(
                    lambda_exact=0.0,
                    risks=[0.0] * len(target_list),
                    num_pairs=0,
                    work=0,
                )

        # Ablation mode (no exact subspace): nothing is ever rejected.
        generator = GenBC(
            space, target_list, reject_exact_subspace=self.use_exact_subspace
        )
        problem = _BCProblem(space, generator, exact, vc_dimension)

        # The framework estimates risks in PISP units; converting to
        # betweenness multiplies by gamma * eta, so the accuracy requested
        # from the framework is epsilon / (gamma * eta), clamped into (0, 1).
        epsilon_star = min(0.999, self.epsilon / gamma_eta)
        orchestrator = SaPHyRa(
            epsilon_star,
            self.delta,
            seed=rng,
            sample_constant=self.sample_constant,
            max_samples_cap=self.max_samples_cap,
            workers=self.workers,
        )
        with timings.measure("sampling"):
            framework_result = orchestrator.rank(problem)

        scores: Dict[Node, float] = {}
        for node, risk in zip(framework_result.names, framework_result.risks):
            scores[node] = space.bc_a(node) + gamma_eta * risk

        return BCRankingResult(
            targets=target_list,
            scores=scores,
            ranking=rank_scores(scores),
            gamma=space.gamma,
            eta=space.eta,
            lambda_exact=framework_result.lambda_exact,
            vc_dimension=vc_dimension,
            num_samples=framework_result.num_samples,
            num_pilot_samples=framework_result.num_pilot_samples,
            converged_by=framework_result.converged_by,
            epsilon=self.epsilon,
            delta=self.delta,
            wall_time_seconds=timings.total(),
            stage_seconds=dict(timings.stages),
            framework=framework_result,
            exact_work=exact.work,
            rejections=generator.stats.rejections,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _validate_graph(graph: Graph) -> None:
        if graph.number_of_nodes() < 3:
            raise GraphError(
                "SaPHyRa_bc needs at least 3 nodes "
                f"(got {graph.number_of_nodes()})"
            )
        if not is_connected(graph):
            raise GraphError(
                "SaPHyRa_bc requires a connected graph; "
                "extract the largest connected component first"
            )
