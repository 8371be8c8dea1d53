"""High-level analysis helpers: run several estimators on one ranking task
and summarise their accuracy, ranking quality and cost side by side.

This is the library-level version of what ``examples/compare_baselines.py``
does and what a practitioner evaluating the method on their own graph needs:
one call, one table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence

from repro.baselines import (
    ABRA,
    KADABRA,
    BaderPivot,
    EgoBetweenness,
    RiondatoKornaropoulos,
)
from repro.datasets.ground_truth import GroundTruthCache
from repro.graphs import sssp as _sssp
from repro.graphs.graph import Graph
from repro.metrics.rank_correlation import kendall_tau, spearman_rank_correlation
from repro.metrics.topk import precision_at_k
from repro.metrics.zeros import classify_zeros
from repro.saphyra_bc.algorithm import SaPHyRaBC
from repro.utils.rng import SeedLike

Node = Hashable

#: Estimators `compare_estimators` knows how to build by name.
AVAILABLE_ESTIMATORS = (
    "saphyra",
    "saphyra_full",
    "kadabra",
    "abra",
    "rk",
    "bader",
    "ego",
)

#: Estimators defined on hop-shortest paths only: SaPHyRa's bidirectional
#: sample generator and the ego heuristic ignore edge weights, so on a
#: weighted run they are scored against the *hop* ground truth (their own
#: estimand) rather than the weighted one.
HOP_ONLY_ESTIMATORS = frozenset({"saphyra", "saphyra_full", "ego"})


@dataclass
class EstimatorComparison:
    """One estimator's row in the comparison table.

    Attributes
    ----------
    name:
        Estimator name (see :data:`AVAILABLE_ESTIMATORS`).
    wall_time_seconds, num_samples:
        Cost of the run.
    max_abs_error, spearman, kendall, precision_at_10, false_zeros:
        Quality metrics against the supplied (or exactly computed) ground
        truth; ``None`` when no ground truth is available.
    scores:
        The estimated betweenness of every target.
    """

    name: str
    wall_time_seconds: float
    num_samples: int
    scores: Dict[Node, float]
    max_abs_error: Optional[float] = None
    spearman: Optional[float] = None
    kendall: Optional[float] = None
    precision_at_10: Optional[float] = None
    false_zeros: Optional[int] = None


def compare_estimators(
    graph: Graph,
    targets: Sequence[Node],
    *,
    epsilon: float = 0.05,
    delta: float = 0.01,
    seed: SeedLike = 0,
    estimators: Sequence[str] = ("saphyra", "kadabra", "abra"),
    ground_truth: Optional[Mapping[Node, float]] = None,
    compute_ground_truth: bool = True,
    max_samples_cap: Optional[int] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    weighted: Optional[str] = None,
) -> List[EstimatorComparison]:
    """Run the named estimators on one subset-ranking task.

    Parameters
    ----------
    graph:
        A connected graph.
    targets:
        The target nodes to rank.
    epsilon, delta:
        Accuracy/confidence passed to every estimator.
    seed:
        Seed shared by all estimators (each still draws independent samples).
    estimators:
        Names from :data:`AVAILABLE_ESTIMATORS`.
    ground_truth:
        Known exact betweenness (normalised); when omitted and
        ``compute_ground_truth`` is true it is computed with Brandes —
        only do that on graphs where ``O(nm)`` is affordable — through a
        :class:`~repro.datasets.ground_truth.GroundTruthCache`, so the
        ``snapshot_dir`` knob keeps it across processes.
    max_samples_cap:
        Optional cap forwarded to every estimator.
    backend:
        Traversal backend forwarded to every estimator (``"dict"``,
        ``"csr"`` or ``None`` for the default).
    workers:
        Worker processes forwarded to every estimator and the ground-truth
        computation (``None`` resolves via ``REPRO_WORKERS``); worker counts
        never change results.
    weighted:
        SSSP engine selection (see :mod:`repro.graphs.sssp`).  On a
        weighted run, each estimator is scored against the ground truth of
        *its own estimand*: the weighted-aware estimators (KADABRA, ABRA,
        RK, Bader) against weighted Brandes, the hop-only estimators
        (:data:`HOP_ONLY_ESTIMATORS` — SaPHyRa and ego sample hop-shortest
        paths regardless of weights) against hop Brandes.  An explicit
        ``ground_truth`` argument is used for every estimator as-is.

    Returns
    -------
    list of :class:`EstimatorComparison`, in the order requested.
    """
    unknown = set(estimators) - set(AVAILABLE_ESTIMATORS)
    if unknown:
        raise ValueError(
            f"unknown estimators {sorted(unknown)}; "
            f"available: {', '.join(AVAILABLE_ESTIMATORS)}"
        )
    target_list = list(targets)
    use_weights = _sssp.effective_weighted(graph, weighted)
    truth_cache = GroundTruthCache()

    def truth_subset_for(name: str) -> Optional[Dict[Node, float]]:
        """The ground-truth subset matching this estimator's estimand."""
        if ground_truth is not None:
            return {node: ground_truth[node] for node in target_list}
        if not compute_ground_truth:
            return None
        metric = "on" if use_weights and name not in HOP_ONLY_ESTIMATORS else "off"
        full = truth_cache.get(metric, graph, workers=workers, weighted=metric)
        return {node: full[node] for node in target_list}

    rows: List[EstimatorComparison] = []
    for name in estimators:
        scores, seconds, samples = _run_estimator(
            name,
            graph,
            target_list,
            epsilon=epsilon,
            delta=delta,
            seed=seed,
            max_samples_cap=max_samples_cap,
            backend=backend,
            workers=workers,
            weighted=weighted,
        )
        row = EstimatorComparison(
            name=name,
            wall_time_seconds=seconds,
            num_samples=samples,
            scores=scores,
        )
        truth_subset = truth_subset_for(name)
        if truth_subset is not None:
            row.max_abs_error = max(
                abs(truth_subset[node] - scores.get(node, 0.0))
                for node in target_list
            )
            row.spearman = spearman_rank_correlation(truth_subset, scores)
            row.kendall = kendall_tau(truth_subset, scores)
            row.precision_at_10 = precision_at_k(
                truth_subset, scores, min(10, len(target_list))
            )
            row.false_zeros = classify_zeros(truth_subset, scores).false_zeros
        rows.append(row)
    return rows


def comparison_table(rows: Sequence[EstimatorComparison]) -> str:
    """Render comparison rows as an aligned text table."""
    from repro.experiments.report import render_table

    return render_table(
        ["estimator", "time (s)", "samples", "max err", "spearman", "kendall",
         "prec@10", "false zeros"],
        [
            (
                row.name,
                row.wall_time_seconds,
                row.num_samples,
                _fmt(row.max_abs_error),
                _fmt(row.spearman),
                _fmt(row.kendall),
                _fmt(row.precision_at_10),
                row.false_zeros if row.false_zeros is not None else "-",
            )
            for row in rows
        ],
    )


def _fmt(value: Optional[float]) -> object:
    return value if value is not None else "-"


def _run_estimator(
    name: str,
    graph: Graph,
    targets: List[Node],
    *,
    epsilon: float,
    delta: float,
    seed: SeedLike,
    max_samples_cap: Optional[int],
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    weighted: Optional[str] = None,
):
    """Run one estimator, returning ``(target scores, seconds, samples)``.

    ``weighted`` reaches the weighted-aware estimators only; SaPHyRa and
    ego are hop-based by construction (see :data:`HOP_ONLY_ESTIMATORS`).
    """
    if name in ("saphyra", "saphyra_full"):
        algorithm = SaPHyRaBC(
            epsilon, delta, seed=seed, max_samples_cap=max_samples_cap,
            backend=backend, workers=workers,
        )
        result = algorithm.rank(graph, targets if name == "saphyra" else None)
        scores = {node: result.scores[node] for node in targets}
        return scores, result.wall_time_seconds, result.num_samples

    factories = {
        "kadabra": lambda: KADABRA(
            epsilon, delta, seed=seed, max_samples_cap=max_samples_cap,
            backend=backend, workers=workers, weighted=weighted,
        ),
        "abra": lambda: ABRA(
            epsilon, delta, seed=seed, max_samples_cap=max_samples_cap,
            backend=backend, workers=workers, weighted=weighted,
        ),
        "rk": lambda: RiondatoKornaropoulos(
            epsilon, delta, seed=seed, max_samples_cap=max_samples_cap,
            backend=backend, workers=workers, weighted=weighted,
        ),
        "bader": lambda: BaderPivot(
            epsilon, delta, seed=seed, backend=backend, workers=workers,
            weighted=weighted,
        ),
        # The no-guarantee heuristic reference point; it can focus on the
        # target subset directly (the scores of other nodes are never read).
        "ego": lambda: EgoBetweenness(
            targets, backend=backend, workers=workers
        ),
    }
    result = factories[name]().estimate(graph)
    return (
        result.subset_scores(targets),
        result.wall_time_seconds,
        result.num_samples,
    )
