"""Hypothesis-ranking formulation of closeness centrality.

Setup
-----
Let ``G`` be connected with ``n >= 2`` nodes and let ``A`` be the targets.
For an upper bound ``D`` on hop distances (estimated once with
:func:`repro.graphs.diameter.estimate_diameter`), define for each target
``v`` and each sample ``t != v``::

    loss(h_v, t) = d(v, t) / D          in [0, 1]

With ``t`` uniform over ``V \\ {v}`` the expected risk is
``R(h_v) = avg_t d(v, t) / D``, and the classic closeness
``c(v) = (n - 1) / sum_t d(v, t)`` is recovered as ``1 / (D * R(h_v))``.

Samples are drawn uniformly from ``V`` (the hypothesis' own node contributes
``d(v, v) = 0``).  The exact subspace is ``A`` itself
(``lambda-hat = |A| / n``): one BFS per target yields all pairwise target
distances, giving exact contributions for precisely the samples that are
"directly linked to the target nodes"; the approximate subspace is sampled
uniformly from ``V \\ A``.
"""

from __future__ import annotations

from typing import Hashable, List, Mapping, Optional, Sequence, Union

from repro.core.estimation import ExactEvaluation
from repro.engine import dag_cache as _dag_cache
from repro.errors import GraphError
from repro.graphs import csr as _csr
from repro.graphs.components import is_connected
from repro.graphs.diameter import estimate_diameter
from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, ensure_rng

if _csr.HAS_NUMPY:
    import numpy as _np

Node = Hashable


class ClosenessProblem:
    """The closeness-centrality hypothesis-ranking problem for targets ``A``.

    Parameters
    ----------
    graph:
        A connected graph with at least 2 nodes.
    targets:
        Target nodes to rank.
    distance_bound:
        Optional explicit upper bound ``D`` on hop distances; estimated from
        the graph when omitted.  An explicit bound below the largest
        distance in the target rows raises :class:`ValueError`: sampled
        losses are clipped at 1, the exact part is not, and the mix would
        silently skew the answer.
    seed:
        Seed used only for the diameter estimate.
    backend:
        Traversal backend (``"dict"``, ``"csr"`` or ``None`` for the
        default).  The CSR path stacks the target rows into one
        ``(n, |A|)`` table, so a chunk of samples is one row gather; the
        dict path keeps one label-keyed distance map per target.  Losses
        are identical either way.

    Cost: ``|A|`` BFS rows at construction (``O(|A| (n + m))``), then
    ``O(|A|)`` lookups per sample instead of a BFS of its own.  The target
    rows are read in both directions, which is sound because the graph is
    undirected and the distances are hop counts: ``d(t, v) = d(v, t)``.
    """

    def __init__(
        self,
        graph: Graph,
        targets: Sequence[Node],
        *,
        distance_bound: Optional[int] = None,
        seed: SeedLike = None,
        backend: Optional[str] = None,
    ) -> None:
        if graph.number_of_nodes() < 2:
            raise GraphError("closeness ranking needs at least 2 nodes")
        if not is_connected(graph):
            raise GraphError(
                "closeness ranking requires a connected graph; "
                "extract the largest connected component first"
            )
        targets = list(targets)
        if not targets:
            raise ValueError("targets must not be empty")
        missing = [node for node in targets if not graph.has_node(node)]
        if missing:
            raise GraphError(f"target nodes not in graph: {missing[:5]!r}")
        if len(set(targets)) != len(targets):
            raise ValueError("targets must be unique")

        self.graph = graph
        self.targets = targets
        self._nodes = list(graph.nodes())
        self.n = graph.number_of_nodes()
        # The target rows and the distance bound are frozen at construction
        # and every loss is read off them.  Record the graph version so a
        # post-construction mutation fails loudly instead of silently
        # answering for the graph as it was.
        self._graph_version = graph._version
        explicit_bound = distance_bound is not None
        if distance_bound is None:
            distance_bound = max(1, estimate_diameter(graph, seed))
        elif distance_bound < 1:
            raise ValueError(f"distance_bound must be >= 1, got {distance_bound}")
        self.distance_bound = distance_bound

        # One BFS row per target: the exact subspace's target-target
        # distances and, by symmetry, every sample's distances to A.
        self._target_set = set(targets)
        backend = _csr.effective_backend(graph, backend)
        # ``_table`` (CSR, rows indexed through ``_index``) or
        # ``_target_rows`` (dict, one label-keyed map per target) holds the
        # distances.
        self._table = None
        self._target_rows = None
        # Rows come from the shared source-DAG cache (repeated target
        # sweeps on the same graph — epsilon grids, repeated ranks — reuse
        # them); CSR misses run as batched multi-source sweeps.
        cache = _dag_cache.default_dag_cache()
        if backend == _csr.CSR_BACKEND:
            self._index = _csr.as_csr(graph).index
            rows = cache.distance_rows(graph, targets)
            # Row ``t`` of the table is ``d(t, A)``.
            self._table = _np.stack(rows, axis=1)
        else:
            self._target_rows = [
                cache.distance_map(graph, node, backend=backend)
                for node in targets
            ]
        if explicit_bound:
            largest = self._largest_distance()
            if distance_bound < largest:
                raise ValueError(
                    f"distance_bound={distance_bound} is below the largest "
                    f"target distance {largest}; pass a bound of at least "
                    f"{largest} or omit it to use the diameter estimate"
                )

    def _largest_distance(self) -> int:
        """The largest entry of the target rows (the largest loss numerator)."""
        if self._table is not None:
            return int(self._table.max())
        return max(max(distances.values()) for distances in self._target_rows)

    def _distances_to_targets(self, nodes: Sequence[Node]):
        """``d(t, v)`` for each node ``t`` (rows) and target ``v`` (columns).

        Read off the target rows as ``d(v, t)``, equal by the symmetry of
        hop distances in undirected graphs: no traversal runs.
        """
        if self._table is not None:
            return self._table[[self._index[node] for node in nodes]]
        return [[row[node] for row in self._target_rows] for node in nodes]

    # ------------------------------------------------------------------
    @property
    def hypothesis_names(self) -> Sequence[Node]:
        return self.targets

    def exact_evaluation(self) -> ExactEvaluation:
        """Exact risks over the subspace ``{t : t in A}`` (mass ``|A| / n``)."""
        scale = 1.0 / (self.n * self.distance_bound)
        # Column ``v`` holds ``d(t, v)`` for every target ``t``; the
        # target's own entry is ``d(v, v) = 0``.
        block = self._distances_to_targets(self.targets)
        risks = [int(sum(column)) * scale for column in zip(*block)]
        return ExactEvaluation(lambda_exact=len(self.targets) / self.n, risks=risks)

    #: ``sample_losses`` takes a draw count, so the sampling engine hands it
    #: a whole chunk at once (:func:`repro.core.adaptive._losses_chunk`).
    chunk_draws = True

    def sample_losses(
        self, rng: SeedLike = None, draws: Optional[int] = None
    ) -> Union[Mapping[int, float], List[Mapping[int, float]]]:
        """Draw ``t`` uniformly from ``V \\ A`` and return all target losses.

        Unlike betweenness, closeness losses are dense: a sample has a loss
        ``min(1, d(v, t) / D)`` for every target ``v``.  The distances are
        entries of the target rows held since construction (``d(t, v) =
        d(v, t)`` on undirected graphs), so a sample costs ``O(|A|)``
        lookups and runs no traversal.

        With ``draws`` the call makes that many draws and returns the list
        of their losses in draw order.  All sample nodes are drawn first;
        reading their losses consumes no randomness, so the RNG sequence,
        and with it every loss, is that of ``draws`` single calls.  On the
        CSR backend the chunk's losses come from one gather of the stacked
        target table.
        """
        from repro.errors import SamplingError

        if self.graph._version != self._graph_version:
            raise GraphError(
                "graph was mutated after ClosenessProblem construction; "
                "the frozen target distances and distance bound no longer "
                "describe it — build a new problem instance"
            )
        if len(self.targets) >= self.n:
            raise SamplingError(
                "the approximate subspace is empty (every node is a target); "
                "the exact evaluation already covers the whole sample space"
            )
        rng = ensure_rng(rng)
        samples = []
        for _ in range(1 if draws is None else draws):
            while True:
                sample = self._nodes[rng.randrange(self.n)]
                if sample not in self._target_set:
                    break
            samples.append(sample)
        bound = self.distance_bound
        distances = self._distances_to_targets(samples)
        if self._table is not None:
            table = _np.minimum(1.0, distances / bound).tolist()
        else:
            table = [
                [min(1.0, distance / bound) for distance in row] for row in distances
            ]
        losses: List[Mapping[int, float]] = [dict(enumerate(row)) for row in table]
        return losses[0] if draws is None else losses

    def vc_dimension(self) -> float:
        """Pseudo-dimension bound for the [0, 1]-valued distance losses.

        The hypothesis class is a set of ``|A|`` fixed functions, so its
        pseudo-dimension is at most ``log2 |A|`` + 1; the diameter-based term
        ``log2 D + 1`` (distinct distance levels) is used when smaller, in
        the spirit of Lemma 5.
        """
        import math

        by_targets = math.floor(math.log2(max(1, len(self.targets)))) + 1
        by_distances = math.floor(math.log2(max(1, self.distance_bound))) + 1
        return float(min(by_targets, by_distances))

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def risk_to_average_distance(self, risk: float) -> float:
        """Convert a combined risk back to an average hop distance."""
        return risk * self.distance_bound * self.n / (self.n - 1)

    def risk_to_closeness(self, risk: float) -> float:
        """Convert a combined risk to classic closeness ``(n-1)/sum d``."""
        average = self.risk_to_average_distance(risk)
        if average <= 0:
            return 0.0
        return 1.0 / average
