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

from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Union

from repro.core.estimation import ExactEvaluation
from repro.engine import dag_cache as _dag_cache
from repro.errors import GraphError
from repro.graphs import csr as _csr
from repro.graphs.components import is_connected
from repro.graphs.diameter import estimate_diameter
from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, ensure_rng

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
        the graph when omitted.
    seed:
        Seed used only for the diameter estimate.
    backend:
        Traversal backend (``"dict"``, ``"csr"`` or ``None`` for the
        default).  The CSR path reads target distances straight off the BFS
        distance array instead of materialising per-node dicts; losses are
        identical either way.
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
        # Target indices, target distances and the distance bound are all
        # frozen at construction; sample-time traversals read the live graph
        # (through the shared DAG cache).  Record the graph version so a
        # post-construction mutation fails loudly instead of silently mixing
        # stale per-target state with fresh distance rows.
        self._graph_version = graph._version
        if distance_bound is None:
            distance_bound = max(1, estimate_diameter(graph, seed))
        elif distance_bound < 1:
            raise ValueError(f"distance_bound must be >= 1, got {distance_bound}")
        self.distance_bound = distance_bound

        # Exact subspace: distances from every target to every target.
        self._target_set = set(targets)
        self._backend = _csr.effective_backend(graph, backend)
        if self._backend == _csr.CSR_BACKEND:
            self._snapshot = _csr.as_csr(graph)
            self._target_indices = [
                self._snapshot.index_of(node) for node in targets
            ]
            # One BFS distance array per target (``-1`` = unreachable).
            # Rows come from the shared source-DAG cache (repeated target
            # sweeps on the same graph — epsilon grids, repeated ranks —
            # reuse them); cache misses run as batched multi-source sweeps,
            # so the per-target thin frontiers still merge into fat ones on
            # road-style graphs.
            self._target_distances = dict(
                zip(targets, _dag_cache.source_distance_rows(graph, targets))
            )
        else:
            self._snapshot = None
            self._target_indices = None
            self._target_distances = {
                node: _dag_cache.source_distance_map(
                    graph, node, backend=self._backend
                )
                for node in targets
            }

    # ------------------------------------------------------------------
    @property
    def hypothesis_names(self) -> Sequence[Node]:
        return self.targets

    def exact_evaluation(self) -> ExactEvaluation:
        """Exact risks over the subspace ``{t : t in A}`` (mass ``|A| / n``)."""
        risks: List[float] = []
        scale = 1.0 / (self.n * self.distance_bound)
        for node in self.targets:
            distances = self._target_distances[node]
            if self._snapshot is not None:
                total = 0
                for other, other_index in zip(self.targets, self._target_indices):
                    if other != node:
                        total += int(distances[other_index])
            else:
                total = sum(
                    distances[other] for other in self.targets if other != node
                )
            risks.append(total * scale)
        return ExactEvaluation(lambda_exact=len(self.targets) / self.n, risks=risks)

    #: ``sample_losses`` takes a draw count, so the sampling engine hands it
    #: a whole chunk at once (:func:`repro.core.adaptive._losses_chunk`).
    chunk_draws = True

    def sample_losses(
        self, rng: SeedLike = None, draws: Optional[int] = None
    ) -> Union[Mapping[int, float], List[Mapping[int, float]]]:
        """Draw ``t`` uniformly from ``V \\ A`` and return all target losses.

        Unlike betweenness, closeness losses are dense: one BFS from the
        sampled node yields the distance to every target.

        With ``draws`` the call makes that many draws and returns the list
        of their losses in draw order.  All sample nodes are drawn first; a
        distance row consumes no randomness, so the RNG sequence, and with
        it every loss, is that of ``draws`` single calls.  On the CSR
        backend the rows then come in sub-batches of
        :func:`repro.graphs.csr.distance_sweep_batch` sources — cache hits
        plus one stacked multi-source sweep for the misses — and each
        sub-batch becomes losses before the next is swept, so at most one
        sweep batch of rows is held.  The dict backend has no stacked
        kernel and fetches one distance map per draw.
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
        losses: List[Mapping[int, float]] = []
        if self._snapshot is not None:
            step = _csr.distance_sweep_batch(self._snapshot)
            for start in range(0, len(samples), step):
                rows = _dag_cache.source_distance_rows(
                    self.graph, samples[start : start + step]
                )
                losses.extend(map(self._row_losses, rows))
        else:
            for sample in samples:
                distances = _dag_cache.source_distance_map(
                    self.graph, sample, backend=self._backend
                )
                losses.append(self._map_losses(distances))
        return losses[0] if draws is None else losses

    def _row_losses(self, dist) -> Dict[int, float]:
        """Target losses from one CSR distance row (``-1`` = unreachable)."""
        bound = self.distance_bound
        losses: Dict[int, float] = {}
        for index, target_index in enumerate(self._target_indices):
            distance = int(dist[target_index])
            if distance < 0:  # pragma: no cover - connected graphs
                distance = bound
            losses[index] = min(1.0, distance / bound)
        return losses

    def _map_losses(self, distances: Mapping[Node, int]) -> Dict[int, float]:
        """Target losses from one label-keyed distance map."""
        bound = self.distance_bound
        losses: Dict[int, float] = {}
        for index, node in enumerate(self.targets):
            distance = distances.get(node)
            if distance is None:  # pragma: no cover - connected graphs
                distance = bound
            losses[index] = min(1.0, distance / bound)
        return losses

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
