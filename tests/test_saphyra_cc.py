"""Tests for SaPHyRa_cc (closeness-centrality ranking, the framework extension)."""

from __future__ import annotations

import random

import pytest

from repro.centrality.closeness import closeness_centrality
from repro.datasets import random_subset
from repro.datasets.synthetic import karate_club_graph
from repro.errors import GraphError, SamplingError
from repro.graphs.generators import (
    barabasi_albert_graph,
    complete_graph,
    grid_road_graph,
    path_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_distances
from repro.metrics.rank_correlation import spearman_rank_correlation
from repro.saphyra_cc import ClosenessProblem, SaPHyRaCC

#: Both backends; the CSR one needs numpy.
BACKENDS = ["dict", pytest.param("csr", marks=pytest.mark.requires_numpy)]


class TestClosenessProblem:
    def test_validation(self, karate):
        with pytest.raises(GraphError):
            ClosenessProblem(Graph.from_edges([(0, 1), (2, 3)]), [0])
        with pytest.raises(ValueError):
            ClosenessProblem(karate, [])
        with pytest.raises(ValueError):
            ClosenessProblem(karate, [0, 0])
        with pytest.raises(GraphError):
            ClosenessProblem(karate, [999])
        with pytest.raises(ValueError):
            ClosenessProblem(karate, [0], distance_bound=0)

    def test_exact_evaluation(self, karate):
        targets = [0, 5, 33]
        problem = ClosenessProblem(karate, targets, distance_bound=5)
        evaluation = problem.exact_evaluation()
        assert evaluation.lambda_exact == pytest.approx(3 / 34)
        # Exact risk of node 0: distances to the other targets / (n * D).
        distances = bfs_distances(karate, 0)
        expected = (distances[5] + distances[33]) / (34 * 5)
        assert evaluation.risks[0] == pytest.approx(expected)

    def test_sample_losses_dense_and_bounded(self, karate):
        problem = ClosenessProblem(karate, [0, 1, 2], distance_bound=5)
        losses = problem.sample_losses(rng=3)
        assert set(losses) == {0, 1, 2}
        assert all(0.0 <= value <= 1.0 for value in losses.values())

    def test_sample_losses_rejects_mutated_graph(self, karate):
        # Target indices/distances and the distance bound are frozen at
        # construction; sampling after a mutation would silently mix them
        # with fresh traversals of the new graph, so it must fail loudly.
        problem = ClosenessProblem(karate, [0, 1, 2], distance_bound=5)
        karate.add_edge(0, 999)
        with pytest.raises(GraphError, match="mutated"):
            problem.sample_losses(rng=3)

    def test_sample_losses_all_targets_raises(self):
        graph = complete_graph(4)
        problem = ClosenessProblem(graph, list(graph.nodes()), distance_bound=1)
        with pytest.raises(SamplingError):
            problem.sample_losses(rng=1)

    def test_vc_dimension_small(self, karate):
        problem = ClosenessProblem(karate, [0, 1, 2, 3], distance_bound=5)
        assert 0 <= problem.vc_dimension() <= 3

    def test_distance_bound_below_largest_distance_raises(self, karate):
        # Node 16 is 5 hops from the farthest node; a bound of 2 would clip
        # sampled losses at 1 but leave the exact part unclipped.
        with pytest.raises(ValueError, match=r"distance_bound=2 .* 5"):
            ClosenessProblem(karate, [0, 5, 16, 33], distance_bound=2)
        result = SaPHyRaCC(epsilon=0.05, delta=0.1, seed=1).rank(
            karate, [0, 5, 16, 33], distance_bound=5
        )
        assert result.distance_bound == 5
        exact = 1.0 / closeness_centrality(karate, nodes=[16])[16]
        assert abs(result.average_distance[16] - exact) < 0.3

    def test_risk_round_trip(self, karate):
        problem = ClosenessProblem(karate, [0], distance_bound=5)
        # A node at average distance 2 has closeness 0.5.
        risk = 2.0 * (34 - 1) / (34 * 5)
        assert problem.risk_to_average_distance(risk) == pytest.approx(2.0)
        assert problem.risk_to_closeness(risk) == pytest.approx(0.5)


class _ScriptedRandom(random.Random):
    """An RNG whose ``randrange`` replays a fixed list of positions."""

    def __init__(self, positions):
        super().__init__(0)
        self._positions = iter(positions)

    def randrange(self, *args):
        return next(self._positions)


_REFERENCE_GRAPHS = [
    pytest.param(karate_club_graph, id="karate"),
    pytest.param(lambda: grid_road_graph(12, 12, seed=1)[0], id="grid"),
    pytest.param(lambda: barabasi_albert_graph(250, 3, seed=2), id="social"),
]


class TestSampleLossesFromTargetRows:
    """Sampled losses are read off the target rows, never a sample's BFS."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("make_graph", _REFERENCE_GRAPHS)
    def test_losses_match_a_fresh_bfs_from_every_sample(self, make_graph, backend):
        graph = make_graph()
        targets = random_subset(graph, 8, 1)
        problem = ClosenessProblem(graph, targets, seed=3, backend=backend)
        bound = problem.distance_bound
        # Scripting every node position in turn makes the draws visit each
        # non-target node once, in node order (targets are redrawn).
        target_set = set(targets)
        others = [node for node in graph.nodes() if node not in target_set]
        rng = _ScriptedRandom(range(graph.number_of_nodes()))
        losses = problem.sample_losses(rng, len(others))
        for sample, sampled in zip(others, losses):
            distances = bfs_distances(graph, sample)
            assert sampled == {
                index: min(1.0, distances[target] / bound)
                for index, target in enumerate(targets)
            }

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sampling_runs_no_traversal(self, backend, monkeypatch):
        from repro.engine import dag_cache
        from repro.graphs import csr

        graph = barabasi_albert_graph(250, 3, seed=2)
        problem = ClosenessProblem(
            graph, random_subset(graph, 10, 4), seed=3, backend=backend
        )
        expected = problem.sample_losses(random.Random(5), 64)

        def no_traversal(*args, **kwargs):
            raise AssertionError("sample_losses must not traverse the graph")

        for module, name in (
            (dag_cache, "source_distance_rows"),
            (dag_cache, "source_distance_map"),
            (csr, "multi_source_sweep"),
        ):
            monkeypatch.setattr(module, name, no_traversal)
        assert problem.sample_losses(random.Random(5), 64) == expected


class TestSaPHyRaCC:
    def test_matches_exact_closeness_on_karate(self, karate):
        targets = sorted(karate.nodes())[:12]
        result = SaPHyRaCC(epsilon=0.03, delta=0.05, seed=7).rank(karate, targets)
        exact = closeness_centrality(karate, nodes=targets)
        correlation = spearman_rank_correlation(exact, result.closeness)
        assert correlation > 0.85
        # Average distances are within a loose absolute tolerance (epsilon is
        # expressed on the normalised distance, diameter bound <= 10).
        for node in targets:
            exact_average = 1.0 / exact[node]
            assert abs(result.average_distance[node] - exact_average) < 0.6

    def test_all_targets_short_circuits_to_exact(self):
        graph = path_graph(6)
        result = SaPHyRaCC(epsilon=0.05, delta=0.05, seed=1).rank(
            graph, list(graph.nodes())
        )
        assert result.num_samples == 0
        exact = closeness_centrality(graph)
        for node in graph.nodes():
            assert result.closeness[node] == pytest.approx(exact[node], rel=1e-6)

    def test_result_structure(self, karate):
        result = SaPHyRaCC(epsilon=0.1, delta=0.1, seed=2).rank(karate, [0, 1, 2])
        assert len(result) == 3
        assert set(result.ranking) == {0, 1, 2}
        assert result.lambda_exact == pytest.approx(3 / 34)
        assert result.distance_bound >= 5
        assert result.framework is not None

    def test_deterministic(self, karate):
        first = SaPHyRaCC(epsilon=0.1, delta=0.1, seed=5).rank(karate, [0, 3, 9])
        second = SaPHyRaCC(epsilon=0.1, delta=0.1, seed=5).rank(karate, [0, 3, 9])
        assert first.closeness == second.closeness

    def test_ranking_descending_closeness(self, karate):
        result = SaPHyRaCC(epsilon=0.1, delta=0.1, seed=3).rank(karate, [0, 9, 16])
        values = [result.closeness[node] for node in result.ranking]
        assert values == sorted(values, reverse=True)

    def test_iterator_targets_match_list_targets(self, karate):
        targets = [0, 5, 16, 33]
        from_list = SaPHyRaCC(epsilon=0.1, delta=0.1, seed=4).rank(karate, targets)
        from_iter = SaPHyRaCC(epsilon=0.1, delta=0.1, seed=4).rank(
            karate, iter(targets)
        )
        assert from_iter.targets == from_list.targets == targets
        assert from_iter.closeness == from_list.closeness
        assert from_iter.ranking == from_list.ranking
        assert from_iter.num_samples == from_list.num_samples

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SaPHyRaCC(epsilon=0.0, delta=0.1)
