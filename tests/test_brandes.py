"""Tests for exact betweenness centrality (Brandes)."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.centrality.brandes import (
    betweenness_centrality,
    betweenness_from_pivots,
    betweenness_subset,
    single_source_dependencies,
)
from repro.errors import GraphError
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.traversal import shortest_path_dag


def brute_force_betweenness(graph: Graph) -> dict:
    """O(n^3)-ish reference: enumerate all ordered pairs and their DAGs."""
    n = graph.number_of_nodes()
    result = {node: 0.0 for node in graph.nodes()}
    for source in graph.nodes():
        dag = shortest_path_dag(graph, source)
        for target in graph.nodes():
            if target == source or target not in dag.distances:
                continue
            # Count sigma_st(v) by dynamic programming over the DAG.
            paths_through = _count_paths_through(dag, target)
            for node, count in paths_through.items():
                if node in (source, target):
                    continue
                result[node] += count / dag.sigma[target]
    if n > 1:
        for node in result:
            result[node] /= n * (n - 1)
    return result


def _count_paths_through(dag, target):
    """sigma_st(v) for all v, for the fixed source of the DAG."""
    beta = {target: 1.0}
    frontier = [target]
    while frontier:
        next_frontier = []
        for node in frontier:
            for predecessor in dag.predecessors[node]:
                if predecessor not in beta:
                    beta[predecessor] = 0.0
                    next_frontier.append(predecessor)
                beta[predecessor] += beta[node]
        frontier = next_frontier
    return {node: dag.sigma[node] * value for node, value in beta.items()}


class TestKnownValues:
    def test_path_graph(self):
        # Path 0-1-2-3-4 with ordered-pair normalisation 1/(n(n-1)).
        bc = betweenness_centrality(path_graph(5))
        assert bc[0] == pytest.approx(0.0)
        assert bc[1] == pytest.approx(2 * 3 / 20)
        assert bc[2] == pytest.approx(2 * 4 / 20)
        assert bc[4] == pytest.approx(0.0)

    def test_star_graph(self):
        bc = betweenness_centrality(star_graph(5))
        # Every pair of leaves goes through the centre: 5*4 ordered pairs / 30.
        assert bc[0] == pytest.approx(20 / 30)
        assert all(bc[leaf] == 0.0 for leaf in range(1, 6))

    def test_complete_graph_all_zero(self):
        bc = betweenness_centrality(complete_graph(6))
        assert all(value == pytest.approx(0.0) for value in bc.values())

    def test_cycle_graph_symmetry(self):
        bc = betweenness_centrality(cycle_graph(7))
        values = list(bc.values())
        assert max(values) == pytest.approx(min(values))

    def test_unnormalized(self):
        bc = betweenness_centrality(path_graph(3), normalized=False)
        assert bc[1] == pytest.approx(2.0)

    def test_karate_most_central_nodes(self, karate):
        bc = betweenness_centrality(karate)
        top = sorted(bc, key=bc.get, reverse=True)[:3]
        assert set(top) == {0, 33, 32}
        assert bc[0] == pytest.approx(0.4119, abs=5e-4)


class TestSingleSourceDependencies:
    def test_source_not_included(self, karate):
        dependencies = single_source_dependencies(karate, 0)
        assert 0 not in dependencies

    def test_sums_match_betweenness(self, karate):
        n = karate.number_of_nodes()
        total = {node: 0.0 for node in karate.nodes()}
        for source in karate.nodes():
            for node, value in single_source_dependencies(karate, source).items():
                total[node] += value
        bc = betweenness_centrality(karate)
        for node in karate.nodes():
            assert bc[node] == pytest.approx(total[node] / (n * (n - 1)))

    def test_missing_source(self, karate):
        with pytest.raises(GraphError):
            single_source_dependencies(karate, 999)


class TestSubsetAndPivots:
    def test_subset_matches_full(self, karate):
        full = betweenness_centrality(karate)
        subset = betweenness_subset(karate, [0, 5, 33])
        assert set(subset) == {0, 5, 33}
        for node, value in subset.items():
            assert value == pytest.approx(full[node])

    def test_subset_missing_node_raises(self, karate):
        with pytest.raises(GraphError):
            betweenness_subset(karate, [0, 999])

    def test_all_pivots_equals_exact(self, karate):
        estimated = betweenness_from_pivots(karate, list(karate.nodes()))
        exact = betweenness_centrality(karate)
        for node in karate.nodes():
            assert estimated[node] == pytest.approx(exact[node])

    def test_pivot_estimate_reasonable(self, karate):
        rng = random.Random(3)
        pivots = rng.sample(list(karate.nodes()), 17)
        estimated = betweenness_from_pivots(karate, pivots)
        exact = betweenness_centrality(karate)
        for node in karate.nodes():
            assert abs(estimated[node] - exact[node]) < 0.2

    def test_empty_pivots_rejected(self, karate):
        with pytest.raises(ValueError):
            betweenness_from_pivots(karate, [])


class TestAgainstBruteForce:
    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=25, deadline=None)
    def test_random_graphs(self, seed):
        rng = random.Random(seed)
        graph = erdos_renyi_graph(rng.randint(4, 14), 0.3, seed=rng.randint(0, 999))
        fast = betweenness_centrality(graph)
        slow = brute_force_betweenness(graph)
        for node in graph.nodes():
            assert fast[node] == pytest.approx(slow[node], abs=1e-9)
