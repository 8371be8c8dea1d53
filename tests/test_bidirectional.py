"""Tests for the balanced bidirectional BFS."""

from __future__ import annotations

import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError, SamplingError
from repro.graphs.bidirectional import (
    bidirectional_searches,
    bidirectional_shortest_paths,
    stacked_batch_pairs,
)
from repro.graphs.generators import cycle_graph, erdos_renyi_graph
from repro.graphs.graph import Graph
from repro.graphs.traversal import shortest_path_dag


class TestDistanceAndCounts:
    def test_adjacent_nodes(self, karate):
        result = bidirectional_shortest_paths(karate, 0, 1)
        assert result.distance == 1
        assert result.num_shortest_paths == 1

    def test_cycle_antipodal(self):
        graph = cycle_graph(8)
        result = bidirectional_shortest_paths(graph, 0, 4)
        assert result.distance == 4
        assert result.num_shortest_paths == 2

    def test_square_two_paths(self):
        graph = Graph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
        result = bidirectional_shortest_paths(graph, 0, 3)
        assert result.distance == 2
        assert result.num_shortest_paths == 2

    def test_disconnected(self):
        graph = Graph.from_edges([(0, 1), (2, 3)])
        result = bidirectional_shortest_paths(graph, 0, 3)
        assert result.distance is None
        assert not result.connected
        assert result.num_shortest_paths == 0

    def test_same_node_rejected(self, karate):
        with pytest.raises(GraphError):
            bidirectional_shortest_paths(karate, 0, 0)

    def test_missing_node_rejected(self, karate):
        with pytest.raises(GraphError):
            bidirectional_shortest_paths(karate, 0, 999)

    def test_stacked_pairs_validated(self, karate):
        for pairs in ([(0, 1), (2, 2)], [(0, 999)]):
            with pytest.raises(GraphError):
                bidirectional_searches(karate, pairs)
        assert bidirectional_searches(karate, []) == []

    def test_stacked_batch_is_a_power_of_two_within_the_budget(self):
        # A batch's 2K slots are rounded up to a power of two, so K is one:
        # the largest with K * 2m <= 2**20, at most 64.
        for m, pairs in ((1, 64), (5384, 64), (10_000, 32), (27_296, 16),
                         (2**19, 1), (2**21, 1)):
            assert stacked_batch_pairs(SimpleNamespace(m=m)) == pairs

    def test_matches_unidirectional_on_karate(self, karate):
        rng = random.Random(0)
        nodes = list(karate.nodes())
        for _ in range(30):
            source, target = rng.sample(nodes, 2)
            dag = shortest_path_dag(karate, source)
            result = bidirectional_shortest_paths(karate, source, target)
            assert result.distance == dag.distances[target]
            assert result.num_shortest_paths == dag.sigma[target]


class TestPathSampling:
    def test_sampled_path_is_valid(self, karate):
        rng = random.Random(5)
        nodes = list(karate.nodes())
        for _ in range(20):
            source, target = rng.sample(nodes, 2)
            result = bidirectional_shortest_paths(karate, source, target)
            path = result.sample_path(rng)
            assert path[0] == source and path[-1] == target
            assert len(path) - 1 == result.distance
            for u, v in zip(path, path[1:]):
                assert karate.has_edge(u, v)
            assert len(set(path)) == len(path)

    def test_sampling_disconnected_raises(self):
        graph = Graph.from_edges([(0, 1), (2, 3)])
        result = bidirectional_shortest_paths(graph, 0, 3)
        with pytest.raises(SamplingError):
            result.sample_path()

    def test_uniform_over_parallel_paths(self):
        # 0 - {1,2,3} - 4 : three shortest paths of length 2.
        graph = Graph.from_edges(
            [(0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4)]
        )
        rng = random.Random(11)
        counts = Counter()
        for _ in range(600):
            result = bidirectional_shortest_paths(graph, 0, 4)
            counts[result.sample_path(rng)[1]] += 1
        for middle in (1, 2, 3):
            assert 130 < counts[middle] < 270

    def test_uniform_over_longer_paths(self):
        # Two disjoint length-3 paths between 0 and 5.
        graph = Graph.from_edges(
            [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)]
        )
        rng = random.Random(13)
        counts = Counter()
        for _ in range(400):
            result = bidirectional_shortest_paths(graph, 0, 5)
            counts[tuple(result.sample_path(rng))] += 1
        assert set(counts) == {(0, 1, 2, 5), (0, 3, 4, 5)}
        assert 120 < counts[(0, 1, 2, 5)] < 280


class TestAgainstBruteForce:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_graphs_match_unidirectional(self, seed):
        rng = random.Random(seed)
        graph = erdos_renyi_graph(rng.randint(5, 25), 0.25, seed=rng.randint(0, 999))
        nodes = list(graph.nodes())
        source, target = rng.sample(nodes, 2)
        dag = shortest_path_dag(graph, source)
        single = bidirectional_shortest_paths(graph, source, target)
        # Stacked, both directions at once (a disconnected pair among them).
        stacked = bidirectional_searches(graph, [(source, target), (target, source)])
        for result in (single, *stacked):
            if target in dag.distances:
                assert result.distance == dag.distances[target]
                assert result.num_shortest_paths == dag.sigma[target]
            else:
                assert result.distance is None
