"""Weighted-graph substrate tests: Graph weight API, IO round-trips,
weighted generators/datasets and the REPRO_WEIGHTED knob machinery."""

from __future__ import annotations

import math
import os
import random
import warnings

import pytest

from repro.errors import DatasetError, GraphError
from repro.graphs import csr as csr_module
from repro.graphs import sssp
from repro.graphs.generators import (
    barabasi_albert_graph,
    weighted_barabasi_albert_graph,
    weighted_grid_road_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.io import (
    read_dimacs_graph,
    read_edge_list,
    write_edge_list,
)
from repro.graphs.traversal import dict_dijkstra_dag, sssp_distances


class TestGraphWeights:
    def test_default_edges_are_unit(self):
        graph = Graph.from_edges([(0, 1), (1, 2)])
        assert not graph.is_weighted
        assert graph.edge_weight(0, 1) == 1
        assert list(graph.weighted_edges()) == [(0, 1, 1), (1, 2, 1)]

    def test_add_edge_with_weight(self):
        graph = Graph()
        graph.add_edge("a", "b", weight=2.5)
        assert graph.is_weighted
        assert graph.edge_weight("a", "b") == 2.5
        assert graph.edge_weight("b", "a") == 2.5

    def test_weight_one_keeps_unit_layout(self):
        graph = Graph()
        graph.add_edge(0, 1, weight=1)
        graph.add_edge(1, 2, weight=1.0)
        assert not graph.is_weighted

    @pytest.mark.parametrize(
        "bad", [0, -1, -0.5, float("nan"), float("inf"), "2", None, True]
    )
    def test_invalid_weights_rejected(self, bad):
        graph = Graph()
        if bad is True:
            # bool(True) == 1 is a valid unit weight by value; reject only
            # explicit non-numbers and non-positive values.
            graph.add_edge(0, 1, weight=bad)
            assert not graph.is_weighted
            return
        with pytest.raises(GraphError):
            graph.add_edge(0, 1, weight=bad)

    def test_rejection_names_the_edge(self):
        graph = Graph()
        with pytest.raises(GraphError, match=r"for edge 'a'-'b'"):
            graph.add_edge("a", "b", weight=-2.0)
        with pytest.raises(GraphError, match=r"for edge 0-1"):
            graph.add_edge(0, 1, weight=float("nan"))
        with pytest.raises(GraphError, match=r"for edge 0-1"):
            graph.add_edge(0, 1, weight="heavy")
        graph.add_edge(0, 1)
        with pytest.raises(GraphError, match=r"for edge 0-1"):
            graph.set_edge_weight(0, 1, 0.0)

    def test_duplicate_edge_keeps_first_weight(self):
        graph = Graph()
        graph.add_edge(0, 1, weight=3.0)
        graph.add_edge(0, 1, weight=7.0)  # no-op: first occurrence wins
        assert graph.edge_weight(0, 1) == 3.0

    def test_set_edge_weight(self):
        graph = Graph.from_edges([(0, 1)])
        version = graph._version
        graph.set_edge_weight(0, 1, 4.0)
        assert graph.is_weighted
        assert graph.edge_weight(0, 1) == 4.0
        assert graph._version > version
        graph.set_edge_weight(0, 1, 1)
        assert not graph.is_weighted
        with pytest.raises(GraphError):
            graph.set_edge_weight(0, 2, 1.5)
        with pytest.raises(GraphError):
            graph.set_edge_weight(0, 1, -2)

    def test_remove_edge_and_node_maintain_weight_counter(self):
        graph = Graph.from_edges([(0, 1, 2.0), (1, 2, 3.0), (2, 3)])
        assert graph.is_weighted
        graph.remove_edge(0, 1)
        assert graph.is_weighted
        graph.remove_node(1)  # removes the weighted (1, 2) edge
        assert not graph.is_weighted

    def test_from_edges_triples_and_bad_arity(self):
        graph = Graph.from_edges([(0, 1, 2.0), (1, 2)])
        assert graph.edge_weight(0, 1) == 2.0
        assert graph.edge_weight(1, 2) == 1
        with pytest.raises(GraphError):
            Graph.from_edges([(0, 1, 2.0, "extra")])

    def test_copy_subgraph_relabeled_preserve_weights(self):
        graph = Graph.from_edges([("a", "b", 2.0), ("b", "c", 3.5), ("c", "d")])
        clone = graph.copy()
        assert clone.is_weighted
        assert clone.edge_weight("a", "b") == 2.0
        sub = graph.subgraph(["a", "b", "c"])
        assert sub.edge_weight("b", "c") == 3.5
        assert sub.is_weighted
        relabeled, mapping = graph.relabeled()
        assert relabeled.edge_weight(mapping["a"], mapping["b"]) == 2.0
        assert relabeled.is_weighted

    def test_neighbor_weights_order_matches_neighbors(self):
        graph = Graph.from_edges([(0, 1, 2.0), (0, 2), (0, 3, 0.5)])
        pairs = list(graph.neighbor_weights(0))
        assert [node for node, _ in pairs] == list(graph.neighbors(0))
        assert pairs == [(1, 2.0), (2, 1), (3, 0.5)]
        with pytest.raises(GraphError):
            graph.neighbor_weights(99)


class TestCSRWeights:
    def test_snapshot_carries_weights(self):
        graph = Graph.from_edges([(0, 1, 2.0), (1, 2, 0.5)])
        snapshot = csr_module.as_csr(graph)
        assert snapshot.is_weighted
        weights = list(snapshot.weights)
        # One entry per directed adjacency slot, aligned with indices.
        assert len(weights) == 2 * graph.number_of_edges()
        position = int(snapshot.indptr[0])
        assert weights[position] == 2.0

    def test_unit_snapshot_has_no_weights_array(self):
        graph = Graph.from_edges([(0, 1), (1, 2)])
        assert csr_module.as_csr(graph).weights is None

    def test_snapshot_invalidated_on_weight_change(self):
        graph = Graph.from_edges([(0, 1), (1, 2)])
        first = csr_module.as_csr(graph)
        graph.set_edge_weight(0, 1, 5.0)
        second = csr_module.as_csr(graph)
        assert second is not first
        assert second.is_weighted


class TestWeightedIO:
    def test_edge_list_weight_column_round_trip(self, tmp_path):
        graph = weighted_barabasi_albert_graph(40, 2, seed=3)
        path = tmp_path / "weighted.txt"
        write_edge_list(graph, path, header="weighted round trip")
        loaded = read_edge_list(path)
        assert loaded.is_weighted

        def canonical(g):
            return sorted(
                (min(u, v), max(u, v), weight)
                for u, v, weight in g.weighted_edges()
            )

        # Weights round-trip exactly (repr-formatted floats re-parse bitwise).
        assert canonical(loaded) == canonical(graph)

    def test_unweighted_writer_keeps_two_columns(self, tmp_path):
        graph = Graph.from_edges([(0, 1), (1, 2)])
        path = tmp_path / "plain.txt"
        write_edge_list(graph, path)
        body = [
            line for line in path.read_text().splitlines()
            if not line.startswith("#")
        ]
        assert body == ["0 1", "1 2"]
        assert not read_edge_list(path).is_weighted

    def test_mixed_weight_lines(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text("0 1 2.5\n1 2\n")
        graph = read_edge_list(path)
        assert graph.edge_weight(0, 1) == 2.5
        assert graph.edge_weight(1, 2) == 1

    def test_malformed_weight_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 1.5\n1 2 oops\n")
        with pytest.raises(GraphError, match=r"bad\.txt:2"):
            read_edge_list(path)

    def test_non_positive_weight_raises_with_line_number(self, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("0 1 1.5\n2 3 0\n")
        with pytest.raises(GraphError, match=r"zero\.txt:2"):
            read_edge_list(path)

    def test_dimacs_weighted_read(self, tmp_path):
        path = tmp_path / "road.gr"
        path.write_text(
            "c tiny road\np sp 3 4\na 1 2 70\na 2 1 70\na 2 3 35\na 3 2 35\n"
        )
        hop = read_dimacs_graph(path)
        assert not hop.is_weighted
        weighted = read_dimacs_graph(path, weighted=True)
        assert weighted.is_weighted
        assert weighted.edge_weight(1, 2) == 70.0
        assert weighted.edge_weight(2, 3) == 35.0

    def test_dimacs_weighted_missing_weight_raises(self, tmp_path):
        path = tmp_path / "short.gr"
        path.write_text("p sp 2 1\na 1 2\n")
        assert read_dimacs_graph(path).has_edge(1, 2)
        with pytest.raises(GraphError, match=r"short\.gr:2"):
            read_dimacs_graph(path, weighted=True)


class TestWeightedGenerators:
    def test_weighted_ba_deterministic_and_positive(self):
        first = weighted_barabasi_albert_graph(80, 3, seed=11)
        second = weighted_barabasi_albert_graph(80, 3, seed=11)
        assert list(first.weighted_edges()) == list(second.weighted_edges())
        assert first.is_weighted
        for _, _, weight in first.weighted_edges():
            assert 1.0 <= weight <= 10.0
        assert weighted_barabasi_albert_graph(80, 3, seed=12).edge_weight(
            0, 1
        ) != first.edge_weight(0, 1) or True  # seeds differ, no crash

    def test_weighted_ba_same_topology_as_unweighted(self):
        weighted = weighted_barabasi_albert_graph(80, 3, seed=11)
        plain = barabasi_albert_graph(80, 3, seed=11)
        assert sorted(weighted.edges()) == sorted(plain.edges())

    def test_weighted_ba_invalid_range(self):
        with pytest.raises(GraphError):
            weighted_barabasi_albert_graph(20, 2, seed=0, weight_range=(0.0, 1.0))
        with pytest.raises(GraphError):
            weighted_barabasi_albert_graph(20, 2, seed=0, weight_range=(3.0, 1.0))

    def test_weighted_grid_euclidean_like(self):
        graph, coordinates = weighted_grid_road_graph(7, 8, seed=4)
        assert graph.is_weighted
        for u, v, weight in graph.weighted_edges():
            (x1, y1), (x2, y2) = coordinates[u], coordinates[v]
            base = math.hypot(x2 - x1, y2 - y1)
            assert base <= weight <= base * 1.25 + 1e-12
        again, _ = weighted_grid_road_graph(7, 8, seed=4)
        assert list(again.weighted_edges()) == list(graph.weighted_edges())

    def test_registry_datasets(self):
        from repro.datasets import load

        road = load("usa-road-weighted", scale=0.3, seed=2)
        assert road.graph.is_weighted
        assert road.coordinates is not None
        social = load("ba-weighted", scale=0.3, seed=2)
        assert social.graph.is_weighted
        with pytest.raises(DatasetError):
            load("usa-road-weighted", scale=-1)


class TestWeightedKnob:
    def test_resolution_order(self, monkeypatch):
        monkeypatch.delenv(sssp.WEIGHTED_ENV_VAR, raising=False)
        assert sssp.resolve_weighted() == "auto"
        monkeypatch.setenv(sssp.WEIGHTED_ENV_VAR, "off")
        assert sssp.resolve_weighted() == "off"
        assert sssp.resolve_weighted("on") == "on"
        sssp.set_default_weighted("on")
        try:
            assert sssp.resolve_weighted() == "on"
            # The override mirrors into the environment for spawn workers.
            assert os.environ[sssp.WEIGHTED_ENV_VAR] == "on"
        finally:
            sssp.set_default_weighted(None)
        assert sssp.resolve_weighted() == "off"  # displaced env restored

    def test_invalid_values_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="weighted"):
            sssp.resolve_weighted("sometimes")
        with pytest.raises(ValueError, match=sssp.WEIGHTED_ENV_VAR):
            monkeypatch.setenv(sssp.WEIGHTED_ENV_VAR, "maybe")
            sssp.resolve_weighted()

    def test_effective_weighted_routing(self, monkeypatch):
        monkeypatch.delenv(sssp.WEIGHTED_ENV_VAR, raising=False)
        weighted = Graph.from_edges([(0, 1, 2.0)])
        unit = Graph.from_edges([(0, 1)])
        assert sssp.effective_weighted(weighted) is True
        assert sssp.effective_weighted(unit) is False
        assert sssp.effective_weighted(unit, "on") is True
        assert sssp.effective_weighted(weighted, "off") is False
        snapshot = csr_module.as_csr(weighted)
        assert sssp.effective_weighted(snapshot) is True

    def test_max_depth_rejected_on_weighted_engine(self):
        from repro.graphs.traversal import shortest_path_dag

        graph = Graph.from_edges([(0, 1, 2.0), (1, 2, 1.0)])
        with pytest.raises(ValueError, match="max_depth"):
            shortest_path_dag(graph, 0, max_depth=2)

    def test_cli_flag_sets_default(self):
        from repro.cli import main

        try:
            assert main(["datasets", "--version"]) in (0, 1, 2)
        except SystemExit:
            pass
        # The flag machinery itself: --weighted installs the override.
        from repro import cli

        parser = cli.build_parser()
        args = parser.parse_args(["rank", "--weighted", "off"])
        assert args.weighted == "off"


class TestSigmaChoiceRename:
    def test_alias_warns_and_delegates(self):
        from repro.graphs import traversal

        rng = random.Random(0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert csr_module.weighted_choice(["x"], [5], rng) == "x"
        assert len(caught) == 1
        assert issubclass(caught[0].category, DeprecationWarning)
        assert "sigma_choice" in str(caught[0].message)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert traversal._weighted_choice(["y"], [3], rng) == "y"
        assert len(caught) == 1
        assert issubclass(caught[0].category, DeprecationWarning)
        assert "sigma_choice" in str(caught[0].message)

    def test_canonical_name_does_not_warn(self):
        rng = random.Random(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert csr_module.sigma_choice(["x"], [5], rng) == "x"

    def test_aliases_delegate_bit_identically(self):
        rng_alias, rng_canonical = random.Random(42), random.Random(42)
        population = list(range(10))
        sigmas = [i + 1 for i in range(10)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            picks_alias = [
                csr_module.weighted_choice(population, sigmas, rng_alias)
                for _ in range(50)
            ]
        picks_canonical = [
            csr_module.sigma_choice(population, sigmas, rng_canonical)
            for _ in range(50)
        ]
        assert picks_alias == picks_canonical


class TestDictDijkstraOracle:
    def test_tiny_graph_hand_checked(self):
        # 0-1 (1), 1-2 (1), 0-2 (3): the two-hop route wins (2 < 3).
        graph = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.0)])
        dag = dict_dijkstra_dag(graph, 0)
        assert dag.distances == {0: 0.0, 1: 1.0, 2: 2.0}
        assert dag.sigma == {0: 1, 1: 1, 2: 1}
        assert dag.predecessors[2] == [1]

    def test_tied_paths_counted(self):
        # Two weight-2 routes 0->3: via 1 and via 2.
        graph = Graph.from_edges(
            [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)]
        )
        dag = dict_dijkstra_dag(graph, 0)
        assert dag.distances[3] == 2.0
        assert dag.sigma[3] == 2
        assert set(dag.predecessors[3]) == {1, 2}

    def test_unreachable_nodes_absent(self):
        graph = Graph.from_edges([(0, 1, 2.0)], nodes=[5])
        result = sssp_distances(graph, 0, weighted="on")
        assert 5 not in result
        assert result == {0: 0.0, 1: 2.0}

    def test_heavier_direct_edge_ignored_for_counting(self):
        # Weighted shortest paths can be longer in hops than hop-shortest
        # paths: the direct 0-2 edge is not on any weight-minimal path.
        graph = Graph.from_edges(
            [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0), (2, 3, 1.0)]
        )
        dag = dict_dijkstra_dag(graph, 0)
        assert dag.distances[3] == 3.0
        assert dag.predecessors[2] == [1]
