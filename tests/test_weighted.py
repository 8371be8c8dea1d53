"""Weighted-graph substrate tests: Graph weight API, IO round-trips,
weighted generators/datasets, the REPRO_WEIGHTED knob machinery and its
forwarding through every public callable that takes it."""

from __future__ import annotations

import importlib
import inspect
import math
import os
import pkgutil
import random
import warnings

import pytest

import repro
from repro.analysis import compare_estimators
from repro.baselines import ABRA, KADABRA, RiondatoKornaropoulos
from repro.baselines.bader import BaderPivot
from repro.centrality.brandes import (
    betweenness_centrality,
    betweenness_from_pivots,
    betweenness_subset,
    single_source_dependencies,
)
from repro.centrality.closeness import closeness_centrality
from repro.datasets.ground_truth import GroundTruthCache, exact_betweenness
from repro.engine import dag_cache
from repro.errors import DatasetError, GraphError
from repro.graphs import csr as csr_module
from repro.graphs import sssp
from repro.graphs.generators import (
    barabasi_albert_graph,
    grid_road_graph,
    weighted_barabasi_albert_graph,
    weighted_grid_road_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.io import (
    read_dimacs_graph,
    read_edge_list,
    write_edge_list,
)
from repro.graphs.traversal import (
    dict_dijkstra_dag,
    shortest_path_dag,
    sssp_distances,
)


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


@pytest.mark.requires_numpy
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

    @pytest.mark.requires_numpy
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
            shortest_path_dag(graph, 0, max_depth=2, weighted="on")

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


def _weighted_callables():
    """Every public function, class and method of ``repro`` whose
    ``weighted`` parameter defaults to ``None`` (the process default)."""
    found = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != info.name:
                continue
            members = [obj]
            if inspect.isclass(obj):
                members += [
                    member for attr, member in vars(obj).items()
                    if not attr.startswith("_") and inspect.isfunction(member)
                ]
            elif not inspect.isfunction(obj):
                continue
            for member in members:
                try:
                    signature = inspect.signature(member)
                except ValueError:  # a class without a Python __init__
                    continue
                parameter = signature.parameters.get("weighted")
                if parameter is not None and parameter.default is None:
                    found.add(member.__qualname__)
    return found


def _baseline(cls, **options):
    return lambda graph, weighted: cls(
        0.3, 0.1, seed=13, weighted=weighted, **options
    ).estimate(graph).scores


def _compare(graph, weighted):
    rows = compare_estimators(
        graph, [3, 5, 8], epsilon=0.3, delta=0.1, seed=13,
        estimators=["kadabra", "abra", "rk", "bader"],
        compute_ground_truth=False, max_samples_cap=200, weighted=weighted,
    )
    return [row.scores for row in rows]


#: One run per callable: ``run(graph, weighted)`` returns its answer.
FORWARDING_RUNS = {
    "betweenness_centrality": lambda g, w: betweenness_centrality(g, weighted=w),
    "betweenness_subset": lambda g, w: betweenness_subset(g, [3, 5, 8], weighted=w),
    "betweenness_from_pivots":
        lambda g, w: betweenness_from_pivots(g, [0, 7, 21], weighted=w),
    "single_source_dependencies":
        lambda g, w: single_source_dependencies(g, 0, weighted=w),
    "closeness_centrality": lambda g, w: closeness_centrality(g, weighted=w),
    "shortest_path_dag": lambda g, w: shortest_path_dag(g, 0, weighted=w),
    "sssp_distances": lambda g, w: sssp_distances(g, 0, weighted=w),
    "ABRA": _baseline(ABRA, max_samples_cap=200),
    "RiondatoKornaropoulos": _baseline(RiondatoKornaropoulos, max_samples_cap=200),
    "KADABRA": _baseline(KADABRA, max_samples_cap=200),
    "BaderPivot": _baseline(BaderPivot, num_pivots=8),
    "compare_estimators": _compare,
    "exact_betweenness": lambda g, w: exact_betweenness(g, weighted=w),
    "GroundTruthCache.get": lambda g, w: GroundTruthCache().get("g", g, weighted=w),
}

#: Callables with a ``weighted=None`` parameter that are pinned elsewhere:
#: the resolver itself (``test_resolution_order``) and the config field
#: (the knob-table tests in ``tests/test_knobs.py``).
FORWARDING_EXEMPT = {"effective_weighted", "ExperimentConfig"}


class TestWeightedForwarding:
    """``weighted`` is the one knob that changes answers: every public
    callable that takes it must pass it down to whatever resolves it, so
    an explicit argument beats the process default at every depth."""

    def test_every_weighted_callable_is_listed(self):
        assert _weighted_callables() == set(FORWARDING_RUNS) | FORWARDING_EXEMPT

    @pytest.fixture(scope="class")
    def graph(self):
        return weighted_barabasi_albert_graph(40, 2, seed=3)

    @pytest.mark.parametrize("name", sorted(FORWARDING_RUNS))
    def test_argument_beats_the_process_default(self, name, graph):
        def answer(argument, default):
            sssp.set_default_weighted(default)
            dag_cache.clear_default_dag_cache()
            try:
                return FORWARDING_RUNS[name](graph, argument)
            finally:
                sssp.set_default_weighted(None)
                dag_cache.clear_default_dag_cache()

        on = answer("on", default="off")
        off = answer("off", default="on")
        assert on == answer(None, default="on")
        assert off == answer(None, default="off")
        assert on != off


class TestSigmaChoiceRename:
    def test_canonical_name_does_not_warn(self):
        rng = random.Random(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert csr_module.sigma_choice(["x"], [5], rng) == "x"


def test_has_numba_flag_is_a_bool():
    # perfbench/run.py prints it in every result's environment line.
    from repro.graphs import compiled

    assert isinstance(compiled.HAS_NUMBA, bool)


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


# Hand-checked DAGs for the weighted engine.  Each ``distances`` literal
# lists the nodes in the expected settle order.
HAND_CHECKED_DAGS = [
    pytest.param(
        [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.0)], 0,
        {0: 0.0, 1: 1.0, 2: 2.0},
        {0: 1, 1: 1, 2: 1},
        {0: [], 1: [0], 2: [1]},
        id="two-hop-beats-direct",
    ),
    pytest.param(
        [(0, 1, 2.0), (0, 2, 2.0), (1, 3, 2.0), (2, 3, 2.0)], 0,
        {0: 0.0, 1: 2.0, 2: 2.0, 3: 4.0},
        {0: 1, 1: 1, 2: 1, 3: 2},
        {0: [], 1: [0], 2: [0], 3: [1, 2]},
        id="tied-routes",
    ),
    pytest.param(
        # Two shortest s->t paths of length 3 with different hop counts.
        [("s", "a", 1.0), ("a", "b", 1.0), ("b", "t", 1.0), ("a", "t", 2.0)],
        "s",
        {"s": 0.0, "a": 1.0, "b": 2.0, "t": 3.0},
        {"s": 1, "a": 1, "b": 1, "t": 2},
        {"s": [], "a": ["s"], "b": ["a"], "t": ["a", "b"]},
        id="hop-heterogeneous-tie",
    ),
    pytest.param(
        # Distinct powers of two: every shortest path is unique.
        [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0), (0, 4, 8.0), (4, 5, 16.0)], 0,
        {0: 0.0, 1: 1.0, 2: 3.0, 3: 7.0, 4: 8.0, 5: 24.0},
        {node: 1 for node in range(6)},
        {0: [], 1: [0], 2: [1], 3: [2], 4: [0], 5: [4]},
        id="unique-paths",
    ),
    pytest.param(
        # 0.1 + 0.2 rounds above 0.3, so the two-hop route is strictly longer.
        [(0, 1, 0.1), (1, 2, 0.2), (0, 2, 0.3)], 0,
        {0: 0.0, 1: 0.1, 2: 0.3},
        {0: 1, 1: 1, 2: 1},
        {0: [], 1: [0], 2: [0]},
        id="float-near-tie",
    ),
    pytest.param(
        # ... and equals 0.30000000000000004 exactly, which is a tie.
        [(0, 1, 0.1), (1, 2, 0.2), (0, 2, 0.30000000000000004)], 0,
        {0: 0.0, 1: 0.1, 2: 0.30000000000000004},
        {0: 1, 1: 1, 2: 2},
        {0: [], 1: [0], 2: [0, 1]},
        id="float-exact-tie",
    ),
    pytest.param(
        # A heavy direct edge loses to a lighter two-hop detour.
        [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0), (2, 3, 1.0)], 0,
        {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0},
        {0: 1, 1: 1, 2: 1, 3: 1},
        {0: [], 1: [0], 2: [1], 3: [2]},
        id="heavy-direct-edge",
    ),
]


@pytest.mark.requires_numpy
class TestCSRDijkstraKernel:
    """The CSR Dijkstra kernel on hand-checked graphs, with the dict engine
    held to the same literal answers."""

    @pytest.mark.parametrize(
        "edges,source,distances,sigma,predecessors", HAND_CHECKED_DAGS
    )
    def test_hand_checked_dag(self, edges, source, distances, sigma, predecessors):
        from repro.graphs.traversal import shortest_path_dag

        graph = Graph.from_edges(edges)
        for backend in ("csr", "dict"):
            dag = shortest_path_dag(graph, source, backend=backend, weighted="on")
            assert dag.weighted
            assert dag.order == list(distances)
            assert list(dag.distances.items()) == list(distances.items())
            assert dag.sigma == sigma
            assert dag.predecessors == predecessors

    def test_unreachable_node_row(self):
        from repro.errors import SamplingError

        graph = Graph.from_edges([(0, 1, 2.0), (2, 3, 1.5)], nodes=[9])
        snapshot = csr_module.as_csr(graph)
        dag = csr_module.csr_dijkstra_dag(snapshot, snapshot.index[0])
        order = list(dag.order)
        assert [snapshot.labels[i] for i in order] == [0, 1]
        for label in (2, 3, 9):
            index = snapshot.index[label]
            assert dag.dist[index] == -1.0
            assert dag.sigma[index] == 0
            assert dag.pred_indptr[index] == dag.pred_indptr[index + 1]
            with pytest.raises(SamplingError):
                dag.sample_path_indices(index, random.Random(0))
        row = csr_module.csr_dijkstra_distances(snapshot, snapshot.index[0])
        assert list(row) == list(dag.dist)

    @pytest.mark.parametrize(
        "make_graph",
        [
            pytest.param(lambda: barabasi_albert_graph(70, 3, seed=5), id="ba"),
            pytest.param(lambda: grid_road_graph(6, 7, seed=5)[0], id="grid"),
            pytest.param(
                lambda: Graph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3)], nodes=[4]),
                id="square-plus-isolated",
            ),
        ],
    )
    def test_unit_weights_reproduce_the_bfs_dag(self, make_graph):
        # On an unweighted snapshot the kernel counts every edge as 1.0;
        # its push-order tie-breaking then settles nodes in BFS order.
        graph = make_graph()
        assert not graph.is_weighted
        snapshot = csr_module.as_csr(graph)
        assert snapshot.weights is None
        for source in range(min(4, snapshot.n)):
            bfs = csr_module.csr_shortest_path_dag(snapshot, source)
            dijkstra = csr_module.csr_dijkstra_dag(snapshot, source)
            assert list(dijkstra.dist) == [float(d) for d in bfs.dist]
            assert list(dijkstra.sigma) == list(bfs.sigma)
            assert list(dijkstra.order) == list(bfs.order)
            for node in range(snapshot.n):
                assert list(dijkstra.predecessors(node)) == list(
                    bfs.predecessors(node)
                )

    def test_backward_dependencies_hand_checked(self):
        # s-a(1), a-b(1), b-t(1), a-t(2): a lies on every path to b and t,
        # b on one of the two shortest s->t paths.
        from repro.centrality.brandes import single_source_dependencies

        graph = Graph.from_edges(
            [("s", "a", 1.0), ("a", "b", 1.0), ("b", "t", 1.0), ("a", "t", 2.0)]
        )
        snapshot = csr_module.as_csr(graph)
        dag = csr_module.csr_dijkstra_dag(
            snapshot, snapshot.index["s"], float_sigma=True
        )
        delta = csr_module.weighted_backward_dependencies(dag)
        by_label = {label: delta[snapshot.index[label]] for label in "sabt"}
        # delta[s] is the residue callers ignore: 1 + delta[a].
        assert by_label == {"s": 3.0, "a": 2.0, "b": 0.5, "t": 0.0}
        for backend in ("csr", "dict"):
            assert single_source_dependencies(
                graph, "s", backend=backend, weighted="on"
            ) == {
                "a": 2.0, "b": 0.5, "t": 0.0,
            }

    def test_distance_query_keys_are_labels_in_settle_order(self):
        graph = Graph.from_edges(
            [("s", "a", 1.0), ("a", "b", 1.0), ("b", "t", 1.0), ("a", "t", 2.0)],
            nodes=["z"],
        )
        snapshot = csr_module.as_csr(graph)
        assert not snapshot.identity_labels
        expected = [("s", 0.0), ("a", 1.0), ("b", 2.0), ("t", 3.0)]
        for backend in ("csr", "dict"):
            distances = sssp_distances(graph, "s", backend=backend, weighted="on")
            assert list(distances.items()) == expected

    @pytest.mark.parametrize("env_var", ("REPRO_SSSP_KERNEL", "REPRO_COMPILED"))
    def test_retired_kernel_variables_are_ignored(self, env_var, monkeypatch):
        from repro import knobs
        from repro.graphs.traversal import shortest_path_dag

        assert env_var not in {knob.env for knob in knobs.KNOBS}
        graph = weighted_barabasi_albert_graph(40, 2, seed=6)
        reference = shortest_path_dag(graph, 0, backend="csr")
        monkeypatch.setenv(env_var, "not-a-valid-value")
        dag = shortest_path_dag(graph, 0, backend="csr")
        assert dag == reference
        assert dag == shortest_path_dag(graph, 0, backend="dict")
