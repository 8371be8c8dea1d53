"""Per-version preprocessing: the CSR snapshot, the connectivity check, the
block-cut tree, its block subgraphs and its exact block diameters are built
once per graph version, kept in the graph's versioned slot (``Graph.memo``)
and shared by every query on the unchanged graph; the snapshot is patched
from the mutation journal when it covers an edit."""

from __future__ import annotations

import gc
import pickle
import random
import weakref
from collections import Counter

import pytest

from repro.centrality.brandes import betweenness_centrality
from repro.errors import GraphError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner
from repro.graphs import block_cut_tree as bct_module
from repro.graphs import components
from repro.graphs import csr as csr_module
from repro.graphs import delta as delta_module
from repro.graphs.block_cut_tree import build_block_cut_tree
from repro.graphs.components import is_connected
from repro.graphs.csr import SNAPSHOT_KEY, CSRGraph, as_csr
from repro.graphs.generators import barabasi_albert_graph, barbell_graph
from repro.graphs.graph import Graph
from repro.saphyra_bc import SaPHyRaBC
from repro.saphyra_bc import vc_bounds
from repro.saphyra_bc.isp import PersonalizedISP
from repro.saphyra_bc.vc_bounds import personalized_vc_dimension

BACKENDS = ["dict", pytest.param("csr", marks=pytest.mark.requires_numpy)]


def _graph() -> Graph:
    """A BA(340, 2) core, one block above the exact-diameter threshold, with
    a pendant triangle and a leaf on every 17th core node: small blocks,
    bridges and cutpoints around it."""
    graph = barabasi_albert_graph(340, 2, seed=11)
    for node in range(0, 340, 17):
        graph.add_edge(node, 1000 + node)
        graph.add_edge(1000 + node, 2000 + node)
        graph.add_edge(2000 + node, node)
        graph.add_edge(node, 3000 + node)
    return graph


TARGETS = [0, 5, 17, 1017, 2034, 3051, 100, 201, 3000, 339]


def _content(tree):
    """Everything a tree holds except its graph and version."""
    return (
        tree.decomposition.components,
        tree.decomposition.cutpoints,
        tree.tree_adjacency,
        tree.out_reach,
        tree.branch_sizes,
        tree.block_pair_weight,
        tree.bc_a,
        tree.gamma,
    )


def _cold_tree(graph: Graph):
    """The tree of an equal graph that has no memo yet."""
    return build_block_cut_tree(graph.copy())


def _count_preprocessing(monkeypatch) -> Counter:
    """Count the graph-only work a bc query can do: the biconnected DFS,
    block copies, exact block diameters and the connectivity BFS."""
    calls: Counter = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for owner, attr in (
        (bct_module, "biconnected_components"),
        (bct_module, "exact_diameter"),
        (vc_bounds, "exact_diameter"),
        (components, "largest_connected_component"),
        (Graph, "subgraph"),
    ):
        monkeypatch.setattr(owner, attr, counted(attr, getattr(owner, attr)))
    return calls


def test_graph_has_a_block_above_the_exact_diameter_threshold():
    tree = build_block_cut_tree(_graph())
    sizes = [len(tree.block_nodes(index)) for index in range(tree.num_blocks)]
    assert max(sizes) > vc_bounds._EXACT_DIAMETER_THRESHOLD
    assert min(sizes) <= 3 and len(sizes) > 40


class TestReuse:
    @pytest.mark.parametrize("targets", [TARGETS, None])
    def test_second_query_repeats_no_preprocessing(self, monkeypatch, targets):
        graph = _graph()
        SaPHyRaBC(0.1, 0.1, seed=1, max_samples_cap=300).rank(graph, targets)
        tree = build_block_cut_tree(graph)
        calls = _count_preprocessing(monkeypatch)
        SaPHyRaBC(0.1, 0.1, seed=2, max_samples_cap=300).rank(graph, targets)
        assert build_block_cut_tree(graph) is tree
        assert is_connected(graph)
        assert calls == Counter()

    def test_block_diameters_are_exact_and_cached(self, monkeypatch):
        graph = _graph()
        tree = build_block_cut_tree(graph)
        small = [
            index for index in range(tree.num_blocks)
            if len(tree.block_nodes(index)) <= vc_bounds._EXACT_DIAMETER_THRESHOLD
        ]
        first = [vc_bounds.block_diameter_bound(tree, index) for index in small]
        calls = _count_preprocessing(monkeypatch)
        again = [vc_bounds.block_diameter_bound(tree, index) for index in small]
        assert again == first
        assert calls == Counter()
        assert first == [
            vc_bounds.exact_diameter(_cold_tree(graph).block_subgraph(index))
            for index in small
        ]


def _add_edge(graph):
    graph.add_edge(1000, 1017)  # joins two pendant triangles into a cycle


def _remove_edge(graph):
    graph.remove_edge(1000, 2000)  # a pendant triangle becomes a path


def _remove_node(graph):
    graph.remove_node(3017)  # a leaf


def _reweight(graph):
    graph.set_edge_weight(0, 3000, 2.0)  # a bridge gets a length


class TestMutations:
    @pytest.mark.parametrize(
        "mutate", [_add_edge, _remove_edge, _remove_node, _reweight]
    )
    def test_mutation_rebuilds(self, monkeypatch, mutate):
        graph = _graph()
        tree = build_block_cut_tree(graph)
        personalized_vc_dimension(tree, TARGETS, seed=1)
        mutate(graph)
        calls = _count_preprocessing(monkeypatch)
        rebuilt = build_block_cut_tree(graph)
        assert rebuilt is not tree
        assert rebuilt.version == graph._version
        assert calls["biconnected_components"] == 1
        assert calls["largest_connected_component"] == 1
        assert _content(rebuilt) == _content(_cold_tree(graph))
        assert rebuilt._block_subgraphs == {} and rebuilt._block_diameters == {}

    def test_add_node_rebuilds(self):
        graph = _graph()
        build_block_cut_tree(graph)
        assert is_connected(graph)
        graph.add_node("isolated")
        assert not is_connected(graph)
        with pytest.raises(GraphError, match="connected graph"):
            build_block_cut_tree(graph)
        graph.add_edge("isolated", 0)
        tree = build_block_cut_tree(graph)
        assert "isolated" in tree.bc_a
        assert _content(tree) == _content(_cold_tree(graph))

    @pytest.mark.parametrize(
        "noop",
        [
            lambda graph: graph.add_node(0),
            lambda graph: graph.add_edge(0, 1000),
            lambda graph: graph.set_edge_weight(0, 1000, 1),
        ],
        ids=["add_node", "add_edge", "set_edge_weight"],
    )
    def test_noop_mutation_keeps_the_tree(self, monkeypatch, noop):
        graph = _graph()
        tree = build_block_cut_tree(graph)
        is_connected(graph)
        noop(graph)
        calls = _count_preprocessing(monkeypatch)
        assert build_block_cut_tree(graph) is tree
        assert is_connected(graph)
        assert calls == Counter()


@pytest.mark.parametrize("collect", [False, True], ids=["refcount", "gc"])
def test_dropped_graph_is_collected(collect):
    graph = _graph()
    SaPHyRaBC(0.1, 0.1, seed=1, max_samples_cap=300).rank(graph, TARGETS)
    assert build_block_cut_tree(graph)._block_diameters
    ref = weakref.ref(graph)
    del graph
    # The memo refers nowhere back to its graph, so no reference cycle
    # keeps a dropped graph waiting for the collector.
    if collect:
        gc.collect()
    assert ref() is None


@pytest.mark.requires_numpy
def test_pickles_leave_the_memo_out():
    graph = _graph()
    as_csr(graph)  # the snapshot slot arms the journal ...
    _add_edge(graph)  # ... and the edit records to it
    assert graph._journal is not None and len(graph._journal.entries) == 1
    space = PersonalizedISP(graph, TARGETS)
    personalized_vc_dimension(
        space.bct, TARGETS, included_blocks=space.included_blocks, seed=1
    )
    copy = pickle.loads(pickle.dumps(graph))
    assert graph._memo and copy._memo == {}
    # The copy has no stale value to patch, so it carries no journal, and
    # its snapshot after an edit is a fresh build's.
    assert copy._journal is None
    _remove_edge(copy)
    assert _snapshot_bytes(as_csr(copy)) == _snapshot_bytes(
        CSRGraph.from_graph(copy)
    )
    restored = pickle.loads(pickle.dumps(space))
    assert restored.bct.graph is restored.graph and restored.graph._memo == {}
    assert restored.graph._journal is None
    assert restored.bct._block_subgraphs.keys() == space.bct._block_subgraphs.keys()
    assert restored.bct.check_built_for(restored.graph) is None


@pytest.mark.requires_numpy
def test_deepcopies_leave_the_memo_and_journal_out():
    import copy

    graph = _graph()
    as_csr(graph)
    _add_edge(graph)
    clone = copy.deepcopy(graph)
    assert graph._memo and graph._journal is not None
    assert clone._memo == {} and clone._journal is None
    assert clone._version == graph._version
    assert list(clone.edges()) == list(graph.edges())


@pytest.mark.requires_numpy
def test_shallow_copies_edit_their_own_adjacency():
    import copy

    graph = _graph()
    snapshot = _snapshot_bytes(as_csr(graph))
    edges, version = list(graph.edges()), graph._version
    clone = copy.copy(graph)
    assert clone._memo == {} and clone._journal is None
    _add_edge(clone)
    _remove_edge(clone)
    assert list(clone.edges()) != edges
    assert list(graph.edges()) == edges
    assert graph.number_of_edges() == len(edges)
    assert graph._version == version
    assert _snapshot_bytes(as_csr(graph)) == snapshot
    assert snapshot == _snapshot_bytes(CSRGraph.from_graph(graph))


class TestFailedBuild:
    def test_failed_tree_build_leaves_no_entry(self, monkeypatch):
        graph = _graph()
        build_block_cut_tree(graph)
        _add_edge(graph)

        def fail(graph):
            raise RuntimeError("biconnected DFS failed")

        with monkeypatch.context() as patch:
            patch.setattr(bct_module, "biconnected_components", fail)
            with pytest.raises(RuntimeError, match="DFS failed"):
                build_block_cut_tree(graph)
        # The stale tree went before the build, and the failed build
        # stored nothing.
        assert "block_cut_tree" not in graph._memo
        tree = build_block_cut_tree(graph)
        assert tree.version == graph._version
        assert _content(tree) == _content(_cold_tree(graph))

    def test_failed_block_copy_leaves_no_entry(self, monkeypatch):
        graph = _graph()
        tree = build_block_cut_tree(graph)

        def fail(self, nodes):
            raise RuntimeError("block copy failed")

        with monkeypatch.context() as patch:
            patch.setattr(Graph, "subgraph", fail)
            with pytest.raises(RuntimeError, match="copy failed"):
                personalized_vc_dimension(tree, TARGETS, seed=3)
        assert tree._block_subgraphs == {} and tree._block_diameters == {}
        cold = _cold_tree(graph)
        assert personalized_vc_dimension(
            tree, TARGETS, seed=3
        ) == personalized_vc_dimension(cold, TARGETS, seed=3)
        assert tree._block_diameters == cold._block_diameters
        for index, block in tree._block_subgraphs.items():
            assert list(block.edges()) == list(cold.block_subgraph(index).edges())


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("targets", [TARGETS, None], ids=["subset", "full"])
def test_warm_query_equals_cold(backend, workers, targets):
    def query(graph):
        rng = random.Random(5)
        result = SaPHyRaBC(
            0.1, 0.1, seed=rng, max_samples_cap=300,
            backend=backend, workers=workers,
        ).rank(graph, targets)
        return (
            result.scores,
            result.ranking,
            result.num_samples,
            result.converged_by,
            result.vc_dimension,
            rng.getstate(),
        )

    cold = query(_graph())
    graph = _graph()
    SaPHyRaBC(
        0.1, 0.1, seed=9, max_samples_cap=300, backend=backend, workers=workers
    ).rank(graph, targets)
    assert build_block_cut_tree(graph)._block_subgraphs
    assert query(graph) == cold


class TestStaleTreeArgument:
    def test_tree_of_an_older_version_raises(self):
        # Closing the barbell into a ring changes every block; the stale
        # tree used to score node 0 at 0.0 (exact 0.31) and nodes 4-7 at
        # 0.41-0.46 (exact 0.08-0.15).
        graph = barbell_graph(5, 3)
        nodes = list(graph.nodes())
        tree = build_block_cut_tree(graph)
        graph.add_edge(nodes[0], nodes[-1])
        targets = nodes[:8]
        with pytest.raises(GraphError, match="mutated"):
            SaPHyRaBC(0.05, 0.05, seed=3).rank(graph, targets, block_cut_tree=tree)
        with pytest.raises(GraphError, match="mutated"):
            PersonalizedISP(graph, targets, block_cut_tree=tree)
        result = SaPHyRaBC(0.05, 0.05, seed=3).rank(graph, targets)
        truth = betweenness_centrality(graph)
        assert max(abs(result.scores[v] - truth[v]) for v in targets) <= 0.05

    def test_tree_of_another_graph_raises(self):
        graph = barbell_graph(5, 3)
        tree = build_block_cut_tree(graph.copy())
        with pytest.raises(GraphError, match="another graph"):
            SaPHyRaBC(0.05, 0.05, seed=3).rank(
                graph, [0, 1, 2], block_cut_tree=tree
            )

    def test_current_tree_is_accepted(self):
        graph = barbell_graph(5, 3)
        tree = build_block_cut_tree(graph)
        with_tree = SaPHyRaBC(0.05, 0.05, seed=3).rank(
            graph, [0, 5, 6], block_cut_tree=tree
        )
        without = SaPHyRaBC(0.05, 0.05, seed=3).rank(graph, [0, 5, 6])
        assert with_tree.scores == without.scores

    def test_runner_tree_follows_the_dataset_graph(self):
        runner = ExperimentRunner(ExperimentConfig.smoke())
        graph = runner.dataset("flickr").graph
        tree = runner.block_cut_tree("flickr")
        assert runner.block_cut_tree("flickr") is tree
        u, v = next(iter(graph.edges()))
        graph.remove_edge(u, v)
        graph.add_edge(u, v)
        rebuilt = runner.block_cut_tree("flickr")
        assert rebuilt is not tree and rebuilt.version == graph._version


# ----------------------------------------------------------------------
# The CSR snapshot's slot
# ----------------------------------------------------------------------
def _snapshot_bytes(snapshot):
    weights = b"" if snapshot.weights is None else snapshot.weights.tobytes()
    return (
        snapshot.labels,
        snapshot.indptr.tobytes(),
        snapshot.indices.tobytes(),
        weights,
    )


def test_memo_refresh_gets_the_deltas_and_none_rebuilds():
    graph = _graph()
    built, refreshed = [], []

    def build(g):
        built.append(g._version)
        return len(built)

    def refresh(g, value, deltas):
        refreshed.append((value, [d.op for d in deltas]))
        return None if len(refreshed) == 1 else value + 100

    assert graph.memo("k", build, refresh) == 1
    _reweight(graph)
    assert graph.memo("k", build, refresh) == 2  # declined: rebuilt
    _add_edge(graph)
    assert graph.memo("k", build, refresh) == 102  # refreshed
    assert graph.memo("k", build, refresh) == 102  # current
    assert refreshed == [(1, ["reweight"]), (2, ["insert"])]
    assert len(built) == 2


@pytest.fixture
def snapshot_builds(monkeypatch):
    """Every ``CSRGraph.from_graph`` call, by graph."""
    builds = []
    build = CSRGraph.from_graph

    def counted(graph):
        builds.append(graph)
        return build(graph)

    monkeypatch.setattr(CSRGraph, "from_graph", counted)
    return builds


@pytest.mark.requires_numpy
class TestSnapshotSlot:
    def test_current_slot_returns_the_same_snapshot(self, snapshot_builds):
        graph = _graph()
        snapshot = as_csr(graph)
        graph.add_edge(0, 1000)  # an existing edge: no new version
        assert as_csr(graph) is snapshot
        assert graph.memo_deltas(SNAPSHOT_KEY) == []
        assert len(snapshot_builds) == 1

    def test_covered_edit_patches_without_a_rebuild(self, snapshot_builds):
        graph = _graph()
        stale = as_csr(graph)
        _add_edge(graph)
        _remove_edge(graph)
        _reweight(graph)
        assert len(graph.memo_deltas(SNAPSHOT_KEY)) == 3
        patched = as_csr(graph)
        assert snapshot_builds == [graph]
        assert patched is not stale
        assert _snapshot_bytes(patched) == _snapshot_bytes(
            CSRGraph.from_graph(graph)
        )

    @pytest.mark.parametrize(
        "edit",
        ["structural", "new-node", "overflow"],
    )
    def test_uncovered_edit_rebuilds(self, monkeypatch, snapshot_builds, edit):
        if edit == "overflow":
            monkeypatch.setattr(delta_module, "DELTA_JOURNAL_SIZE", 2)
        graph = _graph()
        stale = as_csr(graph)
        if edit == "structural":
            _remove_node(graph)
        elif edit == "new-node":
            graph.add_edge(0, 4000)  # a new endpoint is a structural edit
        else:
            for weight in (2.0, 3.0, 4.0):
                graph.set_edge_weight(0, 3000, weight)
        assert graph.memo_deltas(SNAPSHOT_KEY) is None
        assert SNAPSHOT_KEY not in graph._memo  # the probe dropped it
        rebuilt = as_csr(graph)
        assert snapshot_builds == [graph, graph]
        assert rebuilt is not stale
        assert _snapshot_bytes(rebuilt) == _snapshot_bytes(
            CSRGraph.from_graph(graph)
        )

    def test_refresh_returning_none_rebuilds(self, monkeypatch, snapshot_builds):
        refreshed = []

        def declined(graph, stale, deltas):
            refreshed.append(list(deltas))
            return None

        monkeypatch.setattr(csr_module, "_patched_snapshot", declined)
        graph = _graph()
        as_csr(graph)
        _add_edge(graph)
        rebuilt = as_csr(graph)
        assert len(refreshed) == 1 and len(refreshed[0]) == 1
        assert snapshot_builds == [graph, graph]
        assert _snapshot_bytes(rebuilt) == _snapshot_bytes(
            CSRGraph.from_graph(graph)
        )

    @pytest.mark.parametrize("stale", [False, True], ids=["empty", "stale"])
    def test_failed_build_leaves_no_entry(self, monkeypatch, stale):
        graph = _graph()
        if stale:
            as_csr(graph)
            _remove_node(graph)

        def fail(graph):
            raise RuntimeError("snapshot build failed")

        with monkeypatch.context() as patch:
            patch.setattr(CSRGraph, "from_graph", fail)
            with pytest.raises(RuntimeError, match="build failed"):
                as_csr(graph)
        assert SNAPSHOT_KEY not in graph._memo
        assert _snapshot_bytes(as_csr(graph)) == _snapshot_bytes(
            CSRGraph.from_graph(graph)
        )

    def test_graph_holding_a_snapshot_is_freed_without_the_collector(self):
        graph = _graph()
        snapshot = as_csr(graph)
        _add_edge(graph)
        as_csr(graph)  # patched: the journal is armed too
        assert graph._journal is not None
        ref = weakref.ref(graph)
        gc.disable()
        try:
            del graph
            assert ref() is None
        finally:
            gc.enable()
        assert snapshot.n > 0  # a snapshot held elsewhere outlives its graph
