"""Tests for the mutation journal, the snapshot patch and the caches'
one staleness rule.

Three layers are covered:

* the :class:`~repro.graphs.delta.MutationJournal` mechanics and the
  journal cap;
* incremental CSR patching in :func:`repro.graphs.csr.as_csr` — patched
  snapshots must be **byte-identical** to a from-scratch build, on unit
  and on weighted graphs;
* the caches: ``SourceDAGCache`` and ``GroundTruthCache`` key on
  ``Graph._version`` alone, so any effective edit drops what they hold,
  even one that moves no distance, and every answer cached after edits
  equals the one a freshly built graph gives, bit for bit.
"""

from __future__ import annotations

import random

import pytest

from repro.engine import dag_cache as dag_cache_module
from repro.engine.dag_cache import SourceDAGCache
from repro.errors import GraphError
from repro.graphs import delta as delta_module
from repro.graphs import sssp as sssp_module
from repro.graphs.csr import CSRGraph, as_csr
from repro.graphs.delta import (
    EdgeDelta,
    MutationJournal,
    OP_INSERT,
    STRUCTURAL_DELTA,
    deltas_between,
)
from repro.graphs.generators import (
    erdos_renyi_graph,
    path_graph,
    weighted_barabasi_albert_graph,
)
from repro.graphs.graph import Graph


def _insert(u, v, w=1.0):
    return EdgeDelta(OP_INSERT, u, v, None, w)


class TestMutationJournal:
    def test_contiguous_record_and_slice(self):
        journal = MutationJournal(base_version=5, cap=8)
        journal.record(6, _insert(0, 1))
        journal.record(7, _insert(1, 2))
        assert journal.version == 7
        assert journal.slice(5, 7) == [_insert(0, 1), _insert(1, 2)]
        assert journal.slice(6, 7) == [_insert(1, 2)]
        assert journal.slice(7, 7) == []

    def test_uncovered_ranges_return_none(self):
        journal = MutationJournal(base_version=5, cap=8)
        journal.record(6, _insert(0, 1))
        assert journal.slice(4, 6) is None  # before coverage
        assert journal.slice(5, 7) is None  # journal is not at version 7
        assert journal.slice(6, 5) is None  # inverted range

    def test_structural_entries_poison_the_range(self):
        journal = MutationJournal(base_version=0, cap=8)
        journal.record(1, _insert(0, 1))
        journal.record(2, STRUCTURAL_DELTA)
        journal.record(3, _insert(1, 2))
        assert journal.slice(0, 3) is None
        assert journal.slice(1, 3) is None
        assert journal.slice(2, 3) == [_insert(1, 2)]  # after the marker

    def test_cap_overflow_drops_oldest(self):
        journal = MutationJournal(base_version=0, cap=2)
        for version in (1, 2, 3):
            journal.record(version, _insert(0, version))
        assert journal.overflows == 1
        assert journal.base_version == 1
        assert journal.slice(0, 3) is None  # oldest entry is gone
        assert journal.slice(1, 3) == [_insert(0, 2), _insert(0, 3)]

    def test_contiguity_break_resets_coverage(self):
        journal = MutationJournal(base_version=0, cap=8)
        journal.record(1, _insert(0, 1))
        journal.record(5, _insert(0, 2))  # versions 2-4 never journalled
        assert journal.slice(0, 5) is None
        assert journal.slice(4, 5) == [_insert(0, 2)]


class TestKnobProtocol:
    @pytest.mark.parametrize("text", ["many", "0", "-3", "9"])
    def test_journal_cap_is_a_constant(self, monkeypatch, text):
        # The cap is no longer a knob: REPRO_DELTA_JOURNAL_SIZE is not
        # read, so garbage there neither raises nor changes the cap.
        monkeypatch.setenv("REPRO_DELTA_JOURNAL_SIZE", text)
        assert delta_module.DELTA_JOURNAL_SIZE == 256
        graph = path_graph(3)
        assert delta_module.track(graph).cap == 256

    @pytest.mark.requires_numpy
    def test_removed_delta_knob_leaves_patching_on(self, monkeypatch):
        # REPRO_DAG_CACHE_DELTA=off used to disable the journal; the
        # variable is no longer read, so the snapshot is still patched.
        monkeypatch.setenv("REPRO_DAG_CACHE_DELTA", "off")
        graph = path_graph(6)
        as_csr(graph)
        graph.add_edge(0, 5)

        def _no_rebuild(*args, **kwargs):
            raise AssertionError("expected an incremental patch, got a rebuild")

        with monkeypatch.context() as patch:
            patch.setattr(CSRGraph, "from_graph", staticmethod(_no_rebuild))
            as_csr(graph)
        _assert_patched_bytes_match(graph)


class TestNoOpMutationsStayVersionNeutral:
    """Satellite (a): no-op mutations must not bump versions, must not
    pollute the journal, and must keep every cache warm."""

    def test_add_existing_edge_is_version_neutral(self):
        graph = path_graph(4)
        delta_module.track(graph)
        version = graph._version
        graph.add_edge(0, 1)  # already present (stored weight kept)
        graph.add_edge(1, 0)  # symmetric spelling
        graph.add_node(2)  # already present
        assert graph._version == version
        assert deltas_between(graph, version) == []

    def test_set_edge_weight_to_current_value_is_version_neutral(self):
        graph = Graph.from_edges([(0, 1, 2.5), (1, 2)])
        delta_module.track(graph)
        version = graph._version
        graph.set_edge_weight(0, 1, 2.5)
        graph.set_edge_weight(1, 2, 1)  # unit edge, unit value
        graph.set_edge_weight(1, 2, 1.0)  # float spelling of unit
        assert graph._version == version
        assert deltas_between(graph, version) == []

    @pytest.mark.requires_numpy
    def test_noop_mutations_keep_caches_warm(self):
        graph = path_graph(6)
        cache = SourceDAGCache(max_entries=8)
        snapshot = as_csr(graph)
        dag = cache.dag(graph, 0, backend="dict")
        graph.add_edge(0, 1)
        graph.set_edge_weight(0, 1, 1)
        assert as_csr(graph) is snapshot
        assert cache.dag(graph, 0, backend="dict") is dag
        assert cache.evictions == 0


def _assert_patched_bytes_match(graph):
    """as_csr(graph) must equal a from-scratch CSR build, byte for byte."""
    patched = as_csr(graph)
    fresh = CSRGraph.from_graph(graph)
    assert patched.labels == fresh.labels
    assert patched.indptr.tobytes() == fresh.indptr.tobytes()
    assert patched.indices.tobytes() == fresh.indices.tobytes()
    if fresh.weights is None:
        assert patched.weights is None
    else:
        assert patched.weights is not None
        assert patched.weights.tobytes() == fresh.weights.tobytes()
    return patched


def _path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


@pytest.mark.requires_numpy
class TestIncrementalCSRPatching:
    """The patched snapshot must be byte-identical to a rebuild, in every
    mutation mix the journal can cover — and must actually take the patch
    path rather than silently rebuilding.  Each mix runs on a unit graph,
    whose snapshot has no weights for the patch to copy, and on a weighted
    one, whose weights it copies around the edited segments."""

    @pytest.fixture(params=["unit", "weighted"])
    def weigh(self, request):
        """Builds a graph from ``(u, v)`` pairs: unit edges, or every edge
        of length 3.0."""
        if request.param == "unit":
            return Graph.from_edges
        return lambda edges: Graph.from_edges([(u, v, 3.0) for u, v in edges])

    def test_insert_patch(self, weigh):
        graph = weigh(_path_edges(6))
        as_csr(graph)
        graph.add_edge(0, 5)
        _assert_patched_bytes_match(graph)

    def test_delete_patch(self, weigh):
        graph = weigh(_path_edges(6))
        as_csr(graph)
        graph.remove_edge(2, 3)
        _assert_patched_bytes_match(graph)

    @pytest.mark.parametrize("edit", ["reweight", "insert"])
    def test_patch_flips_weighted_on(self, edit):
        graph = path_graph(6)
        assert as_csr(graph).weights is None
        if edit == "reweight":
            graph.set_edge_weight(1, 2, 4.0)
        else:
            graph.add_edge(0, 5, weight=4.0)
        patched = _assert_patched_bytes_match(graph)
        assert patched.weights is not None  # unweighted -> weighted flip

    @pytest.mark.parametrize("edit", ["reweight", "delete"])
    def test_patch_flips_weighted_off(self, edit):
        graph = Graph.from_edges([(0, 1, 3.0), (1, 2), (2, 3)])
        as_csr(graph)
        if edit == "reweight":
            graph.set_edge_weight(0, 1, 1)
        else:
            graph.remove_edge(0, 1)
        patched = _assert_patched_bytes_match(graph)
        assert patched.weights is None  # weighted -> unweighted flip

    def test_delete_then_readd_appends_at_segment_end(self, weigh):
        # Dict semantics: re-adding a removed edge appends it at the end of
        # both endpoints' neighbour order; the patch must replay that.
        graph = weigh([(0, 1), (0, 2), (0, 3), (1, 2)])
        as_csr(graph)
        graph.remove_edge(0, 1)
        graph.add_edge(0, 1, weight=7.0)
        _assert_patched_bytes_match(graph)

    def test_random_edit_storm(self, weigh):
        rng = random.Random(42)
        graph = weigh(list(erdos_renyi_graph(30, 0.15, seed=7).edges()))
        as_csr(graph)
        nodes = list(graph.nodes())
        for _ in range(40):
            u, v = rng.sample(nodes, 2)
            if graph.has_edge(u, v):
                if rng.random() < 0.5:
                    graph.remove_edge(u, v)
                else:
                    graph.set_edge_weight(u, v, rng.randint(2, 9) * 1.0)
            else:
                graph.add_edge(u, v, weight=rng.choice([1, 2.5, 8.0]))
            _assert_patched_bytes_match(graph)

    def test_patch_path_actually_taken(self, weigh, monkeypatch):
        graph = weigh(_path_edges(8))
        as_csr(graph)
        graph.add_edge(0, 7)

        def _no_rebuild(*args, **kwargs):
            raise AssertionError("expected an incremental patch, got a rebuild")

        monkeypatch.setattr(CSRGraph, "from_graph", staticmethod(_no_rebuild))
        patched = as_csr(graph)
        zero = patched.index[0]
        row = patched.indices[patched.indptr[zero]:patched.indptr[zero + 1]]
        assert patched.index[7] in list(row)

    def test_long_covered_range_patches_in_one_step(self, weigh, monkeypatch):
        # An edit batch far longer than the old 64-edit validation limit
        # (128 edges, as perfbench's ins/del ops edit) is still one patch.
        rng = random.Random(5)
        graph = weigh(list(erdos_renyi_graph(60, 0.1, seed=3).edges()))
        as_csr(graph)
        nodes = list(graph.nodes())
        edits = 0
        while edits < 128:
            u, v = rng.sample(nodes, 2)
            if graph.has_edge(u, v):
                graph.remove_edge(u, v)
            else:
                graph.add_edge(u, v, weight=rng.choice([1, 4.0]))
            edits += 1
        assert len(deltas_between(graph, graph._version - 128)) == 128

        def _no_rebuild(*args, **kwargs):
            raise AssertionError("expected an incremental patch, got a rebuild")

        with monkeypatch.context() as patch:
            patch.setattr(CSRGraph, "from_graph", staticmethod(_no_rebuild))
            as_csr(graph)
        _assert_patched_bytes_match(graph)

    def test_structural_change_falls_back_to_rebuild(self, weigh):
        graph = weigh(_path_edges(5))
        as_csr(graph)
        graph.add_edge(4, 99)  # new node: label set changes
        _assert_patched_bytes_match(graph)

    def test_journal_overflow_falls_back_to_rebuild(self, weigh, monkeypatch):
        monkeypatch.setattr(delta_module, "DELTA_JOURNAL_SIZE", 2)
        graph = weigh(_path_edges(8))
        as_csr(graph)
        for k in range(5):
            graph.add_edge(0, k + 2)
        assert deltas_between(graph, graph._version - 5) is None
        _assert_patched_bytes_match(graph)


def _weighted_y_graph():
    """0 -5- 1 -5- 2 plus a heavy chord 0 -100- 2 on no shortest path."""
    return Graph.from_edges([(0, 1, 5.0), (1, 2, 5.0), (0, 2, 100.0)])


def _level_graph():
    """0-1-2 and 0-3: nodes 1 and 3 are both one hop from 0."""
    return Graph.from_edges([(0, 1), (1, 2), (0, 3)])


def _two_component_graph():
    """The level graph plus a path 7-8-9 that node 0 does not reach."""
    return Graph.from_edges([(0, 1), (1, 2), (0, 3), (7, 8), (8, 9)])


#: Effective edits that move no distance or path count from node 0: a
#: lighter but still useless chord, an edge between two nodes at equal hop
#: distance, and an edge in a component node 0 does not reach.  Each is a
#: new graph version all the same.
INERT_EDITS = {
    "chord-reweight": (_weighted_y_graph, lambda g: g.set_edge_weight(0, 2, 90.0)),
    "level-insert": (_level_graph, lambda g: g.add_edge(1, 3)),
    "unreached-insert": (_two_component_graph, lambda g: g.add_edge(7, 9)),
}

#: One lookup of node 0's traversal per entry kind of the cache.
LOOKUPS = ("dag", "distance_map", "distance_rows")


def _lookup(cache, graph, lookup, backend):
    if lookup == "dag":
        return cache.dag(graph, 0, backend=backend, weighted=graph.is_weighted)
    if lookup == "distance_map":
        return cache.distance_map(graph, 0, backend=backend)
    [row] = cache.distance_rows(graph, [0])
    return row


def _answer(value):
    """A comparable, backend-neutral form of one looked-up value."""
    if isinstance(value, dict):
        return list(value.items())
    if hasattr(value, "tolist"):
        return value.tolist()
    return _dag_signature(value, targets=(1, 2, 3), seed=5)


class TestSourceDAGCacheStaleness:
    """A graph's store is served only at the version it was built at: the
    first lookup after any effective edit drops it whole, even when the
    edit moves nothing it holds, and a no-op edit keeps it."""

    @pytest.mark.requires_numpy  # distance_rows reads the CSR snapshot
    @pytest.mark.parametrize("backend", ["dict", "csr"])
    @pytest.mark.parametrize("edit", sorted(INERT_EDITS))
    @pytest.mark.parametrize("lookup", LOOKUPS)
    def test_edit_that_moves_no_distance_drops_the_store(
        self, lookup, edit, backend
    ):
        build, apply = INERT_EDITS[edit]
        graph = build()
        cache = SourceDAGCache(max_entries=16)
        stale = {name: _lookup(cache, graph, name, backend) for name in LOOKUPS}
        size = cache.stats()["entries"]
        hits, misses = cache.hits, cache.misses
        apply(graph)
        served = _lookup(cache, graph, lookup, backend)
        cold = _lookup(SourceDAGCache(max_entries=16), graph, lookup, backend)
        assert served is not stale[lookup]
        assert (cache.hits, cache.misses) == (hits, misses + 1)
        assert (size, cache.evictions) == (3, 3)
        assert _answer(served) == _answer(cold) == _answer(stale[lookup])

    @pytest.mark.requires_numpy
    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_noop_edit_still_hits(self, backend):
        graph = _weighted_y_graph()
        cache = SourceDAGCache(max_entries=16)
        warm = {name: _lookup(cache, graph, name, backend) for name in LOOKUPS}
        hits, misses = cache.hits, cache.misses
        graph.add_edge(1, 0)  # present already: its length is kept
        graph.set_edge_weight(0, 2, 100.0)  # its current length
        for name in LOOKUPS:
            assert _lookup(cache, graph, name, backend) is warm[name]
        assert (cache.hits, cache.misses) == (hits + 3, misses)
        assert cache.evictions == 0

    @pytest.mark.parametrize("lookup", ["dag", "distance_map"])
    def test_dict_lookups_leave_the_journal_unarmed(self, lookup):
        # Only a slot that can patch its value arms the journal; edits to
        # a graph the cache alone has read build no deltas.
        graph = _level_graph()
        _lookup(SourceDAGCache(max_entries=4), graph, lookup, "dict")
        graph.add_edge(1, 3)
        assert graph._journal is None

    def test_stats_report_lookups_and_residency(self):
        cache = SourceDAGCache(max_entries=2)
        graph = path_graph(3)
        cache.dag(graph, 0, backend="dict")
        stats = cache.stats()
        assert set(stats) == {"hits", "misses", "evictions", "entries", "cost"}
        assert (stats["misses"], stats["entries"]) == (1, 1)

    @pytest.mark.requires_numpy
    def test_hop_entries_evict_on_shortcut_insert(self):
        # In hop space every edge has weight 1: any insert between nodes
        # more than one hop apart is a shortcut, whatever its stored weight.
        graph = path_graph(6)
        cache = SourceDAGCache(max_entries=16)
        [stale] = cache.distance_rows(graph, [0])
        graph.add_edge(0, 5, weight=1000.0)
        [fresh] = cache.distance_rows(graph, [0])
        assert stale[5] == 5 and fresh[5] == 1
        assert cache.evictions == 1

    def test_delete_on_shortest_path_evicts(self):
        graph = _weighted_y_graph()
        cache = SourceDAGCache(max_entries=16)
        cache.dag(graph, 0, backend="dict", weighted=True)
        graph.remove_edge(0, 1)  # on every shortest path from 0
        dag = cache.dag(graph, 0, backend="dict", weighted=True)
        assert dag.distances[2] == 100.0
        assert cache.evictions == 1

    def test_tie_creating_insert_evicts_the_dag(self):
        # 0-1-2 and 0-3; inserting 3-2 creates a second equal-length path
        # to 2: distances stand, path counts do not.
        graph = _level_graph()
        cache = SourceDAGCache(max_entries=16)
        stale_dag = cache.dag(graph, 0, backend="dict")
        assert stale_dag.sigma[2] == 1
        graph.add_edge(3, 2)
        fresh_dag = cache.dag(graph, 0, backend="dict")
        assert fresh_dag.sigma[2] == 2  # tie was real
        assert cache.evictions == 1


class TestGroundTruthCacheFencing:
    def test_mutation_forces_recompute(self):
        from repro.datasets.ground_truth import GroundTruthCache

        cache = GroundTruthCache()
        graph = path_graph(5)
        stale = cache.get("p5", graph)
        graph.add_edge(0, 4)  # cycle: endpoints lose all betweenness
        fresh = cache.get("p5", graph)
        assert stale is not fresh
        assert fresh != stale

    def test_reweight_recomputes_under_hop_metric(self):
        from repro.datasets.ground_truth import GroundTruthCache

        sssp_module.set_default_weighted("off")
        try:
            cache = GroundTruthCache()
            graph = Graph.from_edges([(0, 1, 2.0), (1, 2, 2.0), (2, 3, 2.0)])
            truth = cache.get("w", graph)
            graph.set_edge_weight(1, 2, 9.0)  # invisible to hop betweenness
            fresh = cache.get("w", graph)
            assert fresh is not truth  # a new version: recomputed
            assert fresh == truth
        finally:
            sssp_module.set_default_weighted(None)

    def test_truth_leaves_the_journal_unarmed(self):
        from repro.datasets.ground_truth import GroundTruthCache

        graph = path_graph(5)
        GroundTruthCache().get("p5", graph)
        graph.add_edge(0, 4)
        assert graph._journal is None

    def test_reweight_not_retained_under_auto_routing(self):
        from repro.datasets.ground_truth import GroundTruthCache

        # Under weighted=auto a reweight can change the routed metric.
        cache = GroundTruthCache()
        graph = Graph.from_edges([(0, 1, 2.0), (1, 2, 2.0), (2, 3, 2.0)])
        truth = cache.get("w", graph)
        graph.set_edge_weight(1, 2, 9.0)
        assert cache.get("w", graph) is not truth

    def test_disk_reload_not_used_for_stale_entries(self, tmp_path):
        from repro.datasets.ground_truth import GroundTruthCache

        cache = GroundTruthCache(cache_dir=tmp_path)
        graph = path_graph(5)
        stale = cache.get("p5", graph)
        graph.add_edge(0, 4)
        fresh = cache.get("p5", graph)
        assert fresh != stale
        # The overwritten file now holds the fresh values.
        rebooted = GroundTruthCache(cache_dir=tmp_path)
        assert rebooted.get("p5", graph) == fresh


def _mutation_script(graph):
    """A deterministic edit stream hitting every delta op, including the
    adversarial cases: a deletion on a shortest path and a tie-creating
    insert."""
    edges = sorted((u, v) if u <= v else (v, u) for u, v in graph.edges())
    u0, v0 = edges[0]
    yield ("add", u0, (u0 + 7) % graph.number_of_nodes())
    yield ("reweight", u0, v0, 25.0)
    yield ("remove", u0, v0)  # likely on a shortest path: must evict
    yield ("add", u0, v0)  # re-add as a unit edge
    u1, v1 = edges[1]
    yield ("reweight", u1, v1, 2.0)


def _apply(graph, step):
    op = step[0]
    if op == "add":
        _, u, v = step
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    elif op == "remove":
        _, u, v = step
        graph.remove_edge(u, v)
    else:
        _, u, v, w = step
        graph.set_edge_weight(u, v, w)


def _dag_signature(dag, targets, seed):
    """Backend-neutral, bit-exact signature of a cached DAG."""
    if hasattr(dag, "csr"):  # CSRShortestPathDAG (index space)
        labels = dag.csr.labels
        index = dag.csr.index
        dist = {
            labels[i]: dag.dist[i] for i in range(len(labels)) if dag.dist[i] >= 0
        }
        sigma = {label: int(dag.sigma[index[label]]) for label in dist}
        paths = tuple(
            tuple(
                labels[i]
                for i in dag.sample_path_indices(index[t], random.Random(seed))
            )
            for t in targets
            if t in dist
        )
        dist = {k: float(v) if dag.weighted else int(v) for k, v in dist.items()}
    else:  # ShortestPathDAG (label space)
        dist = dict(dag.distances)
        sigma = {k: int(dag.sigma[k]) for k in dist}
        paths = tuple(
            tuple(dag.sample_path(t, random.Random(seed)))
            for t in targets
            if t in dist
        )
    return dist, sigma, paths


@pytest.mark.requires_numpy
class TestMutateThenQueryEquivalence:
    """Every answer cached after an edit is bit-identical to the one a
    freshly built graph gives with a cold cache."""

    def _scenario(self, backend, *, weighted):
        if weighted:
            graph = weighted_barabasi_albert_graph(40, 2, seed=11)
        else:
            graph = erdos_renyi_graph(40, 0.12, seed=11)
        cache = SourceDAGCache(max_entries=64)
        sources = (0, 7, 19)
        targets = (3, 25, 39)
        for source in sources:  # warm: every edit below makes these stale
            cache.dag(graph, source, backend=backend, weighted=weighted)
        cache.distance_rows(graph, sources)
        edits = 0
        for step in _mutation_script(graph):
            try:
                _apply(graph, step)
            except GraphError:
                continue
            edits += 1
            # A fresh graph with the identical adjacency order is the
            # ground truth: same traversals, no cache or patch history.
            fresh = graph.copy()
            cold = SourceDAGCache(max_entries=64)
            for source in sources:
                served = cache.dag(
                    graph, source, backend=backend, weighted=weighted
                )
                built = cold.dag(
                    fresh, source, backend=backend, weighted=weighted
                )
                assert _dag_signature(served, targets, seed=5) == (
                    _dag_signature(built, targets, seed=5)
                )
            rows = cache.distance_rows(graph, sources)
            assert [row.tolist() for row in rows] == [
                row.tolist() for row in cold.distance_rows(fresh, sources)
            ]
        return edits

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_cached_answers_match_a_fresh_graph(self, backend, weighted):
        assert self._scenario(backend, weighted=weighted) >= 4

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_equivalence_survives_journal_overflow(self, backend, monkeypatch):
        monkeypatch.setattr(delta_module, "DELTA_JOURNAL_SIZE", 1)
        assert self._scenario(backend, weighted=True) >= 4

    def test_exact_betweenness_identical_after_mutations(self):
        from repro.centrality.brandes import betweenness_centrality

        graph = weighted_barabasi_albert_graph(40, 2, seed=11)
        cache = SourceDAGCache(max_entries=64)
        for step in _mutation_script(graph):
            try:
                _apply(graph, step)
            except GraphError:
                continue
            cache.dag(graph, 0, backend="csr", weighted=True)
        assert betweenness_centrality(
            graph, normalized=True, backend="csr"
        ) == betweenness_centrality(graph.copy(), normalized=True, backend="csr")

    def test_estimator_equivalence_through_the_default_cache(
        self, one_entry_dag_cache
    ):
        from repro.baselines import RiondatoKornaropoulos

        def run(workers, *, warm):
            graph = weighted_barabasi_albert_graph(60, 2, seed=13)

            def estimate(target):
                return RiondatoKornaropoulos(
                    0.3, 0.1, seed=21, backend="csr", workers=workers,
                    max_samples_cap=200,
                ).estimate(target).scores

            if warm:  # cache the pre-edit DAGs and snapshot
                estimate(graph)
            u, v, w = next(iter(graph.weighted_edges()))
            graph.set_edge_weight(u, v, float(w) + 50.0)
            graph.add_edge(0, 41, weight=500.0)
            return estimate(graph if warm else graph.copy())

        dag_cache_module.clear_default_dag_cache()
        after_edits = run(0, warm=True)
        assert dag_cache_module.default_dag_cache().hits > 0
        assert after_edits == run(0, warm=False)
        assert run(2, warm=True) == after_edits  # worker pool leg
        evicting = one_entry_dag_cache()
        assert run(0, warm=True) == after_edits
        assert evicting.evictions > 0
