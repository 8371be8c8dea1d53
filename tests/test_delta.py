"""Tests for the mutation journal and delta-aware cache invalidation (PR 8).

Three layers are covered:

* the :class:`~repro.graphs.delta.MutationJournal` mechanics, the
  ``dag_cache_delta`` knob protocol and the journal cap;
* incremental CSR patching in :func:`repro.graphs.csr.as_csr` — patched
  snapshots must be **byte-identical** to a from-scratch build;
* delta validation in ``SourceDAGCache`` / ``GroundTruthCache`` — cached
  entries survive a version bump iff the journal proves them unaffected,
  and the mutate-then-query equivalence suite asserts ``on`` == ``off``
  == a freshly built graph, bit for bit.
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
    AUTO_DELTA_VALIDATION_LIMIT,
    DAG_CACHE_DELTA_ENV_VAR,
    EdgeDelta,
    MutationJournal,
    OP_DELETE,
    OP_INSERT,
    OP_REWEIGHT,
    STRUCTURAL_DELTA,
    delta_affects_source,
    deltas_between,
    resolve_dag_cache_delta,
    set_default_dag_cache_delta,
)
from repro.graphs.generators import (
    erdos_renyi_graph,
    path_graph,
    weighted_barabasi_albert_graph,
)
from repro.graphs.graph import Graph


@pytest.fixture(autouse=True)
def _reset_delta_knobs(monkeypatch):
    # Values exported by the invoking shell (or leaked by another test's
    # EnvMirroredOverride) would change the resolution behaviour asserted
    # here; the setters are process-wide and sticky, so always restore.
    monkeypatch.delenv(DAG_CACHE_DELTA_ENV_VAR, raising=False)
    yield
    set_default_dag_cache_delta(None)


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
    def test_default_is_auto(self):
        assert resolve_dag_cache_delta() == "auto"
        assert resolve_dag_cache_delta(None) == "auto"

    def test_env_var_sets_the_default(self, monkeypatch):
        monkeypatch.setenv(DAG_CACHE_DELTA_ENV_VAR, "off")
        assert resolve_dag_cache_delta() == "off"
        # An explicit argument still wins over the environment.
        assert resolve_dag_cache_delta("on") == "on"

    def test_setter_beats_env_and_mirrors(self, monkeypatch):
        import os

        monkeypatch.setenv(DAG_CACHE_DELTA_ENV_VAR, "off")
        set_default_dag_cache_delta("on")
        assert resolve_dag_cache_delta() == "on"
        # Mirrored so spawn workers resolve the same mode.
        assert os.environ[DAG_CACHE_DELTA_ENV_VAR] == "on"
        set_default_dag_cache_delta(None)
        assert os.environ[DAG_CACHE_DELTA_ENV_VAR] == "off"  # restored
        assert resolve_dag_cache_delta() == "off"

    def test_invalid_mode_rejected_eagerly(self, monkeypatch):
        with pytest.raises(ValueError, match="dag_cache_delta"):
            set_default_dag_cache_delta("sometimes")
        with pytest.raises(ValueError, match=DAG_CACHE_DELTA_ENV_VAR):
            resolve_dag_cache_delta("sometimes")
        monkeypatch.setenv(DAG_CACHE_DELTA_ENV_VAR, "bogus")
        with pytest.raises(ValueError, match=DAG_CACHE_DELTA_ENV_VAR):
            resolve_dag_cache_delta()

    @pytest.mark.parametrize("text", ["many", "0", "-3", "9"])
    def test_journal_cap_is_a_constant(self, monkeypatch, text):
        # The cap is no longer a knob: REPRO_DELTA_JOURNAL_SIZE is not
        # read, so garbage there neither raises nor changes the cap.
        monkeypatch.setenv("REPRO_DELTA_JOURNAL_SIZE", text)
        assert delta_module.DELTA_JOURNAL_SIZE == 256
        graph = path_graph(3)
        assert delta_module.track(graph).cap == 256

    def test_experiment_config_validates_fields(self):
        from repro.experiments.config import ExperimentConfig

        assert ExperimentConfig(dag_cache_delta="on").dag_cache_delta == "on"
        with pytest.raises(ValueError, match="dag_cache_delta"):
            ExperimentConfig(dag_cache_delta="bogus")
        with pytest.raises(TypeError, match="delta_journal_size"):
            ExperimentConfig(delta_journal_size=32)

    @pytest.mark.requires_numpy
    def test_off_disables_journaling_entirely(self):
        set_default_dag_cache_delta("off")
        graph = path_graph(4)
        assert delta_module.track(graph) is None
        as_csr(graph)
        assert graph._journal is None  # mutation hooks stay one-None-check
        graph.add_edge(0, 3)
        assert deltas_between(graph, graph._version - 1) is None

    @pytest.mark.requires_numpy
    def test_track_tolerates_frozen_snapshots(self):
        # Bare CSR snapshots (worker payloads) have no journal slot; they
        # never mutate, so tracking is a polite no-op.
        snapshot = CSRGraph.from_graph(path_graph(3))
        assert delta_module.track(snapshot) is None


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


@pytest.mark.requires_numpy
class TestIncrementalCSRPatching:
    """The patched snapshot must be byte-identical to a rebuild, in every
    mutation mix the journal can cover — and must actually take the patch
    path rather than silently rebuilding."""

    @pytest.fixture(params=["auto", "on"])
    def mode(self, request):
        set_default_dag_cache_delta(request.param)
        return request.param

    def test_insert_patch(self, mode):
        graph = path_graph(6)
        as_csr(graph)
        graph.add_edge(0, 5)
        _assert_patched_bytes_match(graph)

    def test_delete_patch(self, mode):
        graph = path_graph(6)
        as_csr(graph)
        graph.remove_edge(2, 3)
        _assert_patched_bytes_match(graph)

    def test_reweight_patch_flips_weighted_on(self, mode):
        graph = path_graph(6)
        as_csr(graph)
        assert as_csr(graph).weights is None
        graph.set_edge_weight(1, 2, 4.0)
        patched = _assert_patched_bytes_match(graph)
        assert patched.weights is not None  # unweighted -> weighted flip

    def test_reweight_back_to_unit_flips_weighted_off(self, mode):
        graph = Graph.from_edges([(0, 1, 3.0), (1, 2), (2, 3)])
        as_csr(graph)
        graph.set_edge_weight(0, 1, 1)
        patched = _assert_patched_bytes_match(graph)
        assert patched.weights is None  # weighted -> unweighted flip

    def test_delete_then_readd_appends_at_segment_end(self, mode):
        # Dict semantics: re-adding a removed edge appends it at the end of
        # both endpoints' neighbour order; the patch must replay that.
        graph = Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2)])
        as_csr(graph)
        graph.remove_edge(0, 1)
        graph.add_edge(0, 1, weight=7.0)
        _assert_patched_bytes_match(graph)

    def test_random_edit_storm(self, mode):
        rng = random.Random(42)
        graph = erdos_renyi_graph(30, 0.15, seed=7)
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

    def test_patch_path_actually_taken(self, mode, monkeypatch):
        graph = path_graph(8)
        as_csr(graph)
        graph.add_edge(0, 7)

        def _no_rebuild(*args, **kwargs):
            raise AssertionError("expected an incremental patch, got a rebuild")

        monkeypatch.setattr(CSRGraph, "from_graph", staticmethod(_no_rebuild))
        patched = as_csr(graph)
        zero = patched.index[0]
        row = patched.indices[patched.indptr[zero]:patched.indptr[zero + 1]]
        assert patched.index[7] in list(row)

    def test_structural_change_falls_back_to_rebuild(self, mode):
        graph = path_graph(5)
        as_csr(graph)
        graph.add_edge(4, 99)  # new node: label set changes
        _assert_patched_bytes_match(graph)

    def test_journal_overflow_falls_back_to_rebuild(self, mode, monkeypatch):
        monkeypatch.setattr(delta_module, "DELTA_JOURNAL_SIZE", 2)
        graph = path_graph(8)
        as_csr(graph)
        for k in range(5):
            graph.add_edge(0, k + 2)
        assert deltas_between(graph, graph._version - 5) is None
        _assert_patched_bytes_match(graph)

    def test_off_mode_still_rebuilds_correctly(self):
        set_default_dag_cache_delta("off")
        graph = path_graph(6)
        as_csr(graph)
        graph.add_edge(0, 5)
        _assert_patched_bytes_match(graph)


def _weighted_y_graph():
    """0 -5- 1 -5- 2 plus a heavy chord 0 -100- 2.

    The chord is on no shortest path, so edits to it are invisible to some
    sources and visible to others — the partial-retention fixture.
    """
    return Graph.from_edges([(0, 1, 5.0), (1, 2, 5.0), (0, 2, 100.0)])


@pytest.mark.requires_numpy
class TestSourceDAGCacheDeltaValidation:
    def _warm_weighted_rows(self, cache, graph, sources):
        for source in sources:
            cache.distances(graph, source, weighted=True)

    def test_weighted_rows_survive_irrelevant_edits(self):
        graph = _weighted_y_graph()
        cache = SourceDAGCache(max_entries=16)
        self._warm_weighted_rows(cache, graph, (0, 1, 2))
        misses = cache.misses
        # Reweighting the unused chord cannot move any weighted distance.
        graph.set_edge_weight(0, 2, 90.0)
        self._warm_weighted_rows(cache, graph, (0, 1, 2))
        stats = cache.stats()
        assert cache.misses == misses  # every row survived -> pure hits
        assert stats["delta_retained"] == 3
        assert stats["delta_evictions"] == 0

    def test_partial_retention_across_sources(self):
        graph = _weighted_y_graph()
        cache = SourceDAGCache(max_entries=16)
        self._warm_weighted_rows(cache, graph, (0, 1, 2))
        # Dropping the chord to 8.0 shortens 0<->2 (10 -> 8) but leaves
        # source 1 untouched: d1[0]=5, d1[2]=5, and 5+8 shortens nothing.
        graph.set_edge_weight(0, 2, 8.0)
        self._warm_weighted_rows(cache, graph, (0, 1, 2))
        stats = cache.stats()
        assert stats["delta_retained"] == 1  # source 1 survived
        assert stats["delta_evictions"] == 2  # sources 0 and 2 recomputed
        assert cache.distances(graph, 0, weighted=True)[2] == 8.0

    def test_hop_entries_evict_on_shortcut_insert(self):
        # In hop space every edge has weight 1: any insert between nodes
        # more than one hop apart is a shortcut, whatever its stored weight.
        graph = path_graph(6)
        cache = SourceDAGCache(max_entries=16)
        stale = cache.distances(graph, 0)
        graph.add_edge(0, 5, weight=1000.0)
        fresh = cache.distances(graph, 0)
        assert stale[5] == 5 and fresh[5] == 1
        assert cache.stats()["delta_evictions"] == 1

    def test_hop_entries_immune_to_reweights(self):
        graph = Graph.from_edges([(0, 1, 2.0), (1, 2, 2.0), (2, 3, 2.0)])
        cache = SourceDAGCache(max_entries=16)
        row = cache.distances(graph, 0)
        dag = cache.dag(graph, 0, backend="dict")
        graph.set_edge_weight(1, 2, 9.0)
        assert cache.distances(graph, 0) is row
        assert cache.dag(graph, 0, backend="dict") is dag
        assert cache.stats()["delta_retained"] == 2

    def test_delete_on_shortest_path_evicts(self):
        graph = _weighted_y_graph()
        cache = SourceDAGCache(max_entries=16)
        self._warm_weighted_rows(cache, graph, (0,))
        graph.remove_edge(0, 1)  # on every shortest path from 0
        assert cache.distances(graph, 0, weighted=True)[2] == 100.0
        assert cache.stats()["delta_evictions"] == 1

    def test_delete_off_shortest_path_retains(self):
        graph = _weighted_y_graph()
        cache = SourceDAGCache(max_entries=16)
        self._warm_weighted_rows(cache, graph, (0,))
        graph.remove_edge(0, 2)  # the unused chord
        assert cache.distances(graph, 0, weighted=True)[2] == 10.0
        stats = cache.stats()
        assert stats["delta_retained"] == 1 and stats["delta_evictions"] == 0

    def test_tie_creating_insert_evicts_dag_keeps_rows(self):
        # 0-1-2 and 0-3; inserting 3-2 creates a second equal-length path
        # to 2: distances stand, path counts do not.
        graph = Graph.from_edges([(0, 1), (1, 2), (0, 3)])
        cache = SourceDAGCache(max_entries=16)
        row = cache.distances(graph, 0)
        stale_dag = cache.dag(graph, 0, backend="dict")
        assert stale_dag.sigma[2] == 1
        graph.add_edge(3, 2)
        assert cache.distances(graph, 0) is row  # distances unaffected
        fresh_dag = cache.dag(graph, 0, backend="dict")
        assert fresh_dag.sigma[2] == 2  # tie was real
        stats = cache.stats()
        assert stats["delta_retained"] >= 1
        assert stats["delta_evictions"] == 1

    def test_journal_overflow_counts_and_evicts_wholesale(self, monkeypatch):
        monkeypatch.setattr(delta_module, "DELTA_JOURNAL_SIZE", 2)
        graph = _weighted_y_graph()
        cache = SourceDAGCache(max_entries=16)
        self._warm_weighted_rows(cache, graph, (0, 1, 2))
        for _ in range(4):  # blow the 2-entry cap with no-move reweights
            graph.set_edge_weight(0, 2, 90.0)
            graph.set_edge_weight(0, 2, 100.0)
        self._warm_weighted_rows(cache, graph, (0, 1, 2))
        stats = cache.stats()
        assert stats["journal_overflows"] == 1
        assert stats["delta_retained"] == 0
        assert stats["evictions"] == 3

    def test_auto_mode_bounds_the_validation_scan(self):
        graph = _weighted_y_graph()
        cache = SourceDAGCache(max_entries=16)
        self._warm_weighted_rows(cache, graph, (1,))
        warmed_at = graph._version
        for k in range(AUTO_DELTA_VALIDATION_LIMIT + 1):
            graph.set_edge_weight(0, 2, 90.0 + (k % 2))
        assert deltas_between(graph, warmed_at) is not None  # covered...
        self._warm_weighted_rows(cache, graph, (1,))
        stats = cache.stats()
        assert stats["journal_overflows"] == 1  # ...but auto bailed out
        assert stats["delta_retained"] == 0

    def test_on_mode_validates_past_the_auto_limit(self):
        set_default_dag_cache_delta("on")
        graph = _weighted_y_graph()
        cache = SourceDAGCache(max_entries=16)
        self._warm_weighted_rows(cache, graph, (1,))
        for k in range(AUTO_DELTA_VALIDATION_LIMIT + 1):
            graph.set_edge_weight(0, 2, 90.0 + (k % 2))
        self._warm_weighted_rows(cache, graph, (1,))
        assert cache.stats()["delta_retained"] == 1

    def test_off_mode_is_the_historical_wholesale_eviction(self):
        set_default_dag_cache_delta("off")
        graph = _weighted_y_graph()
        cache = SourceDAGCache(max_entries=16)
        self._warm_weighted_rows(cache, graph, (0, 1, 2))
        graph.set_edge_weight(0, 2, 90.0)
        self._warm_weighted_rows(cache, graph, (0, 1, 2))
        stats = cache.stats()
        assert stats["delta_retained"] == 0
        assert stats["journal_overflows"] == 0  # off: not even counted
        assert stats["evictions"] == 3

    def test_stats_exposes_the_delta_counters(self):
        stats = SourceDAGCache(max_entries=2).stats()
        for key in ("delta_retained", "delta_evictions", "journal_overflows"):
            assert stats[key] == 0


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
        assert cache.stats()["delta_evictions"] == 1

    def test_reweight_retained_under_hop_metric(self):
        from repro.datasets.ground_truth import GroundTruthCache

        sssp_module.set_default_weighted("off")
        try:
            cache = GroundTruthCache()
            graph = Graph.from_edges([(0, 1, 2.0), (1, 2, 2.0), (2, 3, 2.0)])
            truth = cache.get("w", graph)
            graph.set_edge_weight(1, 2, 9.0)  # invisible to hop betweenness
            assert cache.get("w", graph) is truth
            assert cache.stats()["delta_retained"] == 1
        finally:
            sssp_module.set_default_weighted(None)

    def test_reweight_not_retained_under_auto_routing(self):
        from repro.datasets.ground_truth import GroundTruthCache

        # Under weighted=auto a reweight can change the routed metric, so
        # the conservative answer is a recompute.
        cache = GroundTruthCache()
        graph = Graph.from_edges([(0, 1, 2.0), (1, 2, 2.0), (2, 3, 2.0)])
        truth = cache.get("w", graph)
        graph.set_edge_weight(1, 2, 9.0)
        assert cache.get("w", graph) is not truth
        assert cache.stats()["delta_evictions"] == 1

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
    """Satellite (c): with delta invalidation on, every mutate-then-query
    result is bit-identical to delta off and to a freshly built graph."""

    def _scenario(self, mode, backend, *, weighted):
        set_default_dag_cache_delta(mode)
        if weighted:
            graph = weighted_barabasi_albert_graph(40, 2, seed=11)
        else:
            graph = erdos_renyi_graph(40, 0.12, seed=11)
        cache = SourceDAGCache(max_entries=64)
        sources = (0, 7, 19)
        targets = (3, 25, 39)
        out = []
        for step in _mutation_script(graph):
            try:
                _apply(graph, step)
            except GraphError:
                continue
            for source in sources:
                dag = cache.dag(
                    graph, source, backend=backend, weighted=weighted
                )
                out.append(_dag_signature(dag, targets, seed=5))
                row = cache.distances(graph, source, weighted=weighted)
                out.append(dict(row) if isinstance(row, dict) else dict(
                    zip(as_csr(graph).labels, row)
                ))
            # A fresh graph with the identical adjacency order is the
            # ground truth: same traversals, no cache history at all.
            fresh = cache.dag(
                graph.copy(), sources[0], backend=backend, weighted=weighted
            )
            out.append(_dag_signature(fresh, targets, seed=5))
        return out, cache.stats()

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_delta_on_off_and_fresh_agree(self, backend, weighted):
        on, on_stats = self._scenario("on", backend, weighted=weighted)
        off, off_stats = self._scenario("off", backend, weighted=weighted)
        assert on == off
        assert on_stats["delta_retained"] > 0  # retention actually fired
        assert off_stats["delta_retained"] == 0

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_equivalence_survives_journal_overflow(self, backend, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(delta_module, "DELTA_JOURNAL_SIZE", 1)
            on, _ = self._scenario("on", backend, weighted=True)
        off, _ = self._scenario("off", backend, weighted=True)
        assert on == off

    def test_exact_betweenness_identical_after_mutations(self):
        from repro.centrality.brandes import betweenness_centrality

        def run(mode):
            set_default_dag_cache_delta(mode)
            graph = weighted_barabasi_albert_graph(40, 2, seed=11)
            cache = SourceDAGCache(max_entries=64)
            for step in _mutation_script(graph):
                try:
                    _apply(graph, step)
                except GraphError:
                    continue
                cache.distances(graph, 0, weighted=True)
            return graph, betweenness_centrality(graph, normalized=True)

        graph_on, scores_on = run("on")
        _, scores_off = run("off")
        assert scores_on == scores_off
        assert scores_on == betweenness_centrality(
            graph_on.copy(), normalized=True
        )

    def test_estimator_equivalence_through_the_default_cache(self):
        from repro.baselines import RiondatoKornaropoulos

        def run(mode, workers):
            set_default_dag_cache_delta(mode)
            dag_cache_module.clear_default_dag_cache()
            dag_cache_module.set_dag_cache_enabled(True)
            try:
                graph = weighted_barabasi_albert_graph(60, 2, seed=13)
                est = RiondatoKornaropoulos(
                    0.3, 0.1, seed=21, backend="csr", workers=workers,
                    max_samples_cap=200,
                )
                before = est.estimate(graph).scores
                u, v, w = next(iter(graph.weighted_edges()))
                graph.set_edge_weight(u, v, float(w) + 50.0)
                graph.add_edge(0, 41, weight=500.0)
                after = est.estimate(graph).scores
                return before, after
            finally:
                dag_cache_module.set_dag_cache_enabled(None)
                dag_cache_module.clear_default_dag_cache()

        on = run("on", workers=0)
        off = run("off", workers=0)
        assert on == off
        assert run("on", workers=2) == off  # worker pool leg


class TestDeltaAffectsSource:
    """Direct decision-table checks for the O(1) validity test."""

    def _dist(self, mapping):
        return lambda node: mapping.get(node)

    def test_both_unreachable_is_unaffected(self):
        dist = self._dist({0: 0.0})
        delta = EdgeDelta(OP_INSERT, 5, 6, None, 1.0)
        assert not delta_affects_source(
            delta, dist, weighted=True, tie_sensitive=True
        )

    def test_one_reachable_endpoint_evicts(self):
        dist = self._dist({0: 0.0, 1: 1.0})
        delta = EdgeDelta(OP_INSERT, 1, 6, None, 1.0)
        assert delta_affects_source(
            delta, dist, weighted=True, tie_sensitive=False
        )

    def test_insert_tie_only_matters_when_tie_sensitive(self):
        dist = self._dist({0: 0.0, 1: 1.0, 2: 2.0, 3: 1.0})
        tie = EdgeDelta(OP_INSERT, 3, 2, None, 1.0)
        assert not delta_affects_source(
            tie, dist, weighted=True, tie_sensitive=False
        )
        assert delta_affects_source(
            tie, dist, weighted=True, tie_sensitive=True
        )

    def test_hop_metric_ignores_stored_weights(self):
        dist = self._dist({0: 0, 1: 1, 2: 2, 5: 5})
        heavy = EdgeDelta(OP_INSERT, 0, 5, None, 1000.0)
        assert delta_affects_source(
            heavy, dist, weighted=False, tie_sensitive=False
        )
        reweight = EdgeDelta(OP_REWEIGHT, 0, 1, 1.0, 1000.0)
        assert not delta_affects_source(
            reweight, dist, weighted=False, tie_sensitive=True
        )

    def test_weight_increase_matters_iff_edge_was_shortest(self):
        dist = self._dist({0: 0.0, 1: 2.0, 2: 7.0})
        on_path = EdgeDelta(OP_REWEIGHT, 0, 1, 2.0, 3.0)
        assert delta_affects_source(
            on_path, dist, weighted=True, tie_sensitive=False
        )
        off_path = EdgeDelta(OP_REWEIGHT, 1, 2, 9.0, 12.0)
        assert not delta_affects_source(
            off_path, dist, weighted=True, tie_sensitive=False
        )

    def test_structural_always_affects(self):
        assert delta_affects_source(
            STRUCTURAL_DELTA,
            self._dist({}),
            weighted=False,
            tie_sensitive=False,
        )
