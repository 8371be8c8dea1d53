"""Tests for the CSR graph engine: snapshots, caching and backend selection."""

from __future__ import annotations

import random

import pytest

from repro.errors import GraphError, SamplingError
from repro.graphs import csr as csr_module
from repro.graphs import delta as delta_module
from repro.graphs.csr import (
    AUTO_CSR_THRESHOLD,
    CSRGraph,
    as_csr,
    csr_bfs,
    csr_brandes,
    csr_distance_stats,
    csr_shortest_path_dag,
    default_backend,
    effective_backend,
    resolve_backend,
    set_default_backend,
    sigma_choice,
)
from repro.graphs.generators import erdos_renyi_graph, grid_road_graph, path_graph
from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_distances, shortest_path_dag


@pytest.fixture(autouse=True)
def _reset_default_backend(monkeypatch):
    # A REPRO_BACKEND exported in the invoking shell would override the
    # auto-selection behaviour these tests assert on.
    monkeypatch.delenv(csr_module.BACKEND_ENV_VAR, raising=False)
    yield
    set_default_backend(None)


@pytest.mark.requires_numpy
class TestCSRGraph:
    def test_structure_matches_adjacency(self):
        graph = Graph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3)])
        snapshot = CSRGraph.from_graph(graph)
        assert snapshot.n == 4
        assert snapshot.m == 4
        assert list(snapshot.indptr) == [0, 2, 4, 7, 8]
        for node in graph.nodes():
            index = snapshot.index[node]
            neighbors = [
                snapshot.labels[j] for j in snapshot.neighbors(index)
            ]
            assert neighbors == list(graph.neighbors(node))
            assert snapshot.degree(index) == graph.degree(node)

    def test_labels_keep_insertion_order(self):
        graph = Graph.from_edges([("c", "a"), ("a", "b")])
        snapshot = CSRGraph.from_graph(graph)
        assert snapshot.labels == ["c", "a", "b"]
        assert not snapshot.identity_labels

    def test_identity_labels_detected(self):
        graph = Graph.from_edges([(0, 1), (1, 2)])
        assert CSRGraph.from_graph(graph).identity_labels

    def test_index_of_missing_node_raises(self):
        snapshot = CSRGraph.from_graph(path_graph(3))
        with pytest.raises(GraphError):
            snapshot.index_of(99)

    def test_isolated_nodes_round_trip(self):
        graph = Graph.from_edges([(0, 1)], nodes=[5])
        snapshot = CSRGraph.from_graph(graph)
        assert snapshot.n == 3
        assert snapshot.degree(snapshot.index[5]) == 0


@pytest.mark.requires_numpy
class TestAsCSRCaching:
    def test_snapshot_is_cached(self):
        graph = path_graph(6)
        assert as_csr(graph) is as_csr(graph)

    def test_mutation_invalidates_cache(self):
        graph = path_graph(6)
        first = as_csr(graph)
        graph.add_edge(0, 5)
        second = as_csr(graph)
        assert second is not first
        assert second.m == first.m + 1
        assert as_csr(graph) is second

    def test_node_and_edge_removal_invalidate(self):
        graph = path_graph(6)
        first = as_csr(graph)
        graph.remove_edge(0, 1)
        second = as_csr(graph)
        assert second is not first
        graph.remove_node(5)
        third = as_csr(graph)
        assert third is not second
        assert third.n == 5


class TestBackendSelection:
    def test_resolve_explicit(self):
        assert resolve_backend("dict") == "dict"
        assert resolve_backend("csr") == "csr"

    def test_resolve_unknown_raises(self):
        with pytest.raises(ValueError):
            resolve_backend("sparse")

    def test_set_default_backend(self):
        set_default_backend("dict")
        assert default_backend() == "dict"
        assert resolve_backend(None) == "dict"
        set_default_backend(None)

    def test_set_default_backend_rejects_unknown(self):
        with pytest.raises(ValueError):
            set_default_backend("sparse")

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv(csr_module.BACKEND_ENV_VAR, "dict")
        assert default_backend() == "dict"
        monkeypatch.setenv(csr_module.BACKEND_ENV_VAR, "bogus")
        with pytest.raises(ValueError):
            default_backend()

    def test_auto_is_a_valid_choice_everywhere(self, monkeypatch):
        # REPRO_BACKEND=auto must behave like the built-in default ...
        monkeypatch.setenv(csr_module.BACKEND_ENV_VAR, "auto")
        assert default_backend() == "auto"
        assert effective_backend(path_graph(3), None) in ("dict", "csr")
        # ... and set_default_backend("auto") must override the env var,
        # which is how `--backend auto` beats a stale REPRO_BACKEND=dict.
        monkeypatch.setenv(csr_module.BACKEND_ENV_VAR, "dict")
        set_default_backend("auto")
        assert default_backend() == "auto"

    @pytest.mark.requires_numpy
    def test_effective_backend_explicit_always_wins(self):
        tiny = path_graph(3)
        assert effective_backend(tiny, "csr") == "csr"
        assert effective_backend(tiny, "dict") == "dict"

    @pytest.mark.requires_numpy
    def test_effective_backend_auto_scales_with_size(self):
        tiny = path_graph(3)
        assert effective_backend(tiny, None) == "dict"
        big = path_graph(AUTO_CSR_THRESHOLD)
        assert effective_backend(big, None) == "csr"

    @pytest.mark.requires_numpy
    def test_effective_backend_auto_reuses_cached_snapshot(self):
        tiny = path_graph(4)
        assert effective_backend(tiny, None) == "dict"
        as_csr(tiny)
        assert effective_backend(tiny, None) == "csr"

    @pytest.mark.requires_numpy
    def test_effective_backend_auto_ignores_unpatchable_stale_snapshot(self):
        # Regression: the auto heuristic used to probe `graph in cache`
        # without checking the snapshot's version, so a small graph mutated
        # after snapshotting was still routed to CSR (forcing a pointless
        # re-freeze on every query).  With the mutation journal disabled the
        # stale snapshot cannot be patched, so the historical behaviour must
        # hold: fall back to the dict kernels.
        delta_module.set_default_dag_cache_delta("off")
        try:
            tiny = path_graph(4)
            as_csr(tiny)
            tiny.add_edge(0, 3)
            assert effective_backend(tiny, None) == "dict"
        finally:
            delta_module.set_default_dag_cache_delta(None)

    @pytest.mark.requires_numpy
    def test_effective_backend_auto_keeps_patchable_stale_snapshot(self):
        # With the mutation journal covering the gap the stale snapshot is
        # one cheap incremental patch away, so auto stays on the array
        # kernels instead of demoting the graph to dict traversals.
        delta_module.set_default_dag_cache_delta("auto")
        try:
            tiny = path_graph(4)
            as_csr(tiny)
            tiny.add_edge(0, 3)
            assert effective_backend(tiny, None) == "csr"
            fresh = csr_module.CSRGraph.from_graph(tiny)
            patched = as_csr(tiny)
            assert patched.indptr.tobytes() == fresh.indptr.tobytes()
            assert patched.indices.tobytes() == fresh.indices.tobytes()
        finally:
            delta_module.set_default_dag_cache_delta(None)

    @pytest.mark.requires_numpy
    def test_effective_backend_evicts_unpatchable_stale_cache_entry(self):
        # Without journal coverage the stale snapshot must also be dropped
        # so mutate/query cycles cannot keep dead array copies alive.
        delta_module.set_default_dag_cache_delta("off")
        try:
            tiny = path_graph(4)
            as_csr(tiny)
            tiny.add_edge(0, 3)
            effective_backend(tiny, None)
            assert csr_module._csr_cache.get(tiny) is None
        finally:
            delta_module.set_default_dag_cache_delta(None)

    def test_resolve_backend_rejects_bad_env_eagerly(self, monkeypatch):
        # A typo'd REPRO_BACKEND must surface as one clear error naming the
        # variable at the next dispatch, not as a deep-stack failure.
        monkeypatch.setenv(csr_module.BACKEND_ENV_VAR, "bogus")
        with pytest.raises(ValueError, match=csr_module.BACKEND_ENV_VAR):
            resolve_backend(None)
        with pytest.raises(ValueError, match=csr_module.BACKEND_ENV_VAR):
            resolve_backend("csr")

    def test_backend_errors_name_the_env_var(self):
        with pytest.raises(ValueError, match=csr_module.BACKEND_ENV_VAR):
            resolve_backend("sparse")
        with pytest.raises(ValueError, match=csr_module.BACKEND_ENV_VAR):
            set_default_backend("sparse")


class TestSigmaChoice:
    def test_distribution_roughly_proportional(self):
        rng = random.Random(3)
        counts = {"a": 0, "b": 0}
        for _ in range(3000):
            counts[sigma_choice(["a", "b"], [1, 3], rng)] += 1
        assert 550 < counts["a"] < 950

    def test_zero_total_raises(self):
        with pytest.raises(SamplingError):
            sigma_choice(["a"], [0], random.Random(0))

    def test_huge_integer_weights_stay_exact(self):
        # Float accumulation would collapse 2**60 and 2**60 + 1; the integer
        # threshold keeps them distinguishable and the choice well defined.
        rng = random.Random(5)
        items = ["low", "high"]
        weights = [1, 2**60]
        picks = {sigma_choice(items, weights, rng) for _ in range(50)}
        assert picks == {"high"}

    def test_single_item(self):
        assert sigma_choice(["only"], [7], random.Random(1)) == "only"

    def test_length_mismatch_raises(self):
        # Regression: `zip` used to truncate silently and the `items[-1]`
        # fallback masked the mismatch, returning an arbitrary item.
        with pytest.raises(SamplingError, match="3 items but 2 weights"):
            sigma_choice(["a", "b", "c"], [1, 2], random.Random(0))
        with pytest.raises(SamplingError, match="1 items but 2 weights"):
            sigma_choice(["a"], [1, 2], random.Random(0))


@pytest.mark.requires_numpy
class TestKernels:
    def test_csr_bfs_matches_dict(self):
        graph = erdos_renyi_graph(40, 0.15, seed=1)
        snapshot = as_csr(graph)
        for source in list(graph.nodes())[:5]:
            dist, order = csr_bfs(snapshot, snapshot.index[source])
            reference = bfs_distances(graph, source, backend="dict")
            order_labels = [snapshot.labels[i] for i in order.tolist()]
            assert order_labels == list(reference)
            for node, hops in reference.items():
                assert dist[snapshot.index[node]] == hops

    def test_distance_stats(self):
        graph = Graph.from_edges([(0, 1), (1, 2)], nodes=[9])
        snapshot = as_csr(graph)
        reachable, total = csr_distance_stats(snapshot, snapshot.index[0])
        assert (reachable, total) == (3, 3)

    def test_brandes_path_graph(self):
        graph = path_graph(5)
        snapshot = as_csr(graph)
        delta, order, dist = csr_brandes(snapshot, 0)
        # On a path, dependency of the source on node i is the number of
        # nodes beyond it: delta(1) = 3, delta(2) = 2, delta(3) = 1.
        assert [round(float(delta[i]), 6) for i in (1, 2, 3, 4)] == [3, 2, 1, 0]

    def test_dag_sampling_consumes_rng_like_dict(self):
        graph = Graph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
        snapshot = as_csr(graph)
        dag_index = csr_shortest_path_dag(snapshot, 0)
        dag_label = shortest_path_dag(graph, 0, backend="dict")
        for seed in range(10):
            indices = dag_index.sample_path_indices(4, random.Random(seed))
            labels = dag_label.sample_path(4, random.Random(seed))
            assert [snapshot.labels[i] for i in indices] == labels

    @pytest.mark.parametrize(
        "graph",
        [
            pytest.param(grid_road_graph(9, 9, seed=2)[0], id="thin-levels"),
            pytest.param(erdos_renyi_graph(120, 0.05, seed=4), id="fat-levels"),
        ],
    )
    def test_staggered_slots_match_single_source_sweeps(self, graph):
        # Slots grown in random subsets, each at its own depth, end with the
        # single-source distances and counts, levels in discovery order.
        snapshot = as_csr(graph)
        roots = list(range(0, snapshot.n, 5))[:24]
        sweep = csr_module.staggered_sweep(snapshot, roots)
        rng = random.Random(1)
        while True:
            live = [slot for slot in range(len(roots)) if sweep.slot_size[slot]]
            if not live:
                break
            sweep.expand_slots(sorted(rng.sample(live, rng.randint(1, len(live)))))
        for slot, root in enumerate(roots):
            dag = csr_shortest_path_dag(snapshot, root)
            order = [
                sweep.log_store[position] >> sweep.shift
                for first, stop in sweep.slot_levels[slot]
                for position in range(first, stop)
            ]
            assert order == list(dag.order)
            for node in range(snapshot.n):
                flat = (node << sweep.shift) | slot
                assert sweep.dist_store[flat] == dag.dist[node]
                assert sweep.sigma[flat] == dag.sigma[node]

    def test_unreachable_target_raises(self):
        graph = Graph.from_edges([(0, 1)], nodes=[2])
        snapshot = as_csr(graph)
        dag = csr_shortest_path_dag(snapshot, snapshot.index[0])
        with pytest.raises(SamplingError):
            dag.sample_path_indices(snapshot.index[2], random.Random(0))
