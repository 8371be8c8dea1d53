"""Tests for the unified sampling engine (`repro.engine`).

Covers the schedule arithmetic, the stopping rules, the driver's chunk
bookkeeping, the cross-sample source-DAG cache (hit/miss accounting, LRU
bound, eviction on graph mutation), the direction-optimising BFS step, and
the deterministic ranking tie-break satellite.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.ranking import rank_scores
from repro.engine import (
    SampleDriver,
    SampleSchedule,
    SourceDAGCache,
    dag_cache_enabled,
    set_dag_cache_enabled,
)
from repro.engine.stopping import (
    AllocatedBernsteinRule,
    BernsteinSumsRule,
    FixedSampleRule,
    HitCountRule,
)
from repro.graphs import csr as csr_module
from repro.graphs.generators import (
    barabasi_albert_graph,
    cycle_graph,
    grid_road_graph,
)


class TestSampleSchedule:
    def test_geometric_targets(self):
        assert list(SampleSchedule(32, 200).targets()) == [32, 64, 128, 200]

    def test_non_doubling_growth(self):
        schedule = SampleSchedule(10, 100, growth=3.0)
        assert list(schedule.targets()) == [10, 30, 90, 100]

    def test_fixed_is_single_stage(self):
        schedule = SampleSchedule.fixed(50)
        assert list(schedule.targets()) == [50]
        assert schedule.num_stages() == 1

    def test_first_stage_clamped_to_cap(self):
        schedule = SampleSchedule(100, 40)
        assert schedule.first_stage == 40
        assert list(schedule.targets()) == [40]

    def test_from_guarantee_matches_baseline_formula(self):
        # epsilon=0.1, delta=0.1 -> ceil(0.5/0.01 * ln 10) = 116
        schedule = SampleSchedule.from_guarantee(0.1, 0.1, 1000)
        assert schedule.first_stage == 116
        assert schedule.max_samples == 1000
        tiny = SampleSchedule.from_guarantee(0.5, 0.5, 1000)
        assert tiny.first_stage == 32  # the min_first_stage floor

    def test_num_stages_doubling(self):
        assert SampleSchedule(32, 200).num_stages() == 3
        assert SampleSchedule(32, 32).num_stages() == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SampleSchedule(0, 10)
        with pytest.raises(ValueError):
            SampleSchedule(1, 0)
        with pytest.raises(ValueError):
            SampleSchedule(1, 10, growth=1.0)


class TestStoppingRules:
    def test_fixed_never_stops(self):
        rule = FixedSampleRule()
        assert not rule.should_stop(10**9)
        assert rule.converged_label == rule.cap_label == "fixed"

    def test_bernstein_sums_zero_variance_stops(self):
        totals = {"a": 0.0, "b": 0.0}
        totals_sq = {"a": 0.0, "b": 0.0}
        rule = BernsteinSumsRule(
            totals, totals_sq, epsilon=0.1, per_check_delta=0.01
        )
        assert not rule.should_stop(1)  # needs >= 2 samples
        assert rule.should_stop(10_000)

    def test_bernstein_sums_high_variance_keeps_going(self):
        # Alternating 0/1 losses: variance ~ 0.25, far above epsilon at N=64.
        totals = {"a": 32.0}
        totals_sq = {"a": 32.0}
        rule = BernsteinSumsRule(
            totals, totals_sq, epsilon=0.01, per_check_delta=0.01
        )
        assert not rule.should_stop(64)

    def test_hit_count_rule(self):
        counts = {"a": 0.0, "b": 0.0}
        rule = HitCountRule(counts, epsilon=0.01, per_check_delta=0.01)
        assert rule.should_stop(10_000)
        counts["b"] = 5_000.0  # half the samples hit b -> variance ~ 0.25
        assert not rule.should_stop(10_000)

    def test_allocated_rule_records_deviations(self):
        from repro.core.adaptive import _RiskAccumulator

        accumulator = _RiskAccumulator(2)
        for _ in range(10_000):
            accumulator.add({0: 1.0})
        rule = AllocatedBernsteinRule(
            accumulator, [0.01, 0.01], epsilon=0.05
        )
        stopped = rule.should_stop(accumulator.count)
        assert len(rule.deviations) == 2
        assert all(dev >= 0.0 for dev in rule.deviations)
        # Zero variance on both hypotheses: only the 1/(N-1) term remains.
        assert stopped


def _counting_chunk(payload, piece):
    """Module-level chunk task: returns its piece so folds can record it."""
    return piece


class TestSampleDriver:
    def test_chunk_indices_continue_across_batches(self):
        seen = []
        with SampleDriver(_counting_chunk, chunk_size=10) as driver:
            driver.run_batch(25, seen.append)
            driver.run_batch(15, seen.append)
        assert seen == [(0, 10), (1, 10), (2, 5), (3, 10), (4, 5)]

    def test_run_schedule_stops_adaptively(self):
        class StopAtSecondCheck:
            converged_label = "adaptive"
            cap_label = "cap"

            def __init__(self):
                self.checks = 0

            def should_stop(self, num_samples):
                self.checks += 1
                return self.checks >= 2

        seen = []
        with SampleDriver(_counting_chunk, chunk_size=100) as driver:
            outcome = driver.run_schedule(
                SampleSchedule(10, 1000), StopAtSecondCheck(), seen.append
            )
        assert outcome.num_samples == 20
        assert outcome.num_stages == 2
        assert outcome.converged_by == "adaptive"
        assert seen == [(0, 10), (1, 10)]

    def test_run_schedule_hits_cap(self):
        with SampleDriver(_counting_chunk, chunk_size=100) as driver:
            outcome = driver.run_schedule(
                SampleSchedule(10, 40), FixedSampleRule(), lambda piece: None
            )
        assert outcome.num_samples == 40
        assert outcome.converged_by == "fixed"
        assert outcome.num_stages == 3  # 10 -> 20 -> 40


class TestSourceDAGCache:
    def test_hit_miss_accounting_and_identity(self):
        cache = SourceDAGCache(max_entries=8)
        graph = cycle_graph(8)
        first = cache.dag(graph, 0, backend="dict")
        second = cache.dag(graph, 0, backend="dict")
        assert first is second
        assert cache.hits == 1 and cache.misses == 1
        cache.dag(graph, 1, backend="dict")
        assert cache.misses == 2
        assert cache.stats()["entries"] == 2

    @pytest.mark.requires_numpy
    def test_backends_cached_separately(self):
        cache = SourceDAGCache(max_entries=8)
        graph = barabasi_albert_graph(60, 2, seed=0)
        dict_dag = cache.dag(graph, 0, backend="dict")
        csr_dag = cache.dag(graph, 0, backend="csr")
        assert cache.misses == 2
        assert dict_dag is not csr_dag
        assert dict_dag.sigma[1] == int(csr_dag.sigma[csr_dag.csr.index[1]])

    def test_eviction_on_version_bump(self):
        cache = SourceDAGCache(max_entries=8)
        graph = cycle_graph(6)
        stale = cache.dag(graph, 0, backend="dict")
        graph.add_edge(0, 3)  # mutation bumps Graph._version
        fresh = cache.dag(graph, 0, backend="dict")
        assert fresh is not stale
        assert fresh.distances != stale.distances
        assert cache.evictions == 1

    def test_lru_bound(self):
        cache = SourceDAGCache(max_entries=2)
        graph = cycle_graph(6)
        for source in (0, 1, 2):
            cache.dag(graph, source, backend="dict")
        assert cache.stats()["entries"] == 2
        assert cache.evictions == 1
        # Source 0 was evicted (least recently used) -> a fresh miss.
        cache.dag(graph, 0, backend="dict")
        assert cache.misses == 4

    def test_cost_budget_bound(self):
        from repro.engine import dag_cache as module

        graph = cycle_graph(12)
        one = module._entry_cost(
            SourceDAGCache.compute_dag(graph, 0, backend="dict")
        )
        cache = SourceDAGCache(max_entries=8, max_cost=2 * one)
        for source in (0, 1, 2):
            cache.dag(graph, source, backend="dict")
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["cost"] <= 2 * one
        assert cache.evictions == 1
        # Source 0 was evicted (least recently used) -> a fresh miss.
        cache.dag(graph, 0, backend="dict")
        assert cache.misses == 4

    def test_oversized_entry_still_cached(self):
        # A single traversal bigger than the whole budget stays resident:
        # the budget degrades the cache to ~one live traversal, never zero.
        cache = SourceDAGCache(max_entries=8, max_cost=1)
        graph = cycle_graph(10)
        first = cache.dag(graph, 0, backend="dict")
        assert cache.dag(graph, 0, backend="dict") is first
        cache.dag(graph, 1, backend="dict")  # over budget -> evicts source 0
        assert cache.stats()["entries"] == 1
        assert cache.evictions == 1

    def test_budget_env_knob(self, monkeypatch):
        from repro.engine import dag_cache as module

        monkeypatch.setenv(module.DAG_CACHE_BUDGET_ENV_VAR, "123")
        assert SourceDAGCache().max_cost == 123
        monkeypatch.setenv(module.DAG_CACHE_BUDGET_ENV_VAR, "0")
        with pytest.raises(ValueError, match="REPRO_DAG_CACHE_BUDGET"):
            SourceDAGCache()

    def test_override_mirrors_into_environment(self, monkeypatch):
        # Spawned workers re-import the module and resolve from the
        # environment, so the override must be mirrored there.
        from repro.engine import dag_cache as module

        monkeypatch.setenv(module.DAG_CACHE_ENV_VAR, "on")
        try:
            set_dag_cache_enabled(False)
            assert os.environ[module.DAG_CACHE_ENV_VAR] == "0"
            set_dag_cache_enabled(True)
            assert os.environ[module.DAG_CACHE_ENV_VAR] == "1"
        finally:
            set_dag_cache_enabled(None)
        assert os.environ[module.DAG_CACHE_ENV_VAR] == "on"

    def test_size_and_budget_overrides(self, monkeypatch):
        # The PR-7 knob surface: set_default_dag_cache_size/budget follow
        # the full protocol — validated, env-mirrored, displaced-value
        # restore, and new caches are built with the resolved bounds.
        from repro.engine import dag_cache as module

        monkeypatch.setenv(module.DAG_CACHE_SIZE_ENV_VAR, "64")
        monkeypatch.delenv(module.DAG_CACHE_BUDGET_ENV_VAR, raising=False)
        try:
            module.set_default_dag_cache_size(9)
            module.set_default_dag_cache_budget(777)
            assert os.environ[module.DAG_CACHE_SIZE_ENV_VAR] == "9"
            assert os.environ[module.DAG_CACHE_BUDGET_ENV_VAR] == "777"
            assert module.resolve_dag_cache_size() == 9
            assert module.resolve_dag_cache_budget() == 777
            cache = SourceDAGCache()
            assert cache.max_entries == 9 and cache.max_cost == 777
        finally:
            module.set_default_dag_cache_size(None)
            module.set_default_dag_cache_budget(None)
        # The displaced env value is restored and back in charge.
        assert os.environ[module.DAG_CACHE_SIZE_ENV_VAR] == "64"
        assert module.resolve_dag_cache_size() == 64
        assert module.DAG_CACHE_BUDGET_ENV_VAR not in os.environ
        assert module.resolve_dag_cache_budget() == module.DEFAULT_DAG_CACHE_BUDGET

    def test_size_and_budget_override_validation(self):
        from repro.engine import dag_cache as module

        with pytest.raises(ValueError, match="dag_cache_size"):
            module.set_default_dag_cache_size(0)
        with pytest.raises(TypeError, match="dag_cache_budget"):
            module.set_default_dag_cache_budget(True)

    def test_enabled_check_eagerly_validates_bounds(self, monkeypatch):
        # dag_cache_enabled() is the first knob touch on the hot path;
        # a typo'd bound surfaces there, naming the variable.
        from repro.engine import dag_cache as module

        monkeypatch.setenv(module.DAG_CACHE_SIZE_ENV_VAR, "huge")
        with pytest.raises(ValueError, match=module.DAG_CACHE_SIZE_ENV_VAR):
            dag_cache_enabled()

    @pytest.mark.requires_numpy
    def test_distance_rows_batched_misses_then_hits(self):
        cache = SourceDAGCache(max_entries=16)
        graph = grid_road_graph(6, 6, seed=0)[0]
        nodes = list(graph.nodes())[:4]
        rows = cache.distance_rows(graph, nodes)
        assert cache.misses == 4 and cache.hits == 0
        again = cache.distance_rows(graph, nodes)
        assert cache.hits == 4
        for row, row2 in zip(rows, again):
            assert row is row2
        # Rows equal the per-source kernel output.
        snapshot = csr_module.as_csr(graph)
        for node, row in zip(nodes, rows):
            dist, _ = csr_module.csr_bfs(snapshot, snapshot.index_of(node))
            assert list(row) == list(dist)

    @pytest.mark.requires_numpy
    def test_distance_rows_counts_repeats_like_distances_calls(self):
        # A source repeated within one call is one more lookup, a hit — what
        # the same draws made one `distances` call at a time report.
        graph = grid_road_graph(6, 6, seed=0)[0]
        a, b = list(graph.nodes())[:2]
        batched = SourceDAGCache(max_entries=16)
        single = SourceDAGCache(max_entries=16)
        rows = batched.distance_rows(graph, [a, a, b])
        singles = [single.distances(graph, source) for source in (a, a, b)]
        assert batched.stats() == single.stats()
        assert (batched.hits, batched.misses) == (1, 2)
        assert rows[0] is rows[1]
        assert [list(row) for row in rows] == [list(row) for row in singles]

    def test_rejects_unresolved_backend(self):
        cache = SourceDAGCache(max_entries=2)
        with pytest.raises(ValueError):
            cache.dag(cycle_graph(4), 0, backend="auto")

    def test_enabled_override_round_trip(self):
        original = dag_cache_enabled()
        try:
            set_dag_cache_enabled(False)
            assert not dag_cache_enabled()
            set_dag_cache_enabled(True)
            assert dag_cache_enabled()
        finally:
            set_dag_cache_enabled(None)
        assert dag_cache_enabled() == original

    def test_invalid_env_values_rejected(self, monkeypatch):
        from repro.engine import dag_cache as module

        monkeypatch.setenv(module.DAG_CACHE_ENV_VAR, "maybe")
        with pytest.raises(ValueError, match="REPRO_DAG_CACHE"):
            dag_cache_enabled()
        monkeypatch.setenv(module.DAG_CACHE_SIZE_ENV_VAR, "-3")
        with pytest.raises(ValueError, match="REPRO_DAG_CACHE_SIZE"):
            SourceDAGCache()


@pytest.mark.requires_numpy
class TestDirectionOptimising:
    @pytest.mark.parametrize(
        "make_graph",
        [
            pytest.param(lambda: barabasi_albert_graph(3000, 4, seed=1), id="ba"),
            pytest.param(lambda: grid_road_graph(40, 40, seed=1)[0], id="grid"),
        ],
    )
    def test_distance_rows_identical(self, make_graph):
        graph = make_graph()
        snapshot = csr_module.as_csr(graph)
        sources = list(range(0, snapshot.n, max(1, snapshot.n // 16)))[:16]
        top_down = csr_module.multi_source_sweep(
            snapshot, sources, kind="distance", direction="top-down"
        )
        auto = csr_module.multi_source_sweep(
            snapshot, sources, kind="distance", direction="auto"
        )
        for reference, candidate in zip(top_down, auto):
            assert list(reference) == list(candidate)

    @pytest.mark.parametrize(
        "roots, sigma_mode, direction",
        [
            ((0,), None, "top-down"),
            (tuple(range(8)), None, "auto"),
            ((0,), "int", "top-down"),
            (tuple(range(4)), "float", "top-down"),
        ],
    )
    def test_frontier_cost_is_the_frontier_degree(self, roots, sigma_mode, direction):
        # The running degree sum equals a re-summed frontier degree at every
        # level, whichever step (sequential, vectorised, bottom-up) ran.
        import numpy as np

        for graph in (
            barabasi_albert_graph(3000, 4, seed=1),
            grid_road_graph(30, 30, seed=1)[0],
        ):
            snapshot = csr_module.as_csr(graph)
            indptr = snapshot.indptr
            # repro-lint: disable=kernel-ownership — audited: unit test exercising the kernel itself
            sweep = csr_module._BatchSweep(
                snapshot, roots, sigma_mode=sigma_mode, direction=direction
            )
            while True:
                nodes = np.asarray(sweep.frontier, dtype=np.int64) % snapshot.n
                degree = int((indptr[nodes + 1] - indptr[nodes]).sum())
                assert sweep.frontier_cost() == degree
                if not sweep.has_frontier:
                    break
                sweep.expand()

    def test_bottom_up_actually_fires_on_fat_levels(self):
        graph = barabasi_albert_graph(3000, 4, seed=1)
        snapshot = csr_module.as_csr(graph)
        # repro-lint: disable=kernel-ownership — audited: unit test exercising the kernel itself
        sweep = csr_module._BatchSweep(
            snapshot, list(range(8)), direction="auto"
        )
        while sweep.has_frontier:
            sweep.expand()
        assert sweep.bottom_up_levels > 0  # the equivalence test above bites

    def test_auto_rejected_for_order_sensitive_sweeps(self):
        graph = cycle_graph(8)
        snapshot = csr_module.as_csr(graph)
        with pytest.raises(ValueError):
            # repro-lint: disable=kernel-ownership — audited: unit test exercising the kernel itself
            csr_module._BatchSweep(
                snapshot, (0,), sigma_mode="int", direction="auto"
            )
        with pytest.raises(ValueError):
            csr_module.multi_source_sweep(
                snapshot, (0,), kind="brandes", direction="auto"
            )
        with pytest.raises(ValueError):
            csr_module.multi_source_sweep(
                snapshot, (0,), kind="distance", direction="sideways"
            )


class TestRankingTieBreak:
    """Satellite: equal-score orders are a pure function of the mapping."""

    def test_insertion_order_never_leaks(self):
        scores = {3: 0.5, 1: 0.5, 2: 0.7, 0: 0.5}
        orders = set()
        items = list(scores.items())
        for seed in range(10):
            random.Random(seed).shuffle(items)
            orders.add(tuple(rank_scores(dict(items))))
        assert orders == {(2, 0, 1, 3)}

    def test_mixed_type_names_are_deterministic(self):
        scores = {"b": 0.5, 1: 0.5, "a": 0.5, 2: 0.9}
        first = rank_scores(scores)
        second = rank_scores(dict(reversed(list(scores.items()))))
        assert first == second
        assert first[0] == 2  # highest score still leads

    def test_baseline_result_ranking_uses_shared_tie_break(self):
        from repro.baselines.base import BaselineResult

        result = BaselineResult(
            algorithm="test",
            scores={5: 0.1, 3: 0.1, 4: 0.2, 1: 0.1},
            num_samples=1,
            epsilon=0.1,
            delta=0.1,
        )
        assert result.ranking() == [4, 1, 3, 5]
        assert result.ranking([5, 3]) == [3, 5]
