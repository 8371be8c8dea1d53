"""Tests for the unified sampling engine (`repro.engine`).

Covers the schedule arithmetic, the stopping rules, the driver's chunk
bookkeeping, the cross-sample source-DAG cache (hit/miss accounting, LRU
bound, eviction on graph mutation), the direction-optimising BFS step, and
the deterministic ranking tie-break satellite.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines import ABRA, KADABRA, RiondatoKornaropoulos
from repro.core.ranking import rank_scores
from repro.engine import SampleDriver, SampleSchedule, SourceDAGCache
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
    weighted_barabasi_albert_graph,
)
from repro.saphyra_bc import SaPHyRaBC
from repro.saphyra_cc import SaPHyRaCC


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

    def test_allocated_rule_bounds_each_distinct_pair_once(self, monkeypatch):
        from repro.core.adaptive import _RiskAccumulator
        from repro.engine import stopping
        from repro.stats.bernstein import empirical_bernstein_bound

        accumulator = _RiskAccumulator(6)
        for draw in range(100):
            if draw % 4 == 0:
                accumulator.add({0: 1.0, 1: 1.0})
            elif draw % 2:
                accumulator.add({2: 1.0})
            else:
                accumulator.add({})
        allocations = [0.01, 0.01, 0.01, 0.01, 0.02, 0.01]
        calls = []

        def counted(*args):
            calls.append(args)
            return empirical_bernstein_bound(*args)

        monkeypatch.setattr(stopping, "empirical_bernstein_bound", counted)
        rule = AllocatedBernsteinRule(accumulator, allocations, epsilon=0.5)
        rule.should_stop(accumulator.count)
        # (delta_i, variance): 25 hits at 0.01 for 0 and 1, 50 hits at 0.01
        # for 2, no hits at 0.01 for 3 and 5, no hits at 0.02 for 4.
        assert len(calls) == 4
        assert rule.deviations == [
            empirical_bernstein_bound(
                accumulator.count, delta_i, accumulator.variance(index)
            )
            for index, delta_i in enumerate(allocations)
        ]


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

    def test_clear_drops_every_store_and_keeps_the_counters(self):
        cache = SourceDAGCache(max_entries=8)
        graphs = [cycle_graph(5), cycle_graph(6)]
        first = [cache.dag(graph, 0, backend="dict") for graph in graphs]
        cache.clear()
        assert cache.stats()["entries"] == 0
        assert (cache.hits, cache.misses, cache.evictions) == (0, 2, 0)
        assert cache.dag(graphs[0], 0, backend="dict") is not first[0]
        assert cache.misses == 3

    def test_collected_graph_drops_its_store(self):
        import gc

        cache = SourceDAGCache(max_entries=8)
        graph = cycle_graph(6)
        cache.dag(graph, 0, backend="dict")
        assert cache.stats()["entries"] == 1
        del graph
        gc.collect()  # the store is keyed weakly on the graph
        assert cache.stats()["entries"] == 0

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

    @pytest.mark.parametrize(
        "env,text",
        [
            ("REPRO_DAG_CACHE_BUDGET", "123"),
            ("REPRO_DAG_CACHE_SIZE", "2"),
            ("REPRO_DAG_CACHE_SIZE", "lots"),
            ("REPRO_DAG_CACHE", "0"),
        ],
    )
    def test_bounds_are_constants(self, monkeypatch, env, text):
        # Neither bound is a knob and the cache cannot be switched off:
        # these variables are not read, so garbage there neither raises
        # nor changes the default cache.
        from repro.engine import dag_cache as module

        monkeypatch.setenv(env, text)
        module.clear_default_dag_cache()
        cache = module.default_dag_cache()
        assert (cache.max_entries, cache.max_cost) == (512, 16_000_000)
        assert (SourceDAGCache().max_entries, SourceDAGCache().max_cost) == (
            module.DEFAULT_DAG_CACHE_SIZE, module.DEFAULT_DAG_CACHE_BUDGET
        )
        assert module.default_dag_cache() is cache

    def test_clear_default_builds_a_fresh_cache(self):
        from repro.engine import dag_cache as module

        first = module.default_dag_cache()
        module.clear_default_dag_cache()
        second = module.default_dag_cache()
        assert second is not first
        assert (second.hits, second.misses, second.evictions) == (0, 0, 0)

    @pytest.mark.parametrize(
        "bound", [{"max_entries": 0}, {"max_cost": 0}],
        ids=["max_entries", "max_cost"],
    )
    def test_bounds_below_one_rejected(self, bound):
        with pytest.raises(ValueError, match=next(iter(bound))):
            SourceDAGCache(**bound)

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
    def test_distance_rows_counts_repeats_as_hits(self):
        # A source repeated within one call is one more lookup, a hit, and
        # every row equals its source's own single-source sweep.
        graph = grid_road_graph(6, 6, seed=0)[0]
        a, b = list(graph.nodes())[:2]
        cache = SourceDAGCache(max_entries=16)
        rows = cache.distance_rows(graph, [a, a, b])
        assert (cache.hits, cache.misses, cache.evictions) == (1, 2, 0)
        assert rows[0] is rows[1]
        snapshot = csr_module.as_csr(graph)
        singles = [
            csr_module.multi_source_sweep(
                snapshot, [snapshot.index_of(source)],
                kind=csr_module.SWEEP_DISTANCE,
            )[0]
            for source in (a, a, b)
        ]
        assert [list(row) for row in rows] == [list(row) for row in singles]

    def test_rejects_unresolved_backend(self):
        cache = SourceDAGCache(max_entries=2)
        with pytest.raises(ValueError):
            cache.dag(cycle_graph(4), 0, backend="auto")


def _estimate(estimator, graph, backend):
    return estimator(
        0.3, 0.1, seed=3, max_samples_cap=64, backend=backend
    ).estimate(graph)


def _rank_subset(estimator, graph, backend):
    return estimator(
        0.3, 0.1, seed=3, max_samples_cap=64, backend=backend
    ).rank(graph, list(graph.nodes())[:8])


#: name -> (run(graph, backend), weighted graph?, the cache keys it stores
#: for a backend, without their source: ``(kind, backend, weighted)`` for
#: DAGs, ``(kind, backend)`` for distance maps, ``(kind,)`` for CSR rows).
_CACHE_USERS = {
    "abra": (lambda g, b: _estimate(ABRA, g, b), False,
             lambda b: ("dag", b, False)),
    "rk": (lambda g, b: _estimate(RiondatoKornaropoulos, g, b), False,
           lambda b: ("dag", b, False)),
    "kadabra-weighted": (lambda g, b: _estimate(KADABRA, g, b), True,
                         lambda b: ("dag", b, True)),
    "saphyra-cc": (lambda g, b: _rank_subset(SaPHyRaCC, g, b), False,
                   lambda b: ("dist",) if b == "csr" else ("dist-map", b)),
}

#: Samplers on the stacked bidirectional search: they never look a
#: traversal up.
_CACHE_BYPASSERS = {
    "saphyra-bc": lambda g, b: _rank_subset(SaPHyRaBC, g, b),
    "kadabra-unit": lambda g, b: _estimate(KADABRA, g, b),
}

_BACKENDS = [
    "dict", pytest.param("csr", marks=pytest.mark.requires_numpy),
]


class TestDefaultCacheUsers:
    """The estimators that redraw traversals take them from the process-wide
    default cache — the one perfbench's ``dag_cache.*`` counters read —
    under the key their backend and metric select; the others never look
    one up."""

    @pytest.fixture
    def fresh_default(self, monkeypatch):
        from repro.engine import dag_cache

        cache = SourceDAGCache()
        monkeypatch.setattr(dag_cache, "_default_cache", cache)
        return cache

    @pytest.mark.parametrize("backend", _BACKENDS)
    @pytest.mark.parametrize("name", list(_CACHE_USERS))
    def test_user_draws_through_the_default_cache(
        self, fresh_default, name, backend
    ):
        run, weighted, key = _CACHE_USERS[name]
        graph = (weighted_barabasi_albert_graph if weighted
                 else barabasi_albert_graph)(60, 2, seed=3)
        run(graph, backend)
        # CSR runs may key the store on the graph's snapshot.
        stored = {
            k[:-1]
            for store in fresh_default._stores.values()
            for k in store.entries
        }
        assert fresh_default.misses > 0
        assert stored == {key(backend)}

    @pytest.mark.parametrize("backend", _BACKENDS)
    @pytest.mark.parametrize("name", list(_CACHE_BYPASSERS))
    def test_stacked_samplers_never_look_up(self, fresh_default, name, backend):
        _CACHE_BYPASSERS[name](barabasi_albert_graph(60, 2, seed=3), backend)
        assert (fresh_default.hits, fresh_default.misses) == (0, 0)


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
