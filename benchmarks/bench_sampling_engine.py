"""Sampling-engine benchmarks: cross-sample DAG caching and
direction-optimising BFS.

Two mechanisms of the unified engine (:mod:`repro.engine`) are measured
here against the work they save, so their speedups are tracked in the
benchmark trajectory:

* **Source-DAG caching** — ``repeated_source_dags`` replays a pivot-heavy
  access pattern (few sources, many requests: ABRA pair sampling, RK and
  closeness target sweeps all look like this) through a cache and
  through :meth:`~repro.engine.SourceDAGCache.compute_dag`, and
  ``rk_pivot_workload`` runs the whole RK estimator, where every source is
  drawn several times, through a default cache that holds every source
  and through a one-entry default cache that recomputes nearly every
  draw.  The cache is always on in the estimators; these legs measure
  what it pays.  Expected shape: the cached pivot workload wins by an
  order of magnitude (every request after the first per source is a dict
  lookup), and end-to-end RK by >= 2x.
* **Direction-optimising sweeps** — ``distance_sweep_direction`` compares
  ``direction="top-down"`` against ``direction="auto"`` (very fat levels
  switch to a bottom-up step) on the batched multi-source distance sweep.
  Expected shape: a solid win on the social (BA) graph whose levels are
  fat, a modest-to-neutral result on the road grid where frontiers only
  fatten through batching.  Distance rows are bit-identical either way
  (asserted below).

Committed reference numbers (this machine, ``REPRO_BENCH_ENGINE_SCALE=1``)
live in the ROADMAP's Engine note.  Run with::

    pytest benchmarks/bench_sampling_engine.py --benchmark-only \
        --benchmark-group-by=func,param:topology \
        --benchmark-json=bench-sampling-engine.json

``REPRO_BENCH_ENGINE_SCALE`` (default 1.0) scales the graph sizes down for
smoke runs (CI uses 0.2).
"""

from __future__ import annotations

import math
import os

import pytest

from repro.baselines import RiondatoKornaropoulos
from repro.engine import SourceDAGCache, dag_cache
from repro.graphs import csr as csr_module
from repro.graphs.generators import barabasi_albert_graph, grid_road_graph

_SCALE = float(os.environ.get("REPRO_BENCH_ENGINE_SCALE", "1.0"))

TOPOLOGIES = ("social", "road")
CACHE_MODES = ("uncached", "cached")
DIRECTIONS = ("top-down", "auto")

#: Sources per direction-comparison sweep (one executor chunk's worth).
SWEEP_SOURCES = 32

#: Pivot-set size and requests per benchmark round for the DAG workload.
PIVOTS = 8
DAG_REQUESTS = 64


def _make_graph(topology: str):
    if topology == "social":
        return barabasi_albert_graph(max(500, int(20000 * _SCALE)), 5, seed=7)
    side = max(30, int(120 * math.sqrt(_SCALE)))
    return grid_road_graph(side, side, seed=7)[0]


@pytest.fixture(scope="module")
def graphs():
    built = {name: _make_graph(name) for name in TOPOLOGIES}
    # Prime the CSR snapshots so construction cost does not pollute the
    # kernel timings (snapshots are cached per graph anyway).
    for graph in built.values():
        csr_module.as_csr(graph).adjacency_lists()
    return built


def _pivots(graph, count: int):
    nodes = list(graph.nodes())
    step = max(1, len(nodes) // count)
    return nodes[::step][:count]


@pytest.mark.parametrize("mode", CACHE_MODES)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_bench_repeated_source_dags(benchmark, graphs, topology, mode):
    """Pivot-heavy DAG requests: few sources, many lookups."""
    graph = graphs[topology]
    pivots = _pivots(graph, PIVOTS)
    cache = SourceDAGCache(max_entries=4 * PIVOTS)

    def one_round():
        last = None
        for request in range(DAG_REQUESTS):
            source = pivots[request % len(pivots)]
            if mode == "cached":
                last = cache.dag(graph, source, backend="csr")
            else:
                last = SourceDAGCache.compute_dag(graph, source, backend="csr")
        return last

    dag = benchmark(one_round)
    # Cached and uncached produce the same DAG content (sanity, not timing).
    reference = SourceDAGCache.compute_dag(graph, pivots[-1], backend="csr")
    assert list(dag.dist) == list(reference.dist)


@pytest.mark.parametrize("mode", CACHE_MODES)
def test_bench_rk_pivot_workload(benchmark, monkeypatch, mode):
    """End-to-end RK on a graph small enough that sources repeat often.

    ~4 draws per node on average, so the cached run rebuilds each source
    DAG once instead of four times — the >= 2x acceptance workload.
    """
    graph = barabasi_albert_graph(max(200, int(1000 * _SCALE)), 4, seed=9)
    cap = 4 * graph.number_of_nodes()
    # The cached leg's default cache holds the whole source set (the
    # workload is "every source drawn ~4 times", not an LRU-churn study);
    # the uncached leg's holds one entry, so nearly every draw recomputes.
    entries = 2 * graph.number_of_nodes() if mode == "cached" else 1
    monkeypatch.setattr(dag_cache, "_default_cache", SourceDAGCache(entries))
    result = benchmark(
        lambda: RiondatoKornaropoulos(
            0.02, 0.05, seed=11, max_samples_cap=cap, backend="csr"
        ).estimate(graph)
    )
    assert result.num_samples == cap  # the VC size exceeds the cap at eps=0.02


@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_bench_distance_sweep_direction(benchmark, graphs, topology, direction):
    """Batched multi-source distance sweep, top-down vs direction-optimising."""
    graph = graphs[topology]
    snapshot = csr_module.as_csr(graph)
    sources = _pivots(graph, SWEEP_SOURCES)
    indices = [snapshot.index_of(node) for node in sources]

    rows = benchmark(
        lambda: csr_module.multi_source_sweep(
            snapshot, indices, kind="distance", direction=direction
        )
    )
    # Bit-identical rows regardless of direction (sanity, not timing).
    reference, _ = csr_module.csr_bfs(snapshot, indices[0])
    assert list(rows[0]) == list(reference)
