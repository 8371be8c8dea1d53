"""Weighted SSSP engine benchmarks: BFS vs Dijkstra, and weighted
Brandes/closeness end-to-end.

Three comparisons, each on a road grid and a BA social graph (scaled by
``REPRO_BENCH_WEIGHTED_SCALE``):

* **Engine A/B on unit weights** — the same unit-weight graph through the
  BFS engine (``weighted="off"``) and the forced Dijkstra engine
  (``weighted="on"``).  This is the *price of generality*: the priority
  queue pays a log-factor and loses level batching, which is why the
  ``auto`` routing keeps unit-weight graphs on BFS.
* **Weighted kernels, dict vs CSR** — the Dijkstra engine over the
  hash-based adjacency vs the flat CSR arrays (bit-identical results).
* **Weighted exact centrality** — weighted Brandes and weighted closeness
  on the weighted generators registered in the dataset registry.

The bit-identity of dict/CSR weighted results is asserted inside the
benches themselves, so a kernel regression fails loudly here as well as in
the equivalence suite.

Run with::

    pytest benchmarks/bench_weighted.py --benchmark-only -q
"""

from __future__ import annotations

import os

import pytest

from repro.centrality.brandes import betweenness_centrality
from repro.centrality.closeness import closeness_centrality
from repro.graphs import csr as csr_module
from repro.graphs.generators import (
    barabasi_albert_graph,
    grid_road_graph,
    weighted_barabasi_albert_graph,
    weighted_grid_road_graph,
)
from repro.graphs.traversal import sssp_distances

TOPOLOGIES = ("social", "road")

_SCALE = float(os.environ.get("REPRO_BENCH_WEIGHTED_SCALE", "1.0"))


def _sizes(topology: str):
    if topology == "social":
        return max(200, int(4000 * _SCALE)), 4
    side = max(20, int(60 * _SCALE))
    return side, side


def _make_unit(topology: str):
    if topology == "social":
        n, m = _sizes(topology)
        return barabasi_albert_graph(n, m, seed=7)
    rows, cols = _sizes(topology)
    return grid_road_graph(rows, cols, seed=7)[0]


def _make_weighted(topology: str):
    if topology == "social":
        n, m = _sizes(topology)
        return weighted_barabasi_albert_graph(n, m, seed=7)
    rows, cols = _sizes(topology)
    return weighted_grid_road_graph(rows, cols, seed=7)[0]


@pytest.fixture(scope="module")
def unit_graphs():
    built = {name: _make_unit(name) for name in TOPOLOGIES}
    for graph in built.values():
        csr_module.as_csr(graph).adjacency_lists()
    return built


@pytest.fixture(scope="module")
def weighted_graphs():
    built = {name: _make_weighted(name) for name in TOPOLOGIES}
    for graph in built.values():
        snapshot = csr_module.as_csr(graph)
        snapshot.adjacency_lists()
        snapshot.weight_list()
    return built


@pytest.mark.parametrize("engine", ("bfs", "dijkstra"))
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_bench_engine_ab_unit_weights(benchmark, unit_graphs, topology, engine):
    """BFS vs forced-Dijkstra on the same unit-weight graph (CSR backend)."""
    graph = unit_graphs[topology]
    weighted = "off" if engine == "bfs" else "on"
    sources = list(graph.nodes())[:4]
    state = {"index": 0}

    def one_sweep():
        source = sources[state["index"] % len(sources)]
        state["index"] += 1
        return sssp_distances(graph, source, backend="csr", weighted=weighted)

    distances = benchmark(one_sweep)
    assert len(distances) == graph.number_of_nodes()


@pytest.mark.parametrize("backend", ("dict", "csr"))
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_bench_weighted_sssp(benchmark, weighted_graphs, topology, backend):
    """The Dijkstra distance kernel, dict adjacency vs flat CSR arrays."""
    graph = weighted_graphs[topology]
    sources = list(graph.nodes())[:4]
    state = {"index": 0}

    def one_sweep():
        source = sources[state["index"] % len(sources)]
        state["index"] += 1
        return sssp_distances(graph, source, backend=backend)

    distances = benchmark(one_sweep)
    assert len(distances) == graph.number_of_nodes()
    # Bit-identity cross-check on the first source.
    assert sssp_distances(graph, sources[0], backend="dict") == sssp_distances(
        graph, sources[0], backend="csr"
    )


@pytest.mark.parametrize("backend", ("dict", "csr"))
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_bench_weighted_brandes(benchmark, weighted_graphs, topology, backend):
    """Exact weighted betweenness over a pivot subset (per-source Dijkstra)."""
    graph = weighted_graphs[topology]
    from repro.centrality.brandes import betweenness_from_pivots

    pivots = list(graph.nodes())[:16]
    scores = benchmark(
        lambda: betweenness_from_pivots(graph, pivots, backend=backend)
    )
    assert len(scores) <= graph.number_of_nodes()
    reference = betweenness_from_pivots(graph, pivots, backend="dict")
    assert scores == reference


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_bench_weighted_closeness(benchmark, weighted_graphs, topology):
    """Weighted closeness over a source subset (CSR backend)."""
    graph = weighted_graphs[topology]
    nodes = list(graph.nodes())[:32]
    scores = benchmark(
        lambda: closeness_centrality(graph, nodes, backend="csr")
    )
    assert set(scores) == set(nodes)
    assert scores == closeness_centrality(graph, nodes, backend="dict")


def test_weighted_full_betweenness_smoke(weighted_graphs):
    """Non-benchmark guard: full weighted Brandes stays bit-identical across
    backends and worker counts at bench scale."""
    graph = weighted_graphs["road"]
    if graph.number_of_nodes() > 1500:
        graph = graph.subgraph(list(graph.nodes())[:1500])
    reference = betweenness_centrality(graph, backend="dict")
    assert betweenness_centrality(graph, backend="csr") == reference
    assert betweenness_centrality(graph, backend="csr", workers=2) == reference
