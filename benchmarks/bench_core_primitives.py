"""Micro-benchmarks of the substrate primitives.

These are classic pytest-benchmark timings (multiple rounds) of the graph
kernels everything else is built on: biconnected decomposition, block-cut
tree construction, balanced bidirectional BFS, one ``Gen_bc`` sample, the
``Exact_bc`` pass and one full Brandes single-source dependency pass.

The samplers (``Gen_bc`` and KADABRA) do not call the single-pair search on
CSR: they search stacked sub-batches through
:func:`~repro.graphs.bidirectional.stacked_paths`.  The ``stacked_paths``
benchmarks time that kernel on one 64-pair batch of ISP pairs inside the
largest block of a road and a social stand-in, and the ``gen_bc_chunk``
benchmark times one 64-draw ``Gen_bc`` chunk around it.

The ``*_kernel_scale`` benchmarks run the BFS/Brandes kernels on a
social-style graph large enough for the CSR backend's array kernels to show
their real speedup (the scaled-down dataset stand-ins above are too small to
amortise numpy call overhead); run them with ``REPRO_BACKEND=dict`` /
``REPRO_BACKEND=csr`` to compare backends, or see
``bench_backend_comparison.py`` for the parametrised side-by-side timings.
"""

from __future__ import annotations

import random

import pytest

from repro.centrality.brandes import single_source_dependencies
from repro.graphs import csr as csr_module
from repro.graphs.bidirectional import bidirectional_shortest_paths, stacked_paths
from repro.graphs.biconnected import biconnected_components
from repro.graphs.block_cut_tree import build_block_cut_tree
from repro.graphs.generators import barabasi_albert_graph
from repro.graphs.traversal import bfs_distances
from repro.saphyra_bc.exact_bc import exact_two_hop_risks
from repro.saphyra_bc.gen_bc import GenBC
from repro.saphyra_bc.isp import PersonalizedISP


@pytest.fixture(scope="module")
def social_graph(runner):
    return runner.dataset("livejournal").graph


@pytest.fixture(scope="module")
def road_graph(runner):
    return runner.dataset("usa-road").graph


def test_bench_biconnected_components(benchmark, social_graph):
    decomposition = benchmark(biconnected_components, social_graph)
    assert decomposition.components


def test_bench_block_cut_tree(benchmark, social_graph):
    # A fresh copy per round: the tree of an unchanged graph is built once
    # and then read from the graph's memo.
    tree = benchmark.pedantic(
        build_block_cut_tree,
        setup=lambda: ((social_graph.copy(),), {}),
        rounds=5,
    )
    assert tree.gamma > 0


def test_bench_bidirectional_bfs_social(benchmark, social_graph):
    nodes = list(social_graph.nodes())
    rng = random.Random(3)
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(64)]
    state = {"index": 0}

    def one_query():
        source, target = pairs[state["index"] % len(pairs)]
        state["index"] += 1
        return bidirectional_shortest_paths(social_graph, source, target)

    result = benchmark(one_query)
    assert result.distance is None or result.distance >= 1


def test_bench_bidirectional_bfs_road(benchmark, road_graph):
    nodes = list(road_graph.nodes())
    rng = random.Random(3)
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(64)]
    state = {"index": 0}

    def one_query():
        source, target = pairs[state["index"] % len(pairs)]
        state["index"] += 1
        return bidirectional_shortest_paths(road_graph, source, target)

    result = benchmark(one_query)
    assert result.distance is None or result.distance >= 1


def test_bench_gen_bc_sample(benchmark, runner, social_graph):
    targets = runner.subsets("livejournal", 40, 1)[0]
    space = PersonalizedISP(
        social_graph, targets, block_cut_tree=runner.block_cut_tree("livejournal")
    )
    generator = GenBC(space, targets)
    rng = random.Random(9)
    path = benchmark(lambda: generator.sample_path(rng))
    assert len(path) >= 2


def _largest_block_pairs(runner, name, count):
    """The largest block of dataset ``name`` and ``count`` ISP pairs drawn
    inside it."""
    graph = runner.dataset(name).graph
    space = PersonalizedISP(graph, None, block_cut_tree=runner.block_cut_tree(name))
    tree = space.bct
    largest = max(range(tree.num_blocks), key=lambda i: len(tree.block_nodes(i)))
    rng = random.Random(5)
    pairs = []
    while len(pairs) < count:
        block_index, source, target = space.sample_pair(rng)
        if block_index == largest:
            pairs.append((source, target))
    return tree.block_subgraph(largest), pairs


@pytest.mark.parametrize("name", ["usa-road", "flickr"])
def test_bench_stacked_paths(benchmark, runner, name):
    block, pairs = _largest_block_pairs(runner, name, 64)
    # The sampler's own spare: every round after the first runs on the
    # arrays the previous one parked.
    spare = csr_module.SweepSpare()
    rng = random.Random(9)
    sampled = benchmark(stacked_paths, block, pairs, rng, spare)
    assert [path[0] for _, path in sampled] == [source for source, _ in pairs]
    assert spare.arrays is not None


def test_bench_gen_bc_chunk(benchmark, runner, road_graph):
    targets = runner.subsets("usa-road", 40, 1)[0]
    space = PersonalizedISP(
        road_graph, targets, block_cut_tree=runner.block_cut_tree("usa-road")
    )
    # At the benchmarks' default scale the road blocks sit below the
    # ``auto`` cutoff; pinning csr times the stacked kernel that larger
    # road graphs run.
    generator = GenBC(space, targets, backend="csr")
    rng = random.Random(9)
    paths = benchmark(generator.sample_path, rng, 64)
    assert len(paths) == 64


def test_bench_exact_bc(benchmark, runner, social_graph):
    targets = runner.subsets("livejournal", 40, 1)[0]
    space = PersonalizedISP(
        social_graph, targets, block_cut_tree=runner.block_cut_tree("livejournal")
    )
    evaluation = benchmark(exact_two_hop_risks, space, targets)
    assert 0.0 <= evaluation.lambda_exact <= 1.0


def test_bench_brandes_single_source(benchmark, social_graph):
    source = next(iter(social_graph.nodes()))
    dependencies = benchmark(single_source_dependencies, social_graph, source)
    assert dependencies


@pytest.fixture(scope="module")
def kernel_scale_graph():
    graph = barabasi_albert_graph(20000, 5, seed=7)
    # Prime the CSR snapshot so the kernels, not the one-off snapshot
    # construction, are what gets timed.
    csr_module.as_csr(graph).adjacency_lists()
    return graph


def test_bench_bfs_kernel_scale(benchmark, kernel_scale_graph):
    sources = list(kernel_scale_graph.nodes())[:8]
    state = {"index": 0}

    def one_bfs():
        source = sources[state["index"] % len(sources)]
        state["index"] += 1
        return bfs_distances(kernel_scale_graph, source)

    distances = benchmark(one_bfs)
    assert len(distances) == kernel_scale_graph.number_of_nodes()


def test_bench_brandes_kernel_scale(benchmark, kernel_scale_graph):
    source = next(iter(kernel_scale_graph.nodes()))
    dependencies = benchmark(
        single_source_dependencies, kernel_scale_graph, source
    )
    assert dependencies
