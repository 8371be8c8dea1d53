"""Shared fixtures: small graphs with known structure."""

from __future__ import annotations

import pytest

from repro.datasets.synthetic import karate_club_graph
from repro.graphs import csr
from repro.graphs.generators import (
    barabasi_albert_graph,
    barbell_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from repro.graphs.graph import Graph


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: runs a whole example script end to end"
    )
    config.addinivalue_line(
        "markers",
        "requires_numpy: builds CSR snapshots, so it is skipped without numpy",
    )


def pytest_collection_modifyitems(config, items):
    """Skip ``requires_numpy`` tests when numpy is not importable: the CSR
    backend and the snapshot store raise without it."""
    if csr.HAS_NUMPY:
        return
    skip = pytest.mark.skip(
        reason="needs numpy: the CSR backend and the snapshot store require it"
    )
    for item in items:
        if item.get_closest_marker("requires_numpy") is not None:
            item.add_marker(skip)


@pytest.fixture
def triangle() -> Graph:
    """K3: one block, no cutpoints, every betweenness is 0."""
    return complete_graph(3)


@pytest.fixture
def path5() -> Graph:
    """Path 0-1-2-3-4: every edge is a bridge, nodes 1-3 are cutpoints."""
    return path_graph(5)


@pytest.fixture
def cycle6() -> Graph:
    """C6: a single biconnected block."""
    return cycle_graph(6)


@pytest.fixture
def star6() -> Graph:
    """Star with centre 0 and 6 leaves: centre has the only non-zero bc."""
    return star_graph(6)


@pytest.fixture
def barbell() -> Graph:
    """Two K5 cliques joined by a 3-node path: rich block structure."""
    return barbell_graph(5, 3)


@pytest.fixture
def karate() -> Graph:
    """Zachary's karate club (34 nodes, 78 edges)."""
    return karate_club_graph()


@pytest.fixture
def two_triangles_shared_node() -> Graph:
    """Two triangles sharing node 0: 0 is the unique cutpoint."""
    return Graph.from_edges([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])


@pytest.fixture
def social_with_leaves() -> Graph:
    """BA(120, 3) with a pendant leaf on every fifth node and a two-edge
    pendant path on node 1: those hubs become cutpoints, so the graph has
    cut–cut edges (inside the core, and hub–path) and cut–leaf bridges."""
    graph = barabasi_albert_graph(120, 3, seed=5)
    for node in range(0, 120, 5):
        graph.add_edge(node, 1000 + node)
    graph.add_edge(1, 2000)
    graph.add_edge(2000, 2001)
    return graph
