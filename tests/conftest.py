"""Shared fixtures: small graphs with known structure, and the parsed
source tree the syntax-tree tests walk."""

from __future__ import annotations

import ast
from pathlib import Path

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
    backend raises without it."""
    if csr.HAS_NUMPY:
        return
    skip = pytest.mark.skip(
        reason="needs numpy: the CSR backend requires it"
    )
    for item in items:
        if item.get_closest_marker("requires_numpy") is not None:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def source_trees():
    """``{repo-relative path: parsed module}`` for every ``.py`` file under
    ``src/``, ``tests/`` and ``benchmarks/``, parsed once per session.

    Paths use ``/`` (``"src/repro/graphs/csr.py"``) and come in sorted
    order.  The trees are shared: a test must not change them.
    """
    root = Path(__file__).resolve().parents[1]
    return {
        path.relative_to(root).as_posix(): ast.parse(
            path.read_text(encoding="utf-8"), filename=str(path)
        )
        for tree in ("src", "tests", "benchmarks")
        for path in sorted((root / tree).rglob("*.py"))
    }


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


@pytest.fixture
def one_entry_dag_cache(monkeypatch):
    """Install a one-entry ``SourceDAGCache`` as the process default.

    Call the fixture's value to install a fresh one and get it back; it
    evicts on nearly every draw, so a run under it recomputes almost every
    traversal.  Teardown restores the default cache the test started with.
    """
    from repro.engine import dag_cache

    def install():
        cache = dag_cache.SourceDAGCache(max_entries=1)
        monkeypatch.setattr(dag_cache, "_default_cache", cache)
        return cache

    return install
