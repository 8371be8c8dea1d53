"""Incremental-update benchmark: re-snapshot after an edit, patched or rebuilt.

One workload on a weighted road grid and a weighted BA social graph (scaled
by ``REPRO_BENCH_INCREMENTAL_SCALE``): reweight one edge, then take the
CSR snapshot again, either through ``as_csr`` (an O(|Δ| + copy) array
patch from the mutation journal) or through ``CSRGraph.from_graph`` (a
full adjacency re-walk).  Patched snapshots are byte-identical to a
from-scratch build (asserted here and in ``tests/test_delta.py``).

``benchmarks/check_incremental_baseline.py`` measures the same workload
head-to-head and gates CI on the speedup floors committed in
``BENCH_incremental.json``.

Run with::

    pytest benchmarks/bench_incremental.py --benchmark-only -q
"""

from __future__ import annotations

import os

import pytest

from repro.graphs import csr as csr_module
from repro.graphs.generators import (
    weighted_barabasi_albert_graph,
    weighted_grid_road_graph,
)

TOPOLOGIES = ("social", "road")

#: How each leg takes the snapshot after an edit.
SNAPSHOTS = {
    "patch": csr_module.as_csr,
    "rebuild": csr_module.CSRGraph.from_graph,
}

_SCALE = float(os.environ.get("REPRO_BENCH_INCREMENTAL_SCALE", "1.0"))
_HEAVY = (1.0e6, 2.0e6)


def _make_graph(topology: str):
    if topology == "social":
        n = max(200, int(4000 * _SCALE))
        graph = weighted_barabasi_albert_graph(n, 4, seed=7)
    else:
        side = max(20, int(60 * _SCALE))
        graph = weighted_grid_road_graph(side, side, seed=7)[0]
    nodes = list(graph.nodes())
    chord = (nodes[0], nodes[-1])
    if not graph.has_edge(*chord):
        graph.add_edge(*chord, weight=_HEAVY[0])
    else:
        graph.set_edge_weight(*chord, _HEAVY[0])
    return graph, chord


@pytest.mark.parametrize("leg", sorted(SNAPSHOTS))
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_bench_snapshot_refresh(benchmark, topology, leg):
    """Reweight one edge, re-snapshot: incremental patch vs full rebuild."""
    snapshot = SNAPSHOTS[leg]
    graph, chord = _make_graph(topology)
    snapshot(graph)  # as_csr also arms the journal here
    state = {"step": 0}

    def edit_and_resnapshot():
        state["step"] += 1
        graph.set_edge_weight(*chord, _HEAVY[state["step"] % 2])
        return snapshot(graph)

    result = benchmark(edit_and_resnapshot)
    fresh = csr_module.CSRGraph.from_graph(graph)
    assert result.indptr.tobytes() == fresh.indptr.tobytes()
    assert result.indices.tobytes() == fresh.indices.tobytes()
    assert result.weights.tobytes() == fresh.weights.tobytes()
