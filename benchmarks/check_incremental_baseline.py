"""Regression gate for delta-aware invalidation: measure and check speedups.

Measures two mutate-then-requery workloads with ``dag_cache_delta=on``
(journal-validated retention + incremental CSR patching) vs ``off`` (the
historical wholesale eviction), asserts bit-identical results, and compares
the speedup ratios against the floors committed in
``BENCH_incremental.json`` at the repo root.

* ``csr_patch`` — reweight one edge, re-snapshot: ``as_csr`` patches the
  frozen arrays in O(|Δ| + copy) instead of re-walking the adjacency.
* ``dag_requery`` — reweight an inert chord (on no shortest path), then
  re-query 32 cached weighted distance rows: the journal validity test
  retains every row, so the round costs O(K·|Δ|) comparisons instead of
  K Dijkstra traversals.

Speedup *ratios* (off time / on time, both measured on the same machine in
the same process) are robust to absolute machine speed, so the committed
baseline transfers across CI runners.  The floors sit well below the
locally measured ratios to absorb scheduler noise; a regression that
erases the incremental advantage still trips them loudly.

Usage::

    python benchmarks/check_incremental_baseline.py           # check (CI gate)
    python benchmarks/check_incremental_baseline.py --update  # refresh measurements

``--update`` rewrites the ``measured_speedup`` fields (keeping the
``min_speedup`` floors) so the committed file documents real numbers; the
floor check itself is :func:`baseline_gate.run_gate`.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

from baseline_gate import run_gate

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_incremental.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

_SCALE = float(os.environ.get("REPRO_BENCH_INCREMENTAL_SCALE", "1.0"))
_REPEATS = int(os.environ.get("REPRO_BENCH_INCREMENTAL_REPEATS", "3"))
_EDITS = max(4, int(40 * _SCALE))
_SOURCES = 32

#: The inert chord toggles between these weights; both are far heavier than
#: any shortest path, so the journal proves every cached row unaffected.
_HEAVY = (1.0e6, 2.0e6)


def _build_graph(topology: str):
    from repro.graphs.generators import (
        weighted_barabasi_albert_graph,
        weighted_grid_road_graph,
    )

    if topology == "road":
        side = max(20, int(60 * _SCALE))
        graph = weighted_grid_road_graph(side, side, seed=7)[0]
    else:
        n = max(200, int(4000 * _SCALE))
        graph = weighted_barabasi_albert_graph(n, 4, seed=7)
    nodes = list(graph.nodes())
    chord = (nodes[0], nodes[-1])
    if not graph.has_edge(*chord):
        graph.add_edge(*chord, weight=_HEAVY[0])
    else:  # extremely unlikely, but keep the workload well-defined
        graph.set_edge_weight(*chord, _HEAVY[0])
    return graph, chord


def _toggle(graph, chord, step: int) -> None:
    graph.set_edge_weight(*chord, _HEAVY[(step + 1) % 2])


def _time_csr_patch(topology: str, mode: str) -> float:
    """Edit-then-resnapshot: incremental patch vs full rebuild."""
    from repro.graphs import csr as csr_module
    from repro.graphs import delta as delta_module

    delta_module.set_default_dag_cache_delta(mode)
    try:
        graph, chord = _build_graph(topology)
        csr_module.as_csr(graph)  # warm the snapshot, arm the journal
        best = float("inf")
        for _ in range(_REPEATS):
            start = time.perf_counter()
            for step in range(_EDITS):
                _toggle(graph, chord, step)
                csr_module.as_csr(graph)
            best = min(best, time.perf_counter() - start)
        # The final snapshot must be byte-identical to a from-scratch build.
        patched = csr_module.as_csr(graph)
        fresh = csr_module.CSRGraph.from_graph(graph)
        assert patched.indptr.tobytes() == fresh.indptr.tobytes()
        assert patched.indices.tobytes() == fresh.indices.tobytes()
        assert patched.weights.tobytes() == fresh.weights.tobytes()
        return best
    finally:
        delta_module.set_default_dag_cache_delta(None)


def _time_dag_requery(topology: str, mode: str) -> float:
    """Edit-then-requery K cached weighted rows: retention vs recompute."""
    from repro.engine.dag_cache import SourceDAGCache
    from repro.graphs import csr as csr_module
    from repro.graphs import delta as delta_module

    delta_module.set_default_dag_cache_delta(mode)
    try:
        graph, chord = _build_graph(topology)
        snapshot = csr_module.as_csr(graph)
        step_size = max(1, snapshot.n // _SOURCES)
        sources = [
            snapshot.labels[i]
            for i in range(0, snapshot.n, step_size)
        ][:_SOURCES]
        cache = SourceDAGCache(max_entries=4 * _SOURCES)
        for source in sources:
            cache.distances(graph, source, weighted=True)
        best = float("inf")
        for _ in range(_REPEATS):
            start = time.perf_counter()
            for step in range(_EDITS):
                _toggle(graph, chord, step)
                for source in sources:
                    cache.distances(graph, source, weighted=True)
            best = min(best, time.perf_counter() - start)
        # Retained rows must equal a from-scratch computation.
        row = cache.distances(graph, sources[0], weighted=True)
        fresh = SourceDAGCache.compute_distances(
            graph, sources[0], weighted=True
        )
        assert list(row) == list(fresh)
        if mode == "on":
            assert cache.stats()["delta_retained"] > 0
        return best
    finally:
        delta_module.set_default_dag_cache_delta(None)


def measure():
    """Return {(topology, scenario): speedup} with correctness asserted."""
    timers = {"csr_patch": _time_csr_patch, "dag_requery": _time_dag_requery}
    results = {}
    for topology in ("road", "social"):
        for scenario, timer in timers.items():
            off = timer(topology, "off")
            on = timer(topology, "on")
            results[(topology, scenario)] = off / on
    return results


def main(argv=None) -> int:
    return run_gate(
        measure, BASELINE_PATH, description=__doc__.splitlines()[0],
        comparison="delta-on vs off", quantity="speedup", argv=argv,
    )


if __name__ == "__main__":
    raise SystemExit(main())
