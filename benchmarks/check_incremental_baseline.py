"""Regression gate for incremental snapshot patching: measure and check speedups.

Times one mutate-then-resnapshot loop twice — ``as_csr`` patching the
stale snapshot from the mutation journal, and the same loop calling
``CSRGraph.from_graph``, the full rebuild — asserts that the patched
snapshot is byte-identical to the rebuild, and compares the speedup ratios
against the floors committed in ``BENCH_incremental.json`` at the repo
root.

* ``csr_patch`` — reweight one edge, re-snapshot: ``as_csr`` patches the
  frozen arrays in O(|Δ| + copy) instead of re-walking the adjacency.

Speedup *ratios* (rebuild time / patch time, both measured on the same
machine in the same process) are robust to absolute machine speed, so the
committed baseline transfers across CI runners.  The floors sit well below
the locally measured ratios to absorb scheduler noise; a regression that
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

#: The edited chord toggles between these weights.
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


def _time_resnapshot(topology: str, snapshot) -> float:
    """Best-of-repeats time of ``_EDITS`` edit-then-``snapshot(graph)``
    steps; ``as_csr`` also arms the journal when it takes the first one."""
    from repro.graphs import csr as csr_module

    graph, chord = _build_graph(topology)
    snapshot(graph)
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        for step in range(_EDITS):
            _toggle(graph, chord, step)
            snapshot(graph)
        best = min(best, time.perf_counter() - start)
    # The final snapshot must be byte-identical to a from-scratch build.
    final = snapshot(graph)
    fresh = csr_module.CSRGraph.from_graph(graph)
    assert final.indptr.tobytes() == fresh.indptr.tobytes()
    assert final.indices.tobytes() == fresh.indices.tobytes()
    assert final.weights.tobytes() == fresh.weights.tobytes()
    return best


def measure():
    """Return {(topology, scenario): speedup} with correctness asserted."""
    from repro.graphs import csr as csr_module

    results = {}
    for topology in ("road", "social"):
        rebuild = _time_resnapshot(topology, csr_module.CSRGraph.from_graph)
        patch = _time_resnapshot(topology, csr_module.as_csr)
        results[(topology, "csr_patch")] = rebuild / patch
    return results


def main(argv=None) -> int:
    return run_gate(
        measure, BASELINE_PATH, description=__doc__.splitlines()[0],
        comparison="patch vs rebuild", quantity="speedup", argv=argv,
    )


if __name__ == "__main__":
    raise SystemExit(main())
