"""Shared-memory worker-pool benchmarks: zero-copy CSR handoff and
in-worker partial folds.

Three executor contracts are compared on the exact-Brandes source sweep —
the workload whose IPC the PR's fold change targets:

* ``legacy-rows`` — the pre-fold contract: every chunk ships its per-source
  dependency vectors (O(chunk x n) floats) back to the master, which folds
  them there; the graph reaches workers as a pickle payload.
* ``partial-pickle`` — the current contract: each chunk folds its sources
  in-worker and ships ONE reduced vector (O(n) floats); graph still pickled.
* ``partial-shared`` — the current contract plus the zero-copy handoff: the
  frozen CSR arrays are exported to ``multiprocessing.shared_memory`` once
  per pool and workers attach views instead of unpickling the adjacency.

Closeness sweeps (whose per-source results are already two integers) are
benchmarked across the payload modes only.

The module forces the ``spawn`` start method: under ``fork`` workers inherit
the parent's memory and neither payload mode copies anything, so the modes
would be indistinguishable by construction.  Every benchmark also records
the *structural* costs as ``extra_info`` — pickled payload bytes and result
bytes per chunk — because on laptop-scale graphs (and especially on
single-CPU CI runners) interpreter startup dominates wall-clock while the
shipped-bytes ratios are what actually scale with ``n``: the per-chunk
result stream shrinks by the chunk size (32x) and the payload pickle by
~1000x.  All three contracts produce bit-identical totals (asserted below);
equal results at lower IPC is the point.

Run with::

    pytest benchmarks/bench_shared_memory.py --benchmark-only \
        --benchmark-group-by=func,param:topology \
        --benchmark-json=bench-shared-memory.json

``REPRO_BENCH_SHM_SCALE`` (default 1.0) scales graph and pivot sizes down
for smoke runs (CI uses 0.2).
"""

from __future__ import annotations

import math
import os
import pickle

import pytest

from repro import parallel
from repro.centrality.brandes import _dependency_chunk
from repro.centrality.closeness import closeness_centrality
from repro.graphs import csr as csr_module
from repro.graphs.generators import barabasi_albert_graph, grid_road_graph

_SCALE = float(os.environ.get("REPRO_BENCH_SHM_SCALE", "1.0"))

TOPOLOGIES = ("road", "social")
MODES = ("legacy-rows", "partial-pickle", "partial-shared")
PAYLOADS = ("pickle", "shared")
WORKER_COUNTS = (0, 2, 4)


def _scaled(value: int, floor: int = 4) -> int:
    return max(floor, int(value * _SCALE))


def _make_graph(topology: str):
    if topology == "road":
        side = _scaled(120, floor=24)
        return grid_road_graph(side, side, seed=7)[0]
    return barabasi_albert_graph(_scaled(20000, floor=500), 5, seed=7)


def _spread_nodes(graph, count: int):
    nodes = list(graph.nodes())
    step = max(1, len(nodes) // count)
    return nodes[::step][:count]


def _legacy_rows_chunk(payload, chunk):
    """The pre-fold worker task: per-source vectors shipped to the master."""
    graph, backend, use_weights = payload
    graph = parallel.resolve_payload_graph(graph)
    snapshot = csr_module.as_csr(graph)
    indices = [snapshot.index_of(source) for source in chunk]
    rows = csr_module.multi_source_sweep(
        snapshot, indices, kind=csr_module.SWEEP_BRANDES
    )
    for index, row in zip(indices, rows):
        row[index] = 0.0
    return rows


@pytest.fixture(scope="module", autouse=True)
def _spawn_start_method():
    # The override mirrors into REPRO_START_METHOD (displacing any prior
    # value) and None restores it — no hand-rolled save/restore needed.
    parallel.set_default_start_method("spawn")
    yield
    parallel.set_default_start_method(None)


@pytest.fixture(autouse=True)
def _shared_memory_reset():
    yield
    parallel.set_shared_memory_enabled(None)


@pytest.fixture(scope="module")
def graphs():
    built = {name: _make_graph(name) for name in TOPOLOGIES}
    for graph in built.values():
        csr_module.as_csr(graph).adjacency_lists()
    return built


def _brandes_payload(graph, mode: str):
    parallel.set_shared_memory_enabled(mode == "partial-shared")
    return (parallel.shareable_graph(graph, "csr"), "csr", False)


def _run_brandes_sweep(task, payload, chunks, workers: int, n: int):
    """One exact-Brandes pivot sweep through the executor; returns totals."""
    import numpy as np

    totals = np.zeros(n, dtype=np.float64)
    with parallel.WorkerPool(task, payload=payload, workers=workers) as pool:
        for part in pool.imap(chunks):
            if isinstance(part, list):  # legacy: one vector per source
                for row in part:
                    np.add(totals, row, out=totals)
            else:
                np.add(totals, part, out=totals)
    return totals


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_bench_exact_brandes(benchmark, graphs, topology, mode, workers):
    graph = graphs[topology]
    snapshot = csr_module.as_csr(graph)
    pivots = _spread_nodes(
        graph,
        _scaled(
            256 if topology == "road" else 64,
            floor=2 * parallel.SOURCE_CHUNK_SIZE,
        ),
    )
    chunks = parallel.chunked(pivots, parallel.SOURCE_CHUNK_SIZE)
    task = _legacy_rows_chunk if mode == "legacy-rows" else _dependency_chunk

    def run():
        payload = _brandes_payload(graph, mode)
        return _run_brandes_sweep(task, payload, chunks, workers, snapshot.n)

    totals = benchmark(run)

    # The partial-fold contracts are bit-identical to the serial path; the
    # legacy mode reproduces the *old* accumulation order, which agrees to
    # float rounding (its reassociation is exactly what the fold change
    # re-fixed as a pure function of the chunk layout).
    reference = _run_brandes_sweep(
        _dependency_chunk, (graph, "csr", False), chunks, 0, snapshot.n
    )
    if mode == "legacy-rows":
        import numpy as np

        assert np.allclose(totals, reference, rtol=1e-12, atol=0.0)
    else:
        assert list(totals) == list(reference)
    payload = _brandes_payload(graph, mode)
    sample = task(payload, chunks[0])
    result_blob = pickle.dumps(sample)
    benchmark.extra_info["payload_bytes"] = len(pickle.dumps(payload))
    benchmark.extra_info["result_bytes_per_chunk"] = len(result_blob)
    benchmark.extra_info["num_chunks"] = len(chunks)
    benchmark.extra_info["n"] = snapshot.n
    if isinstance(payload[0], parallel.SharedCSRPayload):
        payload[0].release()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("payload_mode", PAYLOADS)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_bench_closeness(benchmark, graphs, topology, payload_mode, workers):
    graph = graphs[topology]
    selected = _spread_nodes(graph, _scaled(512 if topology == "road" else 128))

    def run():
        parallel.set_shared_memory_enabled(payload_mode == "shared")
        return closeness_centrality(
            graph, selected, backend="csr", workers=workers
        )

    result = benchmark(run)

    parallel.set_shared_memory_enabled(None)
    reference = closeness_centrality(graph, selected, backend="csr", workers=0)
    assert result == reference
    wrapped = parallel.shareable_graph(graph, "csr") if payload_mode == "shared" else graph
    benchmark.extra_info["payload_bytes"] = len(pickle.dumps((wrapped, "csr")))
    benchmark.extra_info["num_sources"] = len(selected)
    if isinstance(wrapped, parallel.SharedCSRPayload):
        wrapped.release()


def test_bench_summary_capacity():
    """Sanity guard: the scaled workloads stay non-trivial.

    Even at the CI smoke scale the road sweep must span multiple executor
    chunks, otherwise the chunk-partial fold contract is not exercised.
    """
    side = _scaled(120, floor=24)
    assert side * side >= 2 * parallel.SOURCE_CHUNK_SIZE
    pivots = _scaled(256, floor=2 * parallel.SOURCE_CHUNK_SIZE)
    assert math.ceil(pivots / parallel.SOURCE_CHUNK_SIZE) >= 2
    assert side * side >= pivots
