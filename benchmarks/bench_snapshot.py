"""Snapshot-store benchmarks: cold start and worker-payload size.

Three workloads on the Flickr-surrogate (social) and USA-road-surrogate
(road) registry datasets, scaled by ``REPRO_BENCH_SNAPSHOT_SCALE``:

* **Cold load** — :func:`load_snapshot` with memory-mapping: the O(header +
  labels) attach that replaces a generator run + ``CSRGraph.from_graph``
  freeze at process start.  Loaded arrays are asserted byte-identical to a
  from-scratch build.
* **Rebuild baseline** — the historical cold start (generator +
  ``from_graph``), benchmarked for side-by-side comparison.
* **Payload pickle** — ``pickle.dumps`` of a file-backed snapshot, which
  pickles as its path plus a header: a few hundred bytes, independent of
  graph size.

``benchmarks/check_snapshot_baseline.py`` measures the same workloads
head-to-head and gates CI on the ratio floors committed in
``BENCH_snapshot.json``.

Run with::

    pytest benchmarks/bench_snapshot.py --benchmark-only -q
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.datasets import load
from repro.graphs.csr import CSRGraph
from repro.graphs.store import load_snapshot, save_snapshot

TOPOLOGIES = ("social", "road")
_DATASETS = {"social": "flickr", "road": "usa-road"}
_SCALE = float(os.environ.get("REPRO_BENCH_SNAPSHOT_SCALE", "1.0"))


def _build_csr(topology: str) -> CSRGraph:
    dataset = load(_DATASETS[topology], scale=_SCALE, seed=7)
    return CSRGraph.from_graph(dataset.graph)


@pytest.fixture(params=TOPOLOGIES)
def snapshot_path(request, tmp_path):
    path = tmp_path / f"{request.param}.csr"
    save_snapshot(_build_csr(request.param), path)
    return request.param, path


def test_bench_cold_load(benchmark, snapshot_path):
    """Memory-mapped snapshot attach: the out-of-core cold start."""
    topology, path = snapshot_path
    loaded = benchmark(load_snapshot, path)
    fresh = _build_csr(topology)
    assert loaded.indptr.tobytes() == fresh.indptr.tobytes()
    assert loaded.indices.tobytes() == fresh.indices.tobytes()
    assert loaded.labels == fresh.labels


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_bench_rebuild_baseline(benchmark, topology):
    """Generator + from_graph: the historical cold start, for comparison."""
    csr = benchmark(_build_csr, topology)
    assert csr.n > 0


def test_bench_payload_pickle(benchmark, snapshot_path):
    """Pickling a file-backed snapshot (path + header)."""
    _topology, path = snapshot_path
    csr = load_snapshot(path)
    blob = benchmark(pickle.dumps, csr)
    assert len(blob) < 512
