"""Unit tests for the worker-pool executor (:mod:`repro.parallel`).

The determinism contract — worker counts never change results — is asserted
end-to-end in ``test_backend_equivalence.py``; this module covers the
executor primitives themselves: worker-count resolution, chunk planning,
per-chunk RNG streams, ordered (i)map over in-process and process-pool
execution, pool-lifecycle semantics (clean close vs exception terminate),
and CSR snapshot payloads on ``spawn`` pools.
"""

from __future__ import annotations

import os

import pytest

from repro import parallel
from repro.graphs.graph import Graph


def _square_chunk(payload, chunk):
    offset = payload or 0
    return [offset + value * value for value in chunk]


def _piece_echo(payload, piece):
    chunk_index, draws = piece
    rng = parallel.chunk_rng(payload, chunk_index)
    return [rng.randrange(1000) for _ in range(draws)]


def _snapshot_degree_chunk(payload, chunk):
    """Chunk task on a CSR snapshot payload (or a graph it snapshots)."""
    from repro.graphs import csr as csr_module

    snapshot = csr_module.as_csr(payload[0])
    return [snapshot.degree(snapshot.index_of(node)) for node in chunk]


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(parallel.WORKERS_ENV_VAR, raising=False)
        parallel.set_default_workers(None)
        assert parallel.resolve_workers() == 0
        assert parallel.resolve_workers(3) == 3

    def test_env_variable(self, monkeypatch):
        parallel.set_default_workers(None)
        monkeypatch.setenv(parallel.WORKERS_ENV_VAR, "4")
        assert parallel.resolve_workers() == 4
        assert parallel.resolve_workers(2) == 2  # explicit argument wins

    def test_env_variable_invalid(self, monkeypatch):
        parallel.set_default_workers(None)
        monkeypatch.setenv(parallel.WORKERS_ENV_VAR, "many")
        with pytest.raises(ValueError, match=parallel.WORKERS_ENV_VAR):
            parallel.resolve_workers()

    def test_set_default_overrides_env(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV_VAR, "4")
        parallel.set_default_workers(0)
        try:
            assert parallel.resolve_workers() == 0
        finally:
            parallel.set_default_workers(None)

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            parallel.resolve_workers(-1)
        with pytest.raises(TypeError):
            parallel.resolve_workers(2.5)
        with pytest.raises(TypeError):
            parallel.resolve_workers(True)

    def test_start_method_invalid(self, monkeypatch):
        monkeypatch.setenv(parallel.START_METHOD_ENV_VAR, "teleport")
        with pytest.raises(ValueError, match=parallel.START_METHOD_ENV_VAR):
            parallel.start_method()


class TestChunking:
    def test_chunked_splits_and_preserves_order(self):
        assert parallel.chunked(list(range(7)), 3) == [[0, 1, 2], [3, 4, 5], [6]]
        assert parallel.chunked([], 3) == []

    def test_chunked_rejects_bad_size(self):
        with pytest.raises(ValueError):
            parallel.chunked([1], 0)

    def test_plan_chunks_layout(self):
        assert parallel.plan_chunks(10, 4) == [(0, 4), (1, 4), (2, 2)]
        assert parallel.plan_chunks(4, 4, start_chunk=5) == [(5, 4)]
        assert parallel.plan_chunks(0, 4) == []

    def test_plan_chunks_is_schedule_only(self):
        # Two rounds of an adaptive schedule tile the same global stream as
        # one big draw with the same chunk size.
        first = parallel.plan_chunks(8, 4)
        second = parallel.plan_chunks(8, 4, start_chunk=len(first))
        assert first + second == parallel.plan_chunks(16, 4)


class TestChunkRNG:
    def test_streams_are_deterministic_and_independent(self):
        a1 = parallel.chunk_rng(7, 0).random()
        a2 = parallel.chunk_rng(7, 0).random()
        b = parallel.chunk_rng(7, 1).random()
        c = parallel.chunk_rng(8, 0).random()
        assert a1 == a2
        assert a1 != b
        assert a1 != c

    def test_base_seed_derivation_consumes_parent(self):
        import random

        parent = random.Random(3)
        first = parallel.derive_base_seed(parent)
        second = parallel.derive_base_seed(parent)
        assert first != second
        assert parallel.derive_base_seed(random.Random(3)) == first


class TestWorkerPool:
    CHUNKS = [[1, 2], [3], [4, 5, 6], []]
    EXPECTED = [[1, 4], [9], [16, 25, 36], []]

    @pytest.mark.parametrize("workers", [0, 1, 2])
    def test_map_results_in_chunk_order(self, workers):
        with parallel.WorkerPool(
            _square_chunk, payload=0, workers=workers
        ) as pool:
            assert pool.map(self.CHUNKS) == self.EXPECTED

    @pytest.mark.parametrize("workers", [0, 2])
    def test_imap_streams_in_chunk_order(self, workers):
        with parallel.WorkerPool(
            _square_chunk, payload=0, workers=workers
        ) as pool:
            assert list(pool.imap(self.CHUNKS)) == self.EXPECTED

    def test_payload_is_shared(self):
        with parallel.WorkerPool(_square_chunk, payload=100, workers=2) as pool:
            assert pool.map([[1], [2]]) == [[101], [104]]

    def test_pool_reuse_across_map_calls(self):
        with parallel.WorkerPool(_square_chunk, payload=0, workers=2) as pool:
            assert pool.map([[1], [2]]) == [[1], [4]]
            assert pool.map([[3], [4]]) == [[9], [16]]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_chunk_rng_streams_match_across_worker_counts(self, workers):
        pieces = parallel.plan_chunks(10, 4)
        with parallel.WorkerPool(
            _piece_echo, payload=123, workers=workers
        ) as pool:
            draws = [value for part in pool.map(pieces) for value in part]
        expected = [
            value
            for chunk_index, count in pieces
            for value in _piece_echo(123, (chunk_index, count))
        ]
        assert draws == expected

    def test_close_is_idempotent(self):
        pool = parallel.WorkerPool(_square_chunk, workers=0)
        pool.map([[1]])
        pool.close()
        pool.close()


class TestSetDefaultWorkersMirroring:
    """`set_default_workers` mirrors into REPRO_WORKERS (spawn workers must
    resolve the same default as the parent) with displaced-value restore."""

    @pytest.fixture(autouse=True)
    def _reset(self):
        yield
        parallel.set_default_workers(None)

    def test_override_mirrors_into_environment(self, monkeypatch):
        monkeypatch.delenv(parallel.WORKERS_ENV_VAR, raising=False)
        parallel.set_default_workers(3)
        assert os.environ[parallel.WORKERS_ENV_VAR] == "3"
        parallel.set_default_workers(None)
        assert parallel.WORKERS_ENV_VAR not in os.environ

    def test_clearing_restores_displaced_value(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV_VAR, "7")
        parallel.set_default_workers(0)
        assert os.environ[parallel.WORKERS_ENV_VAR] == "0"
        parallel.set_default_workers(2)  # only the FIRST override displaces
        assert os.environ[parallel.WORKERS_ENV_VAR] == "2"
        parallel.set_default_workers(None)
        assert os.environ[parallel.WORKERS_ENV_VAR] == "7"
        assert parallel.default_workers() == 7

    def test_zero_override_mirrors_serial(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV_VAR, "5")
        parallel.set_default_workers(0)
        # A helper process re-reading the environment agrees with the parent.
        assert os.environ[parallel.WORKERS_ENV_VAR] == "0"
        assert parallel.resolve_workers() == 0


class TestStartMethodKnob:
    """`set_default_start_method` follows the full knob protocol."""

    @pytest.fixture(autouse=True)
    def _reset(self):
        yield
        parallel.set_default_start_method(None)

    def test_override_mirrors_and_restores(self, monkeypatch):
        monkeypatch.setenv(parallel.START_METHOD_ENV_VAR, "fork")
        parallel.set_default_start_method("spawn")
        assert os.environ[parallel.START_METHOD_ENV_VAR] == "spawn"
        assert parallel.start_method() == "spawn"
        parallel.set_default_start_method(None)
        assert os.environ[parallel.START_METHOD_ENV_VAR] == "fork"
        assert parallel.start_method() == "fork"

    def test_env_resolution_and_platform_default(self, monkeypatch):
        monkeypatch.delenv(parallel.START_METHOD_ENV_VAR, raising=False)
        assert parallel.start_method() is None
        monkeypatch.setenv(parallel.START_METHOD_ENV_VAR, "forkserver")
        assert parallel.start_method() == "forkserver"

    def test_invalid_override_rejected(self):
        with pytest.raises(ValueError, match="start_method"):
            parallel.set_default_start_method("threads")

    def test_invalid_env_value_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(parallel.START_METHOD_ENV_VAR, "threads")
        with pytest.raises(ValueError, match=parallel.START_METHOD_ENV_VAR):
            parallel.start_method()


class TestEagerEnvValidation:
    """Executor knob env vars are validated at resolve time, naming the
    variable, even when an explicit argument makes the value moot — the
    PR-2 REPRO_BACKEND pattern."""

    def test_invalid_workers_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV_VAR, "lots")
        with pytest.raises(ValueError, match=parallel.WORKERS_ENV_VAR):
            parallel.resolve_workers(2)

    def test_negative_workers_env_rejected(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV_VAR, "-1")
        with pytest.raises(ValueError, match=parallel.WORKERS_ENV_VAR):
            parallel.resolve_workers()

    def test_invalid_start_method_env_fails_resolve_workers(self, monkeypatch):
        monkeypatch.setenv(parallel.START_METHOD_ENV_VAR, "threads")
        with pytest.raises(ValueError, match=parallel.START_METHOD_ENV_VAR):
            parallel.resolve_workers(0)

    def test_removed_shared_memory_env_is_not_read(self, monkeypatch):
        # REPRO_SHARED_MEMORY is not a knob: even a garbage value is not
        # read.
        monkeypatch.setenv("REPRO_SHARED_MEMORY", "maybe")
        assert parallel.resolve_workers(2) == 2


class _RecordingPool:
    """Proxy around a real multiprocessing pool that records shutdown calls."""

    def __init__(self, real):
        self._real = real
        self.calls = []

    def close(self):
        self.calls.append("close")
        self._real.close()

    def terminate(self):
        self.calls.append("terminate")
        self._real.terminate()

    def join(self):
        self.calls.append("join")
        self._real.join()

    def __getattr__(self, name):
        return getattr(self._real, name)


class TestPoolLifecycle:
    """Clean shutdown drains in-flight chunks (close + join); terminate is
    reserved for the exception path — a hard terminate on the clean path
    could kill workers mid-``imap`` and drop chunk results."""

    def test_clean_close_uses_close_then_join(self):
        pool = parallel.WorkerPool(_square_chunk, payload=0, workers=2)
        assert pool.map([[1], [2]]) == [[1], [4]]
        recorder = _RecordingPool(pool._pool)
        pool._pool = recorder
        pool.close()
        assert recorder.calls == ["close", "join"]
        assert pool._pool is None

    def test_exception_path_terminates(self):
        recorder = None
        with pytest.raises(RuntimeError, match="boom"):
            with parallel.WorkerPool(_square_chunk, payload=0, workers=2) as pool:
                pool.map([[1], [2]])
                recorder = _RecordingPool(pool._pool)
                pool._pool = recorder
                raise RuntimeError("boom")
        assert recorder.calls == ["terminate", "join"]

    def test_imap_results_survive_clean_exit(self):
        # Results pulled from imap must all arrive before the pool dies.
        chunks = [[value] for value in range(12)]
        with parallel.WorkerPool(_square_chunk, payload=0, workers=2) as pool:
            results = list(pool.imap(chunks))
        assert results == [[value * value] for value in range(12)]


def _ladder_graph(n: int = 12) -> Graph:
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(i, i + 2) for i in range(n - 2)]
    return Graph.from_edges(edges)


@pytest.mark.requires_numpy
class TestSnapshotPayload:
    """CSR chunk tasks get the snapshot itself; a ``spawn`` pool unpickles it
    (by value here: nothing backs it on disk) and agrees with the serial
    path and the dict reference."""

    def test_shareable_graph_snapshots_only_csr(self):
        from repro.graphs import csr as csr_module

        graph = _ladder_graph()
        assert csr_module.shareable_graph(graph, "csr") is csr_module.as_csr(graph)
        assert csr_module.shareable_graph(graph, "dict") is graph

    def _reference(self, graph):
        from repro.graphs import csr as csr_module

        nodes = list(graph.nodes())
        payload = (csr_module.shareable_graph(graph, "csr"),)
        serial = _snapshot_degree_chunk(payload, nodes)
        assert serial == [graph.degree(node) for node in nodes]  # dict
        return nodes, payload, serial

    def test_spawn_pool_matches_serial_and_dict(self, monkeypatch):
        monkeypatch.setenv(parallel.START_METHOD_ENV_VAR, "spawn")
        nodes, payload, serial = self._reference(_ladder_graph(40))
        with parallel.WorkerPool(
            _snapshot_degree_chunk, payload=payload, workers=2
        ) as pool:
            results = pool.map([nodes[:20], nodes[20:]])
        assert results[0] + results[1] == serial

    def test_spawn_pool_exception_path(self, monkeypatch):
        monkeypatch.setenv(parallel.START_METHOD_ENV_VAR, "spawn")
        nodes, payload, serial = self._reference(_ladder_graph(40))
        with pytest.raises(RuntimeError, match="boom"):
            with parallel.WorkerPool(
                _snapshot_degree_chunk, payload=payload, workers=2
            ) as pool:
                results = pool.map([nodes[:20], nodes[20:]])
                assert results[0] + results[1] == serial
                raise RuntimeError("boom")
        assert pool._pool is None
