"""Worker-pool executor: deterministic chunked parallelism over sources/samples.

Every embarrassingly-parallel loop in this reproduction — exact Brandes over
all BFS sources, closeness sweeps, the ABRA/RK/KADABRA sample draws, the
SaPHyRa adaptive sampler — decomposes into *chunks*: a fixed-size slice of
the source list or of the sample schedule.  This module provides the one
executor they all share.

Determinism contract
--------------------
``workers`` **never changes results** — it only changes wall-clock time:

* Work is split into chunks by a rule that depends only on the input (the
  source list, the sample schedule), never on the worker count.
* Randomised chunks draw from *per-chunk seeded RNG streams*
  (:func:`chunk_rng`), derived from one base seed with a process-independent
  hash, so a chunk produces the same draws no matter which worker runs it —
  or whether it runs in-process.
* :meth:`WorkerPool.map` returns results **in chunk order** regardless of
  completion order, and callers fold partial results in that order, so even
  float accumulation order is reproduced exactly.

Hence ``workers=8`` is bit-identical to ``workers=1`` and to the in-process
serial path (``workers=0``), and the backend-equivalence property tests
assert exactly that.

Shared-memory graph handoff
---------------------------
Chunk payloads usually contain the graph, and the graph dominates the
payload's pickle size.  When numpy and :mod:`multiprocessing.shared_memory`
are available, :func:`shareable_graph` wraps the frozen CSR snapshot in a
:class:`SharedCSRPayload`: the ``indptr``/``indices`` (and, on weighted
snapshots, ``weights``) arrays are exported into shared-memory blocks
**once per pool** (lazily, on the first payload
pickle — the serial path and ``fork`` pools, which inherit memory, never
export anything) and worker processes attach zero-copy views instead of
unpickling the adjacency.  Blocks are unlinked when the owning
:class:`WorkerPool` shuts down, on the clean path and on the exception path
alike.  When the snapshot is already backed by an on-disk snapshot file
(:mod:`repro.graphs.store`) and the ``mmap`` knob resolves to mapping, the
export is skipped entirely: the payload is the file path plus a header and
each worker attaches read-only ``np.memmap`` views of the file itself —
the file *is* the shared block.  The handoff never changes results —
workers see the same arrays bit for bit — and degrades gracefully to the
pickle payload when numpy or ``shared_memory`` is missing or block
allocation fails.

Configuration
-------------
The worker count, the start method and the shared-memory handoff are the
``workers``, ``start_method`` and ``shared_memory`` rows of
:mod:`repro.knobs`: an explicit ``workers=`` argument wins, then the
override (:func:`set_default_workers`, the CLI's ``--workers``), then
``REPRO_WORKERS``, then 0 (serial); the start method falls back to the
platform default, the handoff to on.  Everything shipped to workers is
picklable top-level functions plus payload objects, so the pool is
spawn-safe (CI runs the equivalence suite under ``spawn``).
"""

from __future__ import annotations

import os
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro import knobs

T = TypeVar("T")

WORKERS_ENV_VAR = knobs.WORKERS.env
START_METHOD_ENV_VAR = knobs.START_METHOD.env
SHARED_MEMORY_ENV_VAR = knobs.SHARED_MEMORY.env

#: Default number of BFS sources assigned to one worker task.
SOURCE_CHUNK_SIZE = 32

#: Default number of sampler draws sharing one per-chunk RNG stream.  This
#: constant is part of the samplers' *definition* (it fixes the stream
#: layout), so changing it changes sampled sequences — like changing a seed.
SAMPLE_CHUNK_SIZE = 64

set_default_workers = knobs.WORKERS.override
default_workers = knobs.WORKERS.resolve
set_default_start_method = knobs.START_METHOD.override
#: The configured start method (``None`` = the platform default).
start_method = knobs.START_METHOD.resolve


def resolve_workers(workers: Optional[int] = None) -> int:
    """Map a user-facing ``workers`` argument to a concrete count.

    ``0`` and ``1`` both execute in-process (a one-worker pool would only add
    IPC overhead); counts above 1 use a process pool.  The start-method and
    shared-memory variables are validated here too, so a typo'd executor
    variable fails at configuration time, naming the variable, instead of
    mid-sweep.
    """
    knobs.START_METHOD.resolve()
    knobs.SHARED_MEMORY.resolve()
    return knobs.WORKERS.resolve(workers)


# ----------------------------------------------------------------------
# Shared-memory CSR handoff
# ----------------------------------------------------------------------
#: Whether payloads should use the shared-memory handoff when possible;
#: an enabled-but-unavailable handoff falls back to the pickle payload.
shared_memory_enabled = knobs.SHARED_MEMORY.resolve
set_shared_memory_enabled = knobs.SHARED_MEMORY.override

#: Lazily-probed availability of numpy + multiprocessing.shared_memory.
_shared_memory_probe: Optional[bool] = None

#: Names of shared-memory blocks currently owned (created and not yet
#: unlinked) by this process — accounting for the leak tests.
_active_shared_blocks: set = set()

#: Worker-side cache of attached snapshots: one zero-copy ``CSRGraph`` per
#: exported block pair, built on first attach and reused by every chunk the
#: worker runs.  Entries also keep the ``SharedMemory`` objects referenced so
#: the mappings stay alive for the worker's lifetime.
_attached_snapshots: Dict[Tuple[str, str], object] = {}

#: Worker-side cache of file-attached snapshots, keyed by the payload
#: header ``(path, n, num_indices, weighted)``: one (usually memory-mapped)
#: ``CSRGraph`` per snapshot file, attached on first use and reused by
#: every chunk the worker runs.
_attached_file_snapshots: Dict[Tuple[str, int, int, bool], object] = {}


def shared_memory_available() -> bool:
    """Whether the zero-copy handoff can work at all (numpy + shared_memory)."""
    global _shared_memory_probe
    if _shared_memory_probe is None:
        try:
            import numpy  # noqa: F401
            from multiprocessing import shared_memory  # noqa: F401

            _shared_memory_probe = True
        except ImportError:  # pragma: no cover - numpy-less installs
            _shared_memory_probe = False
    return _shared_memory_probe


def _export_array(data) -> Tuple[str, object]:
    """Copy one numpy array (int64 indices or float64 weights) into a fresh
    shared-memory block."""
    from multiprocessing import shared_memory

    import numpy as np

    block = shared_memory.SharedMemory(create=True, size=max(1, data.nbytes))
    if data.size:
        view = np.ndarray(data.shape, dtype=data.dtype, buffer=block.buf)
        view[:] = data
    _active_shared_blocks.add(block.name)
    return block.name, block


def _attach_shared_csr(
    indptr_name: str,
    indices_name: str,
    weights_name: Optional[str],
    n: int,
    num_indices: int,
    labels,
):
    """Worker-side reconstruction: attach blocks, build a zero-copy snapshot.

    The snapshot is cached per block tuple, so the O(n) label-index setup of
    the ``CSRGraph`` constructor runs once per worker process, not per chunk.
    ``labels is None`` encodes the common identity labelling ``0..n-1``;
    ``weights_name is None`` encodes a unit-weight snapshot (no third
    block), keeping the historical handoff byte-for-byte.
    """
    key = (indptr_name, indices_name, weights_name)
    cached = _attached_snapshots.get(key)
    if cached is not None:
        return cached[0]
    from multiprocessing import shared_memory

    import numpy as np

    from repro.graphs.csr import CSRGraph

    indptr_block = shared_memory.SharedMemory(name=indptr_name)
    indices_block = shared_memory.SharedMemory(name=indices_name)
    indptr = np.ndarray((n + 1,), dtype=np.int64, buffer=indptr_block.buf)
    indices = np.ndarray((num_indices,), dtype=np.int64, buffer=indices_block.buf)
    blocks = [indptr_block, indices_block]
    weights = None
    if weights_name is not None:
        weights_block = shared_memory.SharedMemory(name=weights_name)
        weights = np.ndarray(
            (num_indices,), dtype=np.float64, buffer=weights_block.buf
        )
        blocks.append(weights_block)
    if labels is None:
        labels = list(range(n))
    snapshot = CSRGraph(indptr, indices, labels, weights)
    # Keep the SharedMemory objects referenced: the numpy views only pin the
    # underlying buffer, and the blocks must stay mapped for every future
    # chunk this worker runs.
    _attached_snapshots[key] = (snapshot, *blocks)
    return snapshot


def _attach_snapshot_file(path: str, n: int, num_indices: int, weighted: bool):
    """Worker-side reconstruction from an on-disk snapshot file.

    The file written by :mod:`repro.graphs.store` *is* the shared block:
    the worker attaches it (as read-only ``np.memmap`` views under the
    resolved ``mmap`` knob — mirrored into the environment, so spawn
    workers agree with the master), so nothing was re-exported to
    ``multiprocessing.shared_memory`` and the pickled payload is just this
    path plus a header.  The header is cross-checked against the file so a
    swapped or regenerated snapshot fails loudly instead of silently
    computing on the wrong graph.
    """
    key = (path, n, num_indices, weighted)
    cached = _attached_file_snapshots.get(key)
    if cached is not None:
        return cached
    from repro.errors import GraphError
    from repro.graphs.store import load_snapshot

    snapshot = load_snapshot(path)
    if (
        snapshot.n != n
        or len(snapshot.indices) != num_indices
        or (snapshot.weights is not None) != weighted
    ):
        raise GraphError(
            f"snapshot {path}: file no longer matches the worker payload "
            f"header (file: n={snapshot.n}, num_indices={len(snapshot.indices)}, "
            f"weighted={snapshot.weights is not None}; payload: n={n}, "
            f"num_indices={num_indices}, weighted={weighted}) — was the "
            "snapshot regenerated while a pool was running?"
        )
    _attached_file_snapshots[key] = snapshot
    return snapshot


def _rebuild_csr(indptr, indices, labels, weights=None):
    """Pickle-payload fallback: rebuild the snapshot from shipped arrays."""
    from repro.graphs.csr import CSRGraph

    if labels is None:
        labels = list(range(len(indptr) - 1))
    return CSRGraph(indptr, indices, labels, weights)


class SharedCSRPayload:
    """A CSR snapshot inside a worker payload: zero-copy or pickle handoff.

    Master side this wraps the frozen :class:`~repro.graphs.csr.CSRGraph`.
    Pickling it (which only happens when a pool actually ships the payload
    to processes — ``spawn``/``forkserver`` initargs; ``fork`` pools inherit
    the object as-is and the serial path never pickles) picks the cheapest
    faithful handoff:

    1. **Snapshot file.**  When the snapshot is backed by an on-disk file
       (``csr.source_path``, set by :mod:`repro.graphs.store`) that still
       exists, and the ``mmap`` knob resolves to mapping, the payload is
       just the path plus a header — the file *is* the shared block, and
       each worker attaches read-only ``np.memmap`` views directly.
       Nothing is exported, so there is nothing to release.
    2. **Shared-memory blocks.**  Otherwise the
       ``indptr``/``indices`` (plus ``weights`` when present) arrays are
       exported into ``multiprocessing.shared_memory`` blocks *once* and a
       handle is shipped; unpickling in a worker attaches zero-copy views.
    3. **Pickle fallback.**  If block allocation fails (e.g. ``/dev/shm``
       exhausted) the payload degrades to shipping the arrays by value —
       the classic pickle payload.

    All three forms hand workers byte-identical arrays, so results never
    depend on the transport.  The blocks live until :meth:`release`, which
    the owning :class:`WorkerPool` calls from both its clean and its
    exception shutdown paths.
    """

    __slots__ = ("csr", "_blocks", "_handle", "_failed")

    def __init__(self, csr) -> None:
        self.csr = csr
        self._blocks: List[object] = []
        self._handle: Optional[Tuple] = None
        self._failed = False

    # ------------------------------------------------------------------
    def _labels_arg(self):
        return None if self.csr.identity_labels else self.csr.labels

    def block_names(self) -> List[str]:
        """Names of the live shared-memory blocks (empty before export)."""
        return [block.name for block in self._blocks]

    def _snapshot_file_args(self) -> Optional[Tuple]:
        """The ``_attach_snapshot_file`` args, or ``None`` when ineligible.

        Eligible means: the snapshot is backed by an on-disk file that
        still exists and the ``mmap`` knob resolves to mapping (numpy
        importable, mode not ``off``).  With ``mmap=off`` the shared-
        memory export keeps the pre-snapshot behaviour byte-for-byte.
        """
        path = getattr(self.csr, "source_path", None)
        if path is None:
            return None
        from repro.graphs.store import effective_mmap

        if not effective_mmap() or not os.path.exists(path):
            return None
        return (
            path,
            self.csr.n,
            len(self.csr.indices),
            self.csr.weights is not None,
        )

    def __reduce__(self):
        if not self._failed and self._handle is None:
            file_args = self._snapshot_file_args()
            if file_args is not None:
                self._handle = (_attach_snapshot_file, file_args)
        if not self._failed and self._handle is None:
            try:
                indptr_name, indptr_block = _export_array(self.csr.indptr)
                self._blocks.append(indptr_block)
                indices_name, indices_block = _export_array(self.csr.indices)
                self._blocks.append(indices_block)
                weights_name = None
                if self.csr.weights is not None:
                    weights_name, weights_block = _export_array(self.csr.weights)
                    self._blocks.append(weights_block)
                self._handle = (
                    _attach_shared_csr,
                    (
                        indptr_name,
                        indices_name,
                        weights_name,
                        self.csr.n,
                        len(self.csr.indices),
                        self._labels_arg(),
                    ),
                )
            except OSError:
                # Block allocation failed: release anything half-created and
                # fall back to the pickle payload for this and later dumps.
                self.release()
                self._failed = True
        if self._handle is not None:
            return self._handle
        return (
            _rebuild_csr,
            (self.csr.indptr, self.csr.indices, self._labels_arg(),
             self.csr.weights),
        )

    def release(self) -> None:
        """Close and unlink the exported blocks (idempotent, exception-safe)."""
        blocks, self._blocks = self._blocks, []
        self._handle = None
        for block in blocks:
            try:
                block.close()
                block.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
            finally:
                _active_shared_blocks.discard(block.name)


def shareable_graph(graph, backend: Optional[str] = None):
    """Wrap ``graph`` for zero-copy payload handoff when the path applies.

    Returns a :class:`SharedCSRPayload` around the (cached) CSR snapshot
    when the resolved ``backend`` is CSR and the shared-memory handoff is
    enabled and available; otherwise returns ``graph`` unchanged — the
    pickle payload.  Chunk tasks recover the graph (or snapshot) with
    :func:`resolve_payload_graph`, so the same task code serves both paths.
    """
    from repro.graphs import csr as _csr

    if (
        backend == _csr.CSR_BACKEND
        and shared_memory_enabled()
        and shared_memory_available()
    ):
        return SharedCSRPayload(_csr.as_csr(graph))
    return graph


def resolve_payload_graph(obj):
    """Unwrap a payload graph slot to the object traversals run on.

    In-process (serial path, or a ``fork`` worker that inherited the
    payload) a :class:`SharedCSRPayload` resolves to its snapshot; in a
    ``spawn`` worker the slot already holds the attached snapshot (or the
    pickled graph), which passes through unchanged.
    """
    if isinstance(obj, SharedCSRPayload):
        return obj.csr
    return obj


# ----------------------------------------------------------------------
# Chunking and per-chunk RNG streams
# ----------------------------------------------------------------------
def chunked(items: Sequence[T], size: int = SOURCE_CHUNK_SIZE) -> List[Sequence[T]]:
    """Split ``items`` into consecutive chunks of ``size`` (last may be short)."""
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    return [items[start : start + size] for start in range(0, len(items), size)]


def plan_chunks(
    count: int, size: int = SAMPLE_CHUNK_SIZE, *, start_chunk: int = 0
) -> List[Tuple[int, int]]:
    """Plan ``count`` draws as ``(chunk_index, draws)`` pieces.

    Chunk indices continue from ``start_chunk`` so successive stages of an
    adaptive sampler consume a single global stream sequence; the layout is a
    pure function of the stage schedule, never of the worker count.
    """
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    pieces: List[Tuple[int, int]] = []
    chunk = start_chunk
    remaining = count
    while remaining > 0:
        draws = min(size, remaining)
        pieces.append((chunk, draws))
        chunk += 1
        remaining -= draws
    return pieces


def derive_base_seed(rng: random.Random) -> int:
    """Draw the 64-bit base seed all chunk streams of one run derive from."""
    return rng.getrandbits(64)


def chunk_rng(base_seed: int, chunk_index: int) -> random.Random:
    """The deterministic RNG stream of chunk ``chunk_index``.

    Seeding with a string routes through :mod:`random`'s SHA-512 seeding,
    which is identical in every process and platform (unlike ``hash``-based
    seeding, which PYTHONHASHSEED salts).
    """
    return random.Random(f"{base_seed}:{chunk_index}")


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
# Worker-process globals, set once per worker by the pool initializer so the
# payload (graph, snapshot, estimator, ...) is unpickled once and shared by
# every task the worker runs.
_worker_function: Optional[Callable] = None
_worker_payload: object = None


def _initialize_worker(function: Callable, payload: object) -> None:
    global _worker_function, _worker_payload
    _worker_function = function
    _worker_payload = payload


def _run_chunk(chunk: object) -> object:
    return _worker_function(_worker_payload, chunk)


class WorkerPool:
    """Order-preserving chunk mapper around ``function(payload, chunk)``.

    Parameters
    ----------
    function:
        A picklable module-level function taking ``(payload, chunk)``.
    payload:
        Shared immutable-by-convention context (a graph, an estimator, ...),
        shipped to each worker process exactly once.  Must be picklable when
        ``workers > 1``.  A :class:`SharedCSRPayload` (or a tuple/list
        containing one — see :func:`shareable_graph`) rides along zero-copy
        and has its shared-memory blocks released when the pool shuts down,
        on the clean and the exception path alike.
    workers:
        Worker count (``None`` resolves via :func:`resolve_workers`).
        ``<= 1`` executes every chunk in-process — same code path, no
        processes, identical results.

    The pool is lazily created on the first parallel :meth:`map` and reused
    across calls (an adaptive sampler maps many rounds of chunks through one
    pool), so use it as a context manager::

        with WorkerPool(_chunk_fn, payload=(graph, backend), workers=workers) as pool:
            for part in pool.map(chunks):
                fold(part)          # chunk order == submission order
    """

    def __init__(
        self,
        function: Callable,
        *,
        payload: object = None,
        workers: Optional[int] = None,
    ) -> None:
        self.function = function
        self.payload = payload
        self.workers = resolve_workers(workers)
        self._pool = None

    # ------------------------------------------------------------------
    def map(self, chunks: Sequence[object]) -> List[object]:
        """Apply the function to every chunk; results come back in chunk order."""
        chunks = list(chunks)
        if self.workers <= 1 or len(chunks) <= 1:
            return [self.function(self.payload, chunk) for chunk in chunks]
        return self._ensure_pool().map(_run_chunk, chunks, chunksize=1)

    def imap(self, chunks: Sequence[object]):
        """Lazy :meth:`map`: yield chunk results in chunk order.

        Use when per-chunk results are large and folded immediately (e.g.
        per-source dependency vectors), so only a bounded number of chunks
        is in flight instead of the whole result list.
        """
        chunks = list(chunks)
        if self.workers <= 1 or len(chunks) <= 1:
            return (self.function(self.payload, chunk) for chunk in chunks)
        return self._ensure_pool().imap(_run_chunk, chunks, chunksize=1)

    def _ensure_pool(self):
        if self._pool is None:
            import multiprocessing

            context = multiprocessing.get_context(start_method())
            self._pool = context.Pool(
                processes=self.workers,
                initializer=_initialize_worker,
                initargs=(self.function, self.payload),
            )
        return self._pool

    def close(self) -> None:
        """Shut the pool down cleanly, letting in-flight chunks finish.

        Uses ``Pool.close()`` + ``join()``: a hard ``terminate()`` here
        could kill workers mid-``imap`` and silently drop chunk results a
        caller is still iterating over.  Idempotent; releases any
        shared-memory payload blocks.
        """
        self._shutdown(force=False)

    def terminate(self) -> None:
        """Hard-stop the pool without draining in-flight chunks.

        Reserved for the exception path (``__exit__`` routes here when the
        ``with`` body raised): results are being abandoned anyway, so
        waiting for outstanding chunks would only delay the unwind.
        Shared-memory payload blocks are still released.
        """
        self._shutdown(force=True)

    def _shutdown(self, *, force: bool) -> None:
        try:
            if self._pool is not None:
                if force:
                    self._pool.terminate()
                else:
                    self._pool.close()
                self._pool.join()
        finally:
            self._pool = None
            self._release_payload()

    def _release_payload(self) -> None:
        items = (
            self.payload
            if isinstance(self.payload, (tuple, list))
            else (self.payload,)
        )
        for item in items:
            if isinstance(item, SharedCSRPayload):
                item.release()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if exc_type is not None:
            self.terminate()
        else:
            self.close()
