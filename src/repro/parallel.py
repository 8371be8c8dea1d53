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

Worker handoff
--------------
Chunk payloads usually contain the graph, and the graph dominates the
payload's pickle size.  How it travels is decided by the payload's own
objects, not here.  ``fork`` workers (the Linux default) inherit the
payload and the serial path never pickles it.  Under ``spawn`` and
``forkserver`` every worker unpickles its own copy once: a CSR snapshot
(what chunk tasks on the CSR backend receive, see
:func:`repro.graphs.csr.shareable_graph`) travels by value, its arrays
and labels only (:meth:`repro.graphs.csr.CSRGraph.__reduce__`).

Configuration
-------------
The worker count and the start method are the ``workers`` and
``start_method`` rows of :mod:`repro.knobs`: an explicit ``workers=``
argument wins, then the override (:func:`set_default_workers`, the CLI's
``--workers``), then ``REPRO_WORKERS``, then 0 (serial); the start method
falls back to the platform default.  Everything shipped to workers is
picklable top-level functions plus payload objects, so the pool is
spawn-safe (CI runs the equivalence suite under ``spawn``).
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro import knobs

T = TypeVar("T")

WORKERS_ENV_VAR = knobs.WORKERS.env
START_METHOD_ENV_VAR = knobs.START_METHOD.env

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
    IPC overhead); counts above 1 use a process pool.  The start-method
    variable is validated here too, so a typo'd executor variable fails at
    configuration time, naming the variable, instead of mid-sweep.
    """
    knobs.START_METHOD.resolve()
    return knobs.WORKERS.resolve(workers)


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
        ``workers > 1``.
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
        caller is still iterating over.  Idempotent.
        """
        self._shutdown(force=False)

    def terminate(self) -> None:
        """Hard-stop the pool without draining in-flight chunks.

        Reserved for the exception path (``__exit__`` routes here when the
        ``with`` body raised): results are being abandoned anyway, so
        waiting for outstanding chunks would only delay the unwind.
        """
        self._shutdown(force=True)

    def _shutdown(self, *, force: bool) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            if force:
                pool.terminate()
            else:
                pool.close()
            pool.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if exc_type is not None:
            self.terminate()
        else:
            self.close()
