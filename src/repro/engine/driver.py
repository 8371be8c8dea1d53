"""The sampling loop driver and the ordered source-sweep fold.

These are the two loop bodies everything else composes:

* :class:`SampleDriver` — owns one :class:`repro.parallel.WorkerPool` and a
  global chunk counter.  ``run_batch`` draws a fixed number of samples;
  ``run_schedule`` runs a :class:`~repro.engine.schedule.SampleSchedule`
  against a :class:`~repro.engine.stopping.StoppingRule`.  Chunk layouts are
  a pure function of the schedule (continuing chunk indices across batches
  and stages) and partial results are folded in chunk order, so results are
  bit-identical for any worker count — the same contract the estimators
  implemented by hand before the port.
* :func:`sweep_sources` — the fixed-work analogue: an ordered, chunked fold
  over a source list (exact Brandes, Bader pivots, closeness sweeps, ego
  networks), streaming chunk results through ``WorkerPool.imap`` so large
  per-source vectors never pile up.

Fold contract: a chunk task returns one *chunk-partial* — the reduction of
its chunk computed in-worker (e.g. exact Brandes returns one summed
dependency vector per chunk, not one vector per source) — and the master
folds partials strictly in chunk order.  The serial path (``workers=0``)
runs the identical chunk tasks in-process, so the float accumulation order
is a pure function of the fixed chunk layout and worker counts never change
results, while the bytes shipped per chunk shrink from O(chunk x n) to
O(n).  Graph payloads go through :func:`repro.graphs.csr.shareable_graph`,
so CSR-backed sweeps hand workers the frozen snapshot: ``fork`` workers
inherit it, ``spawn`` workers unpickle it once, by value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TypeVar

from repro import parallel as _parallel
from repro.engine.schedule import SampleSchedule
from repro.engine.stopping import StoppingRule

T = TypeVar("T")


@dataclass
class DriveOutcome:
    """Result of one :meth:`SampleDriver.run_schedule` run.

    Attributes
    ----------
    num_samples:
        Total samples drawn by the schedule (excludes earlier batches run
        through the same driver, e.g. a pilot).
    num_stages:
        Schedule stages executed.
    converged_by:
        The stopping rule's ``converged_label`` when it fired, its
        ``cap_label`` when the schedule cap was reached first.
    """

    num_samples: int
    num_stages: int
    converged_by: str


class SampleDriver:
    """Deterministic chunked sampling through one shared worker pool.

    Parameters
    ----------
    chunk_task:
        Picklable module-level function ``(payload, (chunk_index, draws))``
        returning one chunk's partial result.  The task must derive its RNG
        stream from the chunk index (:func:`repro.parallel.chunk_rng`).
    payload:
        Shared context shipped to each worker once; must be picklable when
        ``workers > 1``.
    workers:
        Worker processes (``None`` resolves via ``REPRO_WORKERS``).
    chunk_size:
        Draws per chunk; part of each estimator's definition (it fixes the
        RNG stream layout), so it defaults to the historical
        :data:`repro.parallel.SAMPLE_CHUNK_SIZE`.

    Use as a context manager; the pool is shut down on exit::

        with SampleDriver(_chunk, payload=..., workers=workers) as driver:
            driver.run_batch(pilot_size, fold_pilot)
            outcome = driver.run_schedule(schedule, rule, fold)
    """

    def __init__(
        self,
        chunk_task: Callable,
        *,
        payload: object = None,
        workers: Optional[int] = None,
        chunk_size: int = _parallel.SAMPLE_CHUNK_SIZE,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size
        self.next_chunk = 0
        self._pool = _parallel.WorkerPool(
            chunk_task, payload=payload, workers=workers
        )

    # ------------------------------------------------------------------
    def run_batch(self, count: int, fold: Callable[[object], None]) -> int:
        """Draw ``count`` samples; fold each chunk's partial in chunk order.

        Chunk indices continue from previous batches, so successive phases
        (pilot batch, then schedule stages) consume one global stream
        sequence exactly as the pre-engine estimators did.
        """
        pieces = _parallel.plan_chunks(
            count, self.chunk_size, start_chunk=self.next_chunk
        )
        self.next_chunk += len(pieces)
        for partial in self._pool.map(pieces):
            fold(partial)
        return count

    def run_schedule(
        self,
        schedule: SampleSchedule,
        stopping: StoppingRule,
        fold: Callable[[object], None],
    ) -> DriveOutcome:
        """Draw stages until the stopping rule fires or the cap is reached."""
        drawn = 0
        stages = 0
        target = schedule.first_stage
        while True:
            stages += 1
            self.run_batch(target - drawn, fold)
            drawn = target
            if stopping.should_stop(drawn):
                return DriveOutcome(drawn, stages, stopping.converged_label)
            if drawn >= schedule.max_samples:
                return DriveOutcome(drawn, stages, stopping.cap_label)
            target = schedule.next_target(target)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down cleanly (in-flight chunks finish first)."""
        self._pool.close()

    def __enter__(self) -> "SampleDriver":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        # Mirror WorkerPool's lifecycle contract: a clean exit drains
        # in-flight chunks (close + join), an exception hard-stops the
        # workers.
        if exc_type is not None:
            self._pool.terminate()
        else:
            self.close()


def sweep_sources(
    chunk_task: Callable,
    sources: Sequence[T],
    fold: Callable[[Sequence[T], object], None],
    *,
    payload: object = None,
    workers: Optional[int] = None,
    chunk_size: int = _parallel.SOURCE_CHUNK_SIZE,
) -> None:
    """Ordered chunked fold over a fixed source list.

    ``chunk_task(payload, chunk)`` computes one chunk's results (in any
    process); ``fold(chunk, result)`` is called strictly in source order, so
    even float accumulation order is independent of the worker count.
    Results stream through ``imap`` — only a bounded number of chunks is in
    flight even when per-source results are large dependency vectors.
    """
    chunks = _parallel.chunked(list(sources), chunk_size)
    with _parallel.WorkerPool(
        chunk_task, payload=payload, workers=workers
    ) as pool:
        for chunk, result in zip(chunks, pool.imap(chunks)):
            fold(chunk, result)
