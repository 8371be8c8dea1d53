"""The unified sampling engine.

Every sampling estimator in this reproduction — the SaPHyRa framework's
adaptive sampler and both baseline families (ABRA, RK, KADABRA, Bader) —
shares one skeleton: draw samples on a geometric schedule, fold per-chunk
partial results in a deterministic order, evaluate a stopping rule after
every stage, and stop either adaptively or at a hard (VC-derived) cap.
Before this package existed that skeleton was re-implemented in five
places; now it lives here, once:

* :class:`SampleSchedule` — the geometric stage schedule (first stage,
  growth factor, hard cap) plus the stage-count arithmetic the
  delta-splitting rules need.
* :class:`StoppingRule` and its implementations — pluggable convergence
  checks backed by the deviation bounds in :mod:`repro.stats`.
* :class:`SampleDriver` / :func:`sweep_sources` — the loop bodies: chunked
  sampling through the :mod:`repro.parallel` worker pool under the existing
  determinism contract (fixed chunk layouts, per-chunk seeded RNG streams,
  chunk-order folds), and the ordered fold over a fixed source list used by
  exact Brandes, the pivot estimator and the closeness sweeps.
* :class:`SourceDAGCache` — a cross-sample cache of shortest-path DAGs and
  BFS distance rows keyed on ``(Graph._version, source, backend)``, so
  pivot-heavy and repeated-source workloads reuse traversals instead of
  recomputing them per sample (the process-wide
  :func:`default_dag_cache` is bounded by the constants
  :data:`~repro.engine.dag_cache.DEFAULT_DAG_CACHE_SIZE` per graph and
  :data:`~repro.engine.dag_cache.DEFAULT_DAG_CACHE_BUDGET` of estimated
  memory).

Nothing in the engine changes results: schedules and folds reproduce the
exact chunk/RNG layout the estimators used before the port, and cached
traversals are pure functions of ``(graph version, source, backend)``.
"""

from __future__ import annotations

from repro.engine.dag_cache import (
    SourceDAGCache,
    clear_default_dag_cache,
    default_dag_cache,
)
from repro.engine.driver import DriveOutcome, SampleDriver, sweep_sources
from repro.engine.schedule import SampleSchedule
from repro.engine.stopping import (
    AllocatedBernsteinRule,
    BernsteinSumsRule,
    FixedSampleRule,
    HitCountRule,
    StoppingRule,
)

__all__ = [
    "SampleSchedule",
    "StoppingRule",
    "BernsteinSumsRule",
    "HitCountRule",
    "AllocatedBernsteinRule",
    "FixedSampleRule",
    "SampleDriver",
    "DriveOutcome",
    "sweep_sources",
    "SourceDAGCache",
    "default_dag_cache",
    "clear_default_dag_cache",
]
