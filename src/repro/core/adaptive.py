"""Adaptive sampling of the approximate subspace (lines 6-20 of Algorithm 1).

The estimator draws an initial pilot batch to estimate per-hypothesis
variances, allocates the error probability across hypotheses (Eq. 13), then
repeatedly doubles the sample size until either every hypothesis' empirical
Bernstein deviation drops below the target ``epsilon'`` or the VC-dimension
sample-size cap ``N_max`` is reached (at which point the guarantee follows
from Lemma 4 instead).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Tuple

from repro import parallel as _parallel
from repro.engine.driver import SampleDriver
from repro.engine.schedule import SampleSchedule
from repro.engine.stopping import AllocatedBernsteinRule
from repro.stats.allocation import allocate_error_probabilities
from repro.stats.vc import vc_sample_size
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_probability_pair

LossSampler = Callable[[object], Mapping[int, float]]


def _losses_chunk(payload, piece: Tuple[int, int]):
    """Worker task: draw one chunk of loss samples; return partial sums.

    ``payload`` carries either a problem object exposing ``sample_losses`` (a
    picklable payload, required for ``workers > 1``) or the bare sampler
    callable (serial in-process execution only).  The chunk draws from its
    own seeded RNG stream, so partials are identical in any process.

    A problem whose ``chunk_draws`` attribute is true draws the whole chunk
    in one ``sample_losses(rng, draws)`` call, which returns the chunk's
    losses in the problem's pinned order (closeness keeps the RNG sequence
    of single draws; ``Gen_bc`` draws a round's pairs before its paths);
    the fold below is the same either way.

    The partial sums are returned sparse, ``{hypothesis: sum}`` over the
    hypotheses the chunk touched, so folding a ``Gen_bc`` chunk, which
    touches few of ``k`` targets, costs no ``O(k)`` walk.  They are summed
    in dense lists, from 0.0 in draw order: dense closeness losses touch
    every target of every draw, and list indexing is the cheaper update.
    """
    sampler, num_hypotheses, base_seed = payload
    chunk_index, draws = piece
    rng = _parallel.chunk_rng(base_seed, chunk_index)
    sample = getattr(sampler, "sample_losses", sampler)
    if getattr(sampler, "chunk_draws", False):
        chunk = sample(rng, draws)
    else:
        chunk = (sample(rng) for _ in range(draws))
    totals = [0.0] * num_hypotheses
    totals_sq = [0.0] * num_hypotheses
    touched = set()
    for losses in chunk:
        if len(touched) < num_hypotheses:  # dense losses fill it at once
            touched.update(losses)
        for index, loss in losses.items():
            totals[index] += loss
            totals_sq[index] += loss * loss
    # Problems with sampling diagnostics (e.g. Gen_bc rejection counters)
    # expose collect_sample_stats/merge_sample_stats; snapshotting the
    # worker-local counters per chunk lets the master fold them back in, so
    # the reported statistics match serial runs for any worker count.
    collect = getattr(sampler, "collect_sample_stats", None)
    stats = collect() if collect is not None else None
    return (
        draws,
        {index: totals[index] for index in touched},
        {index: totals_sq[index] for index in touched},
        stats,
    )


@dataclass
class ApproximateEstimate:
    """Outcome of the adaptive estimation of the approximate-subspace risks.

    Attributes
    ----------
    estimates:
        Per-hypothesis empirical risks under ``D-tilde``.
    deviations:
        Final empirical Bernstein deviations (one per hypothesis).
    num_samples:
        Samples drawn in the main stage (excludes the pilot batch).
    num_pilot_samples:
        Pilot samples used for variance estimation.
    num_rounds:
        Doubling rounds executed.
    converged_by:
        ``"bernstein"`` when the adaptive stopping rule fired, ``"vc"`` when
        the sampler stopped at the VC-bound cap.
    delta_allocations:
        The per-hypothesis error probabilities used by the stopping rule.
    """

    estimates: List[float]
    deviations: List[float]
    num_samples: int
    num_pilot_samples: int
    num_rounds: int
    converged_by: str
    delta_allocations: List[float] = field(default_factory=list)


class _RiskAccumulator:
    """Streaming sums for ``k`` hypotheses sharing one global sample count."""

    __slots__ = ("count", "totals", "totals_sq")

    def __init__(self, num_hypotheses: int) -> None:
        self.count = 0
        self.totals = [0.0] * num_hypotheses
        self.totals_sq = [0.0] * num_hypotheses

    def add(self, losses: Mapping[int, float]) -> None:
        self.count += 1
        for index, loss in losses.items():
            self.totals[index] += loss
            self.totals_sq[index] += loss * loss

    def merge(self, count: int, totals: Mapping[int, float],
              totals_sq: Mapping[int, float]) -> None:
        """Fold one chunk's sparse partial sums in (deterministic) chunk order."""
        self.count += count
        for index, value in totals.items():
            if value:
                self.totals[index] += value
        for index, value in totals_sq.items():
            if value:
                self.totals_sq[index] += value

    def mean(self, index: int) -> float:
        if self.count == 0:
            return 0.0
        return self.totals[index] / self.count

    def variance(self, index: int) -> float:
        if self.count < 2:
            return 0.0
        total = self.totals[index]
        centered = self.totals_sq[index] - total * total / self.count
        return max(0.0, centered / (self.count - 1))

    def means(self) -> List[float]:
        return [self.mean(index) for index in range(len(self.totals))]


class AdaptiveSampler:
    """Empirical-Bernstein adaptive estimator with a VC-dimension cap.

    Parameters
    ----------
    epsilon, delta:
        Target accuracy and failure probability *for the quantity being
        sampled* (the caller passes ``epsilon' = epsilon / lambda`` when the
        estimate is later scaled by ``lambda``).
    vc_dimension:
        Upper bound on the VC dimension of the hypothesis class; controls
        the maximum sample size.
    sample_constant:
        The constant ``c`` of Lemma 4 (default 0.5).
    min_pilot_samples:
        Lower bound on the pilot batch size (keeps variance estimates from
        being degenerate when ``ln(1/delta)/epsilon^2`` is tiny).
    max_samples_cap:
        Optional hard cap on the number of samples regardless of the VC
        bound (useful to keep experiments bounded on huge epsilon-lambda
        combinations).
    """

    def __init__(
        self,
        epsilon: float,
        delta: float,
        vc_dimension: float,
        *,
        sample_constant: float = 0.5,
        min_pilot_samples: int = 32,
        max_samples_cap: Optional[int] = None,
    ) -> None:
        check_probability_pair(epsilon, delta)
        if vc_dimension < 0:
            raise ValueError(f"vc_dimension must be >= 0, got {vc_dimension}")
        self.epsilon = epsilon
        self.delta = delta
        self.vc_dimension = vc_dimension
        self.sample_constant = sample_constant
        self.min_pilot_samples = min_pilot_samples
        self.max_samples_cap = max_samples_cap

    # ------------------------------------------------------------------
    def initial_sample_size(self) -> int:
        """``N_0 = c / eps^2 * ln(1/delta)`` (Algorithm 1, line 6)."""
        raw = self.sample_constant / (self.epsilon**2) * math.log(1.0 / self.delta)
        size = max(self.min_pilot_samples, math.ceil(raw))
        if self.max_samples_cap is not None:
            size = min(size, self.max_samples_cap)
        return max(2, size)

    def maximum_sample_size(self) -> int:
        """``N_max = c / eps^2 * (VC + ln(1/delta))`` (Algorithm 1, line 7)."""
        size = vc_sample_size(
            self.epsilon, self.delta, self.vc_dimension, constant=self.sample_constant
        )
        size = max(size, self.initial_sample_size())
        if self.max_samples_cap is not None:
            size = min(size, self.max_samples_cap)
        return max(2, size)

    # ------------------------------------------------------------------
    def estimate(
        self,
        sample_losses: LossSampler,
        num_hypotheses: int,
        rng: SeedLike = None,
        *,
        workers: Optional[int] = None,
        payload: object = None,
    ) -> ApproximateEstimate:
        """Run the adaptive estimation loop.

        Samples are drawn in fixed-size chunks, each from its own seeded RNG
        stream (:func:`repro.parallel.chunk_rng`), and the chunk partial sums
        are folded in chunk order.  The chunk layout depends only on the
        (deterministic) round schedule, so the estimate is bit-identical for
        any worker count.

        Parameters
        ----------
        sample_losses:
            Callable drawing one sample from ``D-tilde`` and returning its
            sparse losses, i.e. ``problem.sample_losses``.
        num_hypotheses:
            Number of hypotheses ``k``.
        rng:
            Seed or RNG for reproducibility.
        workers:
            Worker processes for the sample draws (``None`` resolves via
            ``REPRO_WORKERS``).
        payload:
            A picklable object exposing ``sample_losses`` (usually the
            problem itself), shipped to the workers instead of the bare
            callable.  Required when ``workers > 1``.
        """
        if num_hypotheses < 1:
            raise ValueError(f"num_hypotheses must be >= 1, got {num_hypotheses}")
        resolved_workers = _parallel.resolve_workers(workers)
        if resolved_workers > 1 and payload is None:
            if workers is None:
                # The count came from the environment/default, but a bare
                # callable cannot be shipped to worker processes.  Degrade to
                # in-process execution — results are identical either way
                # (the chunk streams do not depend on the worker count).
                resolved_workers = 0
            else:
                raise ValueError(
                    "workers > 1 needs a picklable `payload` exposing "
                    "sample_losses; a bare callable cannot be shipped to "
                    "worker processes"
                )
        rng = ensure_rng(rng)
        base_seed = _parallel.derive_base_seed(rng)
        initial = self.initial_sample_size()
        maximum = self.maximum_sample_size()
        # The schedule *is* the historical doubling loop: first stage
        # ``initial``, doubling to the VC cap, with the round count the
        # delta allocation divides by.
        schedule = SampleSchedule(initial, maximum)

        sampler = payload if payload is not None else sample_losses
        merge_stats = getattr(sampler, "merge_sample_stats", None)
        with SampleDriver(
            _losses_chunk,
            payload=(sampler, num_hypotheses, base_seed),
            workers=resolved_workers,
        ) as driver:
            # Pilot batch: independent samples used only for variance
            # estimation and the per-hypothesis delta allocation.  The
            # driver continues its chunk counter into the main stage, so
            # the global RNG stream layout is unchanged by the port.
            pilot = _RiskAccumulator(num_hypotheses)

            def fold_pilot(partial) -> None:
                draws, totals, totals_sq, stats = partial
                pilot.merge(draws, totals, totals_sq)
                if stats is not None and merge_stats is not None:
                    merge_stats(stats)

            driver.run_batch(initial, fold_pilot)
            pilot_variances = [
                pilot.variance(index) for index in range(num_hypotheses)
            ]
            delta_allocations = allocate_error_probabilities(
                pilot_variances,
                target_epsilon=self.epsilon,
                delta=self.delta,
                num_rounds=schedule.num_stages(),
                max_samples=maximum,
            )

            accumulator = _RiskAccumulator(num_hypotheses)

            def fold_main(partial) -> None:
                draws, totals, totals_sq, stats = partial
                accumulator.merge(draws, totals, totals_sq)
                if stats is not None and merge_stats is not None:
                    merge_stats(stats)

            stopping = AllocatedBernsteinRule(
                accumulator, delta_allocations, epsilon=self.epsilon
            )
            outcome = driver.run_schedule(schedule, stopping, fold_main)

        return ApproximateEstimate(
            estimates=accumulator.means(),
            deviations=stopping.deviations,
            num_samples=accumulator.count,
            num_pilot_samples=initial,
            num_rounds=outcome.num_stages,
            converged_by=outcome.converged_by,
            delta_allocations=list(delta_allocations),
        )
