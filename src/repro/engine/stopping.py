"""Pluggable stopping rules for the sample driver.

A stopping rule answers, after every schedule stage, "are the current
estimates already ``epsilon``-accurate?".  All rules here are backed by the
deviation bounds in :mod:`repro.stats`; they differ only in what per-
hypothesis state they read (dense sum/sum-of-squares dicts, 0/1 hit counts,
or a :class:`~repro.core.adaptive._RiskAccumulator` with per-hypothesis
delta allocations) and in the labels the estimators historically reported
through ``converged_by``.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Mapping, Protocol, Sequence, Tuple

from repro.stats.bernstein import empirical_bernstein_bound


class StoppingRule(Protocol):
    """The protocol the :class:`~repro.engine.driver.SampleDriver` consumes.

    Attributes
    ----------
    converged_label:
        ``converged_by`` value reported when the rule fires.
    cap_label:
        ``converged_by`` value reported when the schedule cap is reached
        before the rule fires.
    """

    converged_label: str
    cap_label: str

    def should_stop(self, num_samples: int) -> bool:
        """True when every hypothesis' deviation bound is below target."""
        ...  # pragma: no cover - protocol


class FixedSampleRule:
    """Never stops early — fixed-sample-size estimators (RK, Bader)."""

    converged_label = "fixed"
    cap_label = "fixed"

    def should_stop(self, num_samples: int) -> bool:
        return False


class BernsteinSumsRule:
    """Per-hypothesis empirical-Bernstein check over shared sum dicts.

    The rule reads (it never owns) the estimator's running ``totals`` /
    ``totals_sq`` mappings, so the caller keeps folding chunk partials into
    them between checks.  ``per_check_delta`` is the union-bound share
    ``delta / (num_stages * num_hypotheses)``.
    """

    converged_label = "adaptive"
    cap_label = "cap"

    def __init__(
        self,
        totals: Mapping[Hashable, float],
        totals_sq: Mapping[Hashable, float],
        *,
        epsilon: float,
        per_check_delta: float,
    ) -> None:
        self.totals = totals
        self.totals_sq = totals_sq
        self.epsilon = epsilon
        self.per_check_delta = per_check_delta

    def should_stop(self, num_samples: int) -> bool:
        if num_samples < 2:
            return False
        for key, total in self.totals.items():
            centered = self.totals_sq[key] - total * total / num_samples
            variance = max(0.0, centered / (num_samples - 1))
            deviation = empirical_bernstein_bound(
                num_samples, self.per_check_delta, variance
            )
            if deviation > self.epsilon:
                return False
        return True


class HitCountRule:
    """Bernstein check for 0/1 losses tracked as plain hit counts (KADABRA).

    For a hit count ``c`` out of ``N`` samples the unbiased sample variance
    is ``c (N - c) / (N (N - 1))`` — no sum-of-squares dict needed.
    """

    converged_label = "adaptive"
    cap_label = "cap"

    def __init__(
        self,
        counts: Mapping[Hashable, float],
        *,
        epsilon: float,
        per_check_delta: float,
    ) -> None:
        self.counts = counts
        self.epsilon = epsilon
        self.per_check_delta = per_check_delta

    def should_stop(self, num_samples: int) -> bool:
        if num_samples < 2:
            return False
        for count in self.counts.values():
            variance = (
                count * (num_samples - count) / (num_samples * (num_samples - 1))
            )
            deviation = empirical_bernstein_bound(
                num_samples, self.per_check_delta, variance
            )
            if deviation > self.epsilon:
                return False
        return True


class AllocatedBernsteinRule:
    """The SaPHyRa framework rule: per-hypothesis delta allocations (Eq. 13).

    Unlike the union-bound rules above, each hypothesis gets its own error
    probability (variance-weighted, solved from the pilot batch).  The rule
    records the deviations of its *last* check in :attr:`deviations`, which
    the adaptive sampler reports in its result.  The bound depends only on
    ``(delta_i, variance)``, and under 0/1 losses both follow from hit
    counts, so each check evaluates it once per distinct pair.
    """

    converged_label = "bernstein"
    cap_label = "vc"

    def __init__(
        self,
        accumulator,
        delta_allocations: Sequence[float],
        *,
        epsilon: float,
    ) -> None:
        self.accumulator = accumulator
        self.delta_allocations = list(delta_allocations)
        self.epsilon = epsilon
        self.deviations: List[float] = [math.inf] * len(self.delta_allocations)

    def should_stop(self, num_samples: int) -> bool:
        accumulator = self.accumulator
        bounds: Dict[Tuple[float, float], float] = {}
        deviations: List[float] = []
        for index, delta_i in enumerate(self.delta_allocations):
            key = (delta_i, accumulator.variance(index))
            if key not in bounds:
                bounds[key] = empirical_bernstein_bound(
                    accumulator.count, delta_i, key[1]
                )
            deviations.append(bounds[key])
        self.deviations = deviations
        return max(deviations) <= self.epsilon
