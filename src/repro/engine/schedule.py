"""Geometric sample-size schedules.

Every adaptive estimator in the paper draws samples in *stages*: a first
stage sized from the Hoeffding/Bernstein pilot formula
``c / eps^2 * ln(1/delta)``, then geometric growth (doubling, by default)
until a hard cap derived from a VC-dimension bound.  The schedule is part of
each estimator's *definition* — the stage boundaries fix the chunk layout
and therefore the RNG stream consumption — so it is arithmetic worth having
exactly once.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

from repro.utils.validation import check_probability_pair, check_sample_cap


class SampleSchedule:
    """A geometric stage schedule with a hard cap.

    Stage targets are *cumulative* sample counts: the first stage draws
    ``first_stage`` samples, stage ``k + 1`` grows the cumulative target to
    ``min(max_samples, ceil(target * growth))`` (exact integer doubling when
    ``growth == 2``, matching the historical estimators bit for bit).

    Parameters
    ----------
    first_stage:
        Cumulative target of the first stage (clamped to ``max_samples``).
    max_samples:
        The hard cap — usually a VC-dimension sample size.
    growth:
        Multiplicative stage growth, ``> 1``.

    Examples
    --------
    >>> schedule = SampleSchedule(32, 200)
    >>> list(schedule.targets())
    [32, 64, 128, 200]
    >>> SampleSchedule.fixed(50).num_stages()
    1
    """

    __slots__ = ("first_stage", "max_samples", "growth")

    def __init__(self, first_stage: int, max_samples: int, *, growth: float = 2.0) -> None:
        check_sample_cap(max_samples)
        if first_stage < 1:
            raise ValueError(f"first_stage must be >= 1, got {first_stage}")
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {growth}")
        self.first_stage = min(first_stage, max_samples)
        self.max_samples = max_samples
        self.growth = growth

    # ------------------------------------------------------------------
    @classmethod
    def fixed(cls, num_samples: int) -> "SampleSchedule":
        """A single-stage schedule drawing exactly ``num_samples`` samples."""
        return cls(num_samples, num_samples)

    @classmethod
    def from_guarantee(
        cls,
        epsilon: float,
        delta: float,
        max_samples: int,
        *,
        sample_constant: float = 0.5,
        min_first_stage: int = 32,
        growth: float = 2.0,
    ) -> "SampleSchedule":
        """The schedule the progressive baselines share.

        First stage ``max(min_first_stage, ceil(c / eps^2 * ln(1/delta)))``
        (the union-bound-free pilot size), capped at ``max_samples``.
        """
        check_probability_pair(epsilon, delta)
        first = max(
            min_first_stage,
            math.ceil(sample_constant / epsilon**2 * math.log(1.0 / delta)),
        )
        return cls(first, max_samples, growth=growth)

    # ------------------------------------------------------------------
    def next_target(self, target: int) -> int:
        """The cumulative target of the stage after the one ending at ``target``."""
        if self.growth == 2.0:
            # Exact integer doubling: ``ceil(t * 2.0)`` is equal for every
            # int target below 2**52, but the integer form never rounds.
            return min(self.max_samples, 2 * target)
        return min(self.max_samples, math.ceil(target * self.growth))

    def num_stages(self) -> int:
        """The union-bound delta-split divisor ``ceil(log_growth(N_max / N_0))``.

        ``log2`` is used verbatim for ``growth == 2`` to reproduce the
        historical estimators' arithmetic exactly.  Note this counts the
        geometric *doublings*, not the executed stages: :meth:`targets`
        yields one more stage whenever the cap is not an exact power of
        ``growth`` times ``first_stage`` (the doctest above runs 4 stages
        while ``num_stages()`` is 3) — the historical estimators split
        delta this way, so a new stopping rule wanting a strict per-stage
        union bound should divide by ``len(list(targets()))`` instead.
        """
        ratio = max(1.0, self.max_samples / self.first_stage)
        if self.growth == 2.0:
            return max(1, math.ceil(math.log2(ratio)))
        return max(1, math.ceil(math.log(ratio) / math.log(self.growth)))

    def targets(self) -> Iterator[int]:
        """Yield the cumulative stage targets up to and including the cap."""
        target: Optional[int] = None
        while target != self.max_samples:
            target = self.first_stage if target is None else self.next_target(target)
            yield target

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SampleSchedule(first_stage={self.first_stage}, "
            f"max_samples={self.max_samples}, growth={self.growth})"
        )
