"""The SaPHyRa orchestrator — Algorithm 1 of the paper.

Given a :class:`~repro.core.problem.HypothesisRankingProblem` the orchestrator

1. evaluates the exact subspace in closed form (``Exact``),
2. rescales the accuracy target to ``epsilon' = epsilon / lambda`` where
   ``lambda = 1 - lambda-hat`` is the mass of the approximate subspace,
3. runs the adaptive empirical-Bernstein sampler with a VC-dimension cap on
   the approximate subspace, and
4. combines the two parts, ``l_i = l-hat_i + lambda * l-tilde_i``, which by
   Theorem 6 is an ``(epsilon, delta)``-estimation of the expected risks.
"""

from __future__ import annotations

from typing import Optional

from repro.core.adaptive import AdaptiveSampler
from repro.core.estimation import SaPHyRaResult
from repro.core.problem import HypothesisRankingProblem
from repro.core.ranking import rank_scores
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.timing import StageTimings, Timer
from repro.utils.validation import check_probability_pair, check_sample_cap


class SaPHyRa:
    """Sample-space-partitioning hypothesis ranking (Algorithm 1).

    Parameters
    ----------
    epsilon, delta:
        The ``(epsilon, delta)`` guarantee requested for the combined risk
        estimates.
    seed:
        Seed (or RNG) controlling the sampling stage.
    sample_constant:
        Constant ``c`` in the sample-size formulas (0.5 as in the paper).
    max_samples_cap:
        Optional hard cap on the number of samples in the approximate stage.
    workers:
        Worker processes for the sampling stage (``None`` resolves via
        ``REPRO_WORKERS``); bit-identical for any worker count.  Parallel
        runs ship the problem object to the workers, so it must be picklable
        when ``workers > 1``.

    Examples
    --------
    >>> from repro.core import (CallableHypothesisClass, EnumeratedProblem,
    ...                         EnumeratedSampleSpace, WeightedSample, SaPHyRa)
    >>> space = EnumeratedSampleSpace(
    ...     [WeightedSample(value, 0.25) for value in range(4)],
    ...     is_exact=lambda value: value == 0)
    >>> hypotheses = CallableHypothesisClass(
    ...     {"even": lambda x: 1.0 if x % 2 == 0 else 0.0,
    ...      "big": lambda x: 1.0 if x >= 2 else 0.0})
    >>> problem = EnumeratedProblem(space, hypotheses)
    >>> result = SaPHyRa(epsilon=0.1, delta=0.1, seed=1).rank(problem)
    >>> sorted(result.ranking)
    ['big', 'even']
    """

    def __init__(
        self,
        epsilon: float,
        delta: float,
        *,
        seed: SeedLike = None,
        sample_constant: float = 0.5,
        max_samples_cap: Optional[int] = None,
        workers: Optional[int] = None,
    ) -> None:
        check_probability_pair(epsilon, delta)
        check_sample_cap(max_samples_cap)
        self.epsilon = epsilon
        self.delta = delta
        self.seed = seed
        self.sample_constant = sample_constant
        self.max_samples_cap = max_samples_cap
        self.workers = workers

    def rank(self, problem: HypothesisRankingProblem) -> SaPHyRaResult:
        """Estimate and rank the expected risks of ``problem``'s hypotheses."""
        rng = ensure_rng(self.seed)
        timings = StageTimings()
        total_timer = Timer()
        with total_timer:
            with timings.measure("exact"):
                exact = problem.exact_evaluation()
            names = list(problem.hypothesis_names)
            if len(exact.risks) != len(names):
                raise ValueError(
                    "exact evaluation returned "
                    f"{len(exact.risks)} risks for {len(names)} hypotheses"
                )
            lambda_exact = exact.lambda_exact
            lambda_approx = max(0.0, 1.0 - lambda_exact)

            if lambda_approx <= 1e-12:
                # Everything is in the exact subspace; no sampling needed.
                combined = list(exact.risks)
                scores = dict(zip(names, combined))
                return SaPHyRaResult(
                    names=names,
                    risks=combined,
                    exact_risks=list(exact.risks),
                    approximate_risks=[0.0] * len(names),
                    ranking=rank_scores(scores),
                    epsilon=self.epsilon,
                    delta=self.delta,
                    epsilon_prime=float("inf"),
                    lambda_exact=lambda_exact,
                    lambda_approximate=0.0,
                    vc_dimension=0.0,
                    num_samples=0,
                    num_pilot_samples=0,
                    num_rounds=0,
                    converged_by="exact",
                    wall_time_seconds=total_timer.elapsed,
                    stage_seconds=dict(timings.stages),
                )

            epsilon_prime = min(1.0 - 1e-9, self.epsilon / lambda_approx)
            vc_dimension = float(problem.vc_dimension())
            sampler = AdaptiveSampler(
                epsilon=epsilon_prime,
                delta=self.delta,
                vc_dimension=vc_dimension,
                sample_constant=self.sample_constant,
                max_samples_cap=self.max_samples_cap,
            )
            with timings.measure("sampling"):
                approx = sampler.estimate(
                    problem.sample_losses, len(names), rng=rng,
                    workers=self.workers, payload=problem,
                )

            combined = [
                exact_risk + lambda_approx * approx_risk
                for exact_risk, approx_risk in zip(exact.risks, approx.estimates)
            ]
            scores = dict(zip(names, combined))

        return SaPHyRaResult(
            names=names,
            risks=combined,
            exact_risks=list(exact.risks),
            approximate_risks=list(approx.estimates),
            ranking=rank_scores(scores),
            epsilon=self.epsilon,
            delta=self.delta,
            epsilon_prime=epsilon_prime,
            lambda_exact=lambda_exact,
            lambda_approximate=lambda_approx,
            vc_dimension=vc_dimension,
            num_samples=approx.num_samples,
            num_pilot_samples=approx.num_pilot_samples,
            num_rounds=approx.num_rounds,
            converged_by=approx.converged_by,
            wall_time_seconds=total_timer.elapsed,
            stage_seconds=dict(timings.stages),
        )
