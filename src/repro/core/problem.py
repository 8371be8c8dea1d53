"""The problem interface the SaPHyRa orchestrator consumes.

A *hypothesis ranking problem* bundles the sample space, the distribution,
the hypothesis class and the exact/approximate partition behind four
operations.  Big instantiations (SaPHyRa_bc) implement the protocol directly
over the graph; :class:`EnumeratedProblem` adapts an explicit
:class:`~repro.core.sample_space.EnumeratedSampleSpace` for small problems
and tests.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Protocol, Sequence, runtime_checkable

from repro.core.estimation import ExactEvaluation
from repro.core.hypothesis import HypothesisClass
from repro.core.risk import exact_expected_risks
from repro.core.sample_space import EnumeratedSampleSpace
from repro.stats.vc import pi_max_vc_bound
from repro.utils.rng import SeedLike


@runtime_checkable
class HypothesisRankingProblem(Protocol):
    """What the SaPHyRa orchestrator (Algorithm 1) needs from a problem."""

    @property
    def hypothesis_names(self) -> Sequence[Hashable]:
        """Identifiers of the hypotheses; fixes the order of all outputs."""

    def exact_evaluation(self) -> ExactEvaluation:
        """Run the ``Exact`` algorithm: mass and risks of the exact subspace."""

    def sample_losses(self, rng: SeedLike = None) -> Mapping[int, float]:
        """Draw one sample from ``D-tilde`` and return its sparse losses.

        Optional chunk hook: a problem with a true ``chunk_draws`` attribute
        also accepts ``sample_losses(rng, draws)`` and returns the list of
        ``draws`` loss mappings, consuming the RNG in an order the problem
        pins (a single draw is its ``draws=1`` case); the sampling engine
        then hands it whole chunks.
        """

    def vc_dimension(self) -> float:
        """An upper bound on the VC dimension of the hypothesis class
        restricted to the approximate subspace."""


class EnumeratedProblem:
    """Adapt an enumerated sample space + hypothesis class to the protocol.

    Parameters
    ----------
    space:
        The partitioned, fully enumerated sample space.
    hypothesis_class:
        The hypotheses to rank.
    vc_bound:
        Optional explicit VC bound; when omitted it is derived from
        ``pi_max`` over the approximate subspace (Lemma 5), which is exact
        to compute here because the space is enumerated.
    """

    def __init__(
        self,
        space: EnumeratedSampleSpace,
        hypothesis_class: HypothesisClass,
        vc_bound: float | None = None,
    ) -> None:
        self._space = space
        self._hypothesis_class = hypothesis_class
        if vc_bound is None:
            pi_max = 0
            for sample in space.approximate_samples():
                fired = len(hypothesis_class.losses(sample.value))
                if fired > pi_max:
                    pi_max = fired
            vc_bound = pi_max_vc_bound(pi_max)
        self._vc_bound = float(vc_bound)

    @property
    def hypothesis_names(self) -> Sequence[Hashable]:
        return self._hypothesis_class.names

    @property
    def space(self) -> EnumeratedSampleSpace:
        """The underlying enumerated sample space."""
        return self._space

    @property
    def hypothesis_class(self) -> HypothesisClass:
        """The underlying hypothesis class."""
        return self._hypothesis_class

    def exact_evaluation(self) -> ExactEvaluation:
        """Sum the exact-subspace atoms in closed form (Eq. 9)."""
        risks = exact_expected_risks(
            self._hypothesis_class, self._space.exact_samples()
        )
        return ExactEvaluation(
            lambda_exact=self._space.lambda_exact, risks=risks
        )

    def sample_losses(self, rng: SeedLike = None) -> Dict[int, float]:
        sample = self._space.sample_approximate(rng)
        return dict(self._hypothesis_class.losses(sample))

    def vc_dimension(self) -> float:
        return self._vc_bound

    # ------------------------------------------------------------------
    # Reference quantities for tests / examples
    # ------------------------------------------------------------------
    def true_risks(self) -> Dict[Hashable, float]:
        """Exact expected risks over the *whole* space (ground truth)."""
        risks = exact_expected_risks(self._hypothesis_class, self._space.all_samples())
        return dict(zip(self._hypothesis_class.names, risks))
