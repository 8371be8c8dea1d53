"""Tests for the adaptive empirical-Bernstein sampler."""

from __future__ import annotations

import random

import pytest

from repro.core.adaptive import AdaptiveSampler, _losses_chunk, _RiskAccumulator
from repro.parallel import chunk_rng
from repro.utils.rng import ensure_rng


def bernoulli_sampler(means, rng_holder):
    """Return a sample_losses callable drawing independent Bernoullis."""

    def sample(rng):
        rng = ensure_rng(rng)
        return {
            index: 1.0
            for index, mean in enumerate(means)
            if rng.random() < mean
        }

    return sample


class TestSampleSizes:
    def test_initial_smaller_than_maximum(self):
        sampler = AdaptiveSampler(0.05, 0.05, vc_dimension=4)
        assert sampler.initial_sample_size() <= sampler.maximum_sample_size()

    def test_maximum_grows_with_vc(self):
        small = AdaptiveSampler(0.05, 0.05, vc_dimension=1).maximum_sample_size()
        large = AdaptiveSampler(0.05, 0.05, vc_dimension=10).maximum_sample_size()
        assert large > small

    def test_cap_respected(self):
        sampler = AdaptiveSampler(0.01, 0.01, vc_dimension=10, max_samples_cap=500)
        assert sampler.maximum_sample_size() <= 500
        assert sampler.initial_sample_size() <= 500

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AdaptiveSampler(0.0, 0.1, 1)
        with pytest.raises(ValueError):
            AdaptiveSampler(0.1, 0.1, -1)


class TestEstimate:
    def test_estimates_close_to_truth(self):
        means = [0.05, 0.3, 0.6]
        sampler = AdaptiveSampler(0.05, 0.05, vc_dimension=2)
        result = sampler.estimate(
            bernoulli_sampler(means, None), len(means), rng=11
        )
        for estimate, mean in zip(result.estimates, means):
            assert abs(estimate - mean) < 0.05

    def test_stops_early_for_low_variance(self):
        # All-zero losses: variance 0, the Bernstein rule fires immediately.
        sampler = AdaptiveSampler(0.05, 0.05, vc_dimension=8)
        result = sampler.estimate(lambda rng: {}, 3, rng=1)
        assert result.converged_by == "bernstein"
        assert result.num_samples < sampler.maximum_sample_size()

    def test_high_variance_uses_more_samples(self):
        low = AdaptiveSampler(0.05, 0.05, vc_dimension=6).estimate(
            bernoulli_sampler([0.01], None), 1, rng=3
        )
        high = AdaptiveSampler(0.05, 0.05, vc_dimension=6).estimate(
            bernoulli_sampler([0.5], None), 1, rng=3
        )
        assert high.num_samples >= low.num_samples

    def test_never_exceeds_maximum(self):
        sampler = AdaptiveSampler(0.2, 0.2, vc_dimension=3, max_samples_cap=300)
        result = sampler.estimate(bernoulli_sampler([0.5, 0.5], None), 2, rng=5)
        assert result.num_samples <= sampler.maximum_sample_size()

    def test_deterministic_given_seed(self):
        sampler = AdaptiveSampler(0.1, 0.1, vc_dimension=2)
        first = sampler.estimate(bernoulli_sampler([0.2, 0.4], None), 2, rng=9)
        second = sampler.estimate(bernoulli_sampler([0.2, 0.4], None), 2, rng=9)
        assert first.estimates == second.estimates
        assert first.num_samples == second.num_samples

    def test_delta_allocations_length(self):
        sampler = AdaptiveSampler(0.1, 0.1, vc_dimension=2)
        result = sampler.estimate(bernoulli_sampler([0.2, 0.4, 0.1], None), 3, rng=2)
        assert len(result.delta_allocations) == 3
        assert all(value > 0 for value in result.delta_allocations)

    def test_invalid_hypothesis_count(self):
        sampler = AdaptiveSampler(0.1, 0.1, vc_dimension=1)
        with pytest.raises(ValueError):
            sampler.estimate(lambda rng: {}, 0)

    def test_deviations_reported(self):
        sampler = AdaptiveSampler(0.1, 0.1, vc_dimension=1)
        result = sampler.estimate(bernoulli_sampler([0.3], None), 1, rng=4)
        assert len(result.deviations) == 1
        if result.converged_by == "bernstein":
            assert result.deviations[0] <= 0.1


def test_chunk_partials_hold_only_touched_hypotheses():
    sample = bernoulli_sampler([0.0, 0.3, 0.0, 0.6, 0.0, 0.0], None)
    draws, totals, totals_sq, stats = _losses_chunk((sample, 6, 17), (0, 64))
    assert draws == 64 and stats is None
    assert set(totals) == set(totals_sq) == {1, 3}
    rng = chunk_rng(17, 0)
    dense = _RiskAccumulator(6)
    for _ in range(64):
        dense.add(sample(rng))
    merged = _RiskAccumulator(6)
    merged.merge(draws, totals, totals_sq)
    assert merged.totals == dense.totals and merged.totals_sq == dense.totals_sq


class TestGuarantee:
    def test_epsilon_delta_guarantee_over_repetitions(self):
        """Repeated runs should miss the (epsilon) target far less often than
        delta (the bound is conservative)."""
        means = [0.1, 0.45]
        epsilon, delta = 0.08, 0.2
        failures = 0
        trials = 30
        for trial in range(trials):
            sampler = AdaptiveSampler(epsilon, delta, vc_dimension=2)
            result = sampler.estimate(
                bernoulli_sampler(means, None), len(means), rng=trial
            )
            if any(
                abs(estimate - mean) >= epsilon
                for estimate, mean in zip(result.estimates, means)
            ):
                failures += 1
        assert failures <= max(2, int(2 * delta * trials))
