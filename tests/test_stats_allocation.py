"""Tests for the per-hypothesis error-probability allocation (Eq. 13)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import allocation
from repro.stats.allocation import (
    _MIN_DELTA,
    allocate_error_probabilities,
    solve_delta_for_epsilon,
)
from repro.stats.bernstein import RunningStats, empirical_bernstein_bound
from repro.utils.validation import check_positive


def _fixed_step_solve(
    target_epsilon: float,
    num_samples: int,
    variance: float,
    *,
    value_range: float = 1.0,
) -> float:
    """The oracle: the solver as it was with a fixed 100-step bisection,
    its body copied verbatim."""
    check_positive(target_epsilon, "target_epsilon")
    if num_samples < 2:
        return 0.5
    low, high = math.log(_MIN_DELTA), math.log(0.5)

    def deviation(log_delta: float) -> float:
        return empirical_bernstein_bound(
            num_samples, math.exp(log_delta), variance, value_range=value_range
        )

    if deviation(high) > target_epsilon:
        return 0.5
    if deviation(low) <= target_epsilon:
        return _MIN_DELTA
    for _ in range(100):
        mid = 0.5 * (low + high)
        if deviation(mid) <= target_epsilon:
            high = mid
        else:
            low = mid
    return math.exp(high)


def _oracle_allocation(variances, target_epsilon, delta, num_rounds, max_samples):
    """Eq. 13 with one oracle solve per hypothesis."""
    k = len(variances)
    budget = delta / num_rounds / 2.0
    raw = [
        _fixed_step_solve(target_epsilon, max_samples, variance)
        for variance in variances
    ]
    total = sum(raw)
    if total <= 0:
        return [budget / k] * k
    scale = budget / total
    return [max(_MIN_DELTA, value * scale) for value in raw]


def _hex(values):
    return [value.hex() for value in values]


def _pilot_variance(hits: int, draws: int) -> float:
    """The pilot variance of a hypothesis hit ``hits`` times in ``draws``
    0/1 draws."""
    stats = RunningStats()
    for _ in range(hits):
        stats.add(1.0)
    stats.pad_zeros(draws - hits)
    return stats.variance()


#: Inputs whose solve takes an early exit: the 0.5 give-up, and the 1e-300
#: floor at both signed zero variances.
_EXIT_CASES = (
    (0.0001, 10, 0.25, 1.0),
    (0.1, 10**6, 0.0, 1.0),
    (0.1, 10**6, -0.0, 1.0),
)

#: Inputs that reach the bisection, with roots from near the floor
#: (log delta0 about -685) to near 0.5 (about -1.4).
_BISECTION_CASES = (
    (0.1, 16_000, 0.0, 1.0),
    (0.1, 16_000, -0.0, 1.0),
    (0.01, 10**5, 1e-9, 3.0),
    (0.05, 5000, 0.04, 1.0),
    (0.5, 40, 0.2, 1.0),
    (0.2, 60, 0.2, 1.0),
)


class TestSolveDelta:
    def test_solution_achieves_target(self):
        target = 0.05
        variance = 0.04
        num_samples = 5000
        delta0 = solve_delta_for_epsilon(target, num_samples, variance)
        achieved = empirical_bernstein_bound(num_samples, delta0, variance)
        assert achieved <= target * 1.01

    def test_larger_variance_needs_larger_delta(self):
        small = solve_delta_for_epsilon(0.05, 5000, 0.001)
        large = solve_delta_for_epsilon(0.05, 5000, 0.2)
        assert large >= small

    def test_impossible_target_returns_half(self):
        # Tiny sample budget with huge variance: even delta=0.5 cannot reach
        # the target, so the solver gives up at 0.5.
        assert solve_delta_for_epsilon(0.0001, 10, 0.25) == 0.5

    def test_few_samples_returns_half(self):
        assert solve_delta_for_epsilon(0.1, 1, 0.1) == 0.5

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            solve_delta_for_epsilon(0.0, 100, 0.1)

    def test_cases_reach_their_exits(self):
        # Keeps the case tables honest.
        assert [
            _fixed_step_solve(epsilon, samples, variance, value_range=width)
            for epsilon, samples, variance, width in _EXIT_CASES
        ] == [0.5, _MIN_DELTA, _MIN_DELTA]
        for epsilon, samples, variance, width in _BISECTION_CASES:
            solution = _fixed_step_solve(
                epsilon, samples, variance, value_range=width
            )
            assert _MIN_DELTA < solution < 0.5

    @pytest.mark.parametrize("case", _EXIT_CASES + _BISECTION_CASES)
    def test_cases_equal_fixed_step_oracle(self, case):
        epsilon, samples, variance, width = case
        assert solve_delta_for_epsilon(
            epsilon, samples, variance, value_range=width
        ).hex() == _fixed_step_solve(
            epsilon, samples, variance, value_range=width
        ).hex()

    @given(
        target_epsilon=st.floats(min_value=1e-6, max_value=2.0),
        num_samples=st.integers(min_value=2, max_value=10**9),
        variance=st.one_of(
            st.sampled_from([0.0, -0.0]),
            st.floats(min_value=0.0, max_value=0.25),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        value_range=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_fixed_step_oracle(
        self, target_epsilon, num_samples, variance, value_range
    ):
        assert solve_delta_for_epsilon(
            target_epsilon, num_samples, variance, value_range=value_range
        ).hex() == _fixed_step_solve(
            target_epsilon, num_samples, variance, value_range=value_range
        ).hex()

    def test_bisection_stops_at_its_fixpoint(self, monkeypatch):
        # The fixed-step loop evaluates the bound 2 + 100 times; stopping
        # once the float midpoint equals an end takes at most 2 + 64.
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return empirical_bernstein_bound(*args, **kwargs)

        monkeypatch.setattr(allocation, "empirical_bernstein_bound", counted)
        for epsilon, samples, variance, width in _BISECTION_CASES:
            calls.clear()
            solve_delta_for_epsilon(epsilon, samples, variance, value_range=width)
            assert len(calls) <= 66


class TestAllocation:
    def test_budget_constraint(self):
        variances = [0.01, 0.1, 0.25, 0.0]
        delta = 0.05
        rounds = 4
        allocations = allocate_error_probabilities(
            variances, target_epsilon=0.05, delta=delta, num_rounds=rounds,
            max_samples=10_000,
        )
        assert len(allocations) == len(variances)
        assert sum(2 * value for value in allocations) == pytest.approx(
            delta / rounds, rel=1e-6
        )

    def test_high_variance_gets_larger_share(self):
        allocations = allocate_error_probabilities(
            [0.001, 0.25], target_epsilon=0.05, delta=0.05, num_rounds=3,
            max_samples=50_000,
        )
        assert allocations[1] >= allocations[0]

    def test_all_positive(self):
        allocations = allocate_error_probabilities(
            [0.0, 0.0, 0.0], target_epsilon=0.1, delta=0.1, num_rounds=1,
            max_samples=1000,
        )
        assert all(value > 0 for value in allocations)

    def test_empty_input(self):
        assert allocate_error_probabilities(
            [], target_epsilon=0.1, delta=0.1, num_rounds=1, max_samples=100
        ) == []

    def test_invalid_rounds(self):
        with pytest.raises(ValueError):
            allocate_error_probabilities(
                [0.1], target_epsilon=0.1, delta=0.1, num_rounds=0, max_samples=100
            )

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            allocate_error_probabilities(
                [0.1], target_epsilon=0.1, delta=0.0, num_rounds=1, max_samples=100
            )

    def test_negative_variance_raises(self):
        with pytest.raises(ValueError):
            allocate_error_probabilities(
                [0.1, -0.1], target_epsilon=0.1, delta=0.1, num_rounds=1,
                max_samples=100,
            )

    @given(
        hits=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=400),
        target_epsilon=st.floats(min_value=1e-3, max_value=0.5),
        num_rounds=st.integers(min_value=1, max_value=8),
        max_samples=st.integers(min_value=2, max_value=10**7),
    )
    @settings(max_examples=60, deadline=None)
    def test_repeated_variances_equal_oracle(
        self, hits, target_epsilon, num_rounds, max_samples
    ):
        # Pilot variances of 0/1 losses: one value per hit count, repeated.
        variances = [_pilot_variance(count, 40) for count in hits]
        assert _hex(allocate_error_probabilities(
            variances, target_epsilon=target_epsilon, delta=0.05,
            num_rounds=num_rounds, max_samples=max_samples,
        )) == _hex(_oracle_allocation(
            variances, target_epsilon, 0.05, num_rounds, max_samples
        ))

    def test_signed_zero_variances_equal_oracle(self):
        variances = [0.0, -0.0, 0.01, -0.0, 0.0, 0.01]
        assert _hex(allocate_error_probabilities(
            variances, target_epsilon=0.05, delta=0.01, num_rounds=3,
            max_samples=20_000,
        )) == _hex(_oracle_allocation(variances, 0.05, 0.01, 3, 20_000))

    def test_solves_once_per_distinct_variance(self, monkeypatch):
        # 3,600 hypotheses whose pilot hit counts take 25 values, as in a
        # SaPHyRa_bc-full query on orkut@2.
        variances = [_pilot_variance(index % 25, 1000) for index in range(3600)]
        solved = []

        def counted(target_epsilon, num_samples, variance, **kwargs):
            solved.append(variance)
            return solve_delta_for_epsilon(
                target_epsilon, num_samples, variance, **kwargs
            )

        monkeypatch.setattr(allocation, "solve_delta_for_epsilon", counted)
        allocations = allocate_error_probabilities(
            variances, target_epsilon=0.02, delta=0.01, num_rounds=3,
            max_samples=200_000,
        )
        assert len(allocations) == 3600
        assert sorted(solved) == sorted(set(variances)) and len(solved) == 25
