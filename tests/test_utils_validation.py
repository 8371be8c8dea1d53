"""Tests for repro.utils.validation."""

from __future__ import annotations

import pytest

from repro.core import SaPHyRa
from repro.saphyra_bc import SaPHyRaBC
from repro.saphyra_cc import SaPHyRaCC
from repro.utils.validation import (
    check_in_unit_interval,
    check_non_negative,
    check_positive,
    check_probability_pair,
    check_sample_cap,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive(0.1, "x")
        check_positive(5, "x")

    @pytest.mark.parametrize("value", [0, -1, -0.5])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match="x"):
            check_positive(value, "x")


class TestCheckNonNegative:
    def test_accepts_zero_and_positive(self):
        check_non_negative(0, "x")
        check_non_negative(3.5, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative(-0.001, "x")


class TestCheckInUnitInterval:
    @pytest.mark.parametrize("value", [0.001, 0.5, 0.999])
    def test_open_interval_accepts_interior(self, value):
        check_in_unit_interval(value, "x")

    @pytest.mark.parametrize("value", [0.0, 1.0, -0.1, 1.1])
    def test_open_interval_rejects_boundary_and_outside(self, value):
        with pytest.raises(ValueError):
            check_in_unit_interval(value, "x")

    @pytest.mark.parametrize("value", [0.0, 1.0, 0.5])
    def test_closed_interval_accepts_boundary(self, value):
        check_in_unit_interval(value, "x", open_ends=False)

    @pytest.mark.parametrize("value", [-0.01, 1.01])
    def test_closed_interval_rejects_outside(self, value):
        with pytest.raises(ValueError):
            check_in_unit_interval(value, "x", open_ends=False)


class TestCheckProbabilityPair:
    def test_accepts_valid_pair(self):
        check_probability_pair(0.05, 0.01)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            check_probability_pair(0.0, 0.01)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError, match="delta"):
            check_probability_pair(0.05, 1.0)


class TestCheckSampleCap:
    @pytest.mark.parametrize("cap", [None, 1, 500])
    def test_accepts_none_and_positive(self, cap):
        check_sample_cap(cap)

    @pytest.mark.parametrize("cap", [0, -5])
    @pytest.mark.parametrize("estimator", [SaPHyRa, SaPHyRaBC, SaPHyRaCC])
    def test_estimators_reject_caps_below_one(self, estimator, cap):
        with pytest.raises(ValueError, match=f"max_samples must be >= 1, got {cap}"):
            estimator(0.1, 0.1, max_samples_cap=cap)
