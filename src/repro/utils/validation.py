"""Argument-validation helpers shared across the library.

Keeping the checks in one place gives consistent error messages and keeps
algorithm code focused on the algorithm.
"""

from __future__ import annotations

from numbers import Real
from typing import Optional


def check_positive(value: Real, name: str) -> None:
    """Raise :class:`ValueError` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_non_negative(value: Real, name: str) -> None:
    """Raise :class:`ValueError` unless ``value`` is >= 0."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_in_unit_interval(value: Real, name: str, *, open_ends: bool = True) -> None:
    """Raise :class:`ValueError` unless ``value`` lies in the unit interval.

    Parameters
    ----------
    open_ends:
        When ``True`` (the default) the interval is the open ``(0, 1)``,
        matching the paper's requirement that ``epsilon, delta in (0, 1)``.
    """
    if open_ends:
        valid = 0 < value < 1
        bounds = "(0, 1)"
    else:
        valid = 0 <= value <= 1
        bounds = "[0, 1]"
    if not valid:
        raise ValueError(f"{name} must lie in {bounds}, got {value!r}")


def check_probability_pair(epsilon: Real, delta: Real) -> None:
    """Validate an ``(epsilon, delta)`` accuracy/confidence pair."""
    check_in_unit_interval(epsilon, "epsilon")
    check_in_unit_interval(delta, "delta")


def check_sample_cap(cap: Optional[int]) -> None:
    """Reject a sample cap below 1 (``None`` means uncapped)."""
    if cap is not None and cap < 1:
        raise ValueError(f"max_samples must be >= 1, got {cap}")
