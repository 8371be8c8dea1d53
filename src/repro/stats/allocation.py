"""Per-hypothesis error-probability allocation (Eq. 13 of the paper).

The adaptive sampler stops when the empirical Bernstein deviation of *every*
hypothesis is below the target ``epsilon'``.  The total failure probability
``delta`` has to be split across hypotheses and doubling rounds:

    sum_i 2 delta_i = delta / ceil(log2(N_max / N_0))

Hypotheses with large variance need a larger share of ``delta`` (a looser
``delta_i`` makes their Bernstein deviation smaller), so the allocation first
solves, for each hypothesis, the ``delta_i`` that would make its deviation
exactly ``epsilon'`` at the maximum sample size given a pilot variance
estimate, and then rescales all ``delta_i`` so the budget constraint holds.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.stats.bernstein import empirical_bernstein_bound
from repro.utils.validation import check_in_unit_interval, check_positive

#: Smallest admissible per-hypothesis probability; avoids log(0) blowups.
_MIN_DELTA = 1e-300


def solve_delta_for_epsilon(
    target_epsilon: float,
    num_samples: int,
    variance: float,
    *,
    value_range: float = 1.0,
) -> float:
    """Find ``delta0`` such that the Bernstein deviation equals ``target_epsilon``.

    The deviation is monotone decreasing in ``delta0``; a binary search over
    ``log(delta0)`` keeps ``deviation(low) > target_epsilon >=
    deviation(high)`` at entry and after every step, and returns
    ``exp(high)``.  Once the float midpoint equals ``low`` or ``high``, a
    step would move neither end, and neither would any later step, so the
    search stops there: after 52-63 halvings of the bracket, with the value
    any longer run of steps would return.  If even ``delta0`` close to 1
    cannot reach the target (variance too large for the sample budget), 0.5
    is returned; if a vanishingly small ``delta0`` already satisfies it, the
    floor ``1e-300`` is returned.
    """
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
    while True:
        mid = 0.5 * (low + high)
        if mid == low or mid == high:
            return math.exp(high)
        if deviation(mid) <= target_epsilon:
            high = mid
        else:
            low = mid


def allocate_error_probabilities(
    variances: Sequence[float],
    target_epsilon: float,
    delta: float,
    num_rounds: int,
    max_samples: int,
    *,
    value_range: float = 1.0,
) -> List[float]:
    """Allocate per-hypothesis error probabilities ``delta_i`` (Eq. 13).

    Parameters
    ----------
    variances:
        Pilot sample variances, one per hypothesis.
    target_epsilon:
        The per-hypothesis deviation target ``epsilon'``.
    delta:
        Overall failure probability.
    num_rounds:
        ``ceil(log2(N_max / N_0))`` — number of doubling rounds the budget is
        shared across (at least 1).
    max_samples:
        ``N_max``; the sample size at which the target should be achievable.

    Returns
    -------
    list of float
        ``delta_i`` values satisfying ``sum_i 2 delta_i = delta / num_rounds``.
    """
    check_in_unit_interval(delta, "delta")
    check_positive(target_epsilon, "target_epsilon")
    if num_rounds < 1:
        raise ValueError(f"num_rounds must be >= 1, got {num_rounds}")
    k = len(variances)
    if k == 0:
        return []
    budget = delta / num_rounds / 2.0
    # The solution depends on the variance alone, and 0/1 losses leave few
    # distinct pilot variances (one per pilot hit count), so each is solved
    # once.
    solved: Dict[float, float] = {}
    for variance in variances:
        if variance not in solved:
            solved[variance] = solve_delta_for_epsilon(
                target_epsilon, max_samples, variance, value_range=value_range
            )
    raw = [solved[variance] for variance in variances]
    total = sum(raw)
    if total <= 0:
        return [budget / k] * k
    scale = budget / total
    return [max(_MIN_DELTA, value * scale) for value in raw]
