"""The rule registry.

Rules register here by being listed in :func:`default_rules`; IDs are
stable and documented in the README's "Static invariants" section.  Each
rule is a per-file pattern matcher, except ``suppression-stale``, which
the engine judges after partitioning (it needs to know which
suppressions absorbed a finding).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.lint.model import META_RULES, Rule
from repro.lint.rules.float_fold import FloatFoldRule
from repro.lint.rules.kernel_ownership import KernelOwnershipRule
from repro.lint.rules.rng_discipline import RngDisciplineRule
from repro.lint.rules.suppression_stale import SuppressionStaleRule

__all__ = [
    "FloatFoldRule",
    "KernelOwnershipRule",
    "RngDisciplineRule",
    "SuppressionStaleRule",
    "all_rule_ids",
    "default_rules",
]


def default_rules() -> List[Rule]:
    """Fresh instances of every shipped rule."""
    return [
        FloatFoldRule(),
        RngDisciplineRule(),
        KernelOwnershipRule(),
        SuppressionStaleRule(),
    ]


def all_rule_ids() -> Tuple[str, ...]:
    """Every shipped rule ID plus the unsuppressable meta rules."""
    return tuple(rule.rule_id for rule in default_rules()) + META_RULES
