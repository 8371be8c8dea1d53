"""``repro lint``: an AST-based checker for the architecture invariants.

The ROADMAP's "Architecture invariants" section is load-bearing — the
backends, the worker pool and every kernel are required to agree bit for
bit — but equivalence tests only catch a
violation *after* it has produced wrong numbers.  This package enforces
the contracts statically, at CI time, with stdlib :mod:`ast` visitors,
one file at a time:

* ``float-fold`` — ``sum()``/``.sum()``/``np.sum``/``math.fsum`` folds
  inside the kernel modules must be integer (``int(...)``-wrapped) or
  carry an audited suppression: pairwise summation re-associates float
  additions and breaks bit-identical determinism.
* ``rng-discipline`` — no global ``random.*`` or ``np.random.*`` calls
  outside ``repro/utils/rng.py``; all randomness rides seeded streams.
* ``kernel-ownership`` — frontier/level-expansion loops and kernel
  privates (``_BatchSweep`` & co.) stay inside the whitelisted
  ``graphs/{csr,traversal}.py`` modules.
* ``suppression-stale`` — a ``disable=`` comment whose rule no longer
  fires on that line is itself a finding; exemptions must not outlive
  the code they excused.

Findings are suppressed inline with an audited reason::

    total = sum(values)  # repro-lint: disable=float-fold — sequential fold, order is pinned

Run ``repro lint`` or ``python -m repro.lint [paths...]``; the exit code
is non-zero on any unsuppressed finding.  The package is stdlib-only (no
numpy import) so the checker runs identically in the no-numpy CI leg.
"""

from __future__ import annotations

from repro.lint.engine import (
    LintReport,
    LintUsageError,
    iter_python_files,
    run_lint,
)
from repro.lint.model import Finding, Rule, SourceFile, Suppression
from repro.lint.rules import all_rule_ids, default_rules

__all__ = [
    "Finding",
    "LintReport",
    "LintUsageError",
    "Rule",
    "SourceFile",
    "Suppression",
    "all_rule_ids",
    "default_rules",
    "iter_python_files",
    "run_lint",
]
