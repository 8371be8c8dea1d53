"""``repro lint``: an AST-based checker for the architecture invariants.

The ROADMAP's "Architecture invariants" section is load-bearing — the
backends, the worker pool and every kernel are required to agree bit for
bit — but equivalence tests only catch a
violation *after* it has produced wrong numbers.  This package enforces
the contracts statically, at CI time, with stdlib :mod:`ast` visitors.

Per-file pattern rules:

* ``float-fold`` — ``sum()``/``.sum()``/``np.sum``/``math.fsum`` folds
  inside the kernel modules must be integer (``int(...)``-wrapped) or
  carry an audited suppression: pairwise summation re-associates float
  additions and breaks bit-identical determinism.
* ``rng-discipline`` — no global ``random.*`` or ``np.random.*`` calls
  outside ``repro/utils/rng.py``; all randomness rides seeded streams.
* ``env-mirror`` — direct ``os.environ`` writes only inside
  ``repro/knobs.py``'s ``EnvMirroredOverride`` machinery.
* ``kernel-ownership`` — frontier/level-expansion loops and kernel
  privates (``_BatchSweep`` & co.) stay inside the whitelisted
  ``graphs/{csr,traversal}.py`` modules.

Whole-program rules (built on the :mod:`repro.lint.semantics` model —
module index with import/alias resolution, symbol table, call graph with
per-call-site keyword binding):

* ``knob-flow`` — a function that accepts a knob keyword (``backend``,
  ``weighted``, ``workers``, …) must forward it to every resolved callee
  whose signature also accepts it; a dropped knob silently reverts the
  callee to its default and the two call paths diverge.
* ``cache-version-key`` — a scope that stores into a Graph-indexed cache
  must read ``._version`` (the mutation fence), and literal cache-key
  tuples must include any ``backend``/``weighted`` knob the cached
  payload depends on.
* ``journal-hook`` — every structural graph mutation (``_adj`` writes,
  edge-counter updates) must bump ``self._version`` *and* record a delta
  in ``self._journal``; mutating another object's ``_adj`` from outside
  an owning class is flagged outright.
* ``suppression-stale`` — a ``disable=`` comment whose rule no longer
  fires on that line is itself a finding; exemptions must not outlive
  the code they excused.

Findings are suppressed inline with an audited reason::

    total = sum(values)  # repro-lint: disable=float-fold — sequential fold, order is pinned

Run ``repro lint`` or ``python -m repro.lint [paths...]``; the exit code
is non-zero on any unsuppressed finding.  ``--rules RULE[,RULE]`` filters
the run, ``--baseline FILE`` applies the committed ratchet (known
findings pass, new ones fail, stale entries shrink the file).  The
package is stdlib-only (no numpy import) so the checker runs identically
in the no-numpy CI leg.
"""

from __future__ import annotations

from repro.lint.baseline import (
    finding_entry,
    load_baseline,
    partition_against_baseline,
    save_baseline,
)
from repro.lint.engine import (
    LintReport,
    LintUsageError,
    iter_python_files,
    run_lint,
    select_rules,
)
from repro.lint.model import Finding, Rule, SourceFile, Suppression
from repro.lint.rules import all_rule_ids, default_rules
from repro.lint.semantics import Project, project_semantics

__all__ = [
    "Finding",
    "LintReport",
    "LintUsageError",
    "Project",
    "Rule",
    "SourceFile",
    "Suppression",
    "all_rule_ids",
    "default_rules",
    "finding_entry",
    "iter_python_files",
    "load_baseline",
    "partition_against_baseline",
    "project_semantics",
    "run_lint",
    "save_baseline",
    "select_rules",
]
