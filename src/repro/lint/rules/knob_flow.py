"""``knob-flow``: knob kwargs must be threaded through every call chain.

The bug class this gates is the one PRs 1, 3, 5 and 8 each fixed by hand:
a function accepts a knob (``backend=``, ``weighted=``, ``workers=`` …),
calls a callee whose signature *also* accepts that knob, and silently
drops it — the callee then re-resolves the knob from
process-wide defaults, which agrees with the caller's argument on every
test machine until the day it doesn't.  A dropped knob is a silent
wrong-answer (or wrong-performance) bug, so the contract is syntactic and
total: **if you accept a knob and your callee accepts the same knob, you
forward it explicitly.**

Mechanically, for every function ``F`` in product code with a parameter
whose name is a declared knob (the lowercased remainder of a ``REPRO_*``
variable — see :meth:`repro.lint.semantics.symbols.Project.knob_names`),
and every call site of ``F`` resolving to a project-owned callee ``G``
whose signature has the same parameter: the site must bind it — by
keyword (``backend=backend``, or an explicit pin like ``weighted="off"``,
which is a visible, auditable decision), positionally, or through a
``*args``/``**kwargs`` splat (pass-through forwarding counts; the rule
never fires on a binding it cannot see).  Unresolvable calls produce no
finding: the analysis is conservative by construction.

Intentional drops carry an audited suppression::

    # repro-lint: disable=knob-flow — audited: serial fallback probe, workers pinned off
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.lint.model import Finding, Rule, SourceFile
from repro.lint.semantics import call_sites, project_semantics

#: Path components excluded from the audit: test/bench/example code pins
#: knobs on purpose, fixture twins are deliberate violations, and the lint
#: package itself is not knob-threading product code.
DEFAULT_EXCLUDE_PARTS: Tuple[str, ...] = (
    "tests",
    "benchmarks",
    "examples",
    "fixtures",
    "lint",
)


class KnobFlowRule(Rule):
    rule_id = "knob-flow"
    description = (
        "a function accepting a knob kwarg (backend/workers/weighted/...) "
        "must forward it explicitly to every callee whose "
        "signature also accepts it — dropped knobs re-resolve from global "
        "defaults and silently diverge"
    )

    def __init__(
        self, exclude_parts: Sequence[str] = DEFAULT_EXCLUDE_PARTS
    ) -> None:
        self.exclude_parts = tuple(exclude_parts)

    def _included(self, source: SourceFile) -> bool:
        return source.tree is not None and not any(
            part in self.exclude_parts for part in source.parts
        )

    # ------------------------------------------------------------------
    def check_project(self, sources: Sequence[SourceFile]) -> List[Finding]:
        project = project_semantics(sources)
        knobs = project.knob_names(self.exclude_parts)
        if not knobs:
            return []
        findings: List[Finding] = []
        for function in project.functions():
            source = function.module.source
            if not self._included(source):
                continue
            held = [
                knob for knob in sorted(knobs) if function.accepts(knob)
            ]
            if not held:
                continue
            for site in call_sites(project, function):
                if not self._included(site.callee.module.source):
                    continue
                for knob in held:
                    if not site.callee.accepts(knob):
                        continue
                    if site.binds(knob):
                        continue
                    findings.append(
                        source.finding(
                            self.rule_id,
                            site.node,
                            f"{function.qualname}() accepts knob "
                            f"{knob!r} but drops it calling "
                            f"{site.callee.qualname}(), whose signature "
                            f"also accepts it — forward {knob}={knob} "
                            "(or pin a value explicitly); the callee "
                            "otherwise re-resolves the knob from "
                            "process-wide defaults",
                        )
                    )
        return findings
