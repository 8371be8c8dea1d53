"""``suppression-stale``: every audited exception must still be live.

The suppression inventory is the repo's list of *audited* invariant
exceptions — each ``# repro-lint: disable=RULE — reason`` says "a human
looked at this line and vouched for it".  That inventory rots silently:
code under a suppression gets refactored, the rule stops firing, and the
stale comment keeps advertising an exception that no longer exists (and
would re-license a future regression on the same line without any fresh
audit).  So a suppression whose rule did not fire on the lines it covers
is itself a finding.

Staleness is judged only against rules that actually ran: a
``run_lint`` call given a rule subset without ``float-fold`` does not
mark ``float-fold`` suppressions stale, because nothing checked them
this pass.  The judgement uses the engine's partition — a suppression is
*live* for rule ``R`` if at least one ``R`` finding landed in the
suppressed list through it — so this rule cannot run standalone; the
engine drives it after all other rules (see
:func:`repro.lint.engine.run_lint`).
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from repro.lint.model import Finding, Rule, SourceFile, Suppression


class SuppressionStaleRule(Rule):
    rule_id = "suppression-stale"
    description = (
        "a # repro-lint: disable=RULE comment whose rule no longer fires "
        "on the guarded line is stale — remove it (or re-audit why it "
        "was there) so the audited-exception inventory cannot rot"
    )

    def stale_findings(
        self,
        sources: Sequence[SourceFile],
        judged_rules: Set[str],
        used: Set[Tuple[int, str]],
    ) -> List[Finding]:
        """Findings for suppressions no suppressed finding went through.

        ``judged_rules`` is the set of rule IDs that actually ran this
        pass; ``used`` holds ``(id(suppression), rule_id)`` pairs the
        engine recorded while partitioning.  A standalone comment line
        registers the same :class:`Suppression` object on two lines, so
        de-duplication is by object identity.
        """
        findings: List[Finding] = []
        for source in sources:
            seen: Set[int] = set()
            for suppressions in source.suppressions.values():
                for suppression in suppressions:
                    if id(suppression) in seen:
                        continue
                    seen.add(id(suppression))
                    findings.extend(
                        self._judge(source, suppression, judged_rules, used)
                    )
        return findings

    def _judge(
        self,
        source: SourceFile,
        suppression: Suppression,
        judged_rules: Set[str],
        used: Set[Tuple[int, str]],
    ) -> List[Finding]:
        findings = []
        for rule in suppression.rules:
            if rule == self.rule_id:
                # A suppression may itself be suppressed-stale-exempted;
                # judging that would chase its own tail.
                continue
            if rule not in judged_rules:
                continue
            if (id(suppression), rule) in used:
                continue
            findings.append(
                Finding(
                    rule=self.rule_id,
                    path=source.path,
                    line=suppression.line,
                    col=0,
                    message=(
                        f"suppression for {rule!r} is stale: the rule no "
                        "longer fires on the line(s) this comment covers "
                        f"(audited reason was: {suppression.reason!r}) — "
                        "remove the disable or re-audit the code it "
                        "guarded"
                    ),
                )
            )
        return findings
