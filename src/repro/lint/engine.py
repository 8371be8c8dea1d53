"""File collection and the lint run itself.

The run pipeline: collect files → parse (suppressions included) → run
every rule over every file (individually timed) → partition findings by
suppression, recording which suppression absorbed what → judge
suppression staleness against that record.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.model import Finding, LintUsageError, Rule, SourceFile
from repro.lint.rules import all_rule_ids, default_rules
from repro.lint.rules.suppression_stale import SuppressionStaleRule

#: Directory names never descended into when a directory is linted.
#: ``fixtures`` holds the deliberate-violation corpus for the lint tests
#: — those files are linted only when passed as explicit paths.
SKIP_DIR_NAMES = frozenset(
    {"__pycache__", ".git", ".venv", "fixtures", "node_modules", ".mypy_cache"}
)


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files: int = 0
    rules: List[Rule] = field(default_factory=list)
    #: wall-clock seconds per rule, summed over every file, in registry
    #: order — the JSON report's ``summary.rule_timings``.
    timings: "OrderedDict[str, float]" = field(default_factory=OrderedDict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": 2,
            "rules": [
                {"id": rule.rule_id, "description": rule.description}
                for rule in self.rules
            ],
            "findings": [finding.to_dict() for finding in self.findings],
            "summary": {
                "files": self.files,
                "findings": len(self.findings),
                "suppressed": len(self.suppressed),
                "rule_timings": {
                    rule_id: round(seconds, 6)
                    for rule_id, seconds in self.timings.items()
                },
            },
        }


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files and directories into a sorted ``.py`` file list.

    Explicit file paths are always included (that is how the fixture
    corpus gets linted); directories are walked with ``SKIP_DIR_NAMES``
    pruned.  A path that does not exist raises :class:`LintUsageError`.
    """
    collected: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            collected.append(path)
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d not in SKIP_DIR_NAMES)
                for name in sorted(files):
                    if name.endswith(".py"):
                        collected.append(os.path.join(root, name))
        else:
            raise LintUsageError(f"no such file or directory: {path!r}")
    # De-duplicate while keeping a deterministic order.
    unique: List[str] = []
    seen = set()
    for path in sorted(collected):
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def run_lint(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
) -> LintReport:
    """Lint ``paths`` with ``rules`` (every shipped rule for ``None``).

    Meta findings (``parse-error``, ``bad-suppression``) are always
    active; rule findings whose line carries a matching
    ``# repro-lint: disable=`` comment land in ``report.suppressed``.
    Suppressions are parsed against the *full* shipped-rule registry even
    when ``rules`` is a subset — a run of ``rng-discipline`` alone must
    not re-classify valid ``float-fold`` suppressions as unknown.
    """
    active_rules = list(default_rules() if rules is None else rules)
    known = set(all_rule_ids()) | {rule.rule_id for rule in active_rules}
    sources = [SourceFile.load(path, known) for path in iter_python_files(paths)]
    by_path = {source.path: source for source in sources}

    raw: List[Finding] = []
    for source in sources:
        raw.extend(source.meta_findings)
    stale_rule: Optional[SuppressionStaleRule] = None
    timings: "OrderedDict[str, float]" = OrderedDict()
    for rule in active_rules:
        if isinstance(rule, SuppressionStaleRule):
            # Judged after partitioning — it needs to know which
            # suppressions actually absorbed a finding.
            stale_rule = rule
            continue
        started = time.perf_counter()
        for source in sources:
            raw.extend(rule.check_file(source))
        timings[rule.rule_id] = (
            timings.get(rule.rule_id, 0.0) + time.perf_counter() - started
        )

    report = LintReport(files=len(sources), rules=active_rules)
    used: Set[Tuple[int, str]] = set()

    def partition(findings: Sequence[Finding]) -> None:
        for finding in sorted(findings, key=Finding.sort_key):
            source = by_path.get(finding.path)
            suppression = (
                source.is_suppressed(finding) if source is not None else None
            )
            if suppression is not None:
                used.add((id(suppression), finding.rule))
                report.suppressed.append(finding)
            else:
                report.findings.append(finding)

    partition(raw)

    if stale_rule is not None:
        judged = {
            rule.rule_id
            for rule in active_rules
            if not isinstance(rule, SuppressionStaleRule)
        }
        started = time.perf_counter()
        stale = stale_rule.stale_findings(sources, judged, used)
        timings[stale_rule.rule_id] = time.perf_counter() - started
        partition(stale)
        report.findings.sort(key=Finding.sort_key)
        report.suppressed.sort(key=Finding.sort_key)
    report.timings = timings
    return report
