"""Command-line front end: ``repro lint`` and ``python -m repro.lint``.

Both entry points share :func:`add_arguments`/:func:`run`, so the
subcommand and the module invocation accept identical options.  Exit
codes: 0 = clean, 1 = unsuppressed findings (or, with
``--fail-on-stale-baseline``, a baseline entry the tree no longer
produces), 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.lint.engine import LintUsageError, run_lint, select_rules
from repro.lint.rules import default_rules

#: The trees the CI job gates on; linting nothing by accident is worse
#: than linting everything by default.
DEFAULT_PATHS = ("src", "tests", "benchmarks")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the lint options on ``parser`` (shared by both CLIs)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help="files or directories to lint (default: src tests benchmarks; "
             "directories are walked, fixture directories are skipped)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="format",
        help="output format: text (path:line:col: rule: message) or a "
             "versioned json report (includes per-rule timings)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="RULE[,RULE]",
        help="run only these rule IDs (comma-separated) — lets pre-commit "
             "loops skip the whole-program pass; suppressions for rules "
             "not run are neither checked nor marked stale",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="committed ratchet file of known findings: findings listed "
             "there are reported as baselined (exit 0), only new ones "
             "fail; see also --update-baseline and "
             "--fail-on-stale-baseline",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the --baseline file from the current unsuppressed "
             "findings and exit 0 (the ratchet only ever shrinks: review "
             "the diff before committing)",
    )
    parser.add_argument(
        "--fail-on-stale-baseline",
        action="store_true",
        help="also exit non-zero when the baseline file contains entries "
             "the current tree no longer produces (CI uses this so the "
             "ratchet cannot rot)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the shipped rule IDs with their contracts and exit",
    )


def run(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.rule_id}: {rule.description}")
        return 0
    try:
        rule_filter = None
        if args.rules is not None:
            rule_filter = [
                token.strip() for token in args.rules.split(",") if token.strip()
            ]
        rules = select_rules(rule_filter)
        entries = None
        if args.baseline is not None and not args.update_baseline:
            from repro.lint.baseline import load_baseline

            entries = load_baseline(args.baseline)
        elif args.update_baseline and args.baseline is None:
            raise LintUsageError("--update-baseline requires --baseline FILE")
        report = run_lint(args.paths, rules=rules, baseline=entries)
    except LintUsageError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.update_baseline:
        from repro.lint.baseline import save_baseline

        save_baseline(args.baseline, report.findings)
        print(
            f"wrote {len(report.findings)} finding(s) to {args.baseline}; "
            "review the diff — the ratchet should only ever shrink"
        )
        return 0
    stale_fails = bool(args.fail_on_stale_baseline and report.stale_baseline)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.format())
        for entry in report.stale_baseline:
            print(
                f"{entry['path']}: stale-baseline: {entry['rule']} entry no "
                f"longer produced by the tree: {entry['message']}"
            )
        summary = (
            f"{report.files} file(s) checked: {len(report.findings)} "
            f"finding(s), {len(report.suppressed)} suppressed"
        )
        if report.baselined or report.stale_baseline:
            summary += (
                f", {len(report.baselined)} baselined, "
                f"{len(report.stale_baseline)} stale baseline entr"
                + ("y" if len(report.stale_baseline) == 1 else "ies")
            )
        print(summary)
    return 0 if report.ok and not stale_fails else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro.lint``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Statically check the repo's architecture invariants "
                    "(knob threading, float-fold discipline, RNG "
                    "discipline, env-mirror writes, kernel ownership, "
                    "suppression hygiene).",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))
