"""Command-line front end: ``repro lint`` and ``python -m repro.lint``.

Both entry points share :data:`DESCRIPTION`, :func:`add_arguments` and
:func:`run`, so the subcommand and the module invocation describe the
same rules and accept identical options.  Exit codes: 0 = clean, 1 =
unsuppressed findings, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.lint.engine import LintUsageError, run_lint
from repro.lint.rules import default_rules

#: The trees the CI job gates on; linting nothing by accident is worse
#: than linting everything by default.
DEFAULT_PATHS = ("src", "tests", "benchmarks")

#: The ``--help`` description of both entry points, naming every shipped
#: rule from the registry.
DESCRIPTION = (
    "Statically check the repo's architecture invariants ("
    + ", ".join(rule.rule_id for rule in default_rules())
    + ").  Exits 1 on any unsuppressed finding."
)


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
        report = run_lint(args.paths)
    except LintUsageError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.format())
        print(
            f"{report.files} file(s) checked: {len(report.findings)} "
            f"finding(s), {len(report.suppressed)} suppressed"
        )
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro.lint``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint", description=DESCRIPTION
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))
