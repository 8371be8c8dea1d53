"""Core data model for the invariant checker.

Three pieces live here, shared by every rule:

* :class:`Finding` — one diagnostic, anchored to ``path:line:col`` with a
  stable rule ID.
* :class:`Suppression` and the ``# repro-lint: disable=RULE — reason``
  comment parser (tokenize-based, so ``#`` inside string literals never
  matches).  A malformed suppression is itself a finding
  (``bad-suppression``) and cannot be suppressed.
* :class:`SourceFile` — one parsed module: source text, AST, a lazy
  child→parent node map (rules use it for "is this fold wrapped in
  ``int()``" questions), and the per-line suppression table.

Everything is stdlib-only and Python 3.9-compatible.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import PurePath
from typing import Dict, List, Optional, Set, Tuple

#: Rule IDs emitted by the checker itself rather than by a registered
#: rule.  They flag problems with the lint input (unparseable file,
#: malformed suppression) and can never be suppressed — otherwise a bad
#: suppression could hide itself.
META_RULES = ("parse-error", "bad-suppression")


class LintUsageError(Exception):
    """A problem with the lint invocation itself (e.g. a missing path)."""


@dataclass(frozen=True)
class Finding:
    """One diagnostic: ``path:line:col: rule: message``."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class Suppression:
    """One parsed ``# repro-lint: disable=...`` comment."""

    line: int  # line the comment sits on
    rules: Tuple[str, ...]
    reason: str


# The comment grammar, after the marker: ``disable=RULE[,RULE...]``,
# then a separator (em-dash, double hyphen or colon), then the reason.
# The reason is mandatory — an exemption without a recorded "why" is how
# invariants rot.
_MARKER_RE = re.compile(r"#\s*repro-lint:\s*(?P<body>.*)$")
_DISABLE_PREFIX = "disable="
_SEPARATORS = ("—", "--", ":")  # em-dash, double hyphen, colon
_RULE_ID_RE = re.compile(r"^[a-z][a-z0-9]*(-[a-z0-9]+)*$")


def _split_reason(text: str) -> Tuple[str, Optional[str]]:
    """Split ``"rule1,rule2 — reason"`` at the earliest separator."""
    best: Optional[Tuple[int, str]] = None
    for sep in _SEPARATORS:
        index = text.find(sep)
        if index != -1 and (best is None or index < best[0]):
            best = (index, sep)
    if best is None:
        return text, None
    index, sep = best
    return text[:index], text[index + len(sep):]


def parse_suppression_comment(
    path: str,
    line: int,
    comment: str,
    known_rules: Set[str],
) -> Tuple[Optional[Suppression], Optional[Finding]]:
    """Parse one comment; return ``(suppression, bad_suppression_finding)``.

    Comments without the ``repro-lint:`` marker return ``(None, None)``.
    A marker with a malformed body returns a ``bad-suppression`` finding
    instead of silently suppressing nothing.
    """
    match = _MARKER_RE.search(comment)
    if match is None:
        return None, None

    def bad(message: str) -> Tuple[None, Finding]:
        return None, Finding(
            rule="bad-suppression", path=path, line=line, col=0, message=message
        )

    body = match.group("body").strip()
    if not body.startswith(_DISABLE_PREFIX):
        return bad(
            "malformed repro-lint comment: expected "
            "'# repro-lint: disable=RULE[,RULE] — reason', got "
            f"{body!r}"
        )
    rules_text, reason = _split_reason(body[len(_DISABLE_PREFIX):])
    if reason is None or not reason.strip():
        return bad(
            "suppression must carry a reason: "
            "'# repro-lint: disable=RULE — why this exemption is sound'"
        )
    rules = tuple(token.strip() for token in rules_text.split(",") if token.strip())
    if not rules:
        return bad("suppression lists no rule IDs")
    for rule in rules:
        if not _RULE_ID_RE.match(rule):
            return bad(f"malformed rule ID {rule!r} in suppression")
        if rule in META_RULES:
            return bad(f"rule {rule!r} cannot be suppressed")
        if rule not in known_rules:
            known = ", ".join(sorted(known_rules))
            return bad(f"unknown rule {rule!r} in suppression (known: {known})")
    return Suppression(line=line, rules=rules, reason=reason.strip()), None


class SourceFile:
    """One file under lint: text, AST, suppressions, parent map."""

    def __init__(
        self,
        path: str,
        text: str,
        known_rules: Set[str],
    ) -> None:
        self.path = path
        self.text = text
        self.parts: Tuple[str, ...] = PurePath(path).parts
        self.name: str = PurePath(path).name
        self.tree: Optional[ast.Module] = None
        #: parse-error / bad-suppression findings raised while loading.
        self.meta_findings: List[Finding] = []
        #: line number -> suppressions that cover findings on that line.
        self.suppressions: Dict[int, List[Suppression]] = {}
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None
        try:
            self.tree = ast.parse(text, filename=path)
        except SyntaxError as exc:
            self.meta_findings.append(
                Finding(
                    rule="parse-error",
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    message=f"could not parse file: {exc.msg}",
                )
            )
            return
        self._collect_suppressions(known_rules)

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: str, known_rules: Set[str]) -> "SourceFile":
        with open(path, "r", encoding="utf-8") as handle:
            return cls(path, handle.read(), known_rules)

    # ------------------------------------------------------------------
    def _collect_suppressions(self, known_rules: Set[str]) -> None:
        """Scan comment tokens for ``repro-lint`` markers.

        An inline comment covers its own line; a comment-only line covers
        the next line as well, so multi-line statements can carry the
        suppression just above their first line.
        """
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(self.text).readline))
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            return  # the AST parsed, so this is vanishingly rare
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            line = token.start[0]
            suppression, bad = parse_suppression_comment(
                self.path, line, token.string, known_rules
            )
            if bad is not None:
                self.meta_findings.append(bad)
                continue
            if suppression is None:
                continue
            self.suppressions.setdefault(line, []).append(suppression)
            standalone = self.text.splitlines()[line - 1][: token.start[1]].strip() == ""
            if standalone:
                self.suppressions.setdefault(line + 1, []).append(suppression)

    # ------------------------------------------------------------------
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child → parent map over the whole AST (built once, lazily)."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            assert self.tree is not None
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    # ------------------------------------------------------------------
    def is_suppressed(self, finding: Finding) -> Optional[Suppression]:
        """The suppression covering ``finding``, if any."""
        if finding.rule in META_RULES:
            return None
        for suppression in self.suppressions.get(finding.line, []):
            if finding.rule in suppression.rules:
                return suppression
        return None

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """Anchor a finding at an AST node of this file."""
        return Finding(
            rule=rule,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class Rule:
    """Base class for lint rules: each overrides :meth:`check_file`,
    which sees one parsed module at a time."""

    rule_id: str = ""
    description: str = ""

    def check_file(self, source: SourceFile) -> List[Finding]:
        return []
