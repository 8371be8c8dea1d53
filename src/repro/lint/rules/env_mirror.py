"""``env-mirror``: ``os.environ`` writes only inside EnvMirroredOverride.

The knob table keeps spawn workers in agreement with the parent by
mirroring every override into its ``REPRO_*`` environment variable
through :class:`repro.knobs.EnvMirroredOverride`, which also restores
the displaced value on reset.  A direct ``os.environ[...] = ...`` write
anywhere else bypasses that bookkeeping: the next worker pool inherits a
value no override tracks, and tearing it down leaks state into later
runs.  The rule flags every mutation of the process environment —
subscript assignment/deletion, ``pop``/``setdefault``/``update``/
``clear``, ``os.putenv``/``os.unsetenv`` — unless it sits inside the
``EnvMirroredOverride`` class body in ``knobs.py``.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.lint.model import Finding, Rule, SourceFile
from repro.lint.rules.common import dotted_name, is_os_environ

_MUTATING_METHODS = frozenset({"pop", "setdefault", "update", "clear", "__setitem__"})


def _environ_write(node: ast.AST) -> Optional[ast.AST]:
    """The offending node if ``node`` mutates the process environment."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Subscript) and is_os_environ(target.value):
                return target
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            if isinstance(target, ast.Subscript) and is_os_environ(target.value):
                return target
    elif isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATING_METHODS
            and is_os_environ(func.value)
        ):
            return node
        if dotted_name(func) in ("os.putenv", "os.unsetenv"):
            return node
    return None


class EnvMirrorRule(Rule):
    rule_id = "env-mirror"
    description = (
        "direct os.environ writes (assignment, del, pop, update, "
        "putenv) are allowed only inside knobs.py's "
        "EnvMirroredOverride; route overrides through the set_default_* "
        "functions so spawned workers stay in sync"
    )

    def check_file(self, source: SourceFile) -> List[Finding]:
        if source.tree is None:
            return []
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            offender = _environ_write(node)
            if offender is None:
                continue
            if source.name == "knobs.py":
                enclosing = source.enclosing_class(node)
                if enclosing is not None and enclosing.name == "EnvMirroredOverride":
                    continue
            findings.append(
                source.finding(
                    self.rule_id,
                    offender,
                    "direct write to the process environment outside "
                    "EnvMirroredOverride; use the knob's set_default_* "
                    "override (which mirrors and restores the env var) "
                    "so spawned workers and later runs stay consistent",
                )
            )
        return findings
