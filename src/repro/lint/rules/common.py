"""Helpers shared by the rule visitors."""

from __future__ import annotations

import ast
from typing import Optional

from repro.lint.model import SourceFile

#: The modules allowed to contain level-expansion kernels and float
#: folds: the one-kernel-per-concern whitelist from the ROADMAP.
KERNEL_BASENAMES = frozenset({"csr.py", "traversal.py"})

#: Names numpy is conventionally imported under in this repo.
NUMPY_ALIASES = frozenset({"np", "numpy", "_np"})


def is_kernel_module(source: SourceFile) -> bool:
    """True for ``graphs/{csr,traversal}.py``.

    Keyed on basename + parent directory (not the absolute path) so the
    fixture corpus can mirror the layout under any root.
    """
    return (
        source.name in KERNEL_BASENAMES
        and len(source.parts) >= 2
        and source.parts[-2] == "graphs"
    )


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def is_os_environ(node: ast.AST) -> bool:
    """True for the ``os.environ`` attribute chain."""
    return dotted_name(node) == "os.environ"
