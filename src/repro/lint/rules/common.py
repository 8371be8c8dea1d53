"""Helpers shared by the rule visitors."""

from __future__ import annotations

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

