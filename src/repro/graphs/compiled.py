"""Whether numba is importable.

No kernel uses numba; the flag is kept only because the end-to-end
benchmark (``perfbench/run.py``) reports it in its environment line.
"""

from __future__ import annotations

import importlib.util

#: Whether numba is importable (checked without importing it).
HAS_NUMBA = importlib.util.find_spec("numba") is not None
