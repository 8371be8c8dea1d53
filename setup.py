"""Package metadata for ``pip install -e .`` and ``pip install .``.

The version is read from ``src/repro/_version.py`` (the single source of
truth) without importing the package.  numpy is optional: without it only
the dict backend runs, so it is not a hard requirement.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_VERSION_FILE = Path(__file__).resolve().parent / "src" / "repro" / "_version.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"$', _VERSION_FILE.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=(
        "SaPHyRa: a learning-theory approach to ranking nodes in large "
        "networks (ICDE 2022 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
)
