"""The runtime knob table: every ``REPRO_*`` setting, declared once.

SaPHyRa_bc takes only epsilon, delta and the target set.  The rows of
:data:`KNOBS` change how fast an answer arrives, never the answer — except
``weighted``, which selects the workload (weighted runs rank weight-minimal
shortest paths).  A row holds a knob's name, environment variable, default,
value kind and help text; everything else is derived from it:

* :meth:`Knob.resolve` — ``arg > override > env > default``.  The
  environment value is validated on every call, so a typo'd variable fails
  at the next resolution with an error naming the variable.
* :meth:`Knob.override` — the process-wide override behind the owning
  module's ``set_default_*``.  It is mirrored into the environment
  variable (:class:`EnvMirroredOverride`) because ``spawn`` and
  ``forkserver`` workers re-import modules fresh and resolve from the
  environment; ``None`` restores the value the first override displaced.
* :func:`add_cli_flags`, :func:`check` and :func:`apply` — the CLI flags,
  the ``ExperimentConfig`` validation and the runner/CLI installation of a
  mapping of row values.

The owning modules bind their public names to the rows and keep their own
``effective_*`` policy.  This module uses only the standard library,
imports nothing from ``repro`` and touches no environment variable at
import time.

>>> knob = Choice("colour", "REPRO_DOCTEST_COLOUR", "red", ("red", "blue"), "")
>>> knob.resolve(), knob.resolve("blue")
('red', 'blue')
>>> knob.resolve("green")
Traceback (most recent call last):
...
ValueError: colour='green' is not a valid colour mode; choose one of ('red', 'blue') (the default can also be set via the REPRO_DOCTEST_COLOUR environment variable)
"""

from __future__ import annotations

import argparse
import os
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

#: Sentinel marking "no override active" for the displaced-env bookkeeping.
_UNSET = object()


class KnobTypeError(TypeError, ValueError):
    """A knob value of the wrong type: a ``TypeError`` to code that passes
    one, and a ``ValueError`` to configs rejecting bad values."""


class EnvMirroredOverride:
    """Process-wide override mirrored into an environment variable.

    Setting an override writes the encoded value into the variable —
    ``fork`` children copy the module state, but ``spawn`` children
    re-import modules fresh and resolve from the environment — and the
    *first* override displaces the variable's prior value so clearing the
    override (``set(None)``) can put it back.
    """

    __slots__ = ("env_var", "_displaced")

    def __init__(self, env_var: str) -> None:
        self.env_var = env_var
        self._displaced: object = _UNSET

    def set(self, encoded: Optional[str]) -> None:
        """Mirror ``encoded`` into the variable; ``None`` restores the
        value the first override displaced."""
        if encoded is None:
            if self._displaced is not _UNSET:
                if self._displaced is None:
                    os.environ.pop(self.env_var, None)
                else:
                    os.environ[self.env_var] = self._displaced  # type: ignore[assignment]
                self._displaced = _UNSET
            return
        if self._displaced is _UNSET:
            self._displaced = os.environ.get(self.env_var)
        os.environ[self.env_var] = encoded


class Knob:
    """One row of the table; subclasses define the value kind.

    A kind implements :meth:`parse` (environment or command-line text to a
    value), :meth:`check` (a value passed by code) and :meth:`encode` (a
    value to its environment text).  ``source`` names where a value came
    from — the knob name for arguments and overrides, the variable for the
    environment — and every error also names the variable.
    """

    __slots__ = ("name", "env", "default", "help", "value", "_mirror",
                 "_env_text", "_env_value")

    #: Placeholder for the value in ``--help`` (kinds without choices).
    metavar = ""

    def __init__(self, name: str, env: str, default: Any, help: str) -> None:
        self.name = name
        self.env = env
        self.default = default
        self.help = help
        #: The process-wide override (``None`` = none active).
        self.value: Any = None
        self._mirror = EnvMirroredOverride(env)
        # The last valid environment text and its parsed value, so an
        # unchanged variable is not re-parsed on every resolution.
        self._env_text: Optional[str] = None
        self._env_value: Any = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def resolve(self, arg: Any = None) -> Any:
        """``arg`` if given, else the override, else the environment value,
        else the default; the environment is validated either way."""
        text = os.environ.get(self.env)
        if text != self._env_text:
            stripped = None if text is None else text.strip()
            self._env_value = self.parse(stripped, self.env) if stripped else None
            self._env_text = text
        if arg is not None:
            return self.check(arg, self.name)
        if self.value is not None:
            return self.value
        env = self._env_value
        return self.default if env is None else env

    def override(self, value: Any) -> None:
        """Set (or with ``None`` clear) the process-wide override."""
        if value is not None:
            value = self.check(value, self.name)
        self._mirror.set(None if value is None else self.encode(value))
        self.value = value

    def parse(self, text: str, source: str) -> Any:
        return self.check(text, source)

    def encode(self, value: Any) -> str:
        return str(value)

    def cli_options(self) -> Dict[str, Any]:
        return {"type": self._parse_flag, "metavar": self.metavar}

    def _parse_flag(self, text: str) -> Any:
        # argparse ``type=``: a bad value becomes a usage error (exit 2)
        # naming the flag instead of a traceback from the setter.
        try:
            return self.parse(text, self.name)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None

    def _error(self, kind: type, message: str) -> Exception:
        return kind(
            f"{message} (the default can also be set via the {self.env} "
            "environment variable)"
        )


class Choice(Knob):
    """One of a fixed tuple of names (case-insensitive in the environment)."""

    __slots__ = ("choices",)

    def __init__(self, name: str, env: str, default: Optional[str],
                 choices: Tuple[str, ...], help: str) -> None:
        super().__init__(name, env, default, help)
        self.choices = choices

    def parse(self, text: str, source: str) -> str:
        return self.check(text.lower(), source)

    def check(self, value: Any, source: str) -> str:
        if value in self.choices:
            return value
        raise self._error(
            ValueError,
            f"{source}={value!r} is not a valid {self.name} mode; "
            f"choose one of {self.choices}",
        )

    def cli_options(self) -> Dict[str, Any]:
        return {"choices": self.choices}


class Count(Knob):
    """An int with a minimum."""

    __slots__ = ("minimum",)
    metavar = "N"

    def __init__(self, name: str, env: str, default: int, minimum: int,
                 help: str) -> None:
        super().__init__(name, env, default, help)
        self.minimum = minimum

    def parse(self, text: str, source: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise self._error(
                ValueError,
                f"{source}={text!r} is not an integer >= {self.minimum}",
            ) from None
        return self.check(value, source)

    def check(self, value: Any, source: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise self._error(
                KnobTypeError,
                f"{source} must be an int >= {self.minimum}, "
                f"got {type(value).__name__}",
            )
        if value < self.minimum:
            raise self._error(
                ValueError, f"{source} must be >= {self.minimum}, got {value}"
            )
        return value


class FilePath(Knob):
    """A non-empty filesystem path, kept as ``str``."""

    __slots__ = ()
    metavar = "DIR"

    def check(self, value: Any, source: str) -> str:
        try:
            path = os.fspath(value)
        except TypeError:
            path = None
        if not isinstance(path, str):
            raise self._error(
                KnobTypeError,
                f"{source} must be a path, got {type(value).__name__}",
            )
        if not path.strip():
            raise self._error(
                ValueError, f"{source} must be a non-empty path, got {path!r}"
            )
        return path


_SPEED = "  Never changes results, only wall-clock time."

BACKEND = Choice(
    "backend", "REPRO_BACKEND", "auto", ("auto", "dict", "csr"),
    "traversal backend: csr (array kernels), dict (reference loops) or auto "
    "(pick per graph size)." + _SPEED,
)
WEIGHTED = Choice(
    "weighted", "REPRO_WEIGHTED", "auto", ("auto", "on", "off"),
    "weighted SSSP routing: auto (use edge weights iff the graph has them), "
    "on (Dijkstra, absent weights count as 1) or off (hop distances).  "
    "Selects the workload, so it can change results.",
)
WORKERS = Count(
    "workers", "REPRO_WORKERS", 0, 0,
    "worker processes for source sweeps and sampling (0 = serial, the "
    "default)." + _SPEED,
)
START_METHOD = Choice(
    "start_method", "REPRO_START_METHOD", None, ("fork", "spawn", "forkserver"),
    "multiprocessing start method of the worker pool (the platform default "
    "when unset)." + _SPEED,
)
SNAPSHOT_DIR = FilePath(
    "snapshot_dir", "REPRO_SNAPSHOT_DIR", None,
    "persistent ground truth: exact betweenness is kept in DIR/ground_truth "
    "across processes (memory only when unset).  Never changes results, "
    "only the time to recompute it.",
)

#: Every knob, in command-line flag order.
KNOBS: Tuple[Knob, ...] = (BACKEND, WEIGHTED, WORKERS, START_METHOD, SNAPSHOT_DIR)


def add_cli_flags(parser: argparse.ArgumentParser) -> None:
    """Add one ``--flag`` per row.  ``default=None``: an absent flag leaves
    the environment variable (or the built-in default) in charge."""
    for knob in KNOBS:
        parser.add_argument(
            knob.flag,
            default=None,
            help=f"{knob.help}  Overrides {knob.env} when given.",
            **knob.cli_options(),
        )


def check(values: Mapping[str, Any]) -> None:
    """Validate every non-``None`` row value in ``values``."""
    for knob in KNOBS:
        value = values.get(knob.name)
        if value is not None:
            knob.check(value, knob.name)


def apply(values: Mapping[str, Any], *, exclude: Iterable[str] = ()) -> None:
    """Install every non-``None`` row value in ``values`` (rows named in
    ``exclude`` aside) as its process-wide, env-mirrored override."""
    for knob in KNOBS:
        value = values.get(knob.name)
        if value is not None and knob.name not in exclude:
            knob.override(value)
