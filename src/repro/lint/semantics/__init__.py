"""Whole-program semantic model behind the ``knob-flow`` lint rule.

The per-file rules are pattern matchers; ``knob-flow`` needs to answer
questions a single AST cannot: *which function does this call site invoke,
and which keyword arguments does it bind there?*  This subpackage builds
that model once per lint run:

* :mod:`repro.lint.semantics.modules` — the module index: dotted names for
  every linted file plus per-module import/alias resolution (``import a.b
  as c``, ``from a import b as c``, relative imports), with dotted-suffix
  matching so the fixture corpus resolves under any root directory.
* :mod:`repro.lint.semantics.symbols` — the symbol table: signatures of
  every module-level function and every method (positional/keyword-only
  parameters, ``*args``/``**kwargs``, decorators), class layouts, and the
  knob-name registry derived from the ``REPRO_*`` names the code spells
  out (the rows of :mod:`repro.knobs`).
* :mod:`repro.lint.semantics.callgraph` — the call-graph builder: per
  call site, the resolved callee (through import aliases, ``from x import
  y as z`` bindings, dotted module paths and ``self.``/class-name method
  resolution) and the exact keyword/positional binding, including ``**``
  splats (treated as forwarding everything).

Everything here is conservative by construction: a call that cannot be
confidently resolved to a project-owned function simply produces no edge,
so a rule built on top can only fire on bindings it actually proved.

Rules obtain the model with :func:`project_semantics`, which memoizes on
the source list the engine passes to ``check_project`` — every rule asking
for the model of the same run shares one build.
"""

from __future__ import annotations

from repro.lint.semantics.callgraph import CallSite, call_sites
from repro.lint.semantics.modules import ModuleIndex, ModuleInfo
from repro.lint.semantics.symbols import (
    ClassInfo,
    FunctionInfo,
    Project,
    project_semantics,
)

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleIndex",
    "ModuleInfo",
    "Project",
    "call_sites",
    "project_semantics",
]
