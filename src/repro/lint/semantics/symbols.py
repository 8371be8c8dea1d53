"""Symbol table: function/method signatures, classes, knob registry.

Built once per lint run over every parsed file (see
:func:`project_semantics`), this is the layer that lets rules ask "does the
callee's signature accept ``backend``?" or "which ``REPRO_*`` knobs does
this project declare?" without re-walking ASTs per rule.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple
from weakref import WeakKeyDictionary

from repro.lint.model import SourceFile
from repro.lint.rules.common import dotted_name
from repro.lint.semantics.modules import ModuleIndex, ModuleInfo

_ENV_VALUE_RE = re.compile(r"^REPRO_[A-Z0-9_]+$")


class FunctionInfo:
    """One function or method signature, with its defining AST node."""

    def __init__(
        self,
        node: ast.AST,  # FunctionDef | AsyncFunctionDef
        module: ModuleInfo,
        owner: Optional[str] = None,
    ) -> None:
        self.node = node
        self.module = module
        self.name = node.name
        #: the class name for methods, ``None`` for module-level functions.
        self.owner = owner
        args = node.args
        self.positional: Tuple[str, ...] = tuple(
            a.arg for a in list(getattr(args, "posonlyargs", [])) + list(args.args)
        )
        self.kwonly: Tuple[str, ...] = tuple(a.arg for a in args.kwonlyargs)
        self.has_varargs = args.vararg is not None
        self.has_kwargs = args.kwarg is not None
        decorators = set()
        for decorator in node.decorator_list:
            name = dotted_name(decorator)
            if name is not None:
                decorators.add(name.rpartition(".")[2])
        self.decorators: Set[str] = decorators
        self.is_static = "staticmethod" in decorators
        self.is_classmethod = "classmethod" in decorators

    @property
    def qualname(self) -> str:
        prefix = f"{self.owner}." if self.owner else ""
        return f"{self.module.dotted}.{prefix}{self.name}"

    def accepts(self, param: str) -> bool:
        """Whether ``param`` is an explicit parameter (``**kwargs`` aside)."""
        return param in self.positional or param in self.kwonly

    def binding_positional(self, count: int, *, bound_receiver: bool) -> Set[str]:
        """The parameter names ``count`` positional arguments bind.

        ``bound_receiver`` skips the leading ``self``/``cls`` slot for
        calls through an instance or ``self.`` (static methods have no
        receiver slot regardless).
        """
        offset = 0
        if self.owner is not None and not self.is_static and bound_receiver:
            offset = 1
        return set(self.positional[offset:offset + count])


class ClassInfo:
    """One class: its methods by name and base-class names."""

    def __init__(self, node: ast.ClassDef, module: ModuleInfo) -> None:
        self.node = node
        self.module = module
        self.name = node.name
        self.bases: Tuple[str, ...] = tuple(
            base_name for base_name in
            (dotted_name(base) for base in node.bases)
            if base_name is not None
        )
        self.methods: Dict[str, FunctionInfo] = {}
        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods[statement.name] = FunctionInfo(
                    statement, module, owner=node.name
                )


class ModuleSymbols:
    """Top-level functions and classes of one module."""

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        tree = module.source.tree
        assert tree is not None
        for statement in tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[statement.name] = FunctionInfo(statement, module)
            elif isinstance(statement, ast.ClassDef):
                self.classes[statement.name] = ClassInfo(statement, module)


def _env_constant(node: ast.AST) -> str:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if _ENV_VALUE_RE.match(node.value):
            return node.value
    return ""


class Project:
    """The whole-run semantic model the cross-module rules consume."""

    def __init__(self, sources: Sequence[SourceFile]) -> None:
        self.sources: Tuple[SourceFile, ...] = tuple(sources)
        self.index = ModuleIndex(sources)
        self.symbols: Dict[str, ModuleSymbols] = {
            info.source.path: ModuleSymbols(info) for info in self.index.modules
        }
        #: ``REPRO_*`` env value → every (file, declaring node) site, in
        #: file order.  A declaration is any string literal that is exactly
        #: a ``REPRO_*`` name — a row of the :mod:`repro.knobs` table, an
        #: ``X_ENV_VAR = "REPRO_X"`` constant, an ``os.environ.get`` read.
        self.env_declarations: Dict[str, List[Tuple[SourceFile, ast.AST]]] = {}
        for info in self.index.modules:
            assert info.source.tree is not None
            for node in ast.walk(info.source.tree):
                value = _env_constant(node)
                if value:
                    self.env_declarations.setdefault(value, []).append(
                        (info.source, node)
                    )

    # ------------------------------------------------------------------
    def knob_names(self, exclude_parts: Sequence[str] = ()) -> Set[str]:
        """The knob parameter names the project declares.

        A knob is the lowercased remainder of a declared ``REPRO_*``
        variable (``REPRO_DAG_CACHE_SIZE`` → ``dag_cache_size``); declarations in
        files whose path contains an excluded part (tests, benchmarks, the
        lint package itself) do not mint knobs.
        """
        knobs: Set[str] = set()
        for env_value, sites in self.env_declarations.items():
            for source, _node in sites:
                if any(part in exclude_parts for part in source.parts):
                    continue
                knobs.add(env_value[len("REPRO_"):].lower())
                break
        return knobs

    def module_of(self, source: SourceFile) -> Optional[ModuleInfo]:
        return self.index.by_path.get(source.path)

    def symbols_of(self, module: ModuleInfo) -> ModuleSymbols:
        return self.symbols[module.source.path]

    def resolve_function(
        self, reference: str, symbol: str
    ) -> Optional[FunctionInfo]:
        """The project-owned function ``symbol`` of module ``reference``."""
        target = self.index.resolve(reference)
        if target is None:
            return None
        return self.symbols[target.source.path].functions.get(symbol)

    # ------------------------------------------------------------------
    def functions(self):
        """Iterate every module-level function and method of the run."""
        for module_symbols in self.symbols.values():
            for function in module_symbols.functions.values():
                yield function
            for class_info in module_symbols.classes.values():
                for method in class_info.methods.values():
                    yield method


# ----------------------------------------------------------------------
# One model per run: the engine hands every rule the same source list, so
# memoizing on the first file lets every semantic rule of a run share one
# model.  Keyed weakly — a finished run's model is collectable.
# ----------------------------------------------------------------------
_project_cache: "WeakKeyDictionary[SourceFile, Project]" = WeakKeyDictionary()


def project_semantics(sources: Sequence[SourceFile]) -> Project:
    """The (memoized) :class:`Project` model for one run's source list."""
    if not sources:
        return Project(())
    anchor = sources[0]
    cached = _project_cache.get(anchor)
    if cached is not None and cached.sources == tuple(sources):
        return cached
    project = Project(sources)
    _project_cache[anchor] = project
    return project
