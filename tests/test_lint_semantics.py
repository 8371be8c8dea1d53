"""Unit tests for the ``repro.lint.semantics`` whole-program model.

The ``knob-flow`` rule leans on three promises made here: module references
resolve through aliases and ``from ... import ... as`` renames, method
calls through ``self`` resolve to the right signature with the receiver
slot accounted for, and any binding the analysis cannot *see* (splats)
counts as a binding — the call graph must be conservative, never
accusatory.
"""

from __future__ import annotations

from repro.lint import all_rule_ids
from repro.lint.model import SourceFile
from repro.lint.semantics import call_sites, project_semantics
from repro.lint.semantics.modules import ModuleIndex, dotted_name_for

KNOWN = set(all_rule_ids())


def _source(path, text):
    return SourceFile(path, text, KNOWN)


def _project(*files):
    return project_semantics([_source(path, text) for path, text in files])


def _function(project, qualname_suffix):
    for function in project.functions():
        if function.qualname.endswith(qualname_suffix):
            return function
    raise AssertionError(f"no function matching {qualname_suffix!r}")


def _sites_to(project, caller_suffix, callee_name):
    caller = _function(project, caller_suffix)
    return [
        site for site in call_sites(project, caller)
        if site.callee.name == callee_name
    ]


# ----------------------------------------------------------------------
# Module index
# ----------------------------------------------------------------------
class TestModuleIndex:
    def test_dotted_names_drop_leading_src_and_init(self):
        assert dotted_name_for(_source("src/repro/graphs/csr.py", "")) == (
            "repro.graphs.csr"
        )
        assert dotted_name_for(_source("src/repro/lint/__init__.py", "")) == (
            "repro.lint"
        )
        # Only a LEADING src component is dropped.
        assert dotted_name_for(_source("pkg/src/mod.py", "")) == "pkg.src.mod"

    def test_suffix_resolution_is_unique_or_nothing(self):
        index = ModuleIndex(
            [
                _source("src/repro/graphs/csr.py", ""),
                _source("src/repro/engine/runner.py", ""),
                _source("src/other/engine/runner.py", ""),
            ]
        )
        assert index.resolve("repro.graphs.csr").source.path == (
            "src/repro/graphs/csr.py"
        )
        assert index.resolve("csr").source.path == "src/repro/graphs/csr.py"
        # Two files end in engine.runner — ambiguity resolves to nothing.
        assert index.resolve("engine.runner") is None
        # ...but the exact dotted name still wins.
        assert index.resolve("repro.engine.runner").source.path == (
            "src/repro/engine/runner.py"
        )
        assert index.resolve("no.such.module") is None

    def test_import_alias_table(self):
        project = _project(
            ("pkg/util.py", "def helper(x):\n    return x\n"),
            (
                "pkg/app.py",
                "import pkg.util as u\n"
                "from pkg.util import helper as h\n"
                "import pkg.util\n",
            ),
        )
        module = project.module_of(project.sources[1])
        assert module.module_aliases["u"] == "pkg.util"
        assert module.symbol_imports["h"] == ("pkg.util", "helper")
        assert "pkg.util" in module.plain_imports

    def test_relative_import_resolves_against_package(self):
        project = _project(
            ("pkg/sub/__init__.py", ""),
            ("pkg/sub/util.py", "def helper(x):\n    return x\n"),
            ("pkg/sub/app.py", "from .util import helper\n"),
        )
        module = project.module_of(project.sources[2])
        assert module.symbol_imports["helper"] == ("pkg.sub.util", "helper")


# ----------------------------------------------------------------------
# Symbol table
# ----------------------------------------------------------------------
class TestSymbolTable:
    def test_signature_shape(self):
        project = _project(
            (
                "pkg/mod.py",
                "def f(a, b, *args, c=None, **kwargs):\n    return a\n",
            )
        )
        function = _function(project, "pkg.mod.f")
        assert function.positional == ("a", "b")
        assert function.kwonly == ("c",)
        assert function.has_varargs and function.has_kwargs
        assert function.accepts("a") and function.accepts("c")
        assert not function.accepts("kwargs")

    def test_method_positional_binding_skips_receiver(self):
        project = _project(
            (
                "pkg/mod.py",
                "class C:\n"
                "    def m(self, a, b=None):\n"
                "        return a\n"
                "    @staticmethod\n"
                "    def s(a, b=None):\n"
                "        return a\n",
            )
        )
        method = _function(project, "C.m")
        assert method.binding_positional(1, bound_receiver=True) == {"a"}
        assert method.binding_positional(2, bound_receiver=False) == {"self", "a"}
        static = _function(project, "C.s")
        assert static.binding_positional(1, bound_receiver=True) == {"a"}

    def test_knob_names_minted_from_env_declarations(self):
        project = _project(
            (
                "src/repro/knobs.py",
                'SSSP_ENV_VAR = "REPRO_SSSP_KERNEL"\n'
                "import os\n"
                'WORKERS = os.environ.get("REPRO_WORKERS", "1")\n',
            ),
            (
                "tests/helper.py",
                'import os\nX = os.environ.get("REPRO_TEST_ONLY", "")\n',
            ),
        )
        knobs = project.knob_names(exclude_parts=("tests",))
        assert knobs == {"sssp_kernel", "workers"}
        assert project.knob_names() == {"sssp_kernel", "workers", "test_only"}

    def test_project_model_is_memoized_per_source_list(self):
        sources = [_source("pkg/mod.py", "x = 1\n")]
        assert project_semantics(sources) is project_semantics(sources)


# ----------------------------------------------------------------------
# Call graph
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_local_call_binds_keyword_and_positional(self):
        project = _project(
            (
                "pkg/mod.py",
                "def callee(a, backend=None):\n"
                "    return a\n"
                "def by_kw(a, backend=None):\n"
                "    return callee(a, backend=backend)\n"
                "def by_pos(a, backend=None):\n"
                "    return callee(a, backend)\n"
                "def dropped(a, backend=None):\n"
                "    return callee(a)\n",
            )
        )
        (kw_site,) = _sites_to(project, "by_kw", "callee")
        assert kw_site.binds("backend") and kw_site.binds("a")
        (pos_site,) = _sites_to(project, "by_pos", "callee")
        assert pos_site.binds("backend")
        (dropped_site,) = _sites_to(project, "dropped", "callee")
        assert dropped_site.binds("a") and not dropped_site.binds("backend")

    def test_aliased_import_call_resolves(self):
        project = _project(
            ("pkg/util.py", "def helper(x, backend=None):\n    return x\n"),
            (
                "pkg/app.py",
                "import pkg.util as u\n"
                "def run(x, backend=None):\n"
                "    return u.helper(x)\n",
            ),
        )
        (site,) = _sites_to(project, "app.run", "helper")
        assert site.callee.qualname == "pkg.util.helper"
        assert not site.binds("backend")

    def test_from_import_as_call_resolves(self):
        project = _project(
            ("pkg/util.py", "def helper(x, backend=None):\n    return x\n"),
            (
                "pkg/app.py",
                "from pkg.util import helper as h\n"
                "def run(x, backend=None):\n"
                "    return h(x, backend=backend)\n",
            ),
        )
        (site,) = _sites_to(project, "app.run", "helper")
        assert site.callee.qualname == "pkg.util.helper"
        assert site.binds("backend")

    def test_self_method_call_resolves_with_receiver_offset(self):
        project = _project(
            (
                "pkg/mod.py",
                "class C:\n"
                "    def callee(self, a, backend=None):\n"
                "        return a\n"
                "    def caller(self, a, backend=None):\n"
                "        return self.callee(a, backend)\n",
            )
        )
        (site,) = _sites_to(project, "C.caller", "callee")
        # Two positional args through self. bind (a, backend) — the
        # receiver slot is implicit, not the first argument.
        assert site.binds("a") and site.binds("backend")

    def test_kwargs_splat_counts_as_forwarding(self):
        project = _project(
            (
                "pkg/mod.py",
                "def callee(a, backend=None):\n"
                "    return a\n"
                "def star(a, **kwargs):\n"
                "    return callee(a, **kwargs)\n"
                "def args_star(extra):\n"
                "    return callee(*extra)\n",
            )
        )
        (splat,) = _sites_to(project, "mod.star", "callee")
        assert splat.binds("backend")
        (args_splat,) = _sites_to(project, "args_star", "callee")
        assert args_splat.binds("backend") and args_splat.binds("a")

    def test_unresolvable_calls_are_invisible(self):
        project = _project(
            (
                "pkg/mod.py",
                "import json\n"
                "def run(x):\n"
                "    json.dumps(x)\n"
                "    unknown_name(x)\n"
                "    return x\n",
            )
        )
        function = _function(project, "pkg.mod.run")
        assert call_sites(project, function) == []
