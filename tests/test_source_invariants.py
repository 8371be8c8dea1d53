"""Three source contracts behind bit-identical answers, checked on the
syntax trees of ``src/``, ``tests/`` and ``benchmarks/``.

The backends and worker counts agree bit for bit only while three things
hold that no equivalence test sees before a number is already wrong:

* **float-fold**: in the kernel modules ``graphs/csr.py`` and
  ``graphs/traversal.py``, every ``sum``, ``fsum`` and ``.sum()`` call is
  the direct argument of ``int(...)``.  numpy's ``.sum()`` adds pairwise,
  which re-associates float additions; an ``int``-wrapped fold is an
  integer fold, whose order cannot change its value.
* **rng-discipline**: outside ``utils/rng.py``, nothing reads
  ``random.<attr>`` other than ``Random``/``SystemRandom``, and nothing
  uses ``np.random``.  Global RNG state makes a result depend on what ran
  before it, not only on the seed.
* **kernel-ownership**: outside the kernel modules, nothing imports a
  ``_``-private name from them or reads a kernel private, no ``while``
  loop tests a frontier name and rebinds one, and nothing assigns
  ``next_frontier`` or ``new_frontier``.  Level expansion lives in one
  kernel, ``csr._BatchSweep``; private copies of it would each have to
  relearn every determinism fix.

Each contract keeps one allowlist of audited sites, keyed by file and
enclosing qualified name, with the reason the site is sound.  Its test
asserts that the sites found equal the allowlist: a new site fails, and
so does an entry whose site is gone.  Inline snippets run through the
same predicates pin each one's branches.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterator, NamedTuple, Tuple

import pytest

#: The modules that own level expansion and its float folds.
KERNEL_MODULES = frozenset(
    {"src/repro/graphs/csr.py", "src/repro/graphs/traversal.py"}
)

#: The one module that mints seeded streams from the global ``random``.
RNG_HOME = "src/repro/utils/rng.py"

#: Names numpy is imported under in this repo.
NUMPY_ALIASES = frozenset({"np", "numpy", "_np"})

#: Kernel helpers that callers outside the kernel modules must not reach.
KERNEL_PRIVATES = frozenset(
    {
        "_BatchSweep",
        "_StaggeredSweep",
        "_backward_dependencies",
        "_shared_state",
        "_sigma_may_overflow",
    }
)

#: Names of a level-expansion loop's next frontier.
SCRATCH_FRONTIERS = frozenset({"next_frontier", "new_frontier"})

#: One finding: the node found and what it is.
Finding = Tuple[ast.AST, str]


def _scopes(tree: ast.AST) -> Dict[ast.AST, str]:
    """``{node: scope}`` for every node of ``tree``: the dotted name of the
    innermost enclosing class or function, or ``<module>``."""
    scopes = {}
    stack = [(tree, "<module>")]
    while stack:
        node, scope = stack.pop()
        scopes[node] = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    return scopes


def _bound_names(node: ast.AST) -> Tuple[str, ...]:
    """The plain names an assignment statement binds (tuple targets not)."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return ()
    return tuple(target.id for target in targets if isinstance(target, ast.Name))


def _is_frontier(name: str) -> bool:
    return "frontier" in name.lower()


def float_folds(tree: ast.AST) -> Iterator[Finding]:
    """``sum``/``fsum``/``.sum()`` calls that are not ``int(...)``'s
    direct argument."""
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    wrapped = {
        arg
        for call in calls
        if isinstance(call.func, ast.Name) and call.func.id == "int"
        for arg in call.args
    }
    for call in calls:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("sum", "fsum") and call not in wrapped:
            yield call, f"unwrapped fold `{ast.unparse(call)}`"


def global_rng_uses(tree: ast.AST) -> Iterator[Finding]:
    """Reads of the global ``random`` state and any ``np.random`` use."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)):
            continue
        owner = node.value.id
        if (owner == "random" and node.attr not in ("Random", "SystemRandom")) or (
            owner in NUMPY_ALIASES and node.attr == "random"
        ):
            yield node, f"global RNG `{owner}.{node.attr}`"


def kernel_copies(tree: ast.AST) -> Iterator[Finding]:
    """Reaches into the kernel modules' privates, and frontier loops."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] in ("csr", "traversal"):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        yield node, f"imports `{alias.name}`"
        elif isinstance(node, ast.Attribute) and node.attr in KERNEL_PRIVATES:
            yield node, f"reads `{node.attr}`"
        elif isinstance(node, ast.While):
            tests_frontier = any(
                isinstance(sub, ast.Name) and _is_frontier(sub.id)
                for sub in ast.walk(node.test)
            )
            if tests_frontier and any(
                _is_frontier(name)
                for statement in node.body
                for sub in ast.walk(statement)
                for name in _bound_names(sub)
            ):
                yield node, "frontier loop"
        elif not SCRATCH_FRONTIERS.isdisjoint(_bound_names(node)):
            yield node, "assigns a scratch frontier"


class Contract(NamedTuple):
    find: Callable[[ast.AST], Iterator[Finding]]
    covers: Callable[[str], bool]
    #: ``{"path::qualified.name": why the site is sound}``
    allowed: Dict[str, str]


CONTRACTS = {
    "float-fold": Contract(
        float_folds,
        lambda path: path in KERNEL_MODULES,
        {
            "src/repro/graphs/csr.py::distance_stats_from_row": (
                "builtin sum over tolist() is the pinned sequential "
                "node-index-order fold"
            ),
        },
    ),
    "rng-discipline": Contract(
        global_rng_uses, lambda path: path != RNG_HOME, {}
    ),
    "kernel-ownership": Contract(
        kernel_copies,
        lambda path: path not in KERNEL_MODULES,
        {
            "src/repro/graphs/bidirectional.py::_SearchSide.expand": (
                "the hash-adjacency reference search the stacked CSR search "
                "is pinned against (TestBidirectionalEquivalence); "
                "_BatchSweep reads only CSR arrays"
            ),
            "tests/test_brandes.py::_count_paths_through": (
                "independent oracle walking a DAG backwards to cross-check "
                "the kernel; must not share its code"
            ),
            **{
                f"tests/test_engine.py::TestDirectionOptimising.{name}": (
                    "unit test exercising the kernel itself"
                )
                for name in (
                    "test_frontier_cost_is_the_frontier_degree",
                    "test_bottom_up_actually_fires_on_fat_levels",
                    "test_auto_rejected_for_order_sensitive_sweeps",
                )
            },
        },
    ),
}


@pytest.mark.parametrize("name", list(CONTRACTS))
def test_sites_equal_the_allowlist(name, source_trees):
    contract = CONTRACTS[name]
    found: Dict[str, list] = {}
    for path, tree in source_trees.items():
        findings = list(contract.find(tree)) if contract.covers(path) else []
        scopes = _scopes(tree) if findings else {}
        for node, what in findings:
            found.setdefault(f"{path}::{scopes[node]}", []).append(
                f"{path}:{node.lineno}: {what}"
            )
    new = [
        finding
        for site, findings in sorted(found.items())
        if site not in contract.allowed
        for finding in findings
    ]
    stale = [
        f"{site} ({reason})"
        for site, reason in contract.allowed.items()
        if site not in found
    ]
    assert not new, f"{name}: site(s) not on the allowlist:\n" + "\n".join(new)
    assert not stale, f"{name}: stale exemption(s):\n" + "\n".join(stale)


@pytest.mark.parametrize(
    "name,path,covered",
    [
        ("float-fold", "src/repro/graphs/csr.py", True),
        ("float-fold", "src/repro/graphs/traversal.py", True),
        ("float-fold", "src/repro/graphs/bidirectional.py", False),
        ("rng-discipline", RNG_HOME, False),
        ("rng-discipline", "src/repro/saphyra_bc/gen_bc.py", True),
        ("rng-discipline", "benchmarks/conftest.py", True),
        ("kernel-ownership", "src/repro/graphs/csr.py", False),
        ("kernel-ownership", "src/repro/graphs/traversal.py", False),
        ("kernel-ownership", "src/repro/engine/driver.py", True),
        ("kernel-ownership", "tests/test_engine.py", True),
    ],
)
def test_each_contract_reads_its_files(name, path, covered, source_trees):
    assert path in source_trees
    assert CONTRACTS[name].covers(path) is covered


#: ``(contract, snippet, findings)``: code each predicate must find, and
#: the sanctioned way to write it, which it must not.
SNIPPETS = {
    "fold-method": ("float-fold", "total = dist[reached].sum()", 1),
    "fold-np-sum": ("float-fold", "total = np.sum(rows)", 1),
    "fold-math-fsum": ("float-fold", "total = math.fsum(values)", 1),
    "fold-fsum": ("float-fold", "total = fsum(values)", 1),
    "fold-builtin": ("float-fold", "total = sum(values)", 1),
    "fold-float-wrapped": ("float-fold", "total = float(sum(values))", 1),
    "fold-int-indirect": ("float-fold", "total = int(round(sum(values)))", 1),
    "fold-int-of-quotient": ("float-fold", "mean = int(sum(values) / n)", 1),
    "fold-int-method": ("float-fold", "count = int(reached.sum())", 0),
    "fold-int-builtin": (
        "float-fold",
        "total = int(sum(indptr[v + 1] - indptr[v] for v in nodes))",
        0,
    ),
    "fold-other-call": ("float-fold", "top = max(values)", 0),
    "rng-global-call": ("rng-discipline", "random.seed(7)", 1),
    "rng-global-draw": ("rng-discipline", "x = random.random()", 1),
    "rng-global-shuffle": ("rng-discipline", "random.shuffle(nodes)", 1),
    "rng-np": ("rng-discipline", "x = np.random.random()", 1),
    "rng-numpy": ("rng-discipline", "rng = numpy.random.default_rng(0)", 1),
    "rng-private-np": ("rng-discipline", "rng = _np.random.default_rng(0)", 1),
    "rng-seeded": ("rng-discipline", "rng = random.Random(seed)", 0),
    "rng-system": ("rng-discipline", "rng = random.SystemRandom()", 0),
    "rng-stream-draw": ("rng-discipline", "x = rng.random()", 0),
    "rng-attribute-of-attribute": ("rng-discipline", "x = self.random.random()", 0),
    "kernel-import": (
        "kernel-ownership", "from repro.graphs.csr import _BatchSweep", 1
    ),
    "kernel-import-traversal": (
        "kernel-ownership", "from .traversal import _shared_state", 1
    ),
    "kernel-attribute": (
        "kernel-ownership", "sweep = csr_module._BatchSweep(snapshot, roots)", 1
    ),
    "kernel-overflow-guard": (
        "kernel-ownership", "guard = csr._sigma_may_overflow(sigma)", 1
    ),
    "kernel-frontier-loop": (
        "kernel-ownership",
        "while frontier:\n"
        "    frontier = [w for v in frontier for w in adj[v] if w not in seen]\n",
        1,
    ),
    "kernel-frontier-loop-next": (
        "kernel-ownership",
        "while frontier:\n"
        "    next_frontier = []\n"
        "    for node in frontier:\n"
        "        next_frontier.extend(adj[node])\n"
        "    frontier = next_frontier\n",
        2,
    ),
    "kernel-frontier-test": (
        "kernel-ownership",
        "while len(frontier) > 0:\n    frontier_cost += 1\n",
        1,
    ),
    "kernel-new-frontier": ("kernel-ownership", "new_frontier: list = []", 1),
    "kernel-next-frontier-augmented": ("kernel-ownership", "next_frontier += [v]", 1),
    "kernel-public-import": (
        "kernel-ownership",
        "from repro.graphs.csr import as_csr, multi_source_sweep",
        0,
    ),
    "kernel-public-sweep": (
        "kernel-ownership",
        "rows = multi_source_sweep(as_csr(graph), roots, kind='distance')",
        0,
    ),
    "kernel-loop-not-on-frontier": (
        "kernel-ownership", "while queue:\n    frontier = queue.pop()\n", 0
    ),
    "kernel-loop-keeps-frontier": (
        "kernel-ownership",
        "while sweep.has_frontier:\n    sweep.expand()\n",
        0,
    ),
}


@pytest.mark.parametrize(
    "name,snippet,count", list(SNIPPETS.values()), ids=list(SNIPPETS)
)
def test_predicate_branches(name, snippet, count):
    assert len(list(CONTRACTS[name].find(ast.parse(snippet)))) == count


def test_sites_are_named_by_their_enclosing_scope():
    tree = ast.parse(
        "class Side:\n"
        "    def expand(self):\n"
        "        def inner():\n"
        "            new_frontier = []\n"
        "        next_frontier = []\n"
        "next_frontier = []\n"
    )
    scopes = _scopes(tree)
    assert sorted((scopes[node], node.lineno) for node, _ in kernel_copies(tree)) == [
        ("<module>", 6),
        ("Side.expand", 5),
        ("Side.expand.inner", 4),
    ]
