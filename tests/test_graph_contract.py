"""The graph's version and mutation-journal contract, held by structure.

``Graph._commit`` is the only code that bumps ``Graph._version`` and
records to the mutation journal, and every public mutator calls it once
per effective change.  State derived from a graph version lives in the
graph's own versioned slot (``Graph.memo``; the CSR snapshot lives there
and is patched through the staleness rule of ``delta.deltas_between``) or
in the owner-held stores of ``SourceDAGCache`` and ``GroundTruthCache``,
which compare ``Graph._version`` alone.

These tests pin what that structure guarantees, for every public mutator
(the table below), with the journal armed and not armed: an effective
change bumps the version by exactly one and journals exactly its delta; a
no-op or rejected call changes nothing; afterwards the snapshot equals a
fresh build and no cached traversal the edit affects is served.  Five
syntax-tree checks keep the structure from being bypassed: only
``_commit`` bumps and journals, no code outside the owning modules writes
graph state or keeps a graph-keyed store, and only the graph arms the
journal and only the graph and its snapshot import it.
"""

from __future__ import annotations

import ast
import inspect
import re
from typing import Callable, NamedTuple, Tuple

import pytest

from repro.engine.dag_cache import SourceDAGCache
from repro.errors import GraphError
from repro.graphs import delta as delta_module
from repro.graphs import graph as graph_module
from repro.graphs.csr import CSRGraph, as_csr
from repro.graphs.delta import (
    OP_DELETE,
    OP_INSERT,
    OP_REWEIGHT,
    STRUCTURAL_DELTA,
    EdgeDelta,
    deltas_between,
)
from repro.graphs.graph import Graph

BACKENDS = ["dict", pytest.param("csr", marks=pytest.mark.requires_numpy)]


def _graph() -> Graph:
    """The 4-cycle 0-1-2-3 with a tail 3-4-5; edge 1-2 has length 2.5.

    From 0, nodes 1 and 3 are one hop away, 2 and 4 two, 5 three; by
    length, 2 is reached through 3 (2.0), not through 1 (3.5).
    """
    return Graph.from_edges(
        [(0, 1), (1, 2, 2.5), (2, 3), (3, 0), (3, 4), (4, 5)]
    )


class Mutation(NamedTuple):
    """One row of the mutator table."""

    #: one effective change of :func:`_graph`
    apply: Callable[[Graph], None]
    #: what the journal records for it
    delta: EdgeDelta
    #: calls that return normally but change nothing
    noops: Tuple[Callable[[Graph], None], ...]
    #: calls the graph rejects with a GraphError
    rejected: Tuple[Callable[[Graph], None], ...]
    #: the metric of a cached traversal from node 0 the change affects
    weighted: bool


#: Every public ``Graph`` mutator.
MUTATORS = {
    "add_node": Mutation(
        lambda g: g.add_node(9),
        STRUCTURAL_DELTA,
        (lambda g: g.add_node(0),),
        (),
        weighted=False,
    ),
    "add_edge": Mutation(
        lambda g: g.add_edge(0, 2),  # shortens 0 -> 2 from two hops to one
        EdgeDelta(OP_INSERT, 0, 2, None, 1.0),
        (lambda g: g.add_edge(0, 1), lambda g: g.add_edge(2, 1, weight=7.0)),
        (lambda g: g.add_edge(0, 0), lambda g: g.add_edge(0, 2, weight=-1.0)),
        weighted=False,
    ),
    "set_edge_weight": Mutation(
        lambda g: g.set_edge_weight(1, 2, 0.5),  # 0 -> 2 now 1.5 via 1
        EdgeDelta(OP_REWEIGHT, 1, 2, 2.5, 0.5),
        (
            lambda g: g.set_edge_weight(1, 2, 2.5),
            lambda g: g.set_edge_weight(0, 1, 1),
            lambda g: g.set_edge_weight(1, 0, 1.0),
        ),
        (
            lambda g: g.set_edge_weight(0, 2, 2.0),
            lambda g: g.set_edge_weight(1, 2, 0.0),
        ),
        weighted=True,
    ),
    "remove_edge": Mutation(
        lambda g: g.remove_edge(0, 1),  # was the only shortest 0 -> 1 path
        EdgeDelta(OP_DELETE, 0, 1, 1.0, None),
        (),
        (lambda g: g.remove_edge(0, 2), lambda g: g.remove_edge(0, 99)),
        weighted=False,
    ),
    "remove_node": Mutation(
        lambda g: g.remove_node(5),
        STRUCTURAL_DELTA,
        (),
        (lambda g: g.remove_node(99),),
        weighted=False,
    ),
}

#: Public methods that leave the graph and its version as they are.
READ_ONLY = {
    "adjacency",
    "copy",
    "degree",
    "edge_weight",
    "edges",
    "from_edges",
    "has_edge",
    "has_node",
    "is_weighted",
    "memo",
    "memo_deltas",
    "neighbor_weights",
    "neighbors",
    "nodes",
    "number_of_edges",
    "number_of_nodes",
    "relabeled",
    "subgraph",
    "weighted_edges",
}


@pytest.fixture(params=["armed", "unarmed"])
def journal(request):
    """``armed``: each graph's journal is armed before it mutates;
    ``unarmed``: its ``_journal`` is ``None`` when it mutates, so no edit
    is journalled and every stale value is rebuilt."""
    return request.param == "armed"


def _prepared(armed: bool) -> Graph:
    graph = _graph()
    if armed:
        delta_module.track(graph)
    return graph


def _mutate(graph: Graph, armed: bool, apply: Callable[[Graph], None]) -> None:
    """``apply`` an edit to ``graph``; when not ``armed``, first drop the
    journal that a read since :func:`_prepared` (``as_csr``) may have
    armed."""
    if not armed:
        graph._journal = None
    apply(graph)


def test_every_public_method_is_classified():
    public = {
        name for name, _ in inspect.getmembers(Graph)
        if not name.startswith("_")
    }
    assert public - READ_ONLY - set(MUTATORS) == set(), (
        "classify each new public Graph method as a mutator (with a row in "
        "MUTATORS) or as read-only"
    )
    assert public == READ_ONLY | set(MUTATORS)


@pytest.mark.parametrize("name", sorted(MUTATORS))
class TestMutators:
    def test_effective_change_bumps_once_and_journals_its_delta(
        self, name, journal
    ):
        row = MUTATORS[name]
        graph = _prepared(journal)
        version = graph._version
        entries = [] if graph._journal is None else list(graph._journal.entries)
        row.apply(graph)
        assert graph._version == version + 1
        if not journal:
            assert graph._journal is None
            assert deltas_between(graph, version) is None
            return
        assert list(graph._journal.entries) == entries + [row.delta]
        if row.delta is STRUCTURAL_DELTA:
            assert deltas_between(graph, version) is None
        else:
            assert deltas_between(graph, version) == [row.delta]

    def test_noop_and_rejected_calls_change_nothing(self, name, journal):
        row = MUTATORS[name]
        graph = _prepared(journal)
        version = graph._version
        edges = list(graph.weighted_edges())
        entries = None if graph._journal is None else list(graph._journal.entries)
        for call in row.noops:
            call(graph)
        for call in row.rejected:
            with pytest.raises(GraphError):
                call(graph)
        assert graph._version == version
        assert list(graph.weighted_edges()) == edges
        assert deltas_between(graph, version) == []
        if entries is None:
            assert graph._journal is None
        else:
            assert list(graph._journal.entries) == entries

    @pytest.mark.requires_numpy
    def test_snapshot_follows_the_edit(self, name, journal):
        graph = _prepared(journal)
        before = as_csr(graph)
        for call in MUTATORS[name].noops:
            call(graph)
        assert as_csr(graph) is before
        _mutate(graph, journal, MUTATORS[name].apply)
        after = as_csr(graph)
        fresh = CSRGraph.from_graph(graph)
        assert after is not before
        assert after.labels == fresh.labels
        assert after.indptr.tobytes() == fresh.indptr.tobytes()
        assert after.indices.tobytes() == fresh.indices.tobytes()
        assert (after.weights is None) == (fresh.weights is None)
        if fresh.weights is not None:
            assert after.weights.tobytes() == fresh.weights.tobytes()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_affected_cache_entry_is_not_served(self, name, journal, backend):
        row = MUTATORS[name]
        graph = _prepared(journal)
        cache = SourceDAGCache(max_entries=8)
        stale = cache.dag(graph, 0, backend=backend, weighted=row.weighted)
        for call in row.noops:
            call(graph)
        assert cache.dag(graph, 0, backend=backend, weighted=row.weighted) is stale
        _mutate(graph, journal, row.apply)
        served = cache.dag(graph, 0, backend=backend, weighted=row.weighted)
        fresh = SourceDAGCache.compute_dag(
            graph, 0, backend=backend, weighted=row.weighted
        )
        assert served is not stale
        assert _distances(served) == _distances(fresh)


def _distances(dag):
    """``{label: distance}`` of a label-space or index-space DAG."""
    snapshot = getattr(dag, "csr", None)
    if snapshot is None:
        return {node: float(d) for node, d in dag.distances.items()}
    return {
        snapshot.labels[i]: float(d)
        for i, d in enumerate(dag.dist.tolist())
        if d >= 0
    }


def test_unarmed_commit_builds_no_delta(monkeypatch):
    built = []

    def counting(*fields):
        built.append(fields)
        return EdgeDelta(*fields)

    monkeypatch.setattr(graph_module, "EdgeDelta", counting)
    graph = _graph()
    graph.set_edge_weight(1, 2, 0.5)
    graph.remove_edge(0, 1)
    assert graph._journal is None and built == []
    delta_module.track(graph)
    graph.add_edge(0, 1)
    assert built == [(OP_INSERT, 0, 1, None, 1.0)]


# ----------------------------------------------------------------------
# The structure, as code: nothing writes graph state around its owners
# ----------------------------------------------------------------------
#: Graph attributes only ``graphs/graph.py`` may write.  The frozen
#: ``CSRGraph._version = 0`` class constant is a name, not an attribute.
_GRAPH_STATE = {"_version", "_adj"}

#: dict methods that change the dict in place.
_DICT_WRITES = {"clear", "pop", "popitem", "setdefault", "update"}

def _modules(source_trees):
    """``(path under src/repro/, tree)`` for every module of the package."""
    prefix = "src/repro/"
    return [
        (path[len(prefix):], tree)
        for path, tree in source_trees.items()
        if path.startswith(prefix)
    ]


def _writes(tree):
    """``(node, owner, attribute, key)`` for every write in ``tree``:
    ``owner.attribute = ...`` (also ``setattr``/``delattr``), and
    ``owner[key] = ...``, ``del owner[key]`` and in-place dict calls on
    ``owner`` (``key`` is ``None`` where the write names no key)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call):
            targets = []
            func, args = node.func, node.args
            if isinstance(func, ast.Attribute) and func.attr in _DICT_WRITES:
                key = args[0] if func.attr == "setdefault" and args else None
                yield node, func.value, None, key
            elif (
                isinstance(func, ast.Name)
                and func.id in ("setattr", "delattr")
                and len(args) >= 2
                and isinstance(args[1], ast.Constant)
            ):
                yield node, args[0], args[1].value, None
        else:
            continue
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
            elif isinstance(target, ast.Starred):
                targets.append(target.value)
            elif isinstance(target, ast.Attribute):
                yield node, target.value, target.attr, None
            elif isinstance(target, ast.Subscript):
                yield node, target.value, None, target.slice


def _adj_aliases(tree):
    """Names and attribute names bound to something read from ``._adj``."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            value, targets = node.value, list(node.targets)
        elif isinstance(node, ast.For):
            value, targets = node.iter, [node.target]
        else:
            continue
        if any(
            isinstance(n, ast.Attribute) and n.attr == "_adj"
            for n in ast.walk(value)
        ):
            while targets:
                target = targets.pop()
                if isinstance(target, (ast.Tuple, ast.List)):
                    targets.extend(target.elts)
                elif isinstance(target, ast.Name):
                    aliases.add(target.id)
                elif isinstance(target, ast.Attribute):
                    aliases.add(target.attr)
    return aliases


def _reaches_adj(expr, aliases):
    """Whether ``expr`` is ``._adj`` or an alias of it, or is reached
    from one by attribute, subscript and call steps."""
    while True:
        if isinstance(expr, ast.Attribute):
            if expr.attr == "_adj" or expr.attr in aliases:
                return True
            expr = expr.value
        elif isinstance(expr, ast.Subscript):
            expr = expr.value
        elif isinstance(expr, ast.Call):
            expr = expr.func
        else:
            return isinstance(expr, ast.Name) and expr.id in aliases


def _graph_names(tree):
    """``graph``, ``g`` and every parameter or variable annotated with
    ``Graph`` (``Optional[Graph]`` and ``"Graph"`` too)."""
    names = {"graph", "g"}
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            name, annotation = node.arg, node.annotation
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name, annotation = node.target.id, node.annotation
        else:
            continue
        if annotation is not None and re.search(
            r"\bGraph\b", ast.unparse(annotation)
        ):
            names.add(name)
    return names


def _is_graph(key, names):
    """Whether a store key is a graph, or a tuple holding one."""
    if isinstance(key, ast.Tuple):
        return any(_is_graph(element, names) for element in key.elts)
    if isinstance(key, ast.Attribute):
        return key.attr == "graph"
    return isinstance(key, ast.Name) and key.id in names


def test_graph_state_is_written_only_in_graph_module(source_trees):
    found = []
    for where, tree in _modules(source_trees):
        if where == "graphs/graph.py":
            continue
        aliases = _adj_aliases(tree)
        for node, owner, attribute, _ in _writes(tree):
            if attribute in _GRAPH_STATE or _reaches_adj(owner, aliases):
                found.append(f"{where}:{node.lineno}")
        found.extend(
            f"{where}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "record"
        )
    assert found == []


def test_graph_keyed_stores_only_in_the_dag_cache(source_trees):
    found = []
    for where, tree in _modules(source_trees):
        if where == "engine/dag_cache.py":
            continue
        names = _graph_names(tree)
        found.extend(
            f"{where}:{node.lineno}"
            for node, _, _, key in _writes(tree)
            if key is not None and _is_graph(key, names)
        )
        found.extend(
            f"{where}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "WeakKeyDictionary" in ast.unparse(node.func)
        )
    assert found == []


def test_only_commit_bumps_the_version_and_journals(source_trees):
    tree = source_trees["src/repro/graphs/graph.py"]
    bumps, records = set(), set()
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                targets = []
            if any(
                isinstance(t, ast.Attribute) and t.attr == "_version"
                for t in targets
            ):
                bumps.add(function.name)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "record"
            ):
                records.add(function.name)
    assert bumps == {"__init__", "_commit"}
    assert records == {"_commit"}


def _calls(tree, name):
    """Calls in ``tree`` of a function or method named ``name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == name) or (
                isinstance(func, ast.Attribute) and func.attr == name
            ):
                yield node


def test_only_the_versioned_slot_arms_the_journal(source_trees):
    # Graph.memo arms it for a slot with a refresh; the caches that drop
    # stale stores whole never need one.
    found = {
        where
        for where, tree in _modules(source_trees)
        for _ in _calls(tree, "track")
    }
    assert found == {"graphs/graph.py"}


def test_only_the_graph_and_its_snapshot_import_the_journal(source_trees):
    found = set()
    for where, tree in _modules(source_trees):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if "repro.graphs.delta" in names:
                found.add(where)
    assert found == {"graphs/__init__.py", "graphs/csr.py", "graphs/graph.py"}
