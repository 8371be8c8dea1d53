"""Graph readers and writers.

Supported formats:

* **edge list** — one ``u v`` pair (optionally ``u v weight``) per line;
  ``#`` and ``%`` comment lines are skipped.  This is the format the SNAP
  datasets used in the paper (Flickr, LiveJournal, Orkut) ship in, so real
  data can be dropped in directly; weighted edge lists round-trip through
  :func:`write_edge_list`.
* **DIMACS** — the ``c`` / ``p sp n m`` / ``a u v w`` format of the 9th DIMACS
  shortest-path challenge used for the USA-road networks.  Arc weights (road
  lengths) are kept when ``weighted=True`` and dropped otherwise, matching
  the paper's hop-distance evaluation while letting the weighted SSSP engine
  run real road lengths.

Every reader **streams**: lines are parsed one at a time straight off the
file handle, so parse memory is O(1) in the file size — a 24M-node USA-road
``.gr`` file never exists in memory as anything but the graph being built.
The parse layer is also exposed directly as the lazy generators
:func:`iter_edge_list` and :func:`iter_dimacs_arcs`, for callers that want
the edge stream without materialising a :class:`Graph` at all (e.g. piping
straight into an external partitioner, or counting/filtering edges of files
bigger than RAM).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Tuple, Union

from repro.errors import GraphError
from repro.graphs.graph import Graph

PathLike = Union[str, Path]

#: One streamed edge: ``(u, v, weight)`` with ``weight=None`` for unit edges.
EdgeRecord = Tuple[object, object, Optional[float]]


def _parse_token(
    convert: Callable, token: str, what: str, path: PathLike, line_number: int
):
    """Convert one token, attributing a malformed value to its line."""
    try:
        return convert(token)
    except ValueError:
        raise GraphError(f"{path}:{line_number}: malformed {what} {token!r}") from None


# ----------------------------------------------------------------------
# Edge lists
# ----------------------------------------------------------------------
def _iter_edge_records(
    path: PathLike, node_type: Callable, comments: Iterable[str]
) -> Iterator[Tuple[int, object, object, Optional[float]]]:
    """Stream ``(line_number, u, v, weight)`` records off an edge-list file.

    The shared parse layer of :func:`iter_edge_list` and
    :func:`read_edge_list`: one line in memory at a time, full per-line
    validation, self loops dropped (SNAP files occasionally contain them).
    """
    prefixes = tuple(comments)
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith(prefixes):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphError(
                    f"{path}:{line_number}: expected 'u v' or 'u v weight', "
                    f"got {line!r}"
                )
            u = _parse_token(node_type, parts[0], "node id", path, line_number)
            v = _parse_token(node_type, parts[1], "node id", path, line_number)
            if u == v:
                continue
            weight = None
            if len(parts) >= 3:
                weight = _parse_token(float, parts[2], "edge weight", path, line_number)
            yield line_number, u, v, weight


def iter_edge_list(
    path: PathLike,
    *,
    node_type: Callable = int,
    comments: Iterable[str] = ("#", "%"),
) -> Iterator[EdgeRecord]:
    """Lazily stream ``(u, v, weight)`` edges from an edge-list file.

    ``weight`` is ``None`` for two-column (unit) lines.  Parsing is fully
    lazy — each line is read, validated and yielded before the next is
    touched, so memory stays O(1) in file size and a partially-consumed
    iterator never reads (or validates) the rest of the file.  Self loops
    are dropped, comment lines skipped; malformed lines raise
    :class:`GraphError` with the path and line number when (and only when)
    the stream reaches them.
    """
    for _line_number, u, v, weight in _iter_edge_records(path, node_type, comments):
        yield u, v, weight


def read_edge_list(
    path: PathLike,
    *,
    node_type: Callable = int,
    comments: Iterable[str] = ("#", "%"),
    directed_as_undirected: bool = True,
) -> Graph:
    """Read a whitespace-separated edge list into a :class:`Graph`.

    Each non-comment line is ``u v`` or ``u v weight``; the optional third
    column is a positive edge length (lines without it default to unit
    weight, so mixed files work).  The file is streamed line by line
    (O(1) parse memory); use :func:`iter_edge_list` for the raw edge
    stream without building a graph.

    Parameters
    ----------
    path:
        File to read.
    node_type:
        Callable applied to each token to build the node id (default ``int``).
    comments:
        Line prefixes to skip.
    directed_as_undirected:
        The SNAP social graphs list each arc once per direction; duplicates
        are collapsed by the simple-graph invariant (first occurrence wins,
        weight included), so this flag only documents intent.

    Raises
    ------
    GraphError
        If a non-comment line does not contain at least two tokens, a weight
        token is malformed or non-positive (with the line number), or a
        self-loop is encountered.
    """
    del directed_as_undirected  # duplicates/reverse arcs collapse naturally
    graph = Graph()
    for line_number, u, v, weight in _iter_edge_records(path, node_type, comments):
        if weight is not None:
            try:
                graph.add_edge(u, v, weight=weight)
            except GraphError as error:
                raise GraphError(f"{path}:{line_number}: {error}") from None
        else:
            graph.add_edge(u, v)
    return graph


def write_edge_list(graph: Graph, path: PathLike, *, header: Optional[str] = None) -> None:
    """Write ``graph`` as an edge list (one undirected edge per line).

    Weighted graphs are written as ``u v weight`` (``repr`` of the float, so
    weights round-trip through :func:`read_edge_list` exactly); unit-weight
    graphs keep the historical two-column ``u v`` format.
    """
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        handle.write(f"# nodes: {graph.number_of_nodes()} edges: {graph.number_of_edges()}\n")
        if graph.is_weighted:
            for u, v, weight in graph.weighted_edges():
                handle.write(f"{u} {v} {weight!r}\n")
        else:
            for u, v in graph.edges():
                handle.write(f"{u} {v}\n")


# ----------------------------------------------------------------------
# DIMACS
# ----------------------------------------------------------------------
def _iter_dimacs_records(
    path: PathLike, weighted: bool
) -> Iterator[Tuple[str, int, object, object, Optional[float]]]:
    """Stream DIMACS records: ``("p", line, declared_nodes, None, None)`` or
    ``("a", line, u, v, weight)``.

    The shared parse layer of :func:`iter_dimacs_arcs` and
    :func:`read_dimacs_graph` — one line in memory at a time.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if len(parts) < 4:
                    raise GraphError(f"{path}:{line_number}: malformed problem line {line!r}")
                declared = _parse_token(int, parts[2], "node count", path, line_number)
                yield "p", line_number, declared, None, None
            elif parts[0] == "a":
                if len(parts) < 3:
                    raise GraphError(f"{path}:{line_number}: malformed arc line {line!r}")
                u = _parse_token(int, parts[1], "node id", path, line_number)
                v = _parse_token(int, parts[2], "node id", path, line_number)
                if u == v:
                    continue
                weight = None
                if weighted:
                    if len(parts) < 4:
                        raise GraphError(
                            f"{path}:{line_number}: arc line has no weight: {line!r}"
                        )
                    weight = _parse_token(
                        float, parts[3], "edge weight", path, line_number
                    )
                yield "a", line_number, u, v, weight
            else:
                raise GraphError(f"{path}:{line_number}: unrecognised line {line!r}")


def iter_dimacs_arcs(
    path: PathLike, *, weighted: bool = False
) -> Iterator[EdgeRecord]:
    """Lazily stream ``(u, v, weight)`` arcs from a DIMACS ``.gr`` file.

    Comment and problem (``p``) lines are validated and skipped; with
    ``weighted=False`` (the paper's hop-distance setting) ``weight`` is
    ``None``, with ``weighted=True`` it is the parsed arc length.  Fully
    lazy — O(1) memory in file size, and a partially-consumed iterator
    never reads the rest of the file.  Self loops are dropped; malformed
    lines raise :class:`GraphError` naming the path and line number when
    the stream reaches them.
    """
    for kind, _line_number, u, v, weight in _iter_dimacs_records(path, weighted):
        if kind == "a":
            yield u, v, weight


def read_dimacs_graph(path: PathLike, *, weighted: bool = False) -> Graph:
    """Read a DIMACS shortest-path challenge ``.gr`` file.

    The format is::

        c comment
        p sp <num_nodes> <num_arcs>
        a <u> <v> <weight>

    Both arc directions collapse into one undirected edge (first occurrence
    wins).  With ``weighted=False`` (the default, the paper's hop-distance
    setting) arc weights are dropped; with ``weighted=True`` they are kept
    as edge lengths for the weighted SSSP engine.  Node ids in DIMACS are
    1-based and are kept as-is.  The file is streamed line by line (O(1)
    parse memory); use :func:`iter_dimacs_arcs` for the raw arc stream.
    """
    graph = Graph()
    declared_nodes: Optional[int] = None
    for kind, line_number, u, v, weight in _iter_dimacs_records(path, weighted):
        if kind == "p":
            declared_nodes = u
        elif weight is not None:
            try:
                graph.add_edge(u, v, weight=weight)
            except GraphError as error:
                raise GraphError(f"{path}:{line_number}: {error}") from None
        else:
            graph.add_edge(u, v)
    if declared_nodes is not None:
        # DIMACS nodes are 1..n even if isolated; make sure they all exist.
        for node in range(1, declared_nodes + 1):
            graph.add_node(node)
    return graph


def read_coordinates(path: PathLike) -> dict:
    """Read a DIMACS ``.co`` coordinate file into ``{node: (x, y)}``.

    The format is ``v <node> <x> <y>``.  Used by the USA-road case study to
    carve geographic sub-areas (Table III / Fig. 7).
    """
    coords = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith(("c", "p")):
                continue
            parts = line.split()
            if parts[0] != "v" or len(parts) < 4:
                raise GraphError(f"{path}:{line_number}: malformed coordinate line {line!r}")
            node = _parse_token(int, parts[1], "node id", path, line_number)
            x = _parse_token(int, parts[2], "coordinate", path, line_number)
            y = _parse_token(int, parts[3], "coordinate", path, line_number)
            coords[node] = (x, y)
    return coords
