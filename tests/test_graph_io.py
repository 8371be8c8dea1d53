"""Tests for edge-list and DIMACS readers/writers."""

from __future__ import annotations

from itertools import islice

import pytest

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.graphs.io import (
    iter_dimacs_arcs,
    iter_edge_list,
    read_coordinates,
    read_dimacs_graph,
    read_edge_list,
    write_edge_list,
)


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        graph = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path)
        loaded = read_edge_list(path)
        assert set(map(frozenset, loaded.edges())) == set(map(frozenset, graph.edges()))

    def test_header_written_and_skipped(self, tmp_path):
        graph = Graph.from_edges([(0, 1)])
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path, header="test graph\nsecond line")
        text = path.read_text()
        assert text.startswith("# test graph")
        assert read_edge_list(path).number_of_edges() == 1

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# comment\n% other comment\n\n1 2\n2 3\n")
        graph = read_edge_list(path)
        assert graph.number_of_edges() == 2

    def test_snap_style_duplicate_arcs_collapse(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("1 2\n2 1\n")
        assert read_edge_list(path).number_of_edges() == 1

    def test_self_loops_dropped(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("1 1\n1 2\n")
        graph = read_edge_list(path)
        assert graph.number_of_edges() == 1

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("1\n")
        with pytest.raises(GraphError, match="expected"):
            read_edge_list(path)

    def test_custom_node_type(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("a b\nb c\n")
        graph = read_edge_list(path, node_type=str)
        assert graph.has_edge("a", "b")


class TestIterEdgeList:
    def test_matches_reader(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# header\n1 2\n2 3 0.5\n3 3\n3 4\n")
        streamed = list(iter_edge_list(path))
        assert streamed == [(1, 2, None), (2, 3, 0.5), (3, 4, None)]
        graph = read_edge_list(path)
        for u, v, _weight in streamed:
            assert graph.has_edge(u, v)
        assert graph.number_of_edges() == len(streamed)

    def test_lazy_stops_before_malformed_tail(self, tmp_path):
        # A partially-consumed stream must never parse (or reject) the rest
        # of the file — that is what makes it safe on bigger-than-RAM files.
        path = tmp_path / "graph.txt"
        path.write_text("1 2\n2 3\nthis-is-not-an-edge\n")
        assert list(islice(iter_edge_list(path), 2)) == [(1, 2, None), (2, 3, None)]
        with pytest.raises(GraphError, match="graph.txt:3"):
            list(iter_edge_list(path))

    def test_node_type_and_comments(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("; note\na b\n", encoding="utf-8")
        streamed = list(iter_edge_list(path, node_type=str, comments=(";",)))
        assert streamed == [("a", "b", None)]


class TestIterDimacsArcs:
    def test_matches_reader(self, tmp_path):
        path = tmp_path / "graph.gr"
        path.write_text("c x\np sp 4 4\na 1 2 10\na 2 2 3\na 2 3 5\na 3 4 1\n")
        assert list(iter_dimacs_arcs(path)) == [(1, 2, None), (2, 3, None), (3, 4, None)]
        weighted = list(iter_dimacs_arcs(path, weighted=True))
        assert weighted == [(1, 2, 10.0), (2, 3, 5.0), (3, 4, 1.0)]
        graph = read_dimacs_graph(path, weighted=True)
        for u, v, weight in weighted:
            assert graph.edge_weight(u, v) == weight

    def test_lazy_stops_before_malformed_tail(self, tmp_path):
        path = tmp_path / "graph.gr"
        path.write_text("p sp 3 2\na 1 2 1\nbogus line\n")
        assert list(islice(iter_dimacs_arcs(path), 1)) == [(1, 2, None)]
        with pytest.raises(GraphError, match="graph.gr:3"):
            list(iter_dimacs_arcs(path))

    def test_missing_weight_raises_only_when_weighted(self, tmp_path):
        path = tmp_path / "graph.gr"
        path.write_text("a 1 2\n")
        assert list(iter_dimacs_arcs(path)) == [(1, 2, None)]
        with pytest.raises(GraphError, match="no weight"):
            list(iter_dimacs_arcs(path, weighted=True))


class TestDimacs:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "graph.gr"
        path.write_text(
            "c comment line\n"
            "p sp 4 6\n"
            "a 1 2 10\n"
            "a 2 1 10\n"
            "a 2 3 5\n"
            "a 3 4 1\n"
        )
        graph = read_dimacs_graph(path)
        assert graph.number_of_nodes() == 4
        assert graph.number_of_edges() == 3
        assert graph.has_edge(1, 2)

    def test_declared_isolated_nodes_created(self, tmp_path):
        path = tmp_path / "graph.gr"
        path.write_text("p sp 5 1\na 1 2 3\n")
        graph = read_dimacs_graph(path)
        assert graph.number_of_nodes() == 5
        assert graph.degree(5) == 0

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "graph.gr"
        path.write_text("x 1 2\n")
        with pytest.raises(GraphError):
            read_dimacs_graph(path)

    def test_coordinates(self, tmp_path):
        path = tmp_path / "graph.co"
        path.write_text("c header\nv 1 -73992127 40748895\nv 2 -73990000 40700000\n")
        coords = read_coordinates(path)
        assert coords[1] == (-73992127, 40748895)
        assert len(coords) == 2

    def test_malformed_coordinates_raise(self, tmp_path):
        path = tmp_path / "graph.co"
        path.write_text("v 1 2\n")
        with pytest.raises(GraphError):
            read_coordinates(path)


@pytest.mark.parametrize(
    "read,text",
    [
        (read_edge_list, "1 2\nx 3\n"),
        (read_dimacs_graph, "a 1 2 7\na x 3 7\n"),
        (read_coordinates, "v 1 0 0\nv x 1 1\n"),
    ],
    ids=["edge-list", "dimacs", "coordinates"],
)
def test_malformed_node_id_names_its_line(read, text, tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    with pytest.raises(GraphError) as excinfo:
        read(path)
    assert str(excinfo.value) == f"{path}:2: malformed node id 'x'"
