"""Tests for the Exact_bc 2-hop exact-subspace evaluation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.centrality.brandes import betweenness_centrality
from repro.graphs.components import largest_connected_component
from repro.graphs.csr import as_csr
from repro.graphs.generators import (
    erdos_renyi_graph,
    grid_road_graph,
    path_graph,
    star_graph,
)
from repro.saphyra_bc import exact_bc
from repro.saphyra_bc.exact_bc import exact_two_hop_risks
from repro.saphyra_bc.isp import PersonalizedISP

BACKENDS = pytest.mark.parametrize(
    "backend", ["dict", pytest.param("csr", marks=pytest.mark.requires_numpy)]
)


def enumerate_exact_subspace(space: PersonalizedISP, targets):
    """Reference implementation: enumerate the PISP space and keep the
    length-2 paths whose middle node is a target."""
    target_set = set(targets)
    lambda_exact = 0.0
    risks = {node: 0.0 for node in targets}
    for path, probability in space.enumerate_paths():
        if len(path) == 3 and path[1] in target_set:
            lambda_exact += probability
            risks[path[1]] += probability
    return lambda_exact, risks


@BACKENDS
class TestAgainstEnumeration:
    def check(self, graph, targets, backend):
        if backend == "csr":
            _assert_paths_equal(graph, targets)
        space = PersonalizedISP(graph, targets=targets, backend=backend)
        evaluation = exact_two_hop_risks(space, targets)
        expected_lambda, expected_risks = enumerate_exact_subspace(space, targets)
        assert evaluation.lambda_exact == pytest.approx(expected_lambda, abs=1e-9)
        for position, node in enumerate(targets):
            assert evaluation.risks[position] == pytest.approx(
                expected_risks[node], abs=1e-9
            ), node

    def test_karate_subset(self, karate, backend):
        self.check(karate, [0, 2, 5, 11, 33], backend)

    def test_karate_full(self, karate, backend):
        self.check(karate, list(karate.nodes()), backend)

    def test_path_graph(self, backend):
        graph = path_graph(6)
        self.check(graph, [2, 3], backend)

    def test_star_graph(self, star6, backend):
        self.check(star6, [0, 1], backend)

    def test_barbell(self, barbell, backend):
        self.check(barbell, list(barbell.nodes())[:8], backend)

    def test_two_triangles(self, two_triangles_shared_node, backend):
        self.check(two_triangles_shared_node, [0, 1, 3], backend)

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=20, deadline=None)
    def test_random_graphs(self, seed, backend):
        rng = random.Random(seed)
        graph = erdos_renyi_graph(rng.randint(5, 14), 0.3, seed=rng.randint(0, 999))
        component = largest_connected_component(graph)
        if len(component) < 4:
            return
        graph = graph.subgraph(component)
        targets = rng.sample(list(graph.nodes()), min(4, len(component)))
        self.check(graph, targets, backend)


@BACKENDS
class TestNoFalseZeros:
    def test_positive_betweenness_implies_positive_exact_risk(self, karate, backend):
        """Lemma 19: every target with bc > 0 has a non-zero exact risk."""
        bc = betweenness_centrality(karate)
        targets = list(karate.nodes())
        space = PersonalizedISP(karate, targets=targets, backend=backend)
        evaluation = exact_two_hop_risks(space, targets)
        for position, node in enumerate(targets):
            if bc[node] > space.bct.bc_a[node] + 1e-12:
                assert evaluation.risks[position] > 0.0, node

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=20, deadline=None)
    def test_random_graphs_no_false_zeros(self, seed, backend):
        rng = random.Random(seed)
        graph = erdos_renyi_graph(rng.randint(5, 15), 0.25, seed=rng.randint(0, 999))
        component = largest_connected_component(graph)
        if len(component) < 4:
            return
        graph = graph.subgraph(component)
        bc = betweenness_centrality(graph)
        targets = list(graph.nodes())
        space = PersonalizedISP(graph, targets=targets, backend=backend)
        evaluation = exact_two_hop_risks(space, targets)
        for position, node in enumerate(targets):
            if bc[node] > space.bct.bc_a[node] + 1e-12:
                assert evaluation.risks[position] > 0.0


class TestDiagnostics:
    def test_lambda_within_unit_interval(self, karate):
        space = PersonalizedISP(karate, targets=[0, 1, 2])
        evaluation = exact_two_hop_risks(space, [0, 1, 2])
        assert 0.0 <= evaluation.lambda_exact <= 1.0

    def test_work_counted(self, karate):
        space = PersonalizedISP(karate, targets=[0])
        evaluation = exact_two_hop_risks(space, [0])
        assert evaluation.work > 0

    @BACKENDS
    def test_work_counts_two_hop_walks(self, karate, backend):
        # The centre alone: B is the ten leaves, each with one middle (the
        # centre, degree 10), so 10 * 10 walks; sum_{v in B} deg(v)^2 = 10.
        star = star_graph(10)
        space = PersonalizedISP(star, targets=[0], backend=backend)
        assert exact_two_hop_risks(space, [0]).work == 100
        # With every node a target, B is every node and the two agree.
        targets = list(karate.nodes())
        space = PersonalizedISP(karate, targets=targets, backend=backend)
        assert exact_two_hop_risks(space, targets).work == sum(
            karate.degree(node) ** 2 for node in targets
        )

    def test_rejects_mismatched_targets(self, karate):
        space = PersonalizedISP(karate, targets=[0, 1, 2])
        with pytest.raises(ValueError, match=r"targets\[1\] is 2 .* has 1 there"):
            exact_two_hop_risks(space, [0, 2, 1])
        with pytest.raises(ValueError, match="targets has 2 nodes .* for 3"):
            exact_two_hop_risks(space, [0, 1])

    def test_risks_bounded_by_lambda(self, karate):
        targets = [0, 1, 2, 3]
        space = PersonalizedISP(karate, targets=targets)
        evaluation = exact_two_hop_risks(space, targets)
        assert sum(evaluation.risks) <= evaluation.lambda_exact + 1e-9


def _assert_paths_equal(graph, targets):
    """The stacked numpy scan (CSR backend) equals the loop (dict) by ``==``."""
    reference = exact_two_hop_risks(
        PersonalizedISP(graph, targets, backend="dict"), targets
    )
    stacked = exact_two_hop_risks(
        PersonalizedISP(graph, targets, backend="csr"), targets
    )
    assert stacked.risks == reference.risks
    assert stacked.lambda_exact == reference.lambda_exact
    assert stacked.num_pairs == reference.num_pairs
    assert stacked.work == reference.work
    return reference


@pytest.mark.requires_numpy
class TestStackedScan:
    """The numpy path over the CSR snapshot is bit-identical to the loop
    (``TestAgainstEnumeration`` checks the same on its graphs)."""

    def test_equals_loop_on_grid(self):
        graph = grid_road_graph(14, 14, seed=1)[0]
        _assert_paths_equal(graph, list(graph.nodes()))

    @pytest.mark.parametrize("every", [1, 3])
    def test_equals_loop_with_cutpoints(self, social_with_leaves, every):
        targets = list(social_with_leaves.nodes())[::every]
        reference = _assert_paths_equal(social_with_leaves, targets)
        assert reference.num_pairs > 0

    def test_equals_loop_across_small_batches(self, social_with_leaves, monkeypatch):
        # Three sources per batch, and a walk budget below one hub's walks:
        # batch boundaries fall inside B and a hub forms a batch alone.
        graph = social_with_leaves
        targets = list(graph.nodes())[::2]
        hub = max(graph.nodes(), key=graph.degree)
        hub_walks = sum(graph.degree(middle) for middle in graph.neighbors(hub))
        budget = 16
        assert hub_walks > budget
        monkeypatch.setattr(exact_bc, "_WALK_BUDGET", budget)
        monkeypatch.setattr(exact_bc, "_KEY_BUDGET", 3 * graph.number_of_nodes())
        assert exact_bc.two_hop_batch_sources(as_csr(graph)) == 3
        _assert_paths_equal(graph, targets)

    @given(st.integers(min_value=0, max_value=100_000), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_random_graphs(self, seed, small_batches):
        rng = random.Random(seed)
        graph = erdos_renyi_graph(rng.randint(5, 40), 0.15, seed=rng.randint(0, 999))
        component = largest_connected_component(graph)
        if len(component) < 3:
            return
        graph = graph.subgraph(component)
        nodes = list(graph.nodes())
        targets = rng.sample(nodes, rng.randint(1, len(nodes)))
        walk_budget, key_budget = (
            (rng.randint(1, 20), rng.randint(1, 4) * len(nodes))
            if small_batches
            else (exact_bc._WALK_BUDGET, exact_bc._KEY_BUDGET)
        )
        original = exact_bc._WALK_BUDGET, exact_bc._KEY_BUDGET
        exact_bc._WALK_BUDGET, exact_bc._KEY_BUDGET = walk_budget, key_budget
        try:
            _assert_paths_equal(graph, targets)
        finally:
            exact_bc._WALK_BUDGET, exact_bc._KEY_BUDGET = original

    def test_dispatch_by_backend(self, karate, monkeypatch):
        targets = list(karate.nodes())

        def forbidden(space):
            raise AssertionError(f"{space.backend} backend took the wrong path")

        monkeypatch.setattr(exact_bc, "_loop_scan", forbidden)
        exact_two_hop_risks(PersonalizedISP(karate, targets, backend="csr"), targets)
        monkeypatch.undo()
        monkeypatch.setattr(exact_bc, "_stacked_scan", forbidden)
        exact_two_hop_risks(PersonalizedISP(karate, targets, backend="dict"), targets)
        # Pair weights up to n^2 must convert to float exactly.
        monkeypatch.setattr(exact_bc, "_EXACT_WEIGHT_LIMIT", 34 * 34)
        exact_two_hop_risks(PersonalizedISP(karate, targets, backend="csr"), targets)
