"""Distribution-level property tests for Gen_bc on random graphs.

The empirical frequency with which each target appears as an inner node of a
``Gen_bc`` sample must match the conditional expectation computed by
exhaustively enumerating the PISP space (Lemma 20).  This ties the sampler,
the multistage pair selection, the rejection step and the bidirectional path
sampling together in one statistical check.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.components import largest_connected_component
from repro.graphs.generators import erdos_renyi_graph, powerlaw_cluster_graph
from repro.saphyra_bc.gen_bc import GenBC
from repro.saphyra_bc.isp import PersonalizedISP


def conditional_expectations(space: PersonalizedISP, targets):
    """E[g(v, p)] under D-tilde (the approximate subspace), by enumeration."""
    target_set = set(targets)
    expected = {node: 0.0 for node in targets}
    mass = 0.0
    for path, probability in space.enumerate_paths():
        if len(path) == 3 and path[1] in target_set:
            continue
        mass += probability
        for inner in path[1:-1]:
            if inner in target_set:
                expected[inner] += probability
    if mass <= 0:
        return None
    return {node: value / mass for node, value in expected.items()}


def check_distribution(graph, targets, seed, draws=2500, tolerance=0.05):
    space = PersonalizedISP(graph, targets)
    expected = conditional_expectations(space, targets)
    if expected is None:
        return
    # Single draws, and 64-draw chunks on both backends: the chunk order
    # (pairs first, redraws of rejected pairs in later rounds) keeps Lemma 20.
    for backend, chunk in ((None, None), ("dict", 64), ("csr", 64)):
        generator = GenBC(space, targets, backend=backend)
        rng = random.Random(seed)
        counts = {node: 0 for node in targets}
        drawn = 0
        while drawn < draws:
            if chunk is None:
                batch = [generator.sample_losses(rng)]
            else:
                batch = generator.sample_losses(rng, min(chunk, draws - drawn))
            drawn += len(batch)
            for losses in batch:
                for index in losses:
                    counts[targets[index]] += 1
        for node in targets:
            assert counts[node] / draws == pytest.approx(
                expected[node], abs=tolerance
            ), (backend, node)


@pytest.mark.requires_numpy
class TestGenBCDistribution:
    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=6, deadline=None)
    def test_er_graphs(self, seed):
        rng = random.Random(seed)
        graph = erdos_renyi_graph(rng.randint(6, 12), 0.35, seed=rng.randint(0, 999))
        component = largest_connected_component(graph)
        if len(component) < 4:
            return
        graph = graph.subgraph(component)
        targets = rng.sample(list(graph.nodes()), min(4, len(component)))
        check_distribution(graph, targets, seed)

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=4, deadline=None)
    def test_powerlaw_graphs(self, seed):
        rng = random.Random(seed)
        graph = powerlaw_cluster_graph(rng.randint(12, 20), 2, 0.4, seed=rng.randint(0, 999))
        targets = rng.sample(list(graph.nodes()), 5)
        check_distribution(graph, targets, seed)
