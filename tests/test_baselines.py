"""Tests for the whole-network baselines (ABRA, KADABRA, RK, Bader)."""

from __future__ import annotations

import pytest

from repro.baselines import ABRA, KADABRA, BaderPivot, RiondatoKornaropoulos, kadabra
from repro.baselines.base import BaselineResult
from repro.centrality.brandes import betweenness_centrality
from repro.errors import GraphError
from repro.graphs import csr
from repro.graphs.generators import barabasi_albert_graph, complete_graph
from repro.graphs.graph import Graph

ESTIMATORS = [
    ("abra", lambda **kw: ABRA(**kw)),
    ("kadabra", lambda **kw: KADABRA(**kw)),
    ("rk", lambda **kw: RiondatoKornaropoulos(**kw)),
]


class TestBaselineResult:
    def test_subset_scores_and_ranking(self):
        result = BaselineResult(
            algorithm="test",
            scores={1: 0.3, 2: 0.1, 3: 0.5},
            num_samples=10,
            epsilon=0.1,
            delta=0.1,
        )
        assert result.subset_scores([1, 3]) == {1: 0.3, 3: 0.5}
        assert result.subset_scores([1, 99]) == {1: 0.3, 99: 0.0}
        assert result.ranking() == [3, 1, 2]
        assert result.ranking([1, 2]) == [1, 2]


@pytest.mark.parametrize("name,factory", ESTIMATORS)
class TestCommonBehaviour:
    def test_scores_for_every_node(self, karate, name, factory):
        result = factory(epsilon=0.1, delta=0.1, seed=3).estimate(karate)
        assert set(result.scores) == set(karate.nodes())
        assert result.algorithm == name
        assert result.num_samples > 0
        assert result.wall_time_seconds > 0

    def test_epsilon_guarantee(self, karate, name, factory):
        truth = betweenness_centrality(karate)
        result = factory(epsilon=0.05, delta=0.05, seed=7).estimate(karate)
        for node in karate.nodes():
            assert abs(result.scores[node] - truth[node]) < 0.05

    def test_deterministic_given_seed(self, karate, name, factory):
        first = factory(epsilon=0.2, delta=0.1, seed=5).estimate(karate)
        second = factory(epsilon=0.2, delta=0.1, seed=5).estimate(karate)
        assert first.scores == second.scores
        assert first.num_samples == second.num_samples

    def test_requires_connected_graph(self, name, factory):
        graph = Graph.from_edges([(0, 1), (2, 3), (3, 4)])
        with pytest.raises(GraphError):
            factory(epsilon=0.1, delta=0.1, seed=1).estimate(graph)

    def test_tiny_graph_rejected(self, name, factory):
        with pytest.raises(GraphError):
            factory(epsilon=0.1, delta=0.1, seed=1).estimate(Graph.from_edges([(0, 1)]))

    def test_max_samples_cap(self, karate, name, factory):
        result = factory(
            epsilon=0.02, delta=0.05, seed=2, max_samples_cap=100
        ).estimate(karate)
        assert result.num_samples <= 100

    def test_invalid_epsilon(self, name, factory):
        with pytest.raises(ValueError):
            factory(epsilon=1.5, delta=0.1)

    def test_nonpositive_cap_rejected_at_construction(self, name, factory):
        # Before any graph work (connectivity check, diameter estimate).
        for cap in (0, -3):
            with pytest.raises(ValueError, match="max_samples"):
                factory(epsilon=0.1, delta=0.1, max_samples_cap=cap)


class TestAdaptiveBehaviour:
    def test_kadabra_smaller_epsilon_needs_more_samples(self, karate):
        loose = KADABRA(epsilon=0.2, delta=0.1, seed=1).estimate(karate)
        tight = KADABRA(epsilon=0.05, delta=0.1, seed=1).estimate(karate)
        assert tight.num_samples >= loose.num_samples

    def test_abra_converges_adaptively_on_easy_graph(self):
        # On K6 every betweenness is 0: variance 0, the check fires at the
        # first stage.
        result = ABRA(epsilon=0.1, delta=0.1, seed=2).estimate(complete_graph(6))
        assert result.converged_by == "adaptive"
        assert all(value == 0.0 for value in result.scores.values())

    def test_kadabra_complete_graph_zero(self):
        result = KADABRA(epsilon=0.1, delta=0.1, seed=2).estimate(complete_graph(6))
        assert all(value == 0.0 for value in result.scores.values())

    def test_abra_stage_growth_validation(self):
        with pytest.raises(ValueError):
            ABRA(stage_growth=1.0)


@pytest.mark.parametrize(
    "make_graph",
    [
        pytest.param(lambda: barabasi_albert_graph(200, 3, seed=2), id="csr-sized"),
        pytest.param(lambda: barabasi_albert_graph(60, 2, seed=2), id="dict-sized"),
    ],
)
def test_kadabra_auto_follows_the_general_backend_rule(make_graph, monkeypatch):
    # Unit-weight KADABRA routes like every other kernel: whenever the
    # general auto rule picks CSR (with numpy, at n + m >= AUTO_CSR_THRESHOLD)
    # a chunk's pairs go through stacked sub-batches, otherwise through one
    # dict search per pair.
    monkeypatch.delenv(csr.BACKEND_ENV_VAR, raising=False)
    graph = make_graph()
    choice = csr.effective_backend(graph)
    stacked, single = [], []
    search, lone = kadabra.stacked_paths, kadabra.bidirectional_shortest_paths
    monkeypatch.setattr(
        kadabra, "stacked_paths",
        lambda graph, pairs, rng, spare: (
            stacked.append(len(pairs)) or search(graph, pairs, rng, spare)
        ),
    )
    monkeypatch.setattr(
        kadabra, "bidirectional_shortest_paths",
        lambda graph, s, t, backend: (
            single.append(backend) or lone(graph, s, t, backend=backend)
        ),
    )
    result = KADABRA(0.1, 0.1, seed=3, max_samples_cap=200, workers=0).estimate(graph)
    if choice == csr.CSR_BACKEND:
        assert single == [] and stacked[0] == 64
        assert sum(stacked) == result.num_samples
    else:
        assert stacked == [] and set(single) == {csr.DICT_BACKEND}
        assert len(single) == result.num_samples


class TestBaderPivot:
    def test_all_pivots_equals_exact(self, karate):
        truth = betweenness_centrality(karate)
        result = BaderPivot(num_pivots=34, seed=1).estimate(karate)
        for node in karate.nodes():
            assert result.scores[node] == pytest.approx(truth[node])

    def test_default_pivot_count_bounded_by_n(self, karate):
        result = BaderPivot(epsilon=0.01, delta=0.01, seed=1).estimate(karate)
        assert result.num_samples <= karate.number_of_nodes()

    def test_invalid_pivot_count(self):
        with pytest.raises(ValueError):
            BaderPivot(num_pivots=0)

    def test_subset_estimate_reasonable(self, karate):
        truth = betweenness_centrality(karate)
        result = BaderPivot(num_pivots=20, seed=5).estimate(karate)
        for node in karate.nodes():
            assert abs(result.scores[node] - truth[node]) < 0.25
