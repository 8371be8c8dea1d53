"""Property tests: the dict and CSR backends are interchangeable.

The CSR kernels are not merely statistically equivalent to the dict
reference — they are *bit-identical*: same distances, same shortest-path
counts, same float dependencies (accumulated in the same order), same dict
key order, and the same sampled paths from the same seeds.  These tests
assert that contract on randomized generator graphs, so any divergence
introduced by a future kernel optimisation fails loudly.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.baselines import ABRA, KADABRA, RiondatoKornaropoulos
from repro.centrality.brandes import (
    betweenness_centrality,
    betweenness_from_pivots,
    single_source_dependencies,
)
from repro.centrality.closeness import closeness_centrality
from repro.datasets import random_subset
from repro.graphs.bidirectional import (
    bidirectional_searches,
    bidirectional_shortest_paths,
    stacked_paths,
)
from repro.graphs.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    grid_road_graph,
    watts_strogatz_graph,
    weighted_barabasi_albert_graph,
    weighted_grid_road_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_distances, shortest_path_dag
from repro.saphyra_bc import SaPHyRaBC
from repro.saphyra_bc.gen_bc import GenBC
from repro.saphyra_bc.isp import PersonalizedISP
from repro.saphyra_cc.algorithm import SaPHyRaCC
from repro.saphyra_cc.problem import ClosenessProblem

# Every test here runs the CSR backend against the dict reference.
pytestmark = pytest.mark.requires_numpy

GRAPH_CASES = [
    pytest.param(lambda seed: erdos_renyi_graph(60, 0.08, seed=seed), id="erdos-renyi"),
    pytest.param(lambda seed: barabasi_albert_graph(120, 3, seed=seed), id="barabasi-albert"),
    pytest.param(lambda seed: watts_strogatz_graph(90, 4, 0.1, seed=seed), id="watts-strogatz"),
    pytest.param(lambda seed: grid_road_graph(8, 9, seed=seed)[0], id="grid-road"),
]
SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def overflow_grid():
    """A road-style grid whose sigma counts cross ``2**63`` (hop dist ~70)."""
    return grid_road_graph(100, 100, seed=1)[0]


def _random_pairs(graph: Graph, count: int, seed: int):
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    return [tuple(rng.sample(nodes, 2)) for _ in range(count)]


def _assert_same_search(reference, candidate) -> None:
    """Two bidirectional results agree on everything path sampling reads."""
    assert reference.distance == candidate.distance
    assert reference.num_shortest_paths == candidate.num_shortest_paths
    assert reference.cut_level == candidate.cut_level
    # Order too: the cut node is drawn in this order.
    assert list(reference.cut_nodes.items()) == list(candidate.cut_nodes.items())
    assert reference.visited_edges == candidate.visited_edges
    if reference.connected:
        for draw in range(3):
            assert reference.sample_path(
                random.Random(draw)
            ) == candidate.sample_path(random.Random(draw))


@pytest.mark.parametrize("make_graph", GRAPH_CASES)
@pytest.mark.parametrize("seed", SEEDS)
class TestTraversalEquivalence:
    def test_bfs_identical_including_order(self, make_graph, seed):
        graph = make_graph(seed)
        for source in list(graph.nodes())[:4]:
            reference = bfs_distances(graph, source, backend="dict")
            candidate = bfs_distances(graph, source, backend="csr")
            assert reference == candidate
            assert list(reference) == list(candidate)

    def test_bfs_max_depth(self, make_graph, seed):
        graph = make_graph(seed)
        source = next(iter(graph.nodes()))
        for depth in (0, 1, 3):
            reference = bfs_distances(graph, source, max_depth=depth, backend="dict")
            candidate = bfs_distances(graph, source, max_depth=depth, backend="csr")
            assert reference == candidate
            assert list(reference) == list(candidate)

    def test_shortest_path_dag_identical(self, make_graph, seed):
        graph = make_graph(seed)
        for source in list(graph.nodes())[:3]:
            reference = shortest_path_dag(graph, source, backend="dict")
            candidate = shortest_path_dag(graph, source, backend="csr")
            assert reference.distances == candidate.distances
            assert reference.sigma == candidate.sigma
            assert reference.order == candidate.order
            assert reference.predecessors == candidate.predecessors

    def test_sampled_dag_paths_identical(self, make_graph, seed):
        graph = make_graph(seed)
        nodes = list(graph.nodes())
        source = nodes[0]
        reference = shortest_path_dag(graph, source, backend="dict")
        candidate = shortest_path_dag(graph, source, backend="csr")
        for target in nodes[-5:]:
            if target == source or target not in reference.distances:
                continue
            for draw in range(3):
                assert reference.sample_path(
                    target, random.Random(draw)
                ) == candidate.sample_path(target, random.Random(draw))

    def test_exact_subset_diameter_identical(self, make_graph, seed, monkeypatch):
        # The CSR route sweeps the members as stacked batches; the dict
        # route runs one BFS per member.  Both must find the exact maximum.
        from repro.graphs.diameter import exact_subset_diameter

        graph = make_graph(seed)
        members = random_subset(graph, 12, seed)
        expected = 0
        for source in members:
            distances = bfs_distances(graph, source, backend="dict")
            expected = max(
                [expected] + [distances[t] for t in members if t in distances]
            )
        for backend in ("dict", "csr"):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            assert exact_subset_diameter(graph, members) == expected


@pytest.mark.parametrize("make_graph", GRAPH_CASES)
@pytest.mark.parametrize("seed", SEEDS)
class TestCentralityEquivalence:
    def test_single_source_dependencies_bitwise(self, make_graph, seed):
        graph = make_graph(seed)
        for source in list(graph.nodes())[:3]:
            reference = single_source_dependencies(graph, source, backend="dict")
            candidate = single_source_dependencies(graph, source, backend="csr")
            assert list(reference) == list(candidate)
            # Bitwise float equality, not approx: the CSR backward pass
            # replays the exact accumulation order.
            assert reference == candidate

    def test_betweenness_bitwise(self, make_graph, seed):
        graph = make_graph(seed)
        assert betweenness_centrality(graph, backend="dict") == (
            betweenness_centrality(graph, backend="csr")
        )

    def test_pivot_betweenness_bitwise(self, make_graph, seed):
        graph = make_graph(seed)
        pivots = random_subset(graph, 7, seed)
        assert betweenness_from_pivots(graph, pivots, backend="dict") == (
            betweenness_from_pivots(graph, pivots, backend="csr")
        )

    def test_closeness_bitwise(self, make_graph, seed):
        graph = make_graph(seed)
        assert closeness_centrality(graph, backend="dict") == (
            closeness_centrality(graph, backend="csr")
        )


@pytest.mark.parametrize("make_graph", GRAPH_CASES)
@pytest.mark.parametrize("seed", SEEDS)
class TestBidirectionalEquivalence:
    def test_results_and_sampled_paths(self, make_graph, seed):
        graph = make_graph(seed)
        for source, target in _random_pairs(graph, 12, seed + 100):
            reference = bidirectional_shortest_paths(
                graph, source, target, backend="dict"
            )
            candidate = bidirectional_shortest_paths(
                graph, source, target, backend="csr"
            )
            _assert_same_search(reference, candidate)

    def test_stacked_pairs_match_the_dict_search(self, make_graph, seed):
        # K pairs as 2K slots of one staggered sweep; every pair picks its
        # own side per step, so the slots sit at different depths.
        graph = make_graph(seed)
        pairs = _random_pairs(graph, 12, seed + 200)
        for (source, target), candidate in zip(
            pairs, bidirectional_searches(graph, pairs)
        ):
            reference = bidirectional_shortest_paths(
                graph, source, target, backend="dict"
            )
            _assert_same_search(reference, candidate)

    def test_dict_frontier_cost_is_the_frontier_degree(self, make_graph, seed):
        # The balancer compares running degree sums; they must equal a
        # re-summed frontier degree at every level.
        from repro.graphs.bidirectional import _SearchSide

        graph = make_graph(seed)
        side = _SearchSide(graph, list(graph.nodes())[seed])
        while side.frontier:
            assert side.cost == sum(graph.degree(v) for v in side.frontier)
            side.expand()
        assert side.cost == 0


def test_interrupted_stacked_search_leaves_no_state(monkeypatch):
    # A stacked search cut short mid-step (a timeout or Ctrl-C after the
    # distances of a vectorised step are written, before its counts and
    # discovery log) must not leak into the next search on the same cached
    # snapshot.
    from repro.graphs import csr as csr_module

    graph = barabasi_albert_graph(300, 3, seed=3)
    pairs = _random_pairs(graph, 16, 7)

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(csr_module, "_accumulate_level", interrupted)
    with pytest.raises(KeyboardInterrupt):
        bidirectional_searches(graph, pairs)
    monkeypatch.undo()
    for (source, target), candidate in zip(pairs, bidirectional_searches(graph, pairs)):
        reference = bidirectional_shortest_paths(graph, source, target, backend="dict")
        _assert_same_search(reference, candidate)


def _dict_paths(graph, pairs, seed):
    """``(visited edges, path)`` per pair from the dict search, with the
    paths sampled in pair order from one ``random.Random(seed)``."""
    return _dict_draws(graph, pairs, random.Random(seed))


def _dict_draws(graph, pairs, rng):
    """:func:`_dict_paths` drawing from the caller's ``rng``."""
    sampled = []
    for source, target in pairs:
        result = bidirectional_shortest_paths(graph, source, target, backend="dict")
        sampled.append((result.visited_edges, result.sample_path(rng)))
    return sampled


def _assert_parked_clean(spare):
    dist, sigma, _ = spare.arrays
    assert (dist == -1).all() and (sigma == 0).all()


def test_sweep_spare_never_serves_dirty_arrays(overflow_grid, monkeypatch):
    # One spare across three failures of the stacked helper: a step cut
    # short after it wrote distances it had not logged yet, an rng that
    # raises while paths are sampled, and a batch whose int64 guard trips.
    # Each failure must leave the spare empty, so the next call on
    # same-sized arrays still returns the dict search's paths.
    from repro.graphs import csr as csr_module

    spare = csr_module.SweepSpare()
    social = barabasi_albert_graph(300, 3, seed=3)
    pairs = _random_pairs(social, 16, 7)
    expected = _dict_paths(social, pairs, 1)
    assert stacked_paths(social, pairs, random.Random(1), spare) == expected
    _assert_parked_clean(spare)

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(csr_module, "_accumulate_level", interrupted)
    with pytest.raises(KeyboardInterrupt):
        stacked_paths(social, pairs, random.Random(1), spare)
    monkeypatch.undo()
    assert spare.arrays is None
    assert stacked_paths(social, pairs, random.Random(1), spare) == expected
    _assert_parked_clean(spare)

    # A short sweep runs on a prefix of the parked full-size arrays; cut
    # short, it must drop the whole set, not just its prefix.
    parked = spare.arrays
    staggered_sweep = csr_module.staggered_sweep
    short_sweeps = []

    def recorded(*args):
        short_sweeps.append(staggered_sweep(*args))
        return short_sweeps[-1]

    monkeypatch.setattr(csr_module, "staggered_sweep", recorded)
    monkeypatch.setattr(csr_module, "_accumulate_level", interrupted)
    with pytest.raises(KeyboardInterrupt):
        stacked_paths(social, pairs[:8], random.Random(1), spare)
    monkeypatch.undo()
    [short_sweep] = short_sweeps
    assert short_sweep.dist.size < parked[0].size
    assert short_sweep.dist.base is parked[0]
    assert spare.arrays is None
    assert stacked_paths(social, pairs, random.Random(1), spare) == expected
    _assert_parked_clean(spare)

    class FailingRng(random.Random):
        calls = 0

        def randrange(self, *args, **kwargs):
            FailingRng.calls += 1
            if FailingRng.calls == 5:
                raise RuntimeError("rng failed")
            return super().randrange(*args, **kwargs)

    with pytest.raises(RuntimeError, match="rng failed"):
        stacked_paths(social, pairs, FailingRng(1), spare)
    assert spare.arrays is None
    assert stacked_paths(social, pairs, random.Random(1), spare) == expected
    _assert_parked_clean(spare)

    # The guard case: park grid-sized arrays with a short batch, then run a
    # batch of the same size that mixes long pairs (distance >= 60) in.
    grid = overflow_grid
    nodes = list(grid.nodes())
    rng = random.Random(1)
    long_pairs = [
        pair for pair in (tuple(rng.sample(nodes, 2)) for _ in range(40))
        if bidirectional_shortest_paths(grid, *pair, backend="dict").distance >= 60
    ]
    short = [
        (source, list(bfs_distances(grid, source, max_depth=4))[-1])
        for source in nodes[: 2 * len(long_pairs)]
    ]
    batch = [
        pair for index, long_pair in enumerate(long_pairs)
        for pair in (long_pair, short[index])
    ]
    assert stacked_paths(grid, short, random.Random(2), spare) == (
        _dict_paths(grid, short, 2)
    )
    _assert_parked_clean(spare)
    sweep_type = type(csr_module.staggered_sweep(csr_module.as_csr(grid), [0, 1]))
    park = sweep_type.park
    tripped = []

    def watched(sweep, target):
        tripped.append(sweep.sigma_view is None)
        park(sweep, target)

    monkeypatch.setattr(sweep_type, "park", watched)
    assert stacked_paths(grid, batch, random.Random(2), spare) == (
        _dict_paths(grid, batch, 2)
    )
    monkeypatch.undo()
    assert tripped == [True] and spare.arrays is None
    assert stacked_paths(grid, short, random.Random(2), spare) == (
        _dict_paths(grid, short, 2)
    )
    _assert_parked_clean(spare)


def test_sweep_spare_serves_short_sub_batches(monkeypatch):
    # A wheel whose hub is the only target: most pairs are rim nodes whose
    # one shortest path runs through the hub, so a 64-draw chunk redraws
    # its rejected pairs in dozens of ever shorter sub-batches.  All of
    # them must run on the arrays of the first, full-size sweep.
    from repro.graphs import csr as csr_module

    rim = 80
    wheel = Graph.from_edges(
        [(0, node) for node in range(1, rim + 1)]
        + [(node, node % rim + 1) for node in range(1, rim + 1)]
    )
    staggered_sweep = csr_module.staggered_sweep
    sweeps = []

    def recorded(*args):
        sweeps.append(staggered_sweep(*args))
        return sweeps[-1]

    monkeypatch.setattr(csr_module, "staggered_sweep", recorded)
    generator = GenBC(PersonalizedISP(wheel, [0]), [0], backend="csr")
    paths = generator.sample_path(random.Random(1), 64)
    monkeypatch.undo()
    assert generator.stats.rejections > 500
    assert len({sweep.dist.size for sweep in sweeps}) > 5
    fresh = {
        id(sweep.dist if sweep.dist.base is None else sweep.dist.base)
        for sweep in sweeps
    }
    assert len(fresh) == 1
    reference = GenBC(PersonalizedISP(wheel, [0]), [0], backend="dict")
    assert paths == reference.sample_path(random.Random(1), 64)


def _long_grid_batch(grid):
    """Pairs of ``grid`` at hop distance >= 60, each followed by a short
    pair: a batch whose int64 guard trips while its slots sit at different
    depths."""
    nodes = list(grid.nodes())
    rng = random.Random(1)
    long_pairs = [
        pair for pair in (tuple(rng.sample(nodes, 2)) for _ in range(40))
        if bidirectional_shortest_paths(grid, *pair, backend="dict").distance >= 60
    ]
    return [
        pair for index, long_pair in enumerate(long_pairs)
        for pair in (long_pair, (nodes[index], nodes[index + 1]))
    ]


@pytest.mark.parametrize("case", ["road-grid", "overflow-grid", "hubs"])
def test_stacked_paths_draw_what_the_dict_search_draws(case, request, monkeypatch):
    # stacked_paths picks each cut node and walks both halves straight off
    # the sweep, settling a two-candidate step with one inline randrange.
    # Equal paths are not enough: the caller's stream must stand exactly
    # where the dict search leaves it, or every later draw differs.  The
    # three graphs reach the walk's branches: a road grid has many
    # two-candidate steps, the overflow grid samples on Python-int counts,
    # and a scale-free graph's hubs take the numpy predecessor and cut
    # scans.
    from repro.graphs import bidirectional
    from repro.graphs import csr as csr_module

    if case == "road-grid":
        graph = grid_road_graph(30, 30, seed=5)[0]
        pairs = _random_pairs(graph, 48, 11)
    elif case == "overflow-grid":
        graph = request.getfixturevalue("overflow_grid")
        pairs = _long_grid_batch(graph)
    else:
        graph = barabasi_albert_graph(1500, 3, seed=4)
        pairs = _random_pairs(graph, 48, 12)

    counts = []
    sigma_choice = bidirectional.sigma_choice

    def counted(items, weights, rng):
        counts.append(len(items))
        return sigma_choice(items, weights, rng)

    monkeypatch.setattr(bidirectional, "sigma_choice", counted)
    reference_rng = random.Random(3)
    expected = _dict_draws(graph, pairs, reference_rng)
    monkeypatch.undo()

    sweeps = []
    staggered_sweep = csr_module.staggered_sweep

    def recorded(*args):
        sweeps.append(staggered_sweep(*args))
        return sweeps[-1]

    monkeypatch.setattr(csr_module, "staggered_sweep", recorded)
    spare = csr_module.SweepSpare()
    rng = random.Random(3)
    half = len(pairs) // 2
    sampled = stacked_paths(graph, pairs[:half], rng, spare)
    sampled += stacked_paths(graph, pairs[half:], rng, spare)
    monkeypatch.undo()
    assert sampled == expected
    assert rng.getstate() == reference_rng.getstate()

    # The test bites: each graph reaches the branch it stands for.
    if case == "road-grid":
        assert counts.count(2) >= 100
    elif case == "overflow-grid":
        assert any(sweep.sigma_view is None for sweep in sweeps)
    else:
        scan = bidirectional._SMALL_SCAN
        assert any(
            graph.degree(node) >= scan
            for _, path in expected for node in path[1:-1]
        )
        cut_levels = []
        for source, target in pairs:
            result = bidirectional_shortest_paths(graph, source, target, backend="dict")
            forward = result._forward.dist.values()
            cut_levels.append(sum(depth == result.cut_level for depth in forward))
        assert max(cut_levels) >= scan


@pytest.mark.parametrize(
    "make_graph, fills",
    [
        # Short searches on a scale-free graph log a few percent of the
        # sweep's ids; long ones on a small road grid log most of them.
        pytest.param(lambda: barabasi_albert_graph(2000, 3, seed=6), False,
                     id="scattered"),
        pytest.param(lambda: grid_road_graph(12, 12, seed=2)[0], True,
                     id="fill"),
    ],
)
@pytest.mark.parametrize("prefix", [False, True], ids=["own-arrays", "prefix-view"])
def test_park_resets_the_whole_parked_set(make_graph, fills, prefix, monkeypatch):
    # park resets just the logged entries when the log covers less than
    # 1 / 2**_PARK_FILL_SHIFT of the sweep's ids, and fills the sweep's
    # whole prefix otherwise.  Either way the spare's whole set (also when
    # the sweep ran on a prefix of a larger parked set) must come back at
    # dist -1 and sigma 0, and the next same-sized call must equal the
    # dict search.  The wrapper tells the branches apart by a mark on an
    # id the sweep never wrote: only the fill clears it.
    from repro.graphs import csr as csr_module

    graph = make_graph()
    spare = csr_module.SweepSpare()
    if prefix:
        stacked_paths(graph, _random_pairs(graph, 32, 1), random.Random(1), spare)
        parked = spare.arrays
    pairs = _random_pairs(graph, 8, 2)
    sweep_type = type(csr_module.staggered_sweep(csr_module.as_csr(graph), [0, 1]))
    park = sweep_type.park
    runs = []

    def watched(sweep, target):
        [unwritten] = (sweep.dist == -1).nonzero()[0][:1]
        sweep.dist[unwritten] = 7
        park(sweep, target)
        runs.append((sweep, sweep.dist[unwritten] == -1))
        sweep.dist[unwritten] = -1

    monkeypatch.setattr(sweep_type, "park", watched)
    assert stacked_paths(graph, pairs, random.Random(2), spare) == (
        _dict_paths(graph, pairs, 2)
    )
    monkeypatch.undo()
    [(sweep, filled)] = runs
    assert filled == fills
    if prefix:
        assert spare.arrays is parked
        assert sweep.dist.size < parked[0].size and sweep.dist.base is parked[0]
    _assert_parked_clean(spare)
    assert stacked_paths(graph, pairs, random.Random(3), spare) == (
        _dict_paths(graph, pairs, 3)
    )
    _assert_parked_clean(spare)


class TestEstimatorEquivalence:
    """Full estimator runs draw identical samples and scores per backend."""

    @pytest.fixture(scope="class")
    def graph(self):
        return barabasi_albert_graph(200, 3, seed=2)

    @pytest.fixture(scope="class")
    def targets(self, graph):
        return random_subset(graph, 20, 4)

    def _pair(self, factory):
        first = factory("dict")
        second = factory("csr")
        return first, second

    def test_rk(self, graph):
        reference, candidate = self._pair(
            lambda backend: RiondatoKornaropoulos(
                0.1, 0.1, seed=7, max_samples_cap=150, backend=backend
            ).estimate(graph)
        )
        assert reference.scores == candidate.scores
        assert reference.num_samples == candidate.num_samples

    def test_kadabra(self, graph):
        reference, candidate = self._pair(
            lambda backend: KADABRA(
                0.1, 0.1, seed=7, max_samples_cap=150, backend=backend
            ).estimate(graph)
        )
        assert reference.scores == candidate.scores
        assert reference.converged_by == candidate.converged_by

    def test_abra(self, graph):
        reference, candidate = self._pair(
            lambda backend: ABRA(
                0.1, 0.1, seed=7, max_samples_cap=100, backend=backend
            ).estimate(graph)
        )
        assert reference.scores == candidate.scores
        assert reference.num_samples == candidate.num_samples

    def test_saphyra_bc(self, graph, targets):
        reference, candidate = self._pair(
            lambda backend: SaPHyRaBC(
                0.1, 0.1, seed=7, max_samples_cap=300, backend=backend
            ).rank(graph, targets)
        )
        assert reference.scores == candidate.scores
        assert reference.ranking == candidate.ranking
        assert reference.num_samples == candidate.num_samples

    def test_saphyra_bc_full(self, social_with_leaves, monkeypatch):
        # SaPHyRa_bc-full (every node a target) on a graph with cutpoints:
        # Exact_bc takes the stacked scan on CSR and the loop on dict.  The
        # pins were recorded with one 100-step bisection per hypothesis in
        # the Eq. 13 allocation; the last digest covers every delta_i and
        # the stopping rule's final deviations.
        from repro.core import adaptive

        rules = []

        class RecordedRule(adaptive.AllocatedBernsteinRule):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                rules.append(self)

        monkeypatch.setattr(adaptive, "AllocatedBernsteinRule", RecordedRule)
        results = [
            SaPHyRaBC(
                0.1, 0.1, seed=7, max_samples_cap=300,
                backend=backend, workers=workers,
            ).rank(social_with_leaves, None)
            for backend in ("dict", "csr")
            for workers in (0, 2)
        ]
        reference = results[0]
        assert reference.exact_work > 0 and reference.lambda_exact > 0
        for candidate in results[1:]:
            assert candidate.scores == reference.scores
            assert candidate.ranking == reference.ranking
            assert candidate.num_samples == reference.num_samples
            assert candidate.lambda_exact == reference.lambda_exact
            assert candidate.exact_work == reference.exact_work
        assert len(rules) == len(results)
        for result, rule in zip(results, rules):
            assert result.num_samples == 300
            assert result.converged_by == "vc"
            assert hashlib.sha256(
                repr(sorted(result.scores.items())).encode()
            ).hexdigest()[:16] == "688e5a787425ae45"
            assert hashlib.sha256(
                repr((rule.delta_allocations, rule.deviations)).encode()
            ).hexdigest()[:16] == "4af03825661b6c6d"

    def test_saphyra_cc(self, graph, targets):
        reference, candidate = self._pair(
            lambda backend: SaPHyRaCC(
                0.1, 0.1, seed=7, max_samples_cap=300, backend=backend
            ).rank(graph, targets)
        )
        assert reference.closeness == candidate.closeness
        assert reference.ranking == candidate.ranking

    def test_closeness_problem_losses(self, graph, targets):
        first = ClosenessProblem(graph, targets, seed=3, backend="dict")
        second = ClosenessProblem(graph, targets, seed=3, backend="csr")
        exact_first = first.exact_evaluation()
        exact_second = second.exact_evaluation()
        assert exact_first.risks == exact_second.risks
        assert exact_first.lambda_exact == exact_second.lambda_exact
        for draw in range(5):
            assert first.sample_losses(random.Random(draw)) == (
                second.sample_losses(random.Random(draw))
            )

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    @pytest.mark.parametrize(
        "make_graph",
        [
            pytest.param(lambda: grid_road_graph(10, 10, seed=1)[0], id="grid"),
            pytest.param(lambda: barabasi_albert_graph(150, 3, seed=2), id="social"),
        ],
    )
    @pytest.mark.parametrize(
        "spare", [pytest.param(None, id="few-targets"), pytest.param(3, id="most-targets")]
    )
    @pytest.mark.parametrize("sweep_batch", [None, 5])
    def test_closeness_chunk_equals_single_draws(
        self, backend, make_graph, spare, sweep_batch, monkeypatch
    ):
        # "most-targets" leaves 3 non-target nodes: the rejection loop spins
        # and a 64-draw chunk must repeat nodes.  A 5-source sweep batch
        # splits the chunk into sub-batches.
        from repro.graphs import csr as csr_module

        if sweep_batch is not None:
            monkeypatch.setattr(
                csr_module, "distance_sweep_batch", lambda snapshot: sweep_batch
            )
        graph = make_graph()
        nodes = list(graph.nodes())
        targets = random_subset(graph, 8, 1) if spare is None else nodes[spare:]
        problem = ClosenessProblem(graph, targets, seed=3, backend=backend)
        for draws in (1, 37, 64):
            chunk_rng, single_rng = random.Random(draws), random.Random(draws)
            chunk = problem.sample_losses(chunk_rng, draws)
            singles = [problem.sample_losses(single_rng) for _ in range(draws)]
            assert chunk == singles
            assert chunk_rng.getstate() == single_rng.getstate()

    @pytest.mark.parametrize(
        "make_graph, pick_targets",
        [
            pytest.param(
                lambda: grid_road_graph(10, 10, seed=1)[0],
                lambda graph: random_subset(graph, 8, 1), id="grid",
            ),
            # Hub targets sit in the middle of many length-2 paths, so
            # chunks reject and redraw pairs.
            pytest.param(
                lambda: barabasi_albert_graph(150, 3, seed=2),
                lambda graph: sorted(graph.nodes(), key=graph.degree)[-8:],
                id="social-hubs",
            ),
        ],
    )
    def test_gen_bc_chunks_equal_across_backends(self, make_graph, pick_targets):
        graph = make_graph()
        targets = pick_targets(graph)
        generators = {
            backend: GenBC(PersonalizedISP(graph, targets), targets, backend=backend)
            for backend in ("dict", "csr")
        }
        for draws in (1, 37, 64):
            chunks, states = {}, {}
            for backend, generator in generators.items():
                rng = random.Random(draws)
                chunks[backend] = generator.sample_losses(rng, draws)
                states[backend] = rng.getstate()
            assert len(chunks["dict"]) == draws
            assert chunks["dict"] == chunks["csr"]
            assert states["dict"] == states["csr"]
        assert generators["dict"].stats == generators["csr"].stats
        # One draw is the one-draw chunk.
        for generator in generators.values():
            chunk_rng, single_rng = random.Random(5), random.Random(5)
            assert generator.sample_losses(chunk_rng, 1) == [
                generator.sample_losses(single_rng)
            ]
            assert generator.sample_path(chunk_rng, 1) == [
                generator.sample_path(single_rng)
            ]
            assert chunk_rng.getstate() == single_rng.getstate()

    def test_saphyra_bc_pinned_values(self):
        # Recorded after Gen_bc's chunk order was pinned (a round's pairs,
        # then their paths); fails if the draws are reordered.
        grid = grid_road_graph(14, 14, seed=1)[0]
        social = barabasi_albert_graph(300, 3, seed=4)
        cases = (
            (
                grid, random_subset(grid, 10, 11), 328, 0,
                {133: 0.10573397276358949, 82: 0.04682510433817054,
                 158: 0.06854076527421477, 107: 0.04045616839606386,
                 174: 0.04990491506170949, 101: 0.04358830774336001,
                 98: 0.0, 108: 0.13392322688925476,
                 169: 0.02805843256627229, 134: 0.0},
            ),
            (
                social, sorted(social.nodes(), key=social.degree, reverse=True)[:10],
                168, 30,
                {0: 0.25748849591862016, 4: 0.17625750148938554,
                 5: 0.10680744709626698, 12: 0.07089100752403031,
                 7: 0.05229628428852032, 9: 0.07270943941803157,
                 8: 0.03552813105918696, 38: 0.030341323138942188,
                 3: 0.01890338353847671, 6: 0.03428757612297985},
            ),
        )
        for graph, targets, num_samples, rejections, scores in cases:
            assert targets == list(scores)
            for backend in ("dict", "csr"):
                for workers in (0, 2):
                    result = SaPHyRaBC(
                        0.1, 0.1, seed=5, max_samples_cap=400,
                        backend=backend, workers=workers,
                    ).rank(graph, targets)
                    assert result.num_samples == num_samples
                    assert result.rejections == rejections
                    assert result.scores == scores

    def test_kadabra_pinned_values(self):
        # Recorded after KADABRA took Gen_bc's chunk order (a chunk's pairs,
        # then their paths); fails if the draws are reordered.  Scores are
        # pinned by their largest entries and a digest of all of them.
        cases = (
            (
                grid_road_graph(14, 14, seed=1)[0], 366, 69340.0, 183,
                [(91, 0.1557377049180328), (92, 0.1557377049180328),
                 (93, 0.1366120218579235), (108, 0.1284153005464481),
                 (77, 0.12295081967213115), (100, 0.12295081967213115)],
                "e243630cde38a92b",
            ),
            (
                barabasi_albert_graph(300, 3, seed=4), 266, 15054.0, 130,
                [(0, 0.2593984962406015), (4, 0.19548872180451127),
                 (5, 0.12781954887218044), (12, 0.07518796992481203),
                 (8, 0.05639097744360902), (3, 0.05263157894736842)],
                "fc5b528b79c0c388",
            ),
        )
        for graph, num_samples, visited_edges, hit_nodes, top, digest in cases:
            for backend in ("dict", "csr"):
                for workers in (0, 2):
                    result = KADABRA(
                        0.1, 0.1, seed=5, max_samples_cap=400,
                        backend=backend, workers=workers,
                    ).estimate(graph)
                    scores = result.scores
                    assert result.num_samples == num_samples
                    assert result.converged_by == "cap"
                    assert result.extra["visited_edges"] == visited_edges
                    assert sum(1 for value in scores.values() if value) == hit_nodes
                    assert sorted(
                        scores.items(), key=lambda item: (-item[1], item[0])
                    )[: len(top)] == top
                    assert hashlib.sha256(
                        repr(sorted(scores.items())).encode()
                    ).hexdigest()[:16] == digest

    def test_saphyra_cc_pinned_values(self):
        # Recorded before chunked sampling; fails if the draws are reordered.
        cases = (
            (
                grid_road_graph(14, 14, seed=1)[0], 284,
                {133: 0.1373729957136053, 82: 0.11065863668879306,
                 158: 0.10684106956823705, 107: 0.13474518124175786,
                 174: 0.1100009931472837, 101: 0.129783693843594,
                 98: 0.0998906938236599, 108: 0.13541269328951613,
                 169: 0.08525508790295269, 134: 0.1100394616054078},
            ),
            (
                barabasi_albert_graph(300, 3, seed=4), 216,
                {231: 0.3070311385785595, 286: 0.29740009762297276,
                 238: 0.2975014740566038, 260: 0.3066084314470186,
                 97: 0.3704740489192786, 94: 0.31230778158184874,
                 262: 0.32470914740218604, 243: 0.32282638034969857,
                 95: 0.3703295947154751, 48: 0.3591351928466569},
            ),
        )
        for graph, num_samples, closeness in cases:
            targets = random_subset(graph, 10, 11)
            assert targets == list(closeness)
            for backend in ("dict", "csr"):
                result = SaPHyRaCC(
                    0.1, 0.1, seed=5, max_samples_cap=400, backend=backend
                ).rank(graph, targets)
                assert result.num_samples == num_samples
                assert result.closeness == closeness


class TestBigSigmaExactness:
    """Path counts beyond int64 stay exact (regression: on road-style grids
    sigma grows binomially and exceeded 2**63 around hop distance 70, which
    used to wrap the CSR backend's counts and break path sampling)."""

    def test_dag_sigma_beyond_int64(self, overflow_grid):
        grid = overflow_grid
        source = next(iter(grid.nodes()))
        reference = shortest_path_dag(grid, source, backend="dict")
        candidate = shortest_path_dag(grid, source, backend="csr")
        assert max(reference.sigma.values()) > 2**63  # the test bites
        assert reference.sigma == candidate.sigma

    def test_bidirectional_long_pair(self, overflow_grid, monkeypatch):
        from repro.graphs import csr as csr_module

        grid = overflow_grid
        nodes = list(grid.nodes())
        rng = random.Random(1)
        references = {}
        for source, target in (tuple(rng.sample(nodes, 2)) for _ in range(40)):
            reference = bidirectional_shortest_paths(
                grid, source, target, backend="dict"
            )
            if not reference.connected or reference.distance < 60:
                continue
            references[source, target] = reference
            candidate = bidirectional_shortest_paths(
                grid, source, target, backend="csr"
            )
            _assert_same_search(reference, candidate)
        # at least one long pair exercised the guard
        assert max(r.num_shortest_paths for r in references.values()) > 2**63

        # One stacked batch mixing the long pairs with short ones: the guard
        # must trip mid-batch, while the slots sit at different depths.  (A
        # balanced search grows each side about half-way, so only some long
        # pairs take a side's counts past 2**63 / max_degree.)
        short = [(nodes[0], nodes[1]), (nodes[250], nodes[52]), (nodes[9], nodes[4])]
        batch = [
            pair for index, long_pair in enumerate(references)
            for pair in (long_pair, short[index % len(short)])
        ]
        sweep_type = type(csr_module.staggered_sweep(csr_module.as_csr(grid), [0, 1]))
        expand = sweep_type.expand_slots
        steps = []

        def watched(sweep, slots):
            had_int64 = sweep.sigma_view is not None
            expand(sweep, slots)
            steps.append((had_int64 and sweep.sigma_view is None, set(sweep.slot_depth)))

        monkeypatch.setattr(sweep_type, "expand_slots", watched)
        results = bidirectional_searches(grid, batch)
        monkeypatch.undo()
        trip = [tripped for tripped, _ in steps].index(True)
        assert len(steps[trip][1]) > 1 and trip < len(steps) - 1
        for pair, candidate in zip(batch, results):
            reference = references.get(pair) or bidirectional_shortest_paths(
                grid, *pair, backend="dict"
            )
            _assert_same_search(reference, candidate)


class TestBatchedSweepEquivalence:
    """The batched multi-source sweep is bit-identical to the per-source
    kernels and to the dict reference — including on a road-style grid whose
    sigma counts cross the int64-overflow boundary (hop distance >= 70)."""

    @pytest.fixture(scope="class")
    def social(self):
        return barabasi_albert_graph(400, 3, seed=5)

    def _sources(self, graph, count):
        nodes = list(graph.nodes())
        step = max(1, len(nodes) // count)
        return nodes[::step][:count]

    def test_sigma_sweep_crosses_overflow_boundary(self, overflow_grid):
        from repro.graphs import csr as csr_module

        grid = overflow_grid
        snapshot = csr_module.as_csr(grid)
        sources = self._sources(grid, 3)
        indices = [snapshot.index_of(node) for node in sources]
        rows = csr_module.multi_source_sweep(
            snapshot, indices, kind=csr_module.SWEEP_SIGMA, batch_size=2
        )
        deep = False
        for source, (dist_row, sigma_row) in zip(sources, rows):
            reference = shortest_path_dag(grid, source, backend="dict")
            labels = snapshot.labels
            for index in range(snapshot.n):
                label = labels[index]
                assert int(dist_row[index]) == reference.distances.get(label, -1)
                assert int(sigma_row[index]) == reference.sigma.get(label, 0)
            if max(reference.sigma.values()) > 2**63:
                deep = True
            assert max(reference.distances.values()) >= 70
        assert deep  # the overflow guard actually tripped

    def test_brandes_sweep_bitwise(self, overflow_grid, social):
        from repro.graphs import csr as csr_module

        for graph in (overflow_grid, social):
            snapshot = csr_module.as_csr(graph)
            sources = self._sources(graph, 4)
            indices = [snapshot.index_of(node) for node in sources]
            rows = csr_module.multi_source_sweep(
                snapshot, indices, kind=csr_module.SWEEP_BRANDES, batch_size=3
            )
            for source, index, row in zip(sources, indices, rows):
                per_source, _, _ = csr_module.csr_brandes(snapshot, index)
                assert list(row) == list(per_source)
                reference = single_source_dependencies(
                    graph, source, backend="dict"
                )
                labels = snapshot.labels
                for node in range(snapshot.n):
                    if node == index:
                        continue
                    assert row[node] == reference.get(labels[node], 0.0)

    def test_distance_sweep_bitwise(self, overflow_grid, social):
        from repro.graphs import csr as csr_module

        for graph in (overflow_grid, social):
            snapshot = csr_module.as_csr(graph)
            default = csr_module.distance_sweep_batch(snapshot)
            # The distance budget never stacks more than the sigma one.
            assert default <= csr_module.default_sweep_batch(snapshot)
            # One full default batch plus a partial one.
            sources = self._sources(graph, default + 3)
            indices = [snapshot.index_of(node) for node in sources]
            # ``None`` is the distance default.
            for batch_size in (2, None):
                rows = csr_module.multi_source_sweep(
                    snapshot, indices, kind=csr_module.SWEEP_DISTANCE,
                    batch_size=batch_size,
                )
                for index, row in zip(indices, rows):
                    dist, _ = csr_module.csr_bfs(snapshot, index)
                    assert list(row) == list(dist)


class TestWorkerPoolEquivalence:
    """`workers > 1` is bit-identical to serial, which is bit-identical to
    the dict reference — on a social-style BA graph and on a road-style grid
    crossing the sigma overflow boundary."""

    @pytest.fixture(scope="class")
    def social(self):
        return barabasi_albert_graph(300, 3, seed=6)

    @pytest.fixture(scope="class")
    def road(self):
        # Small enough for dict-backend Brandes, deep enough for thin
        # frontiers; the 100x100 overflow grid is covered by the sweep tests.
        return grid_road_graph(16, 16, seed=3)[0]

    def test_exact_brandes_workers_bitwise(self, social, road):
        for graph in (social, road):
            reference = betweenness_centrality(graph, backend="dict")
            for backend in ("dict", "csr"):
                for workers in (0, 2):
                    candidate = betweenness_centrality(
                        graph, backend=backend, workers=workers
                    )
                    assert candidate == reference

    def test_closeness_workers_bitwise(self, social, road):
        for graph in (social, road):
            reference = closeness_centrality(graph, backend="dict")
            for backend in ("dict", "csr"):
                for workers in (0, 2):
                    candidate = closeness_centrality(
                        graph, backend=backend, workers=workers
                    )
                    assert candidate == reference

    def test_pivot_betweenness_workers_bitwise(self, social):
        pivots = random_subset(social, 7, 1)
        reference = betweenness_from_pivots(social, pivots, backend="dict")
        assert reference == betweenness_from_pivots(
            social, pivots, backend="csr", workers=2
        )

    def test_samplers_workers_bitwise(self, social):
        for cls, cap in (
            (RiondatoKornaropoulos, 150),
            (KADABRA, 150),
            (ABRA, 100),
        ):
            runs = {
                workers: cls(
                    0.1, 0.1, seed=7, max_samples_cap=cap, workers=workers
                ).estimate(social)
                for workers in (0, 1, 2)
            }
            assert runs[0].scores == runs[1].scores == runs[2].scores
            assert runs[0].num_samples == runs[2].num_samples
            assert runs[0].converged_by == runs[2].converged_by

    def test_samplers_workers_bitwise_across_backends(self, social):
        reference = RiondatoKornaropoulos(
            0.1, 0.1, seed=7, max_samples_cap=120, backend="dict"
        ).estimate(social)
        candidate = RiondatoKornaropoulos(
            0.1, 0.1, seed=7, max_samples_cap=120, backend="csr", workers=2
        ).estimate(social)
        assert reference.scores == candidate.scores

    def test_saphyra_variants_workers_bitwise(self, social):
        # High-degree targets sit in the middle of many length-2 paths, so
        # the exact-subspace rejection path of Gen_bc is actually exercised.
        targets = sorted(social.nodes(), key=social.degree, reverse=True)[:12]
        bc_runs = [
            SaPHyRaBC(
                0.1, 0.1, seed=7, max_samples_cap=300, workers=workers
            ).rank(social, targets)
            for workers in (0, 2)
        ]
        assert bc_runs[0].scores == bc_runs[1].scores
        assert bc_runs[0].ranking == bc_runs[1].ranking
        assert bc_runs[0].num_samples == bc_runs[1].num_samples
        # Diagnostics are covered by the contract too: worker-local Gen_bc
        # counters are snapshotted per chunk and folded back in the master.
        assert bc_runs[0].rejections == bc_runs[1].rejections
        assert bc_runs[0].rejections > 0  # the check bites
        cc_runs = [
            SaPHyRaCC(
                0.1, 0.1, seed=7, max_samples_cap=300, workers=workers
            ).rank(social, targets)
            for workers in (0, 2)
        ]
        assert cc_runs[0].closeness == cc_runs[1].closeness
        assert cc_runs[0].ranking == cc_runs[1].ranking


class TestDAGCacheEquivalence:
    """The cross-sample source-DAG cache never changes results: runs through
    the default cache are bit-identical to uncached runs — through a
    one-entry cache that evicts on nearly every draw — to dict-backend
    runs, and to ``workers > 1`` runs (each worker process keeps its own
    cache)."""

    @pytest.fixture(scope="class")
    def social(self):
        return barabasi_albert_graph(250, 3, seed=8)

    def _cache_legs(self, one_entry_dag_cache, run):
        """``run()`` cold and warm through a fresh default cache, then
        through a one-entry cache; all three answers must agree."""
        from repro.engine import clear_default_dag_cache, default_dag_cache

        clear_default_dag_cache()
        cold = run()
        warm = run()
        assert default_dag_cache().hits > 0  # the cache served lookups
        evicting = one_entry_dag_cache()
        uncached = run()
        assert evicting.evictions > 0  # and the one-entry cache churned
        assert cold == warm == uncached
        return cold

    def test_rk_cached_vs_uncached_vs_workers(self, social, one_entry_dag_cache):
        def run(workers=0, backend="csr"):
            result = RiondatoKornaropoulos(
                0.1, 0.1, seed=7, max_samples_cap=150,
                backend=backend, workers=workers,
            ).estimate(social)
            return result.scores, result.num_samples

        reference = self._cache_legs(one_entry_dag_cache, run)
        assert run(workers=2) == reference
        assert run(backend="dict") == reference

    def test_abra_cached_vs_uncached_vs_workers(self, social, one_entry_dag_cache):
        def run(workers=0, backend="csr"):
            result = ABRA(
                0.1, 0.1, seed=7, max_samples_cap=100,
                backend=backend, workers=workers,
            ).estimate(social)
            return result.scores, result.num_samples

        reference = self._cache_legs(one_entry_dag_cache, run)
        assert run(workers=2) == reference
        assert run(backend="dict") == reference

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_closeness_problem_cached_vs_uncached(
        self, social, one_entry_dag_cache, backend
    ):
        targets = random_subset(social, 12, 3)

        def run():
            problem = ClosenessProblem(social, targets, seed=3, backend=backend)
            exact = problem.exact_evaluation()
            losses = [
                problem.sample_losses(random.Random(draw)) for draw in range(5)
            ]
            return exact.risks, exact.lambda_exact, losses

        self._cache_legs(one_entry_dag_cache, run)

    def test_saphyra_cc_cached_vs_uncached_vs_workers(
        self, social, one_entry_dag_cache
    ):
        targets = random_subset(social, 10, 5)

        def run(workers=0):
            result = SaPHyRaCC(
                0.1, 0.1, seed=7, max_samples_cap=200, workers=workers
            ).rank(social, targets)
            return result.closeness, result.ranking

        reference = self._cache_legs(one_entry_dag_cache, run)
        assert run(workers=2) == reference

    def test_repeated_rank_hits_the_cache(self, social):
        from repro.engine import clear_default_dag_cache, default_dag_cache

        clear_default_dag_cache()  # start cold
        targets = random_subset(social, 8, 6)
        first = SaPHyRaCC(0.1, 0.1, seed=7, max_samples_cap=100).rank(
            social, targets
        )
        hits_before = default_dag_cache().hits
        second = SaPHyRaCC(0.1, 0.1, seed=7, max_samples_cap=100).rank(
            social, targets
        )
        assert default_dag_cache().hits > hits_before  # target sweep reused
        assert first.closeness == second.closeness

    @pytest.mark.parametrize(
        "make_graph",
        [
            pytest.param(lambda: grid_road_graph(12, 12, seed=2)[0], id="grid"),
            pytest.param(lambda: barabasi_albert_graph(250, 3, seed=8), id="social"),
        ],
    )
    def test_saphyra_cc_backend_worker_cache_matrix(
        self, make_graph, one_entry_dag_cache
    ):
        # Chunked draws (stacked sweeps on CSR, per-draw maps on dict) give
        # one answer for every backend, worker count and cache.
        from repro.engine import clear_default_dag_cache

        graph = make_graph()
        targets = random_subset(graph, 10, 5)
        answers = {}
        evicting = None
        for cache in ("default", "one-entry"):
            for backend in ("dict", "csr"):
                for workers in (0, 2):
                    if cache == "default":
                        clear_default_dag_cache()
                    else:
                        evicting = one_entry_dag_cache()
                    result = SaPHyRaCC(
                        0.1, 0.1, seed=9, max_samples_cap=300,
                        backend=backend, workers=workers,
                    ).rank(graph, targets)
                    answers[cache, backend, workers] = (
                        result.closeness, result.ranking, result.num_samples
                    )
        assert evicting.evictions > 0
        reference = answers["default", "dict", 0]
        assert reference[2] > 64  # more than one chunk was drawn
        assert all(answer == reference for answer in answers.values())


class TestSpawnEquivalence:
    """Spawn workers unpickle their own copy of the CSR snapshot (by value:
    nothing backs it on disk), so `workers > 1` under `spawn` is
    bit-identical to the serial path and to the dict reference."""

    @pytest.fixture(scope="class")
    def social(self):
        return barabasi_albert_graph(300, 3, seed=6)

    @pytest.fixture(autouse=True)
    def spawn(self, monkeypatch):
        # spawn so payloads are actually pickled (fork inherits memory and
        # would exercise the in-process objects only).
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")

    def test_exact_brandes_spawn_vs_serial_vs_dict(self, social):
        reference = betweenness_centrality(social, backend="dict")
        serial = betweenness_centrality(social, backend="csr", workers=0)
        spawned = betweenness_centrality(social, backend="csr", workers=2)
        assert spawned == serial == reference

    def test_closeness_spawn_vs_serial_vs_dict(self, social):
        reference = closeness_centrality(social, backend="dict")
        serial = closeness_centrality(social, backend="csr", workers=0)
        spawned = closeness_centrality(social, backend="csr", workers=2)
        assert spawned == serial == reference

    @pytest.mark.parametrize(
        "cls,cap",
        [(RiondatoKornaropoulos, 120), (KADABRA, 120), (ABRA, 80)],
        ids=["RiondatoKornaropoulos", "KADABRA", "ABRA"],
    )
    def test_samplers_spawn_vs_serial_vs_dict(self, social, cls, cap):
        def run(backend, workers):
            return cls(
                0.1, 0.1, seed=7, max_samples_cap=cap,
                backend=backend, workers=workers,
            ).estimate(social)

        reference = run("dict", 0)
        serial = run("csr", 0)
        spawned = run("csr", 2)
        assert spawned.scores == serial.scores == reference.scores
        assert spawned.num_samples == serial.num_samples == reference.num_samples

    def test_exception_mid_sweep_propagates(self, social):
        from repro.centrality.closeness import _distance_stats_chunk
        from repro.engine.driver import sweep_sources
        from repro.graphs.csr import shareable_graph

        seen = {"chunks": 0}

        def fold(chunk, stats):
            seen["chunks"] += 1
            raise RuntimeError("mid-sweep failure")

        with pytest.raises(RuntimeError, match="mid-sweep failure"):
            sweep_sources(
                _distance_stats_chunk,
                list(social.nodes()),
                fold,
                payload=(shareable_graph(social, "csr"), "csr", False),
                workers=2,
            )
        assert seen["chunks"] == 1


class TestSubgraphDeterminism:
    """Satellite fix: ``Graph.subgraph`` preserves the caller's node order."""

    def test_subgraph_preserves_argument_order(self):
        graph = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        sub = graph.subgraph([3, 1, 2])
        assert list(sub.nodes()) == [3, 1, 2]

    def test_subgraph_ignores_unknown_and_duplicates(self):
        graph = Graph.from_edges([(0, 1), (1, 2)])
        sub = graph.subgraph([2, 99, 0, 2])
        assert list(sub.nodes()) == [2, 0]
        assert sub.number_of_edges() == 0

    def test_subgraph_identical_across_runs(self):
        # The old set-based implementation made node order depend on hash
        # randomisation; the ordered rebuild must be stable run to run.
        graph = Graph.from_edges([("x", "y"), ("y", "z"), ("z", "x")])
        orders = {tuple(graph.subgraph(["z", "x"]).nodes()) for _ in range(10)}
        assert orders == {("z", "x")}


# ----------------------------------------------------------------------
# Weighted SSSP engine (PR 5)
# ----------------------------------------------------------------------
def _integer_tie_graph(seed):
    """Integer weights => many equal-length shortest paths (heavy tie load)."""
    rng = random.Random(seed)
    base = barabasi_albert_graph(80, 3, seed=seed)
    graph = Graph()
    for u, v in base.edges():
        graph.add_edge(u, v, weight=rng.choice([1, 2, 3]))
    return graph


WEIGHTED_GRAPH_CASES = [
    pytest.param(
        lambda seed: weighted_barabasi_albert_graph(120, 3, seed=seed),
        id="weighted-ba",
    ),
    pytest.param(
        lambda seed: weighted_grid_road_graph(8, 9, seed=seed)[0],
        id="weighted-grid",
    ),
    pytest.param(_integer_tie_graph, id="integer-ties"),
]


def _oracle_weighted_betweenness(graph):
    """Brute-force weighted betweenness oracle (unnormalised, ordered pairs).

    Independent of the Brandes backward pass: run one dict Dijkstra per
    source, then sum ``sigma_s(v) * sigma_v(t) / sigma_st`` over every pair
    with ``d_s(v) + d_v(t) = d_s(t)`` — the combinatorial definition.  The
    on-path test uses a relative tolerance: the two sides sum the same edge
    weights in different association orders, so exact float equality would
    spuriously reject true decompositions.  With continuous random weights
    real ties at the tolerance boundary have probability zero.
    """
    from repro.graphs.traversal import dict_dijkstra_dag

    nodes = list(graph.nodes())
    dags = {node: dict_dijkstra_dag(graph, node) for node in nodes}
    scores = {node: 0.0 for node in nodes}
    for s in nodes:
        ds = dags[s]
        for t in nodes:
            if t == s or t not in ds.distances:
                continue
            sigma_st = ds.sigma[t]
            d_st = ds.distances[t]
            for v in nodes:
                if v == s or v == t or v not in ds.distances:
                    continue
                dv = dags[v]
                if t not in dv.distances:
                    continue
                through = ds.distances[v] + dv.distances[t]
                if abs(through - d_st) <= 1e-9 * max(1.0, abs(d_st)):
                    scores[v] += ds.sigma[v] * dv.sigma[t] / sigma_st
    return scores


@pytest.mark.parametrize("make_graph", WEIGHTED_GRAPH_CASES)
@pytest.mark.parametrize("seed", (0, 1))
class TestWeightedTraversalEquivalence:
    """dict Dijkstra vs CSR Dijkstra: bit-identical DAGs and distances."""

    def test_weighted_dag_identical(self, make_graph, seed):
        graph = make_graph(seed)
        assert graph.is_weighted
        for source in list(graph.nodes())[:3]:
            reference = shortest_path_dag(graph, source, backend="dict")
            candidate = shortest_path_dag(graph, source, backend="csr")
            assert reference.weighted and candidate.weighted
            assert reference.distances == candidate.distances
            assert reference.sigma == candidate.sigma
            assert reference.order == candidate.order
            assert reference.predecessors == candidate.predecessors

    def test_weighted_distances_identical(self, make_graph, seed):
        from repro.graphs.traversal import sssp_distances

        graph = make_graph(seed)
        for source in list(graph.nodes())[:4]:
            reference = sssp_distances(graph, source, backend="dict")
            candidate = sssp_distances(graph, source, backend="csr")
            assert reference == candidate
            assert list(reference) == list(candidate)

    def test_weighted_sigma_sweep_matches_dags(self, make_graph, seed):
        from repro.graphs import csr as csr_module

        graph = make_graph(seed)
        snapshot = csr_module.as_csr(graph)
        sources = list(range(min(4, snapshot.n)))
        rows = csr_module.multi_source_sweep(
            snapshot, sources, kind=csr_module.SWEEP_SIGMA, weighted=True
        )
        for source, (dist_row, sigma_row) in zip(sources, rows):
            dag = csr_module.csr_dijkstra_dag(snapshot, source)
            assert list(dist_row) == list(dag.dist)
            assert list(sigma_row) == list(dag.sigma)

    def test_weighted_sampled_paths_identical(self, make_graph, seed):
        graph = make_graph(seed)
        nodes = list(graph.nodes())
        source = nodes[0]
        reference = shortest_path_dag(graph, source, backend="dict")
        candidate = shortest_path_dag(graph, source, backend="csr")
        for target in nodes[-4:]:
            if target == source or target not in reference.distances:
                continue
            for draw in range(3):
                assert reference.sample_path(
                    target, random.Random(draw)
                ) == candidate.sample_path(target, random.Random(draw))


@pytest.mark.parametrize("make_graph", WEIGHTED_GRAPH_CASES)
class TestWeightedCentralityEquivalence:
    """Weighted Brandes/closeness: dict == csr == workers>0, and both agree
    with an independent brute-force Dijkstra oracle."""

    def test_weighted_dependencies_identical(self, make_graph):
        graph = make_graph(3)
        for source in list(graph.nodes())[:3]:
            reference = single_source_dependencies(graph, source, backend="dict")
            candidate = single_source_dependencies(graph, source, backend="csr")
            assert reference == candidate

    def test_weighted_betweenness_backends_and_workers(self, make_graph):
        graph = make_graph(4)
        reference = betweenness_centrality(graph, backend="dict")
        assert betweenness_centrality(graph, backend="csr") == reference
        assert (
            betweenness_centrality(graph, backend="csr", workers=2) == reference
        )
        assert (
            betweenness_centrality(graph, backend="dict", workers=2) == reference
        )

    def test_weighted_closeness_backends_and_workers(self, make_graph):
        graph = make_graph(5)
        reference = closeness_centrality(graph, backend="dict")
        assert closeness_centrality(graph, backend="csr") == reference
        assert closeness_centrality(graph, backend="csr", workers=2) == reference

    def test_weighted_betweenness_matches_oracle(self, make_graph):
        graph = make_graph(6)
        if graph.number_of_nodes() > 60:
            graph = graph.subgraph(list(graph.nodes())[:60])
        oracle = _oracle_weighted_betweenness(graph)
        computed = betweenness_centrality(
            graph, backend="csr", normalized=False
        )
        assert set(oracle) == set(computed)
        for node, value in oracle.items():
            assert computed[node] == pytest.approx(value, abs=1e-9)

    def test_weighted_closeness_matches_oracle(self, make_graph):
        from repro.graphs.traversal import dict_dijkstra_dag

        graph = make_graph(7)
        n = graph.number_of_nodes()
        computed = closeness_centrality(graph, backend="csr")
        for node in list(graph.nodes())[:5]:
            distances = dict_dijkstra_dag(graph, node).distances
            reachable = len(distances)
            total = sum(distances[v] for v in distances if v != node)
            expected = 0.0
            if total > 0 and n > 1 and reachable > 1:
                expected = (reachable - 1) / total * (reachable - 1) / (n - 1)
            assert computed[node] == pytest.approx(expected, rel=1e-12)


class TestWeightedEstimatorEquivalence:
    """ABRA/RK/KADABRA/Bader on weighted graphs: dict == csr == workers>0,
    cache on == cache off, and the Dijkstra DAGs actually flow through the
    weighted cache keys."""

    @pytest.fixture(scope="class")
    def weighted_social(self):
        return weighted_barabasi_albert_graph(150, 3, seed=9)

    @pytest.mark.parametrize("estimator_cls", [ABRA, KADABRA, RiondatoKornaropoulos])
    def test_weighted_sampler_backends_and_workers(
        self, estimator_cls, weighted_social
    ):
        def run(backend, workers):
            return estimator_cls(
                0.3, 0.1, seed=13, backend=backend, workers=workers,
                max_samples_cap=300,
            ).estimate(weighted_social)

        reference = run("dict", 0)
        for backend, workers in (("csr", 0), ("csr", 2), ("dict", 2)):
            result = run(backend, workers)
            assert result.scores == reference.scores
            assert result.num_samples == reference.num_samples
            assert result.extra["weighted"] == 1.0

    def test_weighted_bader_backends(self, weighted_social):
        from repro.baselines.bader import BaderPivot

        def run(backend, workers):
            return BaderPivot(
                0.3, 0.1, seed=13, backend=backend, workers=workers,
                num_pivots=24,
            ).estimate(weighted_social)

        reference = run("dict", 0)
        assert run("csr", 0).scores == reference.scores
        assert run("csr", 2).scores == reference.scores

    def test_weighted_cache_identical_and_exercised(
        self, weighted_social, one_entry_dag_cache
    ):
        from repro.engine import dag_cache as dag_cache_module
        from repro.engine.dag_cache import SourceDAGCache

        def run():
            return RiondatoKornaropoulos(
                0.3, 0.1, seed=21, backend="csr", max_samples_cap=300
            ).estimate(weighted_social)

        dag_cache_module.clear_default_dag_cache()
        cached = run()
        stats = dag_cache_module.default_dag_cache().stats()
        evicting = one_entry_dag_cache()
        uncached = run()
        assert cached.scores == uncached.scores
        assert stats["hits"] > 0  # the weighted keys were actually reused
        assert evicting.evictions > 0

        # Weighted and unweighted traversals of the same source must land on
        # distinct cache keys.
        cache = SourceDAGCache(max_entries=8)
        source = next(iter(weighted_social.nodes()))
        weighted_dag = cache.dag(
            weighted_social, source, backend="csr", weighted=True
        )
        hop_dag = cache.dag(
            weighted_social, source, backend="csr", weighted=False
        )
        assert weighted_dag is not hop_dag
        assert cache.misses == 2 and cache.hits == 0


class TestUnitWeightAB:
    """Unit-weight graphs: ``weighted=auto`` must take the exact BFS path,
    and the forced-on Dijkstra engine must reproduce BFS distances."""

    @pytest.fixture(scope="class")
    def unit_social(self):
        return barabasi_albert_graph(150, 3, seed=9)

    def test_auto_is_bfs_dag_bit_for_bit(self, unit_social):
        source = next(iter(unit_social.nodes()))
        for backend in ("dict", "csr"):
            auto = shortest_path_dag(
                unit_social, source, backend=backend, weighted="auto"
            )
            off = shortest_path_dag(
                unit_social, source, backend=backend, weighted="off"
            )
            assert auto == off
            assert auto.weighted is False
            assert all(isinstance(d, int) for d in auto.distances.values())

    def test_auto_reproduces_bfs_sampled_path_exactly(self, unit_social):
        nodes = list(unit_social.nodes())
        source, target = nodes[0], nodes[-1]
        auto = shortest_path_dag(unit_social, source, weighted="auto")
        off = shortest_path_dag(unit_social, source, weighted="off")
        for draw in range(5):
            assert auto.sample_path(target, random.Random(draw)) == off.sample_path(
                target, random.Random(draw)
            )

    def test_forced_on_matches_bfs_distances(self, unit_social):
        from repro.graphs.traversal import sssp_distances

        for backend in ("dict", "csr"):
            for source in list(unit_social.nodes())[:3]:
                hop = bfs_distances(unit_social, source, backend=backend)
                dijkstra = sssp_distances(
                    unit_social, source, backend=backend, weighted="on"
                )
                assert set(hop) == set(dijkstra)
                assert all(float(hop[k]) == dijkstra[k] for k in hop)

    @pytest.mark.parametrize("estimator_cls", [ABRA, KADABRA, RiondatoKornaropoulos])
    def test_auto_equals_off_for_samplers(self, estimator_cls, unit_social):
        def run(weighted):
            return estimator_cls(
                0.3, 0.1, seed=17, backend="csr", weighted=weighted,
                max_samples_cap=200,
            ).estimate(unit_social)

        auto = run("auto")
        off = run("off")
        assert auto.scores == off.scores
        assert auto.num_samples == off.num_samples

    def test_auto_equals_off_for_exact_centrality(self, unit_social):
        assert betweenness_centrality(
            unit_social, backend="csr", weighted="auto"
        ) == betweenness_centrality(unit_social, backend="csr", weighted="off")
        assert closeness_centrality(
            unit_social, backend="csr", weighted="auto"
        ) == closeness_centrality(unit_social, backend="csr", weighted="off")


class TestWeightedSpawnEquivalence:
    """The weighted CSR snapshot (indptr, indices and weights) reaches
    `spawn` workers whole, with results bit-identical to the serial path
    and to the dict reference."""

    @pytest.fixture(scope="class")
    def weighted_social(self):
        return weighted_barabasi_albert_graph(200, 3, seed=6)

    @pytest.fixture(autouse=True)
    def spawn(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")

    def test_payload_roundtrip_carries_weights(self, weighted_social):
        import pickle

        from repro.graphs import csr as csr_module

        original = csr_module.shareable_graph(weighted_social, "csr")
        snapshot = pickle.loads(pickle.dumps(original))
        assert snapshot.is_weighted
        assert snapshot.weights.tobytes() == original.weights.tobytes()
        assert snapshot.indices.tobytes() == original.indices.tobytes()
        assert snapshot.indptr.tobytes() == original.indptr.tobytes()

    def test_weighted_brandes_spawn_vs_serial_vs_dict(self, weighted_social):
        reference = betweenness_centrality(weighted_social, backend="dict")
        serial = betweenness_centrality(weighted_social, backend="csr", workers=0)
        spawned = betweenness_centrality(weighted_social, backend="csr", workers=2)
        assert spawned == serial == reference

    def test_weighted_closeness_spawn_vs_serial_vs_dict(self, weighted_social):
        reference = closeness_centrality(weighted_social, backend="dict")
        serial = closeness_centrality(weighted_social, backend="csr", workers=0)
        spawned = closeness_centrality(weighted_social, backend="csr", workers=2)
        assert spawned == serial == reference

    @pytest.mark.parametrize("estimator_cls", [ABRA, KADABRA, RiondatoKornaropoulos])
    def test_weighted_sampler_spawn_vs_serial_vs_dict(
        self, estimator_cls, weighted_social
    ):
        def run(backend, workers):
            return estimator_cls(
                0.3, 0.1, seed=23, backend=backend, workers=workers,
                max_samples_cap=200,
            ).estimate(weighted_social)

        reference = run("dict", 0)
        serial = run("csr", 0)
        spawned = run("csr", 2)
        assert spawned.scores == serial.scores == reference.scores
        assert spawned.num_samples == serial.num_samples == reference.num_samples


class TestWeightedPathCounts:
    """Regression: ``path_counts_to`` on Dijkstra DAGs must propagate in
    topological (reverse settle) order.  The BFS level walk is wrong when
    equal-length shortest paths have different hop counts — common with
    integer weights (DIMACS road lengths, integer edge-list columns)."""

    def _integer_weighted(self, seed):
        rng = random.Random(seed)
        base = barabasi_albert_graph(80, 3, seed=seed)
        graph = Graph()
        for u, v in base.edges():
            graph.add_edge(u, v, weight=rng.choice([1, 2, 3, 4]))
        return graph

    def test_hop_heterogeneous_tie_counted(self):
        # s-a(1), a-b(1), b-t(1), a-t(2): two shortest s->t paths of length
        # 3 with different hop counts (3 hops via b, 2 hops direct).
        from repro.graphs.traversal import dict_dijkstra_dag

        graph = Graph.from_edges(
            [("s", "a", 1.0), ("a", "b", 1.0), ("b", "t", 1.0), ("a", "t", 2.0)]
        )
        dag = dict_dijkstra_dag(graph, "s")
        assert dag.sigma["t"] == 2
        beta = dag.path_counts_to("t")
        assert beta == {"t": 1.0, "a": 2.0, "b": 1.0, "s": 2.0}

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_beta_source_equals_sigma_target(self, seed):
        # Invariant: the number of shortest source->target paths counted
        # backwards (beta[source]) equals the forward count sigma[target].
        from repro.graphs import csr as csr_module
        from repro.graphs.traversal import dict_dijkstra_dag

        graph = self._integer_weighted(seed)
        nodes = list(graph.nodes())
        source = nodes[0]
        dag = dict_dijkstra_dag(graph, source)
        snapshot = csr_module.as_csr(graph)
        cdag = csr_module.csr_dijkstra_dag(snapshot, snapshot.index[source])
        labels = snapshot.labels
        for target in nodes[1:12]:
            beta = dag.path_counts_to(target)
            assert beta[source] == float(dag.sigma[target])
            cbeta = cdag.path_counts_to(snapshot.index[target])
            assert {labels[i]: v for i, v in cbeta.items()} == beta

    def test_integer_weight_abra_backends_identical(self):
        graph = self._integer_weighted(5)
        results = [
            ABRA(
                0.3, 0.1, seed=7, backend=backend, max_samples_cap=200
            ).estimate(graph)
            for backend in ("dict", "csr")
        ]
        assert results[0].scores == results[1].scores


class TestWeightedCompareGroundTruth:
    """compare_estimators scores each estimator against the ground truth of
    its own estimand: weighted Brandes for the weighted-aware estimators,
    hop Brandes for SaPHyRa/ego (which sample hop-shortest paths)."""

    def test_per_engine_truth(self):
        from repro.analysis import compare_estimators

        graph = weighted_barabasi_albert_graph(120, 3, seed=8)
        targets = list(graph.nodes())[:12]
        rows = compare_estimators(
            graph, targets, epsilon=0.1, delta=0.1, seed=3,
            estimators=("saphyra", "bader"), max_samples_cap=3000,
        )
        by_name = {row.name: row for row in rows}
        # Both estimators are scored against the truth of their own
        # estimand, so neither reports the workload-mismatch "errors" the
        # single-truth implementation produced (hop vs weighted Spearman on
        # this graph is ~0.7; per-engine scoring keeps rankings coherent).
        assert by_name["saphyra"].spearman > 0.9
        # Bader pivots run weighted Brandes: with *all* nodes as pivots the
        # estimate is exact, so its error against the weighted truth (and
        # only the weighted truth) is ~0.
        from repro.baselines.bader import BaderPivot

        exact = BaderPivot(
            0.3, 0.1, seed=3, num_pivots=graph.number_of_nodes()
        ).estimate(graph)
        weighted_truth = betweenness_centrality(graph, weighted="on")
        hop_truth = betweenness_centrality(graph, weighted="off")
        weighted_err = max(
            abs(exact.scores[node] - weighted_truth[node]) for node in targets
        )
        hop_err = max(
            abs(exact.scores[node] - hop_truth[node]) for node in targets
        )
        assert weighted_err < 1e-12
        assert hop_err > 1e-3  # the two estimands genuinely differ here

    def test_unit_graph_single_truth_unchanged(self):
        from repro.analysis import compare_estimators

        graph = barabasi_albert_graph(120, 3, seed=8)
        targets = list(graph.nodes())[:12]
        rows = compare_estimators(
            graph, targets, epsilon=0.3, delta=0.1, seed=3,
            estimators=("rk",), max_samples_cap=300,
        )
        assert rows[0].spearman is not None


# ----------------------------------------------------------------------
# Weighted engine against the dict oracle: random small graphs, sweeps,
# and the numpy-less CSR build
# ----------------------------------------------------------------------
def _random_weighted_graph(trial):
    """A small random weighted graph: isolated nodes, several components.

    Odd trials draw integer weights in 1..4 (equal-length shortest paths
    are common), even trials continuous weights (ties are rare).
    """
    rng = random.Random(trial)
    n = rng.randint(5, 30)
    graph = Graph()
    for node in range(n):
        graph.add_node(node)
    for _ in range(rng.randint(n // 2, 2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        weight = float(rng.randint(1, 4)) if trial % 2 else rng.uniform(0.1, 2.5)
        graph.add_edge(u, v, weight=weight)
    return graph


@pytest.mark.parametrize("trial", range(8))
class TestRandomWeightedGraphs:
    """CSR Dijkstra vs the dict oracle from every source of small random
    graphs, whose unreachable nodes the generator cases never produce."""

    def test_dags_match_dict_oracle(self, trial):
        graph = _random_weighted_graph(trial)
        for source in graph.nodes():
            reference = shortest_path_dag(
                graph, source, backend="dict", weighted="on"
            )
            candidate = shortest_path_dag(
                graph, source, backend="csr", weighted="on"
            )
            # Dijkstra reaches exactly the source's connected component.
            assert set(reference.distances) == set(
                bfs_distances(graph, source, backend="dict")
            )
            assert candidate.distances == reference.distances
            assert candidate.sigma == reference.sigma
            assert candidate.order == reference.order
            assert candidate.predecessors == reference.predecessors

    def test_distances_match_dict_oracle(self, trial):
        from repro.graphs.traversal import sssp_distances

        graph = _random_weighted_graph(trial)
        for source in graph.nodes():
            reference = sssp_distances(graph, source, backend="dict", weighted="on")
            candidate = sssp_distances(graph, source, backend="csr", weighted="on")
            assert list(candidate.items()) == list(reference.items())

    def test_dependencies_match_dict_oracle(self, trial):
        graph = _random_weighted_graph(trial)
        for source in graph.nodes():
            reference = single_source_dependencies(
                graph, source, backend="dict", weighted="on"
            )
            candidate = single_source_dependencies(
                graph, source, backend="csr", weighted="on"
            )
            assert list(candidate.items()) == list(reference.items())


@pytest.mark.parametrize("make_graph", WEIGHTED_GRAPH_CASES)
class TestWeightedSweepOracle:
    """Weighted ``multi_source_sweep`` rows, index by index, against the
    dict Dijkstra oracle run from the same labels."""

    SOURCES = (0, 3, 7, 11)

    def _sweep(self, graph, kind, **kwargs):
        from repro.graphs import csr as csr_module

        snapshot = csr_module.as_csr(graph)
        rows = csr_module.multi_source_sweep(
            snapshot, self.SOURCES, kind=kind, weighted=True, **kwargs
        )
        return snapshot, rows

    def test_distance_rows(self, make_graph):
        from repro.graphs.traversal import dict_dijkstra_distances

        graph = make_graph(2)
        snapshot, rows = self._sweep(graph, "distance")
        for source, row in zip(self.SOURCES, rows):
            reference = dict_dijkstra_distances(graph, snapshot.labels[source])
            expected = [reference.get(label, -1.0) for label in snapshot.labels]
            assert list(row) == expected

    def test_sigma_rows(self, make_graph):
        from repro.graphs.traversal import dict_dijkstra_dag

        graph = make_graph(2)
        snapshot, rows = self._sweep(graph, "sigma")
        for source, (dist_row, sigma_row) in zip(self.SOURCES, rows):
            reference = dict_dijkstra_dag(graph, snapshot.labels[source])
            assert list(dist_row) == [
                reference.distances.get(label, -1.0) for label in snapshot.labels
            ]
            assert list(sigma_row) == [
                reference.sigma.get(label, 0) for label in snapshot.labels
            ]

    def test_brandes_rows(self, make_graph):
        graph = make_graph(2)
        snapshot, rows = self._sweep(graph, "brandes")
        for source, row in zip(self.SOURCES, rows):
            reference = single_source_dependencies(
                graph, snapshot.labels[source], backend="dict"
            )
            # Index ``source`` holds the residue callers ignore.
            assert [
                value for index, value in enumerate(row) if index != source
            ] == [
                reference.get(label, 0.0)
                for index, label in enumerate(snapshot.labels)
                if index != source
            ]

    def test_batch_size_and_direction_do_not_apply(self, make_graph):
        graph = make_graph(2)
        for kind in ("distance", "sigma", "brandes"):
            _, default = self._sweep(graph, kind)
            _, forced = self._sweep(graph, kind, batch_size=1, direction="top-down")
            for a, b in zip(default, forced):
                if kind == "sigma":
                    assert list(a[0]) == list(b[0])
                    assert list(a[1]) == list(b[1])
                else:
                    assert list(a) == list(b)


@pytest.mark.parametrize("make_graph", WEIGHTED_GRAPH_CASES)
class TestDijkstraKernelForms:
    """The Brandes (float sigma) and lean distance-only forms of the CSR
    Dijkstra kernel agree with its full exact-count DAG."""

    def test_float_sigma_mode_counts_the_same_paths(self, make_graph):
        from repro.graphs import csr as csr_module

        snapshot = csr_module.as_csr(make_graph(3))
        for source in range(4):
            exact = csr_module.csr_dijkstra_dag(snapshot, source)
            floats = csr_module.csr_dijkstra_dag(snapshot, source, float_sigma=True)
            assert all(isinstance(count, int) for count in exact.sigma)
            assert all(isinstance(count, float) for count in floats.sigma)
            assert floats.sigma == [float(count) for count in exact.sigma]
            assert list(floats.dist) == list(exact.dist)
            assert list(floats.order) == list(exact.order)

    def test_lean_distance_kernel_matches_dag(self, make_graph):
        from repro.graphs import csr as csr_module

        snapshot = csr_module.as_csr(make_graph(4))
        for source in range(5):
            dag = csr_module.csr_dijkstra_dag(snapshot, source)
            row, order = csr_module.csr_dijkstra_distances(
                snapshot, source, with_order=True
            )
            assert list(row) == list(dag.dist)
            assert list(order) == list(dag.order)
