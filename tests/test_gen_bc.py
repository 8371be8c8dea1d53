"""Tests for the Gen_bc sampler over the approximate subspace."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from repro.errors import SamplingError
from repro.graphs import csr
from repro.graphs.generators import barabasi_albert_graph, path_graph
from repro.saphyra_bc import gen_bc
from repro.saphyra_bc.exact_bc import exact_two_hop_risks
from repro.saphyra_bc.gen_bc import GenBC
from repro.saphyra_bc.isp import PersonalizedISP


def draw_losses(generator, rng, draws, chunk=None):
    """``draws`` loss samples, one call each or in ``chunk``-draw chunks."""
    if chunk is None:
        return [generator.sample_losses(rng) for _ in range(draws)]
    losses = []
    while len(losses) < draws:
        losses.extend(
            generator.sample_losses(rng, min(chunk, draws - len(losses)))
        )
    return losses


class TestPathValidity:
    def test_paths_are_valid_shortest_paths(self, karate):
        targets = [0, 1, 2, 3, 4]
        space = PersonalizedISP(karate, targets=targets)
        generator = GenBC(space, targets)
        rng = random.Random(3)
        for _ in range(100):
            path = generator.sample_path(rng)
            assert len(path) >= 2
            assert len(set(path)) == len(path)
            for u, v in zip(path, path[1:]):
                assert karate.has_edge(u, v)
            # Paths never come from the exact subspace.
            assert not (len(path) == 3 and path[1] in generator.target_set)

    def test_paths_within_one_block(self, barbell):
        targets = list(barbell.nodes())[:5]
        space = PersonalizedISP(barbell, targets=targets)
        generator = GenBC(space, targets)
        rng = random.Random(7)
        for _ in range(50):
            path = generator.sample_path(rng)
            assert space.common_block(path[0], path[-1]) is not None

    def test_statistics_tracked(self, karate):
        targets = [0, 1]
        space = PersonalizedISP(karate, targets=targets)
        generator = GenBC(space, targets)
        rng = random.Random(1)
        for _ in range(30):
            generator.sample_path(rng)
        assert generator.stats.samples_returned == 30
        assert generator.stats.pairs_drawn >= 30
        assert generator.acceptance_rate() <= 1.0
        assert sum(generator.stats.path_length_histogram.values()) == 30


class TestLossSampling:
    def test_losses_only_for_inner_targets(self, karate):
        targets = [0, 1, 2, 3]
        space = PersonalizedISP(karate, targets=targets)
        generator = GenBC(space, targets)
        rng = random.Random(9)
        for _ in range(50):
            losses = generator.sample_losses(rng)
            assert all(0 <= index < len(targets) for index in losses)
            assert all(value == 1.0 for value in losses.values())

    def test_empirical_means_match_conditional_expectation(self, karate):
        """The empirical hit frequency from Gen_bc should approximate the
        exhaustively computed conditional expectation on D-tilde."""
        targets = [0, 1, 2, 31, 33]
        space = PersonalizedISP(karate, targets=targets)
        exact = exact_two_hop_risks(space, targets)
        # Conditional expectation on the approximate subspace.
        target_set = set(targets)
        expected = {node: 0.0 for node in targets}
        mass = 0.0
        for path, probability in space.enumerate_paths():
            in_exact = len(path) == 3 and path[1] in target_set
            if in_exact:
                continue
            mass += probability
            for inner in path[1:-1]:
                if inner in target_set:
                    expected[inner] += probability
        expected = {node: value / mass for node, value in expected.items()}

        draws = 4000
        # Single draws, and 64-draw chunks (the batched rejection loop) on
        # both backends.
        for backend, chunk in ((None, None), ("dict", 64), ("csr", 64)):
            generator = GenBC(space, targets, backend=backend)
            counts = Counter()
            for losses in draw_losses(generator, random.Random(123), draws, chunk):
                for index in losses:
                    counts[targets[index]] += 1
            for node in targets:
                assert counts[node] / draws == pytest.approx(
                    expected[node], abs=0.03
                ), (backend, node)
        # Consistency: lambda_exact + mass == 1.
        assert exact.lambda_exact + mass == pytest.approx(1.0, abs=1e-9)


class TestRejectionSafety:
    def test_exhausted_rejections_raise(self):
        """A path graph P3 with both inner nodes as targets: every length-2
        path is exact, shorter blocks only produce length-1 paths, so with the
        exact subspace covering everything interesting the sampler still
        terminates (length-1 paths are never exact).  Force the pathological
        case by marking every path as exact."""
        graph = path_graph(3)
        targets = [1]
        space = PersonalizedISP(graph, targets=targets)
        generator = GenBC(space, targets, max_rejections=10)
        generator._in_exact_subspace = lambda path: True  # type: ignore[assignment]
        with pytest.raises(SamplingError):
            generator.sample_path(random.Random(0))

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_exhausted_rejections_raise_in_a_chunk(self, backend):
        # A 64-draw round is all rejected; the count carries into the next
        # round and trips on the 101st consecutive rejection.
        graph = path_graph(3)
        space = PersonalizedISP(graph, targets=[1])
        generator = GenBC(space, [1], max_rejections=100, backend=backend)
        generator._in_exact_subspace = lambda path: True  # type: ignore[assignment]
        with pytest.raises(SamplingError):
            generator.sample_losses(random.Random(0), 64)
        stats = generator.stats
        assert (stats.samples_returned, stats.rejections) == (0, 101)
        assert stats.pairs_drawn == stats.samples_returned + stats.rejections

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_rejected_pairs_are_redrawn(self, karate, backend):
        generator = GenBC(
            PersonalizedISP(karate, targets=[0, 33]), [0, 33], backend=backend
        )
        verdicts = itertools.cycle([True, False, True])
        generator._in_exact_subspace = lambda path: next(verdicts)  # type: ignore[assignment]
        losses = generator.sample_losses(random.Random(4), 64)
        stats = generator.stats
        assert len(losses) == stats.samples_returned == 64
        assert stats.rejections > 64
        assert stats.pairs_drawn == stats.samples_returned + stats.rejections


@pytest.mark.parametrize("backend", ["dict", "csr"])
def test_chunk_searches_blocks_in_first_appearance_order(barbell, backend, monkeypatch):
    # A round searches its pairs grouped by block: blocks in the order they
    # first appear among the drawn pairs, pairs in draw order.
    targets = list(barbell.nodes())
    space = PersonalizedISP(barbell, targets)
    drawn, searched = [], []
    draw = space.sample_pair
    monkeypatch.setattr(space, "sample_pair", lambda rng: drawn.append(draw(rng)) or drawn[-1])
    single, stacked = gen_bc.bidirectional_shortest_paths, gen_bc.bidirectional_searches
    monkeypatch.setattr(
        gen_bc, "bidirectional_shortest_paths",
        lambda graph, s, t, backend: searched.append((s, t)) or single(graph, s, t, backend=backend),
    )
    monkeypatch.setattr(
        gen_bc, "bidirectional_searches",
        lambda graph, pairs: searched.extend(pairs) or stacked(graph, pairs),
    )
    generator = GenBC(space, targets, backend=backend, reject_exact_subspace=False)
    generator.sample_losses(random.Random(0), 64)
    blocks = list(dict.fromkeys(block for block, _, _ in drawn))
    assert len(drawn) == 64 and blocks != sorted(blocks)
    assert searched == [(s, t) for block in blocks for b, s, t in drawn if b == block]


def test_auto_follows_the_general_backend_rule(monkeypatch):
    # Whenever the general auto rule picks CSR for a block (with numpy, at
    # n + m >= AUTO_CSR_THRESHOLD), its pairs go through one stacked search
    # per sub-batch; otherwise through one dict search per pair.
    monkeypatch.delenv(csr.BACKEND_ENV_VAR, raising=False)
    graph = barabasi_albert_graph(200, 3, seed=2)
    targets = list(graph.nodes())[:8]
    space = PersonalizedISP(graph, targets)
    [block] = space.included_blocks
    choice = csr.effective_backend(space.bct.block_subgraph(block))
    assert choice == (csr.CSR_BACKEND if csr.HAS_NUMPY else csr.DICT_BACKEND)
    stacked = []
    search = gen_bc.bidirectional_searches
    monkeypatch.setattr(
        gen_bc, "bidirectional_searches",
        lambda graph, pairs: stacked.append(len(pairs)) or search(graph, pairs),
    )
    generator = GenBC(space, targets)
    generator.sample_losses(random.Random(0), 64)
    if choice == csr.CSR_BACKEND:
        assert stacked[0] == 64
        assert sum(stacked) == generator.stats.pairs_drawn
    else:
        assert stacked == []
