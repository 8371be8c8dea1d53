"""``Gen_bc``: sampling shortest paths from the approximate subspace.

Algorithm 2 of the paper — multistage sampling followed by rejection:

1. pick a block ``C_i`` (among the blocks containing a target) with
   probability proportional to its pair weight ``W_i``;
2. pick a source ``s in C_i`` with probability ``r_i(s)(n - r_i(s)) / W_i``;
3. pick a target ``t in C_i \\ {s}`` with probability ``r_i(t)/(n - r_i(s))``;
4. pick a uniformly random shortest ``s``–``t`` path with a balanced
   bidirectional BFS (inside the block, where the path is guaranteed to
   stay);
5. reject and retry if the path lies in the exact subspace (length 2 with a
   target middle node).

The accepted paths are distributed exactly as ``D-tilde_c^(A)`` (Lemma 20).

Chunk order.  The sampling engine asks for a whole chunk of draws at once
(:meth:`GenBC.sample_losses` with a draw count), and a chunk consumes its RNG
in rounds.  Each round draws every pair still needed with
``space.sample_pair``, groups the pairs by block in first-appearance order,
and searches each group in sub-batches; the searches consume no randomness.
Then it samples each sub-batch's paths in pair order: the cut node by path
count, in the forward search's discovery order, and each predecessor in
adjacency order (a lone candidate consumes no draw).  Rejected pairs are
redrawn in the next round, and ``max_rejections`` counts consecutive
rejections across rounds.  A single draw (:meth:`GenBC.sample_path` without
a count) is the one-draw chunk.  On the CSR backend a sub-batch is one
stacked search (:func:`repro.graphs.bidirectional.stacked_paths`) of
:func:`~repro.graphs.bidirectional.stacked_batch_pairs` pairs, sized from
the block's cached snapshot, on sweep arrays recycled through the
sampler's own :class:`~repro.graphs.csr.SweepSpare`; the dict backend
searches pair by pair.  Both give the same paths from the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict, Hashable, Iterator, List, Optional, Sequence, Set, Tuple, Union,
)

from repro.errors import SamplingError
from repro.graphs import csr as _csr
from repro.graphs.bidirectional import (
    bidirectional_shortest_paths,
    stacked_batch_pairs,
    stacked_paths,
)
from repro.saphyra_bc.isp import PersonalizedISP
from repro.utils.rng import SeedLike, ensure_rng

Node = Hashable


@dataclass
class GenBCStatistics:
    """Counters describing the sampler's behaviour (used by diagnostics)."""

    samples_returned: int = 0
    rejections: int = 0
    pairs_drawn: int = 0
    visited_edges: int = 0
    path_length_histogram: Dict[int, int] = field(default_factory=dict)

    def merge(self, other: "GenBCStatistics") -> None:
        """Fold another statistics snapshot (e.g. from a worker) into this one."""
        self.samples_returned += other.samples_returned
        self.rejections += other.rejections
        self.pairs_drawn += other.pairs_drawn
        self.visited_edges += other.visited_edges
        for length, count in other.path_length_histogram.items():
            self.path_length_histogram[length] = (
                self.path_length_histogram.get(length, 0) + count
            )


class GenBC:
    """Sampler over the approximate PISP subspace.

    Parameters
    ----------
    space:
        The personalized ISP sample space.
    targets:
        The target nodes (defines both the rejection test and the sparse
        losses returned by :meth:`sample_losses`).
    max_rejections:
        Safety valve: the number of consecutive rejections after which
        :class:`~repro.errors.SamplingError` is raised (the exact subspace
        would have to cover essentially the whole space for this to happen).
    backend:
        Traversal backend for the in-block bidirectional searches; defaults
        to the sample space's backend.
    reject_exact_subspace:
        Disable to keep length-2 target-middle paths (the pure-sampling
        ablation of SaPHyRa_bc); a constructor flag rather than a patched
        method so the sampler stays picklable for worker processes.
    """

    def __init__(
        self,
        space: PersonalizedISP,
        targets: Sequence[Node],
        *,
        max_rejections: int = 100_000,
        backend: Optional[str] = None,
        reject_exact_subspace: bool = True,
    ) -> None:
        self.space = space
        self.backend = backend if backend is not None else space.backend
        self.targets = list(targets)
        self.target_set: Set[Node] = set(self.targets)
        self._target_index = {
            node: position for position, node in enumerate(self.targets)
        }
        self.max_rejections = max_rejections
        self.reject_exact_subspace = reject_exact_subspace
        self.stats = GenBCStatistics()
        self._spare = _csr.SweepSpare()

    # ------------------------------------------------------------------
    def sample_path(
        self, rng: SeedLike = None, draws: Optional[int] = None
    ) -> Union[List[Node], List[List[Node]]]:
        """Draw one shortest path from ``D-tilde_c^(A)``.

        With ``draws`` the call draws a whole chunk of accepted paths in the
        chunk order (module docstring) and returns them in the order their
        pairs were drawn; a single draw is the one-draw chunk.

        Raises
        ------
        SamplingError
            After more than ``max_rejections`` consecutive rejections.
        """
        rng = ensure_rng(rng)
        wanted = 1 if draws is None else draws
        stats = self.stats
        accepted: List[List[Node]] = []
        rejections = 0
        while len(accepted) < wanted:
            pairs = [
                self.space.sample_pair(rng) for _ in range(wanted - len(accepted))
            ]
            kept: Dict[int, List[Node]] = {}
            for position, visited_edges, path in self._paths(pairs, rng):
                stats.pairs_drawn += 1
                stats.visited_edges += visited_edges
                if self._in_exact_subspace(path):
                    rejections += 1
                    stats.rejections += 1
                    if rejections > self.max_rejections:
                        raise SamplingError(
                            "rejection sampling exceeded "
                            f"{self.max_rejections} consecutive rejections; "
                            "the approximate subspace is (nearly) empty"
                        )
                    continue
                rejections = 0
                stats.samples_returned += 1
                length = len(path) - 1
                stats.path_length_histogram[length] = (
                    stats.path_length_histogram.get(length, 0) + 1
                )
                kept[position] = path
            accepted.extend(kept[position] for position in sorted(kept))
        return accepted[0] if draws is None else accepted

    def _paths(self, pairs, rng) -> Iterator[Tuple[int, int, List[Node]]]:
        """Yield ``(position, visited edges, path)`` per pair in the chunk
        order: block groups in first-appearance order, pairs in draw order,
        a sub-batch searched before any of its paths is sampled."""
        groups: Dict[int, List[int]] = {}
        for position, (block_index, _, _) in enumerate(pairs):
            groups.setdefault(block_index, []).append(position)
        for block_index, positions in groups.items():
            block_graph = self.space.bct.block_subgraph(block_index)
            choice = _csr.effective_backend(block_graph, self.backend)
            if choice != _csr.CSR_BACKEND:
                for position in positions:
                    _, source, target = pairs[position]
                    result = bidirectional_shortest_paths(
                        block_graph, source, target, backend=choice
                    )
                    path = result.sample_path(rng) if result.connected else None
                    yield position, result.visited_edges, _path(pairs[position], path)
                continue
            step = stacked_batch_pairs(_csr.as_csr(block_graph))
            for first in range(0, len(positions), step):
                batch = positions[first : first + step]
                sampled = stacked_paths(
                    block_graph, [pairs[position][1:] for position in batch],
                    rng, self._spare,
                )
                for position, (visited_edges, path) in zip(batch, sampled):
                    yield position, visited_edges, _path(pairs[position], path)

    def sample_losses(
        self, rng: SeedLike = None, draws: Optional[int] = None
    ) -> Union[Dict[int, float], List[Dict[int, float]]]:
        """Draw one path and return the sparse losses of the target hypotheses.

        The loss of ``h_v`` is 1 iff ``v`` is an inner node of the path.
        With ``draws`` the call draws a whole chunk (:meth:`sample_path`)
        and returns the list of its losses.
        """
        if draws is None:
            return self._losses(self.sample_path(rng))
        return [self._losses(path) for path in self.sample_path(rng, draws)]

    def _losses(self, path: List[Node]) -> Dict[int, float]:
        losses: Dict[int, float] = {}
        for node in path[1:-1]:
            position = self._target_index.get(node)
            if position is not None:
                losses[position] = 1.0
        return losses

    # ------------------------------------------------------------------
    def _in_exact_subspace(self, path: List[Node]) -> bool:
        """True iff the path has length 2 and its middle node is a target."""
        if not self.reject_exact_subspace:
            return False
        return len(path) == 3 and path[1] in self.target_set

    def acceptance_rate(self) -> Optional[float]:
        """Fraction of drawn pairs that produced an accepted sample."""
        if self.stats.pairs_drawn == 0:
            return None
        return self.stats.samples_returned / self.stats.pairs_drawn

    def take_stats(self) -> GenBCStatistics:
        """Detach and return the counters accumulated since the last call.

        Worker processes snapshot their local copy's counters per chunk this
        way; the master folds the snapshots back with
        :meth:`GenBCStatistics.merge`, so diagnostics match serial runs for
        any worker count.
        """
        stats = self.stats
        self.stats = GenBCStatistics()
        return stats


def _path(pair, path: Optional[List[Node]]) -> List[Node]:
    if path is None:  # pragma: no cover - blocks are connected
        _, source, target = pair
        raise SamplingError(
            f"nodes {source!r} and {target!r} are disconnected "
            "inside their block; the decomposition is inconsistent"
        )
    return path
