"""Personalized VC-dimension bounds (Corollary 22, Lemma 23, Table I).

The sample-size cap of the adaptive sampler is ``c/eps^2 (VC + ln 1/delta)``;
the smaller the VC bound, the fewer samples are ever needed.  The paper
derives three progressively tighter bounds on ``pi_max`` (the maximum number
of target nodes that can be inner nodes of one sampled path):

* the Riondato–Kornaropoulos bound uses the graph diameter ``VD(V)``:
  a shortest path has at most ``VD(V) - 1`` inner nodes;
* bi-component sampling replaces it with the largest *block* diameter
  ``BD(V)``, because a PISP path never leaves its block;
* personalization replaces it with ``BS(A)``, the largest number of target
  nodes on one PISP path, bounded per block by
  ``min(VD(C_i) - 1, VD(A ∩ C_i) + 1, |A ∩ C_i|)``.

All diameters here are hop counts; upper-bound estimates (``2 * ecc``) are
used so the resulting VC values remain valid upper bounds.  The exact
diameters of small blocks draw no randomness and depend on the graph alone,
so the block-cut tree caches them
(:meth:`~repro.graphs.block_cut_tree.BlockCutTree.block_diameter`); the
randomized estimates of large blocks and the target-dependent subset
diameters are computed, and draw from the query's RNG, on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence

from repro.graphs.block_cut_tree import BlockCutTree
from repro.graphs.diameter import (
    estimate_diameter,
    estimate_subset_diameter,
    exact_diameter,
    exact_subset_diameter,
)
from repro.graphs.graph import Graph
from repro.stats.vc import pi_max_vc_bound
from repro.utils.rng import SeedLike, ensure_rng

Node = Hashable

#: Blocks with at most this many nodes get their diameter computed exactly.
_EXACT_DIAMETER_THRESHOLD = 300


def vc_from_hop_diameter(hop_diameter: int) -> int:
    """VC bound from a hop diameter: a path of ``d`` hops has ``d - 1`` inner
    nodes, so ``VC <= floor(log2(d - 1)) + 1`` (0 when ``d <= 1``)."""
    return pi_max_vc_bound(max(0, hop_diameter - 1))


def block_diameter_bound(
    bct: BlockCutTree, block_index: int, seed: SeedLike = None
) -> int:
    """Upper bound on the hop diameter of one block."""
    if len(bct.block_nodes(block_index)) <= _EXACT_DIAMETER_THRESHOLD:
        return bct.block_diameter(block_index)
    return estimate_diameter(bct.block_subgraph(block_index), seed)


def max_block_diameter(bct: BlockCutTree, seed: SeedLike = None) -> int:
    """``BD(V)``: the largest hop diameter over all blocks (upper bound)."""
    rng = ensure_rng(seed)
    best = 0
    for index in range(bct.num_blocks):
        bound = block_diameter_bound(bct, index, rng)
        if bound > best:
            best = bound
    return best


def bs_bound(
    bct: BlockCutTree,
    targets: Sequence[Node],
    *,
    included_blocks: Optional[Sequence[int]] = None,
    seed: SeedLike = None,
) -> int:
    """Upper bound on ``BS(A)`` — the maximum number of targets that are
    inner nodes of one PISP path (Lemma 23).

    Per block ``C_i`` containing targets::

        BS_i <= min(VD(C_i) - 1, VD(A ∩ C_i) + 1, |A ∩ C_i|)

    and ``BS(A) <= max_i BS_i``.
    """
    rng = ensure_rng(seed)
    target_set = set(targets)
    if included_blocks is None:
        included_blocks = [
            index
            for index in range(bct.num_blocks)
            if any(node in target_set for node in bct.block_nodes(index))
        ]
    best = 0
    for index in included_blocks:
        block_nodes = bct.block_nodes(index)
        members = [node for node in block_nodes if node in target_set]
        if not members:
            continue
        block = bct.block_subgraph(index)
        block_diameter = block_diameter_bound(bct, index, rng)
        if len(members) <= _EXACT_DIAMETER_THRESHOLD:
            subset_diameter = exact_subset_diameter(block, members)
        else:
            subset_diameter = estimate_subset_diameter(block, members, rng)
        candidate = min(block_diameter - 1, subset_diameter + 1, len(members))
        candidate = max(0, candidate)
        if candidate > best:
            best = candidate
    return best


def personalized_vc_dimension(
    bct: BlockCutTree,
    targets: Sequence[Node],
    *,
    included_blocks: Optional[Sequence[int]] = None,
    seed: SeedLike = None,
) -> int:
    """``VC(H_c^(A)) <= floor(log2(BS(A))) + 1`` (Corollary 22)."""
    bound = bs_bound(bct, targets, included_blocks=included_blocks, seed=seed)
    return pi_max_vc_bound(bound)


@dataclass
class VCBoundReport:
    """The Table I comparison for one graph / target subset.

    Attributes
    ----------
    vertex_diameter:
        ``VD(V)`` upper bound (hops).
    max_block_diameter:
        ``BD(V)`` upper bound (hops).
    bs_value:
        ``BS(A)`` upper bound.
    riondato_vc:
        The diameter-based VC bound used by Riondato–Kornaropoulos / ABRA.
    bicomponent_vc:
        The block-diameter VC bound (SaPHyRa_bc on the full network).
    personalized_vc:
        The subset-aware VC bound (SaPHyRa_bc on ``A``).
    """

    vertex_diameter: int
    max_block_diameter: int
    bs_value: int
    riondato_vc: int
    bicomponent_vc: int
    personalized_vc: int

    def as_dict(self) -> Dict[str, int]:
        """Return the report as a plain dictionary (for table rendering)."""
        return {
            "VD(V)": self.vertex_diameter,
            "BD(V)": self.max_block_diameter,
            "BS(A)": self.bs_value,
            "VC Riondato et al.": self.riondato_vc,
            "VC SaPHyRa (full)": self.bicomponent_vc,
            "VC SaPHyRa (subset)": self.personalized_vc,
        }


def vc_bound_report(
    graph: Graph,
    bct: BlockCutTree,
    targets: Sequence[Node],
    seed: SeedLike = None,
) -> VCBoundReport:
    """Compute every column of the Table I comparison for one instance."""
    rng = ensure_rng(seed)
    if graph.number_of_nodes() <= _EXACT_DIAMETER_THRESHOLD:
        vertex_diameter = exact_diameter(graph)
    else:
        vertex_diameter = estimate_diameter(graph, rng)
    block_diameter = max_block_diameter(bct, rng)
    bs_value = bs_bound(bct, targets, seed=rng)
    return VCBoundReport(
        vertex_diameter=vertex_diameter,
        max_block_diameter=block_diameter,
        bs_value=bs_value,
        riondato_vc=vc_from_hop_diameter(vertex_diameter),
        bicomponent_vc=vc_from_hop_diameter(block_diameter),
        personalized_vc=pi_max_vc_bound(bs_value),
    )
