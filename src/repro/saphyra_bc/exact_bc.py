"""``Exact_bc``: closed-form evaluation of the 2-hop exact subspace.

The exact subspace (Eq. 29) contains every PISP path of length 2 whose
middle node is a target.  For each target ``v`` its exact risk is

    l-hat_v = sum over ordered same-block pairs (s, t) with d(s, t) = 2
              and v a common neighbour of s and t of
              q_st / (sigma_st * gamma * eta)

and the subspace mass is

    lambda-hat = sum over the same pairs of
                 (#common neighbours in A / sigma_st) * q_st / (gamma * eta).

Both come out of one two-level neighbour scan (Lemma 18).  ``B`` is the
neighbourhood of the target set, the only possible endpoints of a 2-hop path
whose middle is a target.  For each source ``s in B`` the scan walks every
``s -> m -> t`` with ``m in N(s)`` and ``t in N(m)``, which finds all
distance-2 endpoints ``t`` together with ``sigma_st`` (the number of common
neighbours) and the number of middles that are targets.  Its cost, reported
as ``work``, is the number of walks::

    K = sum_{s in B} sum_{m in N(s)} deg(m)

(``sum_{v in B} deg(v)^2`` only when ``B`` is every node: on a star with the
centre as the only target, ``B`` is the ten leaves and ``K = 10 * 10``).

The crucial property (Lemma 19): any target with non-zero betweenness has at
least one 2-hop shortest path through it, so ``l-hat_v > 0`` — the exact
subspace eliminates *false zeros*, which is what lifts the ranking quality
for low-centrality nodes.

Two paths compute the scan, chosen by
:func:`repro.graphs.csr.effective_backend` on the graph and the space's
backend.  The loop (:func:`_loop_scan`) is the dict-backend path, the path
for graphs of ``n >= 2**26.5`` (about 95M) nodes and the reference for the
tests.  On the CSR backend :func:`_stacked_scan` evaluates the walks of
whole sub-batches of ``B`` with numpy on the graph's snapshot.  Both fold
in the same order, so they return the same ``risks``, ``lambda_exact``,
``num_pairs`` and ``work`` bit for bit:

* sources in ``B``'s order (the targets' adjacency lists, first occurrence
  kept), middles and endpoints in adjacency order;
* ``lambda-hat`` adds one term per pair, a source's pairs in the order their
  first target-middle walk appears (the stacked path: a sequential
  cumulative sum, never a pairwise ``sum``);
* each target's risk adds one term per target-middle walk, in walk order
  (the stacked path: ``np.add.at``, which applies its terms one at a time in
  index order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence, Tuple

from repro.graphs import csr as _csr
from repro.saphyra_bc.isp import PersonalizedISP

if _csr.HAS_NUMPY:
    import numpy as _np

Node = Hashable

#: Walks (``s -> m -> t``) gathered per sub-batch of the stacked scan.  A
#: batch holds about a dozen arrays of this length; a source whose own walks
#: exceed the budget forms a batch alone.
_WALK_BUDGET = 2**14

#: Pair keys per sub-batch: a batch of ``k`` sources indexes a scratch array
#: of ``k * n`` slots, so this caps the sources per batch at
#: ``_KEY_BUDGET // n`` (see :func:`two_hop_batch_sources`).
_KEY_BUDGET = 2**16

#: The stacked scan turns pair weights ``r_i(s) * r_i(t) <= n^2`` into
#: float64 before dividing; that matches the loop's correctly rounded
#: Python-int division only while ``n^2 < 2**53``.  Larger graphs take the
#: loop.
_EXACT_WEIGHT_LIMIT = 2**53


@dataclass
class ExactSubspaceEvaluation:
    """Output of ``Exact_bc``.

    Attributes
    ----------
    lambda_exact:
        ``lambda-hat`` — probability of the exact subspace under the PISP
        distribution.
    risks:
        ``l-hat_v`` per target, in target order (PISP units).
    num_pairs:
        Number of ordered distance-2 same-block pairs that contributed.
    work:
        Number of 2-hop walks ``s -> m -> t`` scanned from the sources
        ``s in B``: ``sum_{s in B} sum_{m in N(s)} deg(m)`` (module
        docstring).
    """

    lambda_exact: float
    risks: List[float]
    num_pairs: int
    work: int


def exact_two_hop_risks(
    space: PersonalizedISP, targets: Sequence[Node]
) -> ExactSubspaceEvaluation:
    """Run ``Exact_bc`` for ``targets`` on the personalized ISP space.

    ``targets`` must equal ``space.targets`` (the same order is used for the
    returned risk vector).

    Raises
    ------
    ValueError
        If ``targets`` differs from ``space.targets``.
    """
    target_list = list(targets)
    if target_list != space.targets:
        raise ValueError(_mismatch(target_list, space.targets))
    if (
        space.n * space.n < _EXACT_WEIGHT_LIMIT
        and _csr.effective_backend(space.graph, space.backend) == _csr.CSR_BACKEND
    ):
        risks_units, lambda_units, num_pairs, work = _stacked_scan(space)
    else:
        risks_units, lambda_units, num_pairs, work = _loop_scan(space)

    scale = space.personalized_pair_weight
    if scale <= 0:
        return ExactSubspaceEvaluation(
            lambda_exact=0.0, risks=[0.0] * len(target_list), num_pairs=0, work=work
        )
    risks = [value / scale for value in risks_units]
    lambda_exact = min(1.0, lambda_units / scale)
    return ExactSubspaceEvaluation(
        lambda_exact=lambda_exact, risks=risks, num_pairs=num_pairs, work=work
    )


def _mismatch(given: List[Node], expected: List[Node]) -> str:
    if len(given) != len(expected):
        return (
            f"targets has {len(given)} nodes but the sample space was built "
            f"for {len(expected)}; pass space.targets"
        )
    position = next(i for i, (a, b) in enumerate(zip(given, expected)) if a != b)
    return (
        f"targets[{position}] is {given[position]!r} but the sample space has "
        f"{expected[position]!r} there; pass space.targets"
    )


# ----------------------------------------------------------------------
# The loop (dict backend, test reference)
# ----------------------------------------------------------------------
def _loop_scan(space: PersonalizedISP) -> Tuple[List[float], float, int, int]:
    """Return ``(risks, lambda-hat, num_pairs, work)`` in pair-weight units."""
    graph = space.graph
    target_list = space.targets
    target_index = {node: position for position, node in enumerate(target_list)}
    target_set = space.target_set

    # B: all neighbours of target nodes (the only possible endpoints of a
    # 2-hop path whose middle is a target).
    boundary: Dict[Node, None] = {}
    for node in target_list:
        for neighbor in graph.neighbors(node):
            boundary[neighbor] = None

    reach_tables = space.bct.out_reach
    risks_units = [0.0] * len(target_list)
    lambda_units = 0.0
    num_pairs = 0
    work = 0

    for source in boundary:
        source_neighbors = set(graph.neighbors(source))
        # sigma2[t]: number of common neighbours of (source, t) == sigma_st
        # for distance-2 pairs; middles_in_a[t]: how many of them are targets.
        sigma2: Dict[Node, int] = {}
        middles_in_a: Dict[Node, int] = {}
        for middle in graph.neighbors(source):
            is_target_middle = middle in target_set
            for endpoint in graph.neighbors(middle):
                work += 1
                if endpoint == source or endpoint in source_neighbors:
                    continue
                sigma2[endpoint] = sigma2.get(endpoint, 0) + 1
                if is_target_middle:
                    middles_in_a[endpoint] = middles_in_a.get(endpoint, 0) + 1

        if not middles_in_a:
            continue

        # lambda-hat accumulation (one term per ordered pair with >= 1 target
        # middle), and per-target risk accumulation.
        pair_block: Dict[Node, int] = {}
        for endpoint, target_middles in middles_in_a.items():
            block = space.common_block(source, endpoint)
            if block is None:
                continue
            pair_block[endpoint] = block
            reach = reach_tables[block]
            weight = reach[source] * reach[endpoint]
            lambda_units += (target_middles / sigma2[endpoint]) * weight
            num_pairs += 1

        for middle in graph.neighbors(source):
            position = target_index.get(middle)
            if position is None:
                continue
            for endpoint in graph.neighbors(middle):
                if endpoint == source or endpoint in source_neighbors:
                    continue
                block = pair_block.get(endpoint)
                if block is None:
                    continue
                reach = reach_tables[block]
                weight = reach[source] * reach[endpoint]
                risks_units[position] += weight / sigma2[endpoint]

    return risks_units, lambda_units, num_pairs, work


# ----------------------------------------------------------------------
# The stacked scan (CSR backend)
# ----------------------------------------------------------------------
def two_hop_batch_sources(snapshot) -> int:
    """Most sources one sub-batch of the stacked scan holds on ``snapshot``:
    ``_KEY_BUDGET // n``, at least one (18 on the orkut surrogate)."""
    return max(1, _KEY_BUDGET // max(1, snapshot.n))


def _first_seen(values, scratch):
    """Position of the first occurrence of each element of ``values``.

    ``scratch`` must have a slot for every value.  Fancy assignment writes in
    index order, so writing the positions back to front leaves each value's
    first occurrence in its slot.
    """
    positions = _np.arange(values.size, dtype=_np.int64)
    scratch[values[::-1]] = positions[::-1]
    return scratch[values]


def _ranges(starts, lengths):
    """Concatenate ``arange(start, start + length)`` per pair, in order."""
    ends = _np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    shift = _np.repeat(ends - lengths - starts, lengths)
    return _np.arange(total, dtype=_np.int64) - shift


def _edge_blocks(space, labels, node_block, tails, heads):
    """Block of each edge ``tails[i]``–``heads[i]`` and the out-reach of its
    head in that block.

    A node outside every cutpoint lies in one block, which then holds the
    edge, and its out-reach there is 1; only edges between two cutpoints and
    edges into a cutpoint are looked up, one at a time.
    """
    blocks = node_block[tails]
    head_block = node_block[heads]
    _np.copyto(blocks, head_block, where=blocks < 0)
    both_cut = _np.flatnonzero(blocks < 0)
    if both_cut.size:
        blocks[both_cut] = [
            space.common_block(labels[tail], labels[head])
            for tail, head in zip(tails[both_cut].tolist(), heads[both_cut].tolist())
        ]
    reach = _np.ones(heads.size, dtype=_np.int64)
    cut_head = _np.flatnonzero(head_block < 0)
    if cut_head.size:
        out_reach = space.bct.out_reach
        reach[cut_head] = [
            out_reach[block][labels[head]]
            for block, head in zip(blocks[cut_head].tolist(), heads[cut_head].tolist())
        ]
    return blocks, reach


def _stacked_scan(space: PersonalizedISP) -> Tuple[List[float], float, int, int]:
    """The loop's scan over the CSR snapshot, a sub-batch of ``B`` at a time.

    A batch of ``k`` consecutive sources lists its walks in the loop's order
    and keys walk ``(s, m, t)`` by ``slot(s) * n + t``.  Writing the batch's
    closed-neighbourhood keys and then its walk keys back to front into a
    scratch array leaves each key's first occurrence there, which both drops
    the endpoints in ``N[s]`` and names each pair by its first walk, so
    ``np.bincount`` over those names gives ``sigma_st`` and the target-middle
    counts.  A distance-2 pair has a common block iff the edges ``s``–``m``
    and ``m``–``t`` share a block (two blocks share at most one node); both
    edges are incident to the target ``m``, and only such edges are looked
    up.
    """
    snapshot = _csr.as_csr(space.graph)
    indptr, indices, labels, n = (
        snapshot.indptr, snapshot.indices, snapshot.labels, snapshot.n
    )
    degree = snapshot.degrees()
    target_ids = _np.array(
        [snapshot.index[node] for node in space.targets], dtype=_np.int64
    )
    position = _np.full(n, -1, dtype=_np.int64)
    position[target_ids] = _np.arange(target_ids.size, dtype=_np.int64)

    slots = two_hop_batch_sources(snapshot)
    scratch = _np.empty(slots * n, dtype=_np.int64)

    # B in first-occurrence order over the targets' adjacency lists.
    target_entries = _ranges(indptr[target_ids], degree[target_ids])
    neighbours = indices[target_entries]
    boundary = neighbours[
        _first_seen(neighbours, scratch) == _np.arange(neighbours.size)
    ]

    # The block of every edge m -> t out of a target and t's out-reach in it.
    node_block = _np.full(n, -1, dtype=_np.int64)
    touched = _np.zeros(n, dtype=bool)
    touched[target_ids] = touched[boundary] = True
    touched = _np.flatnonzero(touched)
    node_block[touched] = [
        blocks[0] if len(blocks) == 1 else -1
        for blocks in map(space.bct.blocks_of, (labels[i] for i in touched.tolist()))
    ]
    entry_block = _np.empty(indices.size, dtype=_np.int64)
    endpoint_reach = _np.empty(indices.size, dtype=_np.int64)
    entry_block[target_entries], endpoint_reach[target_entries] = _edge_blocks(
        space, labels, node_block,
        _np.repeat(target_ids, degree[target_ids]), neighbours,
    )
    del target_entries, neighbours

    # Walks before each source, and the greedy batches: consecutive sources
    # while their walks fit the budget, at most two_hop_batch_sources of them.
    walks_before = _np.cumsum(
        degree[indices[_ranges(indptr[boundary], degree[boundary])]]
    )[_np.cumsum(degree[boundary]) - 1]
    walks_before = _np.concatenate(((0,), walks_before))
    work = int(walks_before[-1])

    risks = _np.zeros(target_ids.size, dtype=_np.float64)
    lambda_units = 0.0
    num_pairs = 0
    start = 0
    while start < boundary.size:
        budget = walks_before[start] + _WALK_BUDGET
        limit = int(_np.searchsorted(walks_before, budget, side="right")) - 1
        stop = min(max(limit, start + 1), start + slots, boundary.size)
        sources = boundary[start:stop]
        start = stop

        # Middle entries (s, m) and walks (s, m, t) in loop order.
        firsts = _ranges(indptr[sources], degree[sources])
        middles = indices[firsts]
        fanout = degree[middles]
        walk_first = _np.repeat(_np.arange(firsts.size, dtype=_np.int64), fanout)
        seconds = _ranges(indptr[middles], fanout)
        slot_base = _np.repeat(
            _np.arange(sources.size, dtype=_np.int64) * n, degree[sources]
        )
        keys = slot_base[walk_first] + indices[seconds]

        # Closed-neighbourhood keys go first, so an endpoint in N[s] keeps a
        # position below ``closed``; every other walk keeps the position of
        # its pair's first walk.
        closed = sources.size + firsts.size
        stream = _np.concatenate(
            (_np.arange(sources.size, dtype=_np.int64) * n + sources,
             slot_base + middles, keys)
        )
        pair_of = _first_seen(stream, scratch)[closed:] - closed
        kept = pair_of >= 0
        sigma = _np.bincount(pair_of[kept], minlength=keys.size)

        middle_position = position[middles]
        target_middle = middle_position >= 0
        walks = _np.flatnonzero(kept & target_middle[walk_first])
        if not walks.size:
            continue
        # The block of every edge s -> m into a target and s's out-reach in
        # it; a pair is in the exact subspace iff its two edges share a
        # block.  Walks of other pairs weigh 0, and adding +0.0 leaves every
        # (non-negative) partial sum below unchanged.
        into = _np.flatnonzero(target_middle)
        block_in = _np.empty(firsts.size, dtype=_np.int64)
        reach_in = _np.empty(firsts.size, dtype=_np.int64)
        block_in[into], reach_in[into] = _edge_blocks(
            space, labels, node_block,
            middles[into], _np.repeat(sources, degree[sources])[into],
        )
        pairs = pair_of[walks]
        first_of = walk_first[walks]
        out = seconds[walks]
        weight = (block_in[first_of] == entry_block[out]) * (
            reach_in[first_of] * endpoint_reach[out]
        )
        pair_sigma = sigma[pairs]
        _np.add.at(risks, middle_position[first_of], weight / pair_sigma)

        # A pair's first target-middle walk carries its lambda term.
        opens = _np.flatnonzero(
            _first_seen(pairs, _np.empty(keys.size, dtype=_np.int64))
            == _np.arange(pairs.size)
        )
        open_weight = weight[opens]
        target_middles = _np.bincount(pairs, minlength=keys.size)[pairs[opens]]
        terms = (target_middles / pair_sigma[opens]) * open_weight
        num_pairs += int(_np.count_nonzero(open_weight))
        lambda_units = float(
            _np.add.accumulate(_np.concatenate(((lambda_units,), terms)))[-1]
        )

    return risks.tolist(), lambda_units, num_pairs, work
