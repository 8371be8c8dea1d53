"""The (personalized) intra-component shortest path sample space.

Section IV-A of the paper: shortest paths are broken at cutpoints into
pieces living inside one biconnected component.  The resulting *ISP*
distribution weighs an intra-component pair ``(s, t)`` of block ``C_i`` by

    q_st = r_i(s) * r_i(t) / (n (n - 1))

where ``r_i`` is the out-reach (how many original endpoints the piece
stands for).  The *personalized* space keeps only the blocks containing at
least one target node; its total mass relative to the ISP space is ``eta``.

This module wires the :class:`~repro.graphs.block_cut_tree.BlockCutTree`
bookkeeping into the quantities SaPHyRa_bc needs — ``gamma``, ``eta``,
``q_st``, block/source/target sampling tables — and, for small graphs,
exposes an exact enumeration of the space used by the correctness tests.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import GraphError
from repro.graphs.block_cut_tree import BlockCutTree, build_block_cut_tree
from repro.graphs.graph import Graph
from repro.graphs.traversal import shortest_path_dag
from repro.utils.rng import SeedLike, ensure_rng

Node = Hashable


@dataclass
class _BlockTable:
    """Per-block sampling table: nodes, out-reach values and prefix sums."""

    index: int
    nodes: List[Node]
    reach: List[int]
    cumulative_reach: List[int]
    position: Dict[Node, int]
    pair_weight: int


class PersonalizedISP:
    """The PISP sample space ``X_c^(A)`` for a graph and target set ``A``.

    Parameters
    ----------
    graph:
        A connected graph with at least 2 nodes.
    targets:
        The target node set ``A``; ``None`` means the full node set (the
        SaPHyRa_bc-full variant).
    block_cut_tree:
        The block-cut tree of ``graph`` as it is now; ``None`` reads the
        graph's own (:func:`~repro.graphs.block_cut_tree.build_block_cut_tree`
        builds it once per graph version).  A tree of another graph, or of
        an older version of this one, raises :class:`GraphError`.
    backend:
        Traversal backend used by the samplers built on this space
        (``"dict"``, ``"csr"`` or ``None`` for the default).

    Attributes
    ----------
    gamma:
        ISP normaliser (Eq. 19).
    eta:
        Fraction of ISP mass kept by the personalization (Eq. 23).
    """

    def __init__(
        self,
        graph: Graph,
        targets: Optional[Sequence[Node]] = None,
        block_cut_tree: Optional[BlockCutTree] = None,
        *,
        backend: Optional[str] = None,
    ) -> None:
        if graph.number_of_nodes() < 2:
            raise GraphError("the ISP sample space needs at least 2 nodes")
        self.graph = graph
        self.backend = backend
        if block_cut_tree is None:
            block_cut_tree = build_block_cut_tree(graph)
        block_cut_tree.check_built_for(graph)
        self.bct = block_cut_tree
        self.n = graph.number_of_nodes()

        if targets is None:
            targets = list(graph.nodes())
        else:
            targets = list(targets)
            missing = [node for node in targets if not graph.has_node(node)]
            if missing:
                raise GraphError(f"target nodes not in graph: {missing[:5]!r}")
            if len(set(targets)) != len(targets):
                raise ValueError("target nodes must be unique")
            if not targets:
                raise ValueError("targets must not be empty")
        self.targets: List[Node] = targets
        self.target_set = set(targets)

        # I(A): blocks containing at least one target node.
        included = []
        for index in range(self.bct.num_blocks):
            if any(node in self.target_set for node in self.bct.block_nodes(index)):
                included.append(index)
        self.included_blocks: List[int] = included

        total_weight = self.bct.pair_weight_total()
        personalized_weight = sum(
            self.bct.block_pair_weight[index] for index in included
        )
        self.total_pair_weight = total_weight
        self.personalized_pair_weight = personalized_weight
        self.gamma = self.bct.gamma
        self.eta = personalized_weight / total_weight if total_weight > 0 else 0.0

        # Sampling tables, one per included block.
        self._tables: List[_BlockTable] = []
        self._block_cumulative: List[int] = []
        running = 0
        for index in included:
            nodes = list(self.bct.block_nodes(index))
            reach = [self.bct.out_reach[index][node] for node in nodes]
            cumulative = []
            acc = 0
            for value in reach:
                acc += value
                cumulative.append(acc)
            table = _BlockTable(
                index=index,
                nodes=nodes,
                reach=reach,
                cumulative_reach=cumulative,
                position={node: pos for pos, node in enumerate(nodes)},
                pair_weight=self.bct.block_pair_weight[index],
            )
            self._tables.append(table)
            running += table.pair_weight
            self._block_cumulative.append(running)

    # ------------------------------------------------------------------
    # Scalars
    # ------------------------------------------------------------------
    @property
    def gamma_eta(self) -> float:
        """``gamma * eta`` — the scale between PISP risks and betweenness."""
        if self.n < 2:
            return 0.0
        return self.personalized_pair_weight / (self.n * (self.n - 1))

    def bc_a(self, node: Node) -> float:
        """Cutpoint correction ``bc_a(node)`` (0 for non-cutpoints)."""
        return self.bct.bc_a.get(node, 0.0)

    def pair_weight(self, block_index: int, source: Node, target: Node) -> float:
        """Return ``q_st * n(n-1) = r_i(s) r_i(t)`` for a same-block pair."""
        reach = self.bct.out_reach[block_index]
        return reach[source] * reach[target]

    def common_block(self, u: Node, v: Node) -> Optional[int]:
        """Return the index of the unique block containing both nodes, if any."""
        blocks_u = self.bct.blocks_of(u)
        blocks_v = self.bct.blocks_of(v)
        if not blocks_u or not blocks_v:
            return None
        if len(blocks_u) > len(blocks_v):
            blocks_u, blocks_v = blocks_v, blocks_u
        other = set(blocks_v)
        for index in blocks_u:
            if index in other:
                return index
        return None

    # ------------------------------------------------------------------
    # Sampling of (block, source, target)
    # ------------------------------------------------------------------
    def sample_pair(self, rng: SeedLike = None) -> Tuple[int, Node, Node]:
        """Sample ``(block index, s, t)`` following the multistage scheme of
        ``Gen_bc`` (Algorithm 2, steps 1-3)."""
        if not self._tables:
            raise GraphError("the personalized sample space is empty")
        rng = ensure_rng(rng)
        threshold = rng.random() * self._block_cumulative[-1]
        table_pos = bisect.bisect_right(self._block_cumulative, threshold)
        table_pos = min(table_pos, len(self._tables) - 1)
        table = self._tables[table_pos]

        source = self._sample_source(table, rng)
        target = self._sample_target(table, source, rng)
        return table.index, source, target

    def _sample_source(self, table: _BlockTable, rng) -> Node:
        """Pick ``s`` with probability ``r_i(s) (n - r_i(s)) / W_i``."""
        # Inverse-CDF over the weights r_i(s)(n - r_i(s)); the prefix sums of
        # those weights are not precomputed (they change with n only), so we
        # compute them lazily once per table.
        if not hasattr(table, "_source_cumulative"):
            weights = [r * (self.n - r) for r in table.reach]
            cumulative = []
            acc = 0
            for value in weights:
                acc += value
                cumulative.append(acc)
            table._source_cumulative = cumulative  # type: ignore[attr-defined]
        cumulative = table._source_cumulative  # type: ignore[attr-defined]
        threshold = rng.random() * cumulative[-1]
        position = bisect.bisect_right(cumulative, threshold)
        position = min(position, len(table.nodes) - 1)
        return table.nodes[position]

    def _sample_target(self, table: _BlockTable, source: Node, rng) -> Node:
        """Pick ``t != s`` with probability ``r_i(t) / (n - r_i(s))``.

        Note the denominator: ``sum_{t in C_i, t != s} r_i(t) = n - r_i(s)``
        by Eq. 18, so this is a proper distribution over ``C_i \\ {s}``.
        """
        source_position = table.position[source]
        source_reach = table.reach[source_position]
        total = table.cumulative_reach[-1]  # equals n by Eq. 18
        threshold = rng.random() * (total - source_reach)
        start_of_source = table.cumulative_reach[source_position] - source_reach
        if threshold >= start_of_source:
            threshold += source_reach
        position = bisect.bisect_right(table.cumulative_reach, threshold)
        position = min(position, len(table.nodes) - 1)
        if position == source_position:
            # Numerical edge: land just past the source segment.
            position = position + 1 if position + 1 < len(table.nodes) else position - 1
        return table.nodes[position]

    # ------------------------------------------------------------------
    # Exact enumeration (small graphs / tests)
    # ------------------------------------------------------------------
    def enumerate_paths(self) -> Iterator[Tuple[List[Node], float]]:
        """Yield every PISP path with its probability under ``D_c^(A)``.

        Exponential in the worst case; intended for graphs with at most a few
        hundred nodes (tests, examples and the enumerated-space ablation).
        """
        scale = self.personalized_pair_weight
        if scale <= 0:
            return
        for table in self._tables:
            block_graph = self.bct.block_subgraph(table.index)
            reach = self.bct.out_reach[table.index]
            for source in table.nodes:
                dag = shortest_path_dag(block_graph, source, backend=self.backend)
                for target in table.nodes:
                    if target == source or target not in dag.distances:
                        continue
                    sigma = dag.sigma[target]
                    probability = reach[source] * reach[target] / (scale * sigma)
                    for path in _enumerate_dag_paths(dag, target):
                        yield path, probability


def _enumerate_dag_paths(dag, target: Node) -> Iterator[List[Node]]:
    """Enumerate all shortest paths ``source -> target`` in a BFS DAG."""
    if target == dag.source:
        yield [dag.source]
        return
    for predecessor in dag.predecessors[target]:
        for prefix in _enumerate_dag_paths(dag, predecessor):
            yield prefix + [target]
