"""Block-cut tree, out-reach sets and the cutpoint betweenness correction.

These are the quantities Section IV-A of the paper derives for the
intra-component shortest path (ISP) sample space:

* the **block-cut tree** ``GT`` with one node per block and per cutpoint;
* the **out-reach set** size ``r_i(v)`` — how many nodes can be reached from
  ``v`` without entering block ``C_i`` (Claim 9 / Eq. 18);
* the **branch size** ``|T_i(v)| = n - r_i(v)``;
* the per-block pair weight ``W_i = n^2 - sum_{s in C_i} r_i(s)^2`` which
  equals ``sum_{s != t in C_i} r_i(s) r_i(t)`` and drives ``gamma`` (Eq. 19),
  ``eta`` (Eq. 23) and the multistage sampler ``Gen_bc``;
* the cutpoint correction ``bc_a(v)`` — the probability that a random
  shortest path *breaks* at ``v`` (Lemma 14 / Eq. 21).

All of these assume a connected graph, matching the paper's benchmark
networks; :class:`BlockCutTree` raises :class:`~repro.errors.GraphError`
otherwise.

The tree is a function of the graph alone, and the paper's use case ranks
many target subsets on one network, so :func:`build_block_cut_tree` keeps
it in :meth:`Graph.memo <repro.graphs.graph.Graph.memo>`: every query on an
unchanged graph shares one tree, with its block subgraphs and exact block
diameters, and the first read after any mutation builds a new one.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.errors import GraphError
from repro.graphs.biconnected import BiconnectedDecomposition, biconnected_components
from repro.graphs.components import is_connected
from repro.graphs.diameter import exact_diameter
from repro.graphs.graph import Graph

Node = Hashable
TreeNode = Tuple[str, object]  # ("block", index) or ("cut", node)


@dataclass
class BlockCutTree:
    """Block-cut tree of a connected graph plus the ISP bookkeeping.

    Use :func:`build_block_cut_tree` to construct one.

    Attributes
    ----------
    graph:
        The underlying connected graph.
    version:
        ``graph._version`` when the tree was built; any later mutation makes
        the tree stale (:meth:`check_built_for`).
    decomposition:
        The biconnected decomposition (blocks + cutpoints).
    tree_adjacency:
        Adjacency of the block-cut tree over ``("block", i)`` and
        ``("cut", v)`` nodes.
    out_reach:
        ``out_reach[i][v] = r_i(v)`` for every block ``i`` and node
        ``v in C_i``.
    branch_sizes:
        ``branch_sizes[v][i] = |T_i(v)| = n - r_i(v)`` for every cutpoint
        ``v`` and block ``i`` containing it.
    block_pair_weight:
        ``W_i = n^2 - sum_{s in C_i} r_i(s)^2``.
    bc_a:
        ``bc_a[v]`` for every node (0 for non-cutpoints).
    gamma:
        Normalizer ``gamma`` of the ISP distribution (Eq. 19).
    """

    graph: Graph
    version: int
    decomposition: BiconnectedDecomposition
    tree_adjacency: Dict[TreeNode, List[TreeNode]]
    out_reach: List[Dict[Node, int]]
    branch_sizes: Dict[Node, Dict[int, int]]
    block_pair_weight: List[int]
    bc_a: Dict[Node, float]
    gamma: float
    _block_subgraphs: Dict[int, Graph] = field(default_factory=dict, repr=False)
    _block_diameters: Dict[int, int] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        """Number of biconnected components."""
        return len(self.decomposition.components)

    def block_nodes(self, index: int) -> List[Node]:
        """Return the node list of block ``index``."""
        return self.decomposition.components[index]

    def blocks_of(self, node: Node) -> List[int]:
        """Return the indices of blocks containing ``node``."""
        return self.decomposition.components_of(node)

    def out_reach_of(self, block_index: int, node: Node) -> int:
        """Return ``r_{block_index}(node)``.

        Raises
        ------
        GraphError
            If ``node`` is not part of the block.
        """
        try:
            return self.out_reach[block_index][node]
        except (IndexError, KeyError):
            raise GraphError(
                f"node {node!r} is not in block {block_index}"
            ) from None

    def block_subgraph(self, index: int) -> Graph:
        """Return (and cache) the induced subgraph of block ``index``.

        Because any edge joining two nodes of a block belongs to that block,
        the induced subgraph equals the block itself.
        """
        if index not in self._block_subgraphs:
            self._block_subgraphs[index] = self.graph.subgraph(
                self.decomposition.components[index]
            )
        return self._block_subgraphs[index]

    def block_diameter(self, index: int) -> int:
        """Return (and cache) the exact hop diameter of block ``index``."""
        if index not in self._block_diameters:
            self._block_diameters[index] = exact_diameter(self.block_subgraph(index))
        return self._block_diameters[index]

    def check_built_for(self, graph: Graph) -> None:
        """Raise :class:`GraphError` unless this is the tree of ``graph`` as
        it is now: built from this very object, at its current version."""
        if self.graph is not graph:
            raise GraphError(
                "the block-cut tree was built for another graph object; "
                "pass the tree of this graph, or none to use its current one"
            )
        if self.version != graph._version:
            raise GraphError(
                f"the block-cut tree was built at graph version {self.version}, "
                f"but the graph has since mutated (version {graph._version}); "
                "pass none to use the tree of the current version"
            )

    def pair_weight_total(self) -> int:
        """Return ``sum_i W_i = n(n-1) * gamma``."""
        return sum(self.block_pair_weight)


def build_block_cut_tree(graph: Graph) -> BlockCutTree:
    """Return the :class:`BlockCutTree` of a connected graph.

    The tree is built once per graph version and kept in
    :meth:`Graph.memo <repro.graphs.graph.Graph.memo>`, so repeated calls on
    an unchanged graph share one tree, together with the block subgraphs
    and exact block diameters it has cached so far, and return the same
    tree object while anybody holds it.  A build that raises stores nothing.

    Parameters
    ----------
    graph:
        A connected graph with at least two nodes.

    Raises
    ------
    GraphError
        If the graph is empty, has a single node, or is disconnected.
    """
    return graph.memo("block_cut_tree", _SharedTree).tree_for(graph)


class _SharedTree:
    """A graph version's tree as its memo keeps it: every field but the
    graph, and a weak reference to the tree object handed out last.

    A tree refers to its graph and the memo lives in the graph, so keeping
    the tree itself there would form a reference cycle, and a dropped graph
    would wait for the garbage collector.  Every tree object made from these
    fields shares them, the block subgraph and diameter caches included.
    """

    def __init__(self, graph: Graph) -> None:
        self.fields = _build(graph)
        self.last: Callable[[], Optional[BlockCutTree]] = lambda: None

    def tree_for(self, graph: Graph) -> BlockCutTree:
        tree = self.last()
        if tree is None:
            tree = BlockCutTree(graph=graph, **self.fields)
            self.last = weakref.ref(tree)
        return tree


def _build(graph: Graph) -> Dict[str, object]:
    """Build the fields of the tree of ``graph`` from scratch."""
    n = graph.number_of_nodes()
    if n < 2:
        raise GraphError(f"block-cut tree needs at least 2 nodes, got {n}")
    if not is_connected(graph):
        raise GraphError(
            "block-cut tree requires a connected graph; "
            "extract the largest connected component first"
        )
    decomposition = biconnected_components(graph)
    blocks = decomposition.components
    cutpoints = decomposition.cutpoints

    # ------------------------------------------------------------------
    # Block-cut tree adjacency.
    # ------------------------------------------------------------------
    tree_adjacency: Dict[TreeNode, List[TreeNode]] = {}
    for index in range(len(blocks)):
        tree_adjacency[("block", index)] = []
    for cutpoint in cutpoints:
        tree_adjacency[("cut", cutpoint)] = []
    for index, nodes in enumerate(blocks):
        for node in nodes:
            if node in cutpoints:
                tree_adjacency[("block", index)].append(("cut", node))
                tree_adjacency[("cut", node)].append(("block", index))

    # ------------------------------------------------------------------
    # Subtree sizes in the rooted block-cut tree.
    # Each graph node contributes to exactly one tree node: cutpoints to
    # their ("cut", v) node, all other nodes to their unique block.
    # ------------------------------------------------------------------
    contribution: Dict[TreeNode, int] = {}
    for index, nodes in enumerate(blocks):
        contribution[("block", index)] = sum(
            1 for node in nodes if node not in cutpoints
        )
    for cutpoint in cutpoints:
        contribution[("cut", cutpoint)] = 1

    root: TreeNode = ("block", 0)
    parent: Dict[TreeNode, Optional[TreeNode]] = {root: None}
    order: List[TreeNode] = []
    stack = [root]
    while stack:
        tree_node = stack.pop()
        order.append(tree_node)
        for child in tree_adjacency[tree_node]:
            if child not in parent:
                parent[child] = tree_node
                stack.append(child)
    subtree: Dict[TreeNode, int] = {node: contribution[node] for node in order}
    for tree_node in reversed(order):
        parent_node = parent[tree_node]
        if parent_node is not None:
            subtree[parent_node] += subtree[tree_node]

    # ------------------------------------------------------------------
    # Branch sizes f(v, C_i) = |T_i(v)| for every cutpoint v and block
    # C_i containing v, derived from the rooted subtree sizes.
    # ------------------------------------------------------------------
    branch_sizes: Dict[Node, Dict[int, int]] = {}
    for cutpoint in cutpoints:
        cut_tree_node: TreeNode = ("cut", cutpoint)
        branches: Dict[int, int] = {}
        for adjacent in tree_adjacency[cut_tree_node]:
            block_index = adjacent[1]
            if parent[adjacent] == cut_tree_node:
                branches[block_index] = subtree[adjacent]
            else:
                branches[block_index] = n - subtree[cut_tree_node]
        branch_sizes[cutpoint] = branches

    # ------------------------------------------------------------------
    # Out-reach sets r_i(v): 1 for non-cutpoints, n - |T_i(v)| for cutpoints.
    # ------------------------------------------------------------------
    out_reach: List[Dict[Node, int]] = []
    for index, nodes in enumerate(blocks):
        reach: Dict[Node, int] = {}
        for node in nodes:
            if node in cutpoints:
                reach[node] = n - branch_sizes[node][index]
            else:
                reach[node] = 1
        out_reach.append(reach)

    # ------------------------------------------------------------------
    # Per-block pair weight W_i = n^2 - sum r_i(s)^2 and gamma.
    # ------------------------------------------------------------------
    block_pair_weight: List[int] = []
    for index, reach in enumerate(out_reach):
        sum_sq = sum(value * value for value in reach.values())
        block_pair_weight.append(n * n - sum_sq)
    gamma = sum(block_pair_weight) / (n * (n - 1))

    # ------------------------------------------------------------------
    # Cutpoint correction bc_a(v): probability that a uniformly random
    # shortest path breaks at v, i.e. its endpoints fall in two different
    # branches around v.
    # ------------------------------------------------------------------
    bc_a: Dict[Node, float] = {node: 0.0 for node in graph.nodes()}
    for cutpoint, branches in branch_sizes.items():
        total = sum(branches.values())  # equals n - 1
        sum_sq = sum(value * value for value in branches.values())
        bc_a[cutpoint] = (total * total - sum_sq) / (n * (n - 1))

    return dict(
        version=graph._version,
        decomposition=decomposition,
        tree_adjacency=tree_adjacency,
        out_reach=out_reach,
        branch_sizes=branch_sizes,
        block_pair_weight=block_pair_weight,
        bc_a=bc_a,
        gamma=gamma,
        _block_subgraphs={},
        _block_diameters={},
    )
