"""Connected-component utilities."""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List

from repro.graphs.graph import Graph

Node = Hashable


def connected_components(graph: Graph) -> List[List[Node]]:
    """Return the connected components of ``graph`` as lists of nodes.

    Components are returned in order of discovery (graph insertion order),
    and nodes within a component in BFS order, so the output is deterministic.
    """
    seen: Dict[Node, bool] = {}
    components: List[List[Node]] = []
    for start in graph.nodes():
        if start in seen:
            continue
        component: List[Node] = []
        queue = deque([start])
        seen[start] = True
        while queue:
            node = queue.popleft()
            component.append(node)
            for neighbor in graph.neighbors(node):
                if neighbor not in seen:
                    seen[neighbor] = True
                    queue.append(neighbor)
        components.append(component)
    return components


def largest_connected_component(graph: Graph) -> List[Node]:
    """Return the node list of the largest connected component.

    Ties are broken toward the earliest-discovered component so the result is
    deterministic.  Returns an empty list for the empty graph.
    """
    best: List[Node] = []
    for component in connected_components(graph):
        if len(component) > len(best):
            best = component
    return best


def is_connected(graph: Graph) -> bool:
    """Return ``True`` if the graph is non-empty and connected.

    The answer is kept in :meth:`Graph.memo`, so every estimator's check on
    an unchanged graph after the first costs no traversal.
    """
    return graph.memo("connected", _is_connected)


def _is_connected(graph: Graph) -> bool:
    n = graph.number_of_nodes()
    return n > 0 and len(largest_connected_component(graph)) == n
