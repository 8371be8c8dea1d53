"""``kernel-ownership``: one kernel per concern, no private copies.

Level expansion and the sigma-overflow guard live only in
``graphs/csr.py``'s ``_BatchSweep`` and its per-slot-depth sibling
``_StaggeredSweep`` (with ``delta_stepping.py``,
``compiled.py`` and ``traversal.py`` as the other sanctioned kernel
homes).  Before that consolidation the repo had five hand-rolled BFS
loops that each had to re-learn every determinism fix; the rule keeps
copies from re-growing by rejecting, outside the whitelist:

* imports of underscore-private names from the kernel modules and
  attribute access on the known kernel privates (``_BatchSweep`` & co.);
* hand-rolled frontier loops — a ``while`` whose condition tests a
  ``*frontier*`` name and whose body reassigns one, or any assignment to
  a ``next_frontier``/``new_frontier`` variable.

Legitimate exceptions (the dict reference of the bidirectional search,
kernel unit tests, the hop-BFS oracle in the Brandes tests) carry audited
suppressions.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.lint.model import Finding, Rule, SourceFile
from repro.lint.rules.common import is_kernel_module

#: Private helpers owned by the kernel modules; reaching for them from
#: outside couples callers to kernel internals.
PRIVATE_KERNEL_NAMES = frozenset(
    {
        "_BatchSweep",
        "_StaggeredSweep",
        "_backward_dependencies",
        "_np_bfs",
        "_np_shortest_path_dag",
        "_shared_state",
        "_sigma_may_overflow",
    }
)

_KERNEL_MODULE_STEMS = frozenset({"csr", "delta_stepping", "compiled", "traversal"})


def _is_frontier_name(name: str) -> bool:
    return "frontier" in name.lower()


def _assigns_frontier(node: ast.AST) -> bool:
    """True when ``node`` (re)binds a frontier-ish plain name."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(
        isinstance(target, ast.Name) and _is_frontier_name(target.id)
        for target in targets
    )


class KernelOwnershipRule(Rule):
    rule_id = "kernel-ownership"
    description = (
        "frontier/level-expansion loops and kernel privates "
        "(_BatchSweep etc.) belong to graphs/{csr,delta_stepping,"
        "compiled,traversal}.py; elsewhere they need an audited "
        "suppression"
    )

    def check_file(self, source: SourceFile) -> List[Finding]:
        if is_kernel_module(source) or source.tree is None:
            return []
        findings: List[Finding] = []
        parents = source.parents()
        flagged_whiles: Set[ast.AST] = set()
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.split(".")[-1] not in _KERNEL_MODULE_STEMS:
                    continue
                for alias in node.names:
                    if alias.name.startswith("_"):
                        findings.append(
                            source.finding(
                                self.rule_id,
                                node,
                                f"import of kernel private `{alias.name}` "
                                f"from `{module}`; kernel internals stay "
                                "inside the whitelisted graphs modules — "
                                "use the public sweep APIs",
                            )
                        )
            elif isinstance(node, ast.Attribute):
                if node.attr in PRIVATE_KERNEL_NAMES:
                    findings.append(
                        source.finding(
                            self.rule_id,
                            node,
                            f"access to kernel private `{node.attr}`; "
                            "level expansion and its guards are owned by "
                            "the graphs kernel modules — use the public "
                            "sweep APIs",
                        )
                    )
            elif isinstance(node, ast.While):
                tests_frontier = any(
                    isinstance(sub, ast.Name) and _is_frontier_name(sub.id)
                    for sub in ast.walk(node.test)
                )
                if tests_frontier and any(
                    _assigns_frontier(sub)
                    for body_node in node.body
                    for sub in ast.walk(body_node)
                ):
                    flagged_whiles.add(node)
                    findings.append(
                        source.finding(
                            self.rule_id,
                            node,
                            "hand-rolled frontier/level-expansion loop; "
                            "the one BFS kernel lives in "
                            "repro.graphs.csr._BatchSweep — drive it "
                            "through the public sweep APIs instead of "
                            "growing a private copy",
                        )
                    )
        # Assignments to the canonical scratch names outside a flagged
        # loop (the loop finding already covers the ones inside it).
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if not any(
                isinstance(target, ast.Name)
                and target.id in ("next_frontier", "new_frontier")
                for target in targets
            ):
                continue
            current = parents.get(node)
            inside_flagged = False
            while current is not None:
                if current in flagged_whiles:
                    inside_flagged = True
                    break
                current = parents.get(current)
            if inside_flagged:
                continue
            findings.append(
                source.finding(
                    self.rule_id,
                    node,
                    "assignment to a level-expansion scratch frontier; "
                    "BFS level expansion is owned by "
                    "repro.graphs.csr._BatchSweep — use the public sweep "
                    "APIs instead of a private loop",
                )
            )
        return findings
