"""``float-fold``: no unaudited float summations in kernel modules.

The determinism contract pins the exact float accumulation order across
backends, worker counts and kernels.  numpy's ``.sum()`` uses pairwise
summation, which re-associates float additions — harmless for integer
arrays, contract-breaking for float ones (PR 5's review caught one by
hand; cf. the deliberate ``tolist()`` sequential fold at
``graphs/csr.py`` ``distance_stats_from_row``).  Statically we cannot
see dtypes, so the rule is a discipline check over the kernel modules:

* a fold wrapped directly in ``int(...)`` is self-evidently an integer
  fold — allowed;
* any other ``sum(...)`` / ``np.sum(...)`` / ``math.fsum(...)`` /
  ``x.sum()`` must carry an audited
  ``# repro-lint: disable=float-fold — reason`` suppression explaining
  why its accumulation order is safe.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.model import Finding, Rule, SourceFile
from repro.lint.rules.common import is_kernel_module


def _is_fold_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in ("sum", "fsum")
    if isinstance(func, ast.Attribute):
        if func.attr == "fsum":  # math.fsum(...)
            return True
        if func.attr == "sum":
            # Both np.sum(a) and a.sum() re-associate; flag either.
            return True
    return False


class FloatFoldRule(Rule):
    rule_id = "float-fold"
    description = (
        "sum()/.sum()/np.sum/math.fsum in kernel modules "
        "(graphs/{csr,traversal}.py) must be int()-wrapped integer folds "
        "or carry an audited suppression — pairwise summation "
        "re-associates float additions"
    )

    def check_file(self, source: SourceFile) -> List[Finding]:
        if not is_kernel_module(source) or source.tree is None:
            return []
        findings: List[Finding] = []
        parents = source.parents()
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call) or not _is_fold_call(node):
                continue
            parent = parents.get(node)
            if (
                isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id == "int"
                and node in parent.args
            ):
                continue  # int(x.sum()) — an integer fold, order-safe
            snippet = ast.unparse(node)
            if len(snippet) > 60:
                snippet = snippet[:57] + "..."
            findings.append(
                source.finding(
                    self.rule_id,
                    node,
                    f"unwrapped fold `{snippet}` in a kernel module; "
                    "pairwise summation re-associates float additions — "
                    "wrap integer folds in int(...), or add "
                    "`# repro-lint: disable=float-fold — <why the order "
                    "is safe>` after auditing",
                )
            )
        return findings
