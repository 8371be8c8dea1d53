"""Ground truth and the per-query correctness check.

Truth comes from the repo's exact oracles — Brandes betweenness
(``exact_betweenness``) and exact closeness — computed serially on a copy of
every graph state some query reads, before anything is timed: it is the
checker's cost, not the system's.

A query passes when every target's error is within ``epsilon``:

* betweenness (``bc``, ``full``, ``kad``): ``|estimate - exact|`` (KADABRA
  estimates the whole network, so every node is checked);
* closeness (``cc``): the error on the normalised average distance
  ``avg_dist * (n - 1) / (n * D)``, the quantity ``SaPHyRaCC`` guarantees
  (``D`` is the query's distance bound).

Ranking quality is the Spearman correlation (average ranks for ties) between
estimated and exact values over the query's targets, the paper's primary
objective.  Both are independent of the program's own metric code.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import Op, batches_of_state


@dataclass
class StateTruth:
    """Exact values of one graph state: betweenness of every node, and the
    average distance of every closeness target."""

    n: int
    bc: Dict[int, float]
    cc: Dict[int, float]


Truth = Dict[Tuple[int, ...], StateTruth]


@dataclass
class Verdict:
    """Outcome of checking one query answer."""

    ok: bool
    max_err_over_eps: float
    spearman: Optional[float]
    cause: str = ""


@dataclass
class Answer:
    """What the checker needs from one query: values for its targets plus
    the counts and ranking that the digest covers."""

    targets: List[int]
    values: Dict[int, float]
    ranking: List[int]
    counts: Dict[str, object] = field(default_factory=dict)
    distance_bound: int = 0

    def digest(self, kind: str) -> str:
        """Digest of the ranking, the exact values and the sample counts."""
        values = [self.values[node] for node in self.targets]
        text = repr((kind, self.ranking, values, sorted(self.counts.items())))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def answer_of(kind: str, op: Op, result) -> Answer:
    """Extract the checked values from a public return value."""
    if kind in ("bc", "full"):
        return Answer(
            targets=list(result.targets),
            values=dict(result.scores),
            ranking=list(result.ranking),
            counts={
                "samples": result.num_samples,
                "pilot_samples": result.num_pilot_samples,
                "exact_work": result.exact_work,
                "rejections": result.rejections,
                "converged_by": result.converged_by,
            },
        )
    if kind == "cc":
        return Answer(
            targets=list(result.targets),
            values=dict(result.average_distance),
            ranking=list(result.ranking),
            counts={"samples": result.num_samples},
            distance_bound=result.distance_bound,
        )
    return Answer(
        targets=list(result.scores),
        values=dict(result.scores),
        ranking=result.ranking(),
        counts={
            "samples": result.num_samples,
            "visited_edges": int(result.extra["visited_edges"]),
            "converged_by": result.converged_by,
        },
    )


def compute_truth(graph, plan: Sequence[Op], cache_dir: Optional[Path] = None) -> Truth:
    """Exact betweenness and closeness for every graph state a query reads.

    Exact betweenness of a state depends only on its edge set, so with a
    ``cache_dir`` it is kept there under a digest of the sorted edge list:
    later runs in the same checkout skip the Brandes pass for the states
    every seed shares (the unedited graph).
    """
    from repro.centrality.closeness import closeness_centrality
    from repro.datasets.ground_truth import exact_betweenness

    truth: Truth = {}
    for state, inserted in batches_of_state(plan).items():
        copy = graph.copy()
        for u, v in inserted:
            copy.add_edge(u, v)
        cc_nodes = sorted(
            {t for op in plan if op.kind == "cc" and op.state == state
             for t in op.targets}
        )
        closeness = (
            closeness_centrality(copy, cc_nodes, backend="dict", workers=0)
            if cc_nodes else {}
        )
        path = None
        if cache_dir is not None:
            edges = sorted((min(u, v), max(u, v)) for u, v in copy.edges())
            key = hashlib.sha256(repr(edges).encode()).hexdigest()[:24]
            path = cache_dir / f"bc-{key}.json"
        bc = _load_bc(path)
        if bc is None:
            bc = exact_betweenness(copy, workers=0)
            _store_bc(path, bc)
        # Connected graph: closeness = (n - 1) / sum(d), so the exact average
        # distance over the other n - 1 nodes is 1 / closeness.
        truth[state] = StateTruth(
            n=copy.number_of_nodes(),
            bc=bc,
            cc={node: 1.0 / value for node, value in closeness.items()},
        )
    return truth


def _load_bc(path: Optional[Path]) -> Optional[Dict[int, float]]:
    if path is None or not path.is_file():
        return None
    try:
        with open(path, encoding="utf-8") as handle:
            return {int(node): value for node, value in json.load(handle).items()}
    except (OSError, ValueError):
        return None  # unreadable or partial entry: recompute it


def _store_bc(path: Optional[Path], bc: Dict[int, float]) -> None:
    if path is None:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    with open(partial, "w", encoding="utf-8") as handle:
        json.dump({str(node): value for node, value in bc.items()}, handle)
    os.replace(partial, path)


def check(kind: str, op: Op, answer: Answer, truth: Truth, epsilon: float) -> Verdict:
    """Check one answer against the exact values of its graph state."""
    entry = truth[op.state]
    exact_values: List[float] = []
    estimated: List[float] = []
    errors: List[float] = []
    if kind == "cc":
        n = entry.n
        scale = (n - 1) / (n * answer.distance_bound)
        for node in answer.targets:
            exact = entry.cc[node]
            value = answer.values[node]
            exact_values.append(exact)
            estimated.append(value)
            errors.append(abs(value - exact) * scale)
    else:
        for node in answer.targets:
            exact = entry.bc[node]
            value = answer.values[node]
            exact_values.append(exact)
            estimated.append(value)
            errors.append(abs(value - exact))
    worst = max(errors) / epsilon
    rho = spearman(estimated, exact_values)
    if worst > 1.0:
        return Verdict(False, worst, rho, f"missed eps: max err/eps = {worst:.3f}")
    return Verdict(True, worst, rho)


def _average_ranks(values: Sequence[float]) -> List[float]:
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        end = start
        while end + 1 < len(order) and values[order[end + 1]] == values[order[start]]:
            end += 1
        rank = (start + end) / 2.0
        for position in range(start, end + 1):
            ranks[order[position]] = rank
        start = end + 1
    return ranks


def spearman(a: Sequence[float], b: Sequence[float]) -> Optional[float]:
    """Spearman correlation with average ranks; ``None`` if a side is constant."""
    ra, rb = _average_ranks(a), _average_ranks(b)
    mean_a = sum(ra) / len(ra)
    mean_b = sum(rb) / len(rb)
    cov = sum((x - mean_a) * (y - mean_b) for x, y in zip(ra, rb))
    var_a = sum((x - mean_a) ** 2 for x in ra)
    var_b = sum((y - mean_b) ** 2 for y in rb)
    if var_a == 0 or var_b == 0:
        return None
    return cov / (var_a * var_b) ** 0.5
