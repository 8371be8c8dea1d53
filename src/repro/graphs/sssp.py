"""The weighted/unweighted SSSP dispatch knob.

The traversal stack has ONE single-source shortest-path abstraction with two
engines behind it:

* **BFS** (`repro.graphs.csr._BatchSweep` and the dict reference loops) —
  the unit-weight case: integer hop distances, level-synchronous expansion,
  batched multi-source sweeps, direction optimisation.
* **Dijkstra** (`repro.graphs.csr.csr_dijkstra_dag` and the dict reference
  in :mod:`repro.graphs.traversal`) — the weighted case: float distances
  over the ``weights`` array of the CSR snapshot, exact shortest-path
  counts, deterministic heap tie-breaking so both backends settle nodes in
  the same order and return bit-identical results.

This module owns the *routing decision*: the ``weighted`` row of
:mod:`repro.knobs` (``None``/``"auto"``/``"on"``/``"off"``,
``REPRO_WEIGHTED``, :func:`set_default_weighted`) resolves to a concrete
boolean per graph:

* ``"auto"`` (the default): use the weighted engine iff the graph carries
  non-unit edge weights (:attr:`Graph.is_weighted`, an O(1) check).
  Unit-weight graphs therefore take **exactly** the historical BFS code
  paths, bit for bit.
* ``"on"``: force the Dijkstra engine, treating absent weights as ``1.0``
  (the unit-weight A/B used by the equivalence tests and benchmarks).
* ``"off"``: ignore weights and run hop-distance BFS even on weighted
  graphs.
"""

from __future__ import annotations

from typing import Optional

from repro import knobs

WEIGHTED_AUTO = "auto"
WEIGHTED_ON = "on"
WEIGHTED_OFF = "off"

WEIGHTED_ENV_VAR = knobs.WEIGHTED.env
default_weighted = knobs.WEIGHTED.resolve
set_default_weighted = knobs.WEIGHTED.override
resolve_weighted = knobs.WEIGHTED.resolve


def effective_weighted(graph, weighted: Optional[str] = None) -> bool:
    """Whether one operation on ``graph`` should run the weighted engine.

    ``graph`` may be a :class:`~repro.graphs.graph.Graph` or a bare
    :class:`~repro.graphs.csr.CSRGraph` snapshot (the graph slot of a
    CSR worker payload); both expose the O(1) ``is_weighted`` check the ``"auto"``
    mode routes on.
    """
    mode = resolve_weighted(weighted)
    if mode == WEIGHTED_ON:
        return True
    if mode == WEIGHTED_OFF:
        return False
    return bool(getattr(graph, "is_weighted", False))
