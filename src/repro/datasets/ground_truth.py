"""Exact betweenness ground truth with simple on-disk caching.

The paper's ground truth took ~2M core-hours on a Cray for the SNAP graphs
and two weeks on a 96-core server for USA-road; at reproduction scale exact
Brandes takes seconds to minutes, but the experiment drivers still reuse one
ground-truth computation across the whole epsilon / subset-size sweep, so a
small JSON cache keeps repeated benchmark invocations fast.

An entry in memory remembers the graph object (weakly) and the
``Graph._version`` it was computed from, and is recomputed once that
graph changes, whatever the edit: exact Brandes is cheap at reproduction
scale next to proving an edit cannot move any score.

Since PR 10 the cache also has a **persistent, content-addressed tier**:
when a snapshot store is configured (``snapshot_dir`` knob /
``REPRO_SNAPSHOT_DIR``), every computed truth is additionally written to
``<snapshot_dir>/ground_truth/bt_<content-digest>_<metric>.json``, keyed by
:func:`repro.graphs.store.content_digest` of the graph plus the routed SSSP
metric (hop vs weighted).  The digest covers the exact labels, adjacency
order and weights, so a restarted process — or a different key naming the
same graph — reuses the exact Brandes run bit for bit, and a mutated or
regenerated graph can never collide with a stale entry.

Both tiers write through :func:`repro.graphs.store.atomic_write`, and an
unreadable file (truncated, not JSON) counts as a miss: the truth is
recomputed and the file overwritten.
"""

from __future__ import annotations

import json
import weakref
from pathlib import Path
from typing import Dict, Hashable, Optional, Union

from repro.centrality.brandes import betweenness_centrality
from repro.graphs import sssp as _sssp
from repro.graphs import store as snapshot_store
from repro.graphs.graph import Graph

Node = Hashable
PathLike = Union[str, Path]


def exact_betweenness(
    graph: Graph, *, workers: Optional[int] = None
) -> Dict[Node, float]:
    """Exact normalised betweenness of every node (Brandes, ``O(nm)``).

    ``workers`` fans the all-sources pass out over a worker pool (``None``
    resolves via ``REPRO_WORKERS``); the per-source dependency vectors are
    folded in source order, so any worker count returns bit-identical values.
    """
    return betweenness_centrality(graph, normalized=True, workers=workers)


class GroundTruthCache:
    """Compute-once cache for exact betweenness, optionally persisted to disk.

    Parameters
    ----------
    cache_dir:
        Directory for the key-named JSON cache files; ``None`` keeps the
        key tier in memory only.
    digest_dir:
        Directory for the content-addressed tier; ``None`` (the default)
        derives ``<snapshot_dir>/ground_truth`` from the ``snapshot_dir``
        knob at lookup time, so a plain ``GroundTruthCache()`` becomes
        persistent the moment a snapshot store is configured (and stays
        memory-only otherwise, the historical behaviour).

    Examples
    --------
    >>> from repro.datasets.synthetic import karate_club_graph
    >>> cache = GroundTruthCache()
    >>> truth = cache.get("karate", karate_club_graph())
    >>> round(max(truth.values()), 3) > 0
    True
    """

    def __init__(
        self,
        cache_dir: Optional[PathLike] = None,
        digest_dir: Optional[PathLike] = None,
    ) -> None:
        self._memory: Dict[str, Dict[Node, float]] = {}
        # Version fencing: remember which graph object (weakly) and which
        # ``Graph._version`` each entry was computed against, so a mutated
        # graph is never served stale truth.  The entries live here, not in
        # the graph's slot, so that dropping this cache drops all of them.
        self._versions: Dict[str, int] = {}
        self._graphs: Dict[str, "weakref.ref[Graph]"] = {}
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self._cache_dir is not None:
            self._cache_dir.mkdir(parents=True, exist_ok=True)
        self._digest_dir = Path(digest_dir) if digest_dir is not None else None

    def _remember(self, key: str, graph: Graph) -> None:
        try:
            self._graphs[key] = weakref.ref(graph)
            self._versions[key] = graph._version
        except TypeError:  # a bare CSR payload or stub without weakref/version
            self._graphs.pop(key, None)
            self._versions.pop(key, None)

    def _fresh(self, key: str, graph: Graph) -> bool:
        """Whether the cached entry still describes ``graph``: always for
        another graph object under the same key (the key contract, "a key
        identifies the graph", is the caller's), and for this one while
        its version is the one the entry was computed against."""
        ref = self._graphs.get(key)
        if ref is None or ref() is not graph:
            return True
        return self._versions[key] == graph._version

    def get(
        self, key: str, graph: Graph, *, workers: Optional[int] = None
    ) -> Dict[Node, float]:
        """Return the exact betweenness for ``graph``, computing it at most once
        per ``key`` (a key should identify the graph, e.g. ``"flickr@1.0#0"``).

        The entry is version-fenced: if *this* graph object has mutated
        since the entry was computed, the truth is recomputed.  ``workers``
        parallelises a cache miss's Brandes pass; the cached values are
        identical for any worker count.
        """
        stale = False
        if key in self._memory:
            if self._fresh(key, graph):
                return self._memory[key]
            # The on-disk file under this key holds the same stale values;
            # skip the reload and recompute (overwriting it below).
            stale = True
            del self._memory[key]
        if self._cache_dir is not None and not stale:
            values = self._load(self._path_for(key))
            if values is not None and len(values) == graph.number_of_nodes():
                self._memory[key] = values
                self._remember(key, graph)
                return values
        # Content-addressed persistent tier: the digest is recomputed from
        # the graph *as it is now*, so (unlike the key file) a hit here is
        # safe even when this key's previous entry went stale — a mutated
        # graph simply hashes to a different file.
        digest_path = self._digest_path_for(graph)
        if digest_path is not None:
            values = self._load(digest_path)
            if values is not None and len(values) == graph.number_of_nodes():
                self._memory[key] = values
                self._remember(key, graph)
                if self._cache_dir is not None:
                    self._store(self._path_for(key), values)
                return values
        values = exact_betweenness(graph, workers=workers)
        self._memory[key] = values
        self._remember(key, graph)
        if self._cache_dir is not None:
            self._store(self._path_for(key), values)
        if digest_path is not None:
            self._store(digest_path, values)
        return values

    # ------------------------------------------------------------------
    def _digest_tier(self) -> Optional[Path]:
        """The content-addressed tier directory, or ``None`` when disabled."""
        if self._digest_dir is not None:
            return self._digest_dir
        base = snapshot_store.resolve_snapshot_dir()
        return None if base is None else base / "ground_truth"

    def _digest_path_for(self, graph: Graph) -> Optional[Path]:
        """The content-addressed truth file for ``graph`` as it is *now*.

        The name binds the graph content digest to the routed SSSP metric:
        the same graph has different (hop vs weighted) exact betweenness
        depending on how :func:`repro.graphs.sssp.effective_weighted`
        resolves, so both dimensions address the file.
        """
        directory = self._digest_tier()
        if directory is None:
            return None
        metric = "weighted" if _sssp.effective_weighted(graph) else "hop"
        digest = snapshot_store.content_digest(graph)
        return directory / f"bt_{digest}_{metric}.json"

    def _path_for(self, key: str) -> Path:
        return self._cache_dir / f"{snapshot_store.safe_key(key)}.json"

    @staticmethod
    def _load(path: Path) -> Optional[Dict[Node, float]]:
        """The values stored at ``path``, or ``None`` when the file is
        missing, unreadable or not a JSON object (the caller recomputes)."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(raw, dict):
            return None
        return {_parse_node(node): value for node, value in raw.items()}

    @staticmethod
    def _store(path: Path, values: Dict[Node, float]) -> None:
        serialisable = {str(node): value for node, value in values.items()}
        snapshot_store.atomic_write(
            path, (json.dumps(serialisable).encode("utf-8"),)
        )


def _parse_node(token: str) -> Node:
    """JSON keys are strings; convert back to int when possible."""
    try:
        return int(token)
    except ValueError:
        return token
