"""Exact betweenness ground truth, cached in memory and optionally on disk.

The paper's ground truth took ~2M core-hours on a Cray for the SNAP graphs
and two weeks on a 96-core server for USA-road; at reproduction scale exact
Brandes takes seconds to minutes, but the experiment drivers still reuse one
ground-truth computation across the whole epsilon / subset-size sweep, so a
small JSON cache keeps repeated benchmark invocations fast.

An entry in memory remembers the graph object (weakly) and the
``Graph._version`` it was computed from, and is recomputed once that
graph changes, whatever the edit: exact Brandes is cheap at reproduction
scale next to proving an edit cannot move any score.

Two disk tiers keep the truth across processes, each file named after the
routed SSSP metric (``hop`` or ``weighted``) as well as the graph:

* the key tier, ``<cache_dir>/<key>#<metric>.json``, for a caller-chosen
  key such as ``"flickr@1.0#0"``;
* the persistent, content-addressed tier,
  ``<snapshot_dir>/ground_truth/bt_<content-digest>_<metric>.json``, on
  whenever the ``snapshot_dir`` knob (``REPRO_SNAPSHOT_DIR``) is set.
  :func:`content_digest` covers the exact labels, adjacency order and
  weights, so a restarted process — or a different key naming the same
  graph — reuses the exact Brandes run bit for bit, and a mutated or
  regenerated graph can never collide with a stale entry.

A file is served only if it describes the graph: its keys must be the
``str`` of the graph's nodes, one to one, and every value a finite number.
Stored keys map back through the graph's own nodes, so ``"1"``, ``(0, 1)``
and ``1.5`` come back as the nodes they were.  Any other file (truncated,
not JSON, a renamed key, a ``NaN``) counts as a miss: the truth is
recomputed and the file overwritten.  A graph whose labels collide under
``str`` (both ``1`` and ``"1"``) never touches the disk.  Every file is
written through :func:`atomic_write`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import weakref
from pathlib import Path
from typing import Dict, Hashable, Iterable, Optional, Union

from repro import knobs
from repro.centrality.brandes import betweenness_centrality
from repro.graphs import sssp as _sssp
from repro.graphs.csr import require_graph
from repro.graphs.graph import Graph

Node = Hashable
PathLike = Union[str, Path]

#: The ``snapshot_dir`` row of :mod:`repro.knobs`: the root of the
#: persistent tier (``<snapshot_dir>/ground_truth``; ``None`` = none).
SNAPSHOT_DIR_ENV_VAR = knobs.SNAPSHOT_DIR.env
default_snapshot_dir = knobs.SNAPSHOT_DIR.resolve
set_default_snapshot_dir = knobs.SNAPSHOT_DIR.override


def resolve_snapshot_dir(
    snapshot_dir: Optional[PathLike] = None,
) -> Optional[Path]:
    """The ``snapshot_dir`` directory (argument > override >
    ``REPRO_SNAPSHOT_DIR``); ``None`` disables the persistent tier."""
    resolved = knobs.SNAPSHOT_DIR.resolve(snapshot_dir)
    return None if resolved is None else Path(resolved)


def atomic_write(path: PathLike, chunks: Iterable[bytes]) -> Path:
    """Write ``chunks`` to ``path`` atomically; return the path.

    The bytes go to ``<path>.<pid>.tmp`` next to ``path``, which is
    flushed, ``fsync``-ed and renamed over ``path`` with ``os.replace``, so
    ``path`` holds either its old content or all of the new one, never a
    part.  On any failure the temporary file is deleted and the error
    re-raised.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def safe_key(key: str) -> str:
    """Sanitise a cache key to a file-system-safe name (collision-hashed).

    Alphanumerics and ``-_.@#`` pass through; anything else is replaced
    and a short content hash is appended so distinct keys cannot collide
    after sanitisation.
    """
    safe = "".join(ch if ch.isalnum() or ch in "-_.@#" else "_" for ch in key)
    if safe == key:
        return safe
    suffix = hashlib.sha256(key.encode("utf-8")).hexdigest()[:8]
    return f"{safe}-{suffix}"


def content_digest(graph: Graph) -> str:
    """A hex digest identifying a graph's exact content and iteration order.

    Covers the node labels (in insertion order), each node's neighbour
    list (in adjacency order — the order every deterministic traversal
    scans) and, on weighted graphs, the float64 edge weights.
    """
    hasher = hashlib.sha256()

    def feed(token: str) -> None:
        hasher.update(token.encode("utf-8"))
        hasher.update(b"\x00")

    weighted = graph.is_weighted
    feed(f"n={graph.number_of_nodes()}")
    feed(f"weighted={int(weighted)}")
    for label in graph.nodes():
        feed(f"\x01{label!r}")
        for neighbor, weight in graph.neighbor_weights(label):
            feed(repr(neighbor))
            if weighted:
                feed(repr(float(weight)))
    return hasher.hexdigest()


def exact_betweenness(
    graph: Graph,
    *,
    workers: Optional[int] = None,
    weighted: Optional[str] = None,
) -> Dict[Node, float]:
    """Exact normalised betweenness of every node (Brandes, ``O(nm)``).

    ``workers`` fans the all-sources pass out over a worker pool (``None``
    resolves via ``REPRO_WORKERS``); the per-source dependency vectors are
    folded in source order, so any worker count returns bit-identical values.
    ``weighted`` selects the SSSP engine (see :mod:`repro.graphs.sssp`).
    """
    return betweenness_centrality(
        graph, normalized=True, workers=workers, weighted=weighted
    )


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
        persistent the moment that knob is set (and stays memory-only
        otherwise).

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

    def _fresh(self, slot: str, graph: Graph) -> bool:
        """Whether the cached entry still describes ``graph``: always for
        another graph object under the same key (the key contract, "a key
        identifies the graph", is the caller's), and for this one while
        its version is the one the entry was computed against."""
        ref = self._graphs.get(slot)
        if ref is None or ref() is not graph:
            return True
        return self._versions[slot] == graph._version

    def get(
        self,
        key: str,
        graph: Graph,
        *,
        workers: Optional[int] = None,
        weighted: Optional[str] = None,
    ) -> Dict[Node, float]:
        """Return the exact betweenness for ``graph``, computing it at most once
        per ``key`` (a key should identify the graph, e.g. ``"flickr@1.0#0"``)
        and routed metric.

        The entry is version-fenced: if *this* graph object has mutated
        since the entry was computed, the truth is recomputed.  ``workers``
        parallelises a cache miss's Brandes pass; the cached values are
        identical for any worker count.  ``weighted`` selects the SSSP
        engine, and each metric has its own entry.  A disk write that
        fails raises, and leaves no entry for a later call to serve.
        """
        require_graph(graph, "GroundTruthCache.get")
        metric = "weighted" if _sssp.effective_weighted(graph, weighted) else "hop"
        slot = f"{key}#{metric}"
        stale = slot in self._memory
        if stale:
            if self._fresh(slot, graph):
                return self._memory[slot]
            del self._memory[slot]
        key_path = digest_path = None
        labels = _labels_by_text(graph)
        if labels is not None:
            if self._cache_dir is not None:
                key_path = self._cache_dir / f"{safe_key(slot)}.json"
            directory = self._digest_tier()
            if directory is not None:
                # The digest is taken from the graph *as it is now*, so (unlike
                # the key file) a hit here is safe even when this key's previous
                # entry went stale: a mutated graph hashes to another file.
                digest_path = directory / f"bt_{content_digest(graph)}_{metric}.json"
        values = None
        if key_path is not None and not stale:
            # A stale entry's key file holds the same stale values: skip it.
            values = _load(key_path, labels)
        if values is None and digest_path is not None:
            values = _load(digest_path, labels)
            if values is not None and key_path is not None:
                _store(key_path, values)
        if values is None:
            values = exact_betweenness(graph, workers=workers, weighted=weighted)
            for path in (key_path, digest_path):
                if path is not None:
                    _store(path, values)
        self._memory[slot] = values
        self._graphs[slot] = weakref.ref(graph)
        self._versions[slot] = graph._version
        return values

    def _digest_tier(self) -> Optional[Path]:
        """The content-addressed tier directory, or ``None`` when disabled."""
        if self._digest_dir is not None:
            return self._digest_dir
        base = resolve_snapshot_dir()
        return None if base is None else base / "ground_truth"


def _labels_by_text(graph: Graph) -> Optional[Dict[str, Node]]:
    """``{str(node): node}`` over the graph's nodes, or ``None`` when two
    nodes share a ``str`` and so cannot be told apart in a JSON file."""
    labels = {str(node): node for node in graph.nodes()}
    return labels if len(labels) == graph.number_of_nodes() else None


def _load(path: Path, labels: Dict[str, Node]) -> Optional[Dict[Node, float]]:
    """The truth stored at ``path``, keyed by the graph's own nodes, or
    ``None`` (a miss) unless the file is a JSON object whose keys are
    exactly ``labels`` and whose values are all finite numbers."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(raw, dict) or raw.keys() != labels.keys():
        return None
    values = {}
    for text, node in labels.items():
        value = raw[text]
        if type(value) not in (int, float) or not math.isfinite(value):
            return None
        values[node] = float(value)
    return values


def _store(path: Path, values: Dict[Node, float]) -> None:
    serialisable = {str(node): value for node, value in values.items()}
    atomic_write(path, (json.dumps(serialisable).encode("utf-8"),))
