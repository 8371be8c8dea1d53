"""On-disk CSR snapshot store: persist-once, memory-map-many graphs.

The paper's headline workload is the USA road network (~24M nodes), but
every run of this repo used to rebuild each graph in process RAM — an
O(V+E) parse-and-generate on every cold start.  This module *persists* the
frozen CSR layout (``indptr``/``indices``/``weights`` + labels), so a cold
start becomes an O(1) ``np.memmap`` attach and graphs larger than RAM page
in on demand:

* :func:`save_snapshot` / :func:`load_snapshot` — write a
  :class:`~repro.graphs.csr.CSRGraph` to a single versioned, checksummed
  file and attach it back as **read-only** ``np.memmap`` views (also
  reachable as ``CSRGraph.save(path)`` / ``CSRGraph.load(path)``).
  A loaded (or freshly saved) snapshot remembers its backing file in
  ``CSRGraph.source_path`` and the file's two CRC32 fields in
  ``CSRGraph.source_crcs``, so it pickles to worker processes as *a path
  plus a header* (:meth:`CSRGraph.__reduce__`): each worker attaches the
  file itself (:func:`_attach_snapshot_file`), zero-copy when it maps.
* :class:`SnapshotStore` — a directory of snapshots addressed by string
  keys (plus JSON side-car metadata), used by the datasets registry to
  memoise generated graphs and by benches/tests for scratch stores.
* :func:`content_digest` — a content-addressed identity for a graph
  (labels, adjacency order, weights), identical for a dict
  :class:`~repro.graphs.graph.Graph` and any CSR snapshot of it.  The
  ``GroundTruthCache`` keys its persistent disk tier on this digest, so
  exact Brandes runs survive process restarts.
* :func:`graph_from_snapshot` — rebuild a dict ``Graph`` whose per-node
  adjacency order matches the snapshot exactly, so
  ``CSRGraph.from_graph(graph_from_snapshot(s))`` is byte-identical to
  ``s`` and every traversal on the rebuilt graph is bit-identical to one
  on the original.

File format (version 1)
-----------------------
One file, native byte order, 64-byte header::

    offset size field
    0      8    magic  b"REPROCSR"
    8      4    byte-order sentinel (0x01020304 as written)
    12     4    format version
    16     4    flags (1 = weighted, 2 = identity labels 0..n-1)
    20     4    header CRC32 (over bytes 24..64 + the labels blob)
    24     8    n (node count, int64)
    32     8    num_indices (= 2m, int64)
    40     8    labels blob size in bytes (0 for identity labels)
    48     4    arrays CRC32 (over indptr + indices + weights bytes)
    52     12   reserved (zero)
    64     ...  labels blob (UTF-8 JSON list), padded to an 8-byte boundary
           ...  indptr   (n+1) x int64
           ...  indices  num_indices x int64
           ...  weights  num_indices x float64 (weighted snapshots only)

Loads verify magic, byte order (a snapshot written on a foreign-endianness
machine is rejected, not mis-read), format version, header checksum and
the exact expected file size (catching truncation) **before** touching the
arrays, raising :class:`~repro.errors.GraphError` naming the path and the
mismatch.  The arrays checksum is checked with ``verify=True``, which reads
the whole mapped file once; a plain load skips it to keep the O(1)
attach.  :meth:`SnapshotStore.load` always verifies, so a corrupt store
entry is rebuilt, never served.

Memory-mapped snapshots are **read-only**: every consumer treats a
``CSRGraph`` as frozen, and delta patching (``as_csr`` on a mutated graph)
already materialises *fresh* in-RAM arrays — copy-on-write — so the
mapped file is never written through and journal semantics are unchanged.

The ``snapshot_dir`` row of :mod:`repro.knobs` is the default store
directory (``None`` = no store; :func:`set_default_snapshot_dir`).

The store reads and writes numpy arrays: without numpy,
:func:`save_snapshot` and :func:`load_snapshot` raise
:class:`~repro.errors.GraphError` naming it (see
:func:`repro.graphs.csr.require_numpy`), and so does the datasets
registry when a store is configured.  Every file the store writes —
snapshots, metadata side-cars and the ground-truth cache's JSON — goes
through :func:`atomic_write`.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from collections import deque
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro import knobs
from repro.errors import GraphError
from repro.graphs.csr import CSRGraph, HAS_NUMPY, as_csr, require_numpy
from repro.graphs.graph import Graph

if HAS_NUMPY:  # pragma: no branch - mirrors repro.graphs.csr
    import numpy as _np

PathLike = Union[str, Path]

#: Magic bytes opening every snapshot file.
SNAPSHOT_MAGIC = b"REPROCSR"

#: Current snapshot format version; bump on any layout change.
FORMAT_VERSION = 1

#: Byte-order sentinel: written native, reads back byte-swapped on a
#: foreign-endianness machine (detected and rejected instead of mis-read).
_ORDER_SENTINEL = 0x01020304
_ORDER_SENTINEL_SWAPPED = 0x04030201

_FLAG_WEIGHTED = 1
_FLAG_IDENTITY_LABELS = 2

#: Native-order header layout; see the module docstring for the field map.
_HEADER_STRUCT = struct.Struct("=8sIIIIqqqI12x")
HEADER_SIZE = _HEADER_STRUCT.size  # 64


# ---------------------------------------------------------------------------
# The snapshot_dir knob
# ---------------------------------------------------------------------------
SNAPSHOT_DIR_ENV_VAR = knobs.SNAPSHOT_DIR.env
default_snapshot_dir = knobs.SNAPSHOT_DIR.resolve
set_default_snapshot_dir = knobs.SNAPSHOT_DIR.override


def resolve_snapshot_dir(
    snapshot_dir: Optional[PathLike] = None,
) -> Optional[Path]:
    """The store directory for ``snapshot_dir`` (argument > override >
    ``REPRO_SNAPSHOT_DIR``); ``None`` means "no store" — the memoisation
    and persistent ground-truth tiers are disabled."""
    resolved = knobs.SNAPSHOT_DIR.resolve(snapshot_dir)
    return None if resolved is None else Path(resolved)


# ---------------------------------------------------------------------------
# Serialisation helpers
# ---------------------------------------------------------------------------
def atomic_write(path: PathLike, chunks: Iterable[bytes]) -> Path:
    """Write ``chunks`` to ``path`` atomically; return the path.

    The bytes go to a temporary file next to ``path``, which is flushed,
    ``fsync``-ed and renamed over ``path`` with ``os.replace``, so ``path``
    holds either its old content or all of the new one, never a part.  On
    any failure the temporary file is deleted and the error re-raised.
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


def _array_bytes(data) -> bytes:
    """Raw native bytes of one int64/float64 array."""
    return _np.ascontiguousarray(data).tobytes()


def _labels_blob(csr: CSRGraph, *, path: PathLike) -> bytes:
    """Serialise the label list (empty for the identity labelling)."""
    if csr.identity_labels:
        return b""
    for label in csr.labels:
        if not isinstance(label, (int, str)) or isinstance(label, bool):
            raise GraphError(
                f"cannot write snapshot {path}: node label {label!r} is not "
                "an int or str (the snapshot format stores labels as JSON)"
            )
    return json.dumps(csr.labels, separators=(",", ":")).encode("utf-8")


def _pad(size: int) -> int:
    """Padding bytes needed to align ``size`` to an 8-byte boundary."""
    return (-size) % 8


def save_snapshot(graph, path: PathLike) -> Path:
    """Write the CSR snapshot of ``graph`` to ``path`` (atomically).

    ``graph`` may be a :class:`~repro.graphs.graph.Graph` (its cached CSR
    snapshot is taken via :func:`~repro.graphs.csr.as_csr`) or a bare
    :class:`~repro.graphs.csr.CSRGraph`.  The write goes through a
    temporary file + ``os.replace``, so a crash mid-write never leaves a
    half-written snapshot under the final name.  On success the snapshot's
    ``source_path`` and ``source_crcs`` describe the written file, so it
    pickles to workers by path (:meth:`CSRGraph.__reduce__`).

    Raises
    ------
    GraphError
        If numpy is not importable, or a node label is not
        JSON-serialisable (int/str).
    """
    path = Path(path)
    require_numpy(f"saving snapshot {path}")
    csr = as_csr(graph)
    labels_blob = _labels_blob(csr, path=path)
    indptr_bytes = _array_bytes(csr.indptr)
    indices_bytes = _array_bytes(csr.indices)
    weights_bytes = _array_bytes(csr.weights) if csr.weights is not None else b""
    flags = 0
    if csr.weights is not None:
        flags |= _FLAG_WEIGHTED
    if csr.identity_labels:
        flags |= _FLAG_IDENTITY_LABELS
    arrays_crc = zlib.crc32(weights_bytes, zlib.crc32(indices_bytes, zlib.crc32(indptr_bytes)))
    counts = struct.pack(
        "=qqq", csr.n, len(csr.indices), len(labels_blob)
    )
    header_crc = zlib.crc32(labels_blob, zlib.crc32(counts))
    header = _HEADER_STRUCT.pack(
        SNAPSHOT_MAGIC,
        _ORDER_SENTINEL,
        FORMAT_VERSION,
        flags,
        header_crc,
        csr.n,
        len(csr.indices),
        len(labels_blob),
        arrays_crc,
    )
    atomic_write(
        path,
        (
            header,
            labels_blob,
            b"\0" * _pad(len(labels_blob)),
            indptr_bytes,
            indices_bytes,
            weights_bytes,
        ),
    )
    csr.source_path = str(path)
    csr.source_crcs = (header_crc, arrays_crc)
    return path


def _corrupt(path: PathLike, problem: str) -> GraphError:
    return GraphError(f"snapshot {path}: {problem}")


def _read_header(path: Path) -> Tuple[int, int, int, int, int, int, bytes]:
    """Validate the header; return ``(n, num_indices, flags, header_crc,
    arrays_crc, arrays_offset, labels_blob)``.

    Every check runs before the arrays are touched, so a truncated, stale
    or foreign-endianness file fails with one attributable error instead
    of garbage arrays.
    """
    try:
        size = os.path.getsize(path)
    except OSError as error:
        raise GraphError(f"snapshot {path}: cannot stat file: {error}") from None
    if size < HEADER_SIZE:
        raise _corrupt(
            path, f"file is {size} bytes, smaller than the {HEADER_SIZE}-byte header (truncated?)"
        )
    with open(path, "rb") as handle:
        raw = handle.read(HEADER_SIZE)
        (
            magic,
            sentinel,
            version,
            flags,
            header_crc,
            n,
            num_indices,
            labels_size,
            arrays_crc,
        ) = _HEADER_STRUCT.unpack(raw)
        if magic != SNAPSHOT_MAGIC:
            raise _corrupt(
                path, f"bad magic {magic!r}, expected {SNAPSHOT_MAGIC!r} (not a snapshot file?)"
            )
        if sentinel == _ORDER_SENTINEL_SWAPPED:
            raise _corrupt(
                path,
                "foreign byte order: the snapshot was written on a machine "
                "with the opposite endianness and cannot be mapped here",
            )
        if sentinel != _ORDER_SENTINEL:
            raise _corrupt(path, f"bad byte-order sentinel 0x{sentinel:08x}")
        if version != FORMAT_VERSION:
            raise _corrupt(
                path,
                f"format version {version} does not match this reader's "
                f"version {FORMAT_VERSION} (stale or future snapshot; "
                "regenerate it)",
            )
        if n < 0 or num_indices < 0 or labels_size < 0:
            raise _corrupt(
                path, f"negative counts (n={n}, num_indices={num_indices}, labels={labels_size})"
            )
        labels_blob = handle.read(labels_size)
    if len(labels_blob) != labels_size:
        raise _corrupt(
            path,
            f"labels blob truncated: expected {labels_size} bytes, "
            f"got {len(labels_blob)}",
        )
    counts = struct.pack("=qqq", n, num_indices, labels_size)
    expected_crc = zlib.crc32(labels_blob, zlib.crc32(counts))
    if header_crc != expected_crc:
        raise _corrupt(
            path,
            f"header checksum mismatch (stored 0x{header_crc:08x}, "
            f"computed 0x{expected_crc:08x}) — the file is corrupt",
        )
    arrays_offset = HEADER_SIZE + labels_size + _pad(labels_size)
    weighted = bool(flags & _FLAG_WEIGHTED)
    expected_size = arrays_offset + 8 * ((n + 1) + num_indices * (2 if weighted else 1))
    if size != expected_size:
        raise _corrupt(
            path,
            f"file is {size} bytes but the header describes {expected_size} "
            "(truncated or trailing garbage)",
        )
    return n, num_indices, flags, header_crc, arrays_crc, arrays_offset, labels_blob


def _decode_labels(path: Path, n: int, flags: int, labels_blob: bytes) -> List:
    if flags & _FLAG_IDENTITY_LABELS:
        return list(range(n))
    try:
        labels = json.loads(labels_blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise _corrupt(path, f"labels blob is not valid JSON: {error}") from None
    if not isinstance(labels, list) or len(labels) != n:
        raise _corrupt(
            path,
            f"labels blob holds {len(labels) if isinstance(labels, list) else type(labels).__name__} "
            f"entries, expected {n}",
        )
    return labels


def load_snapshot(path: PathLike, *, verify: bool = False) -> CSRGraph:
    """Attach a snapshot written by :func:`save_snapshot`.

    The arrays come back as read-only ``np.memmap`` views: zero-copy and
    O(1) in graph size, byte-identical to the arrays that were saved.

    Parameters
    ----------
    path:
        Snapshot file.
    verify:
        Also check the arrays checksum (reads the whole file once).

    Raises
    ------
    GraphError
        When numpy is not importable, or the file is missing, truncated,
        checksum-corrupt, written with a different format version or byte
        order — the error names the path and the mismatch.
    """
    path = Path(path)
    require_numpy(f"loading snapshot {path}")
    (n, num_indices, flags, header_crc, arrays_crc, arrays_offset,
     labels_blob) = _read_header(path)
    labels = _decode_labels(path, n, flags, labels_blob)
    weighted = bool(flags & _FLAG_WEIGHTED)
    indptr_off = arrays_offset
    indices_off = indptr_off + 8 * (n + 1)
    weights_off = indices_off + 8 * num_indices
    indptr = _np.memmap(path, dtype=_np.int64, mode="r", offset=indptr_off, shape=(n + 1,))
    indices = _np.memmap(path, dtype=_np.int64, mode="r", offset=indices_off, shape=(num_indices,))
    weights = (
        _np.memmap(path, dtype=_np.float64, mode="r", offset=weights_off, shape=(num_indices,))
        if weighted
        else None
    )
    if verify:
        # crc32 reads the mapped pages through the buffer protocol: no copy.
        crc = zlib.crc32(indptr)
        crc = zlib.crc32(indices, crc)
        if weights is not None:
            crc = zlib.crc32(weights, crc)
        if crc != arrays_crc:
            raise _corrupt(
                path,
                f"arrays checksum mismatch (stored 0x{arrays_crc:08x}, "
                f"computed 0x{crc:08x}) — the file is corrupt",
            )
    if len(indptr) != n + 1 or (n and int(indptr[n]) != num_indices):
        raise _corrupt(
            path,
            f"indptr is inconsistent with the header counts "
            f"(n={n}, num_indices={num_indices})",
        )
    snapshot = CSRGraph(indptr, indices, labels, weights)
    snapshot.source_path = str(path)
    snapshot.source_crcs = (header_crc, arrays_crc)
    return snapshot


#: Worker-side cache of file-attached snapshots, keyed by the pickled
#: ``(path, header)``: one snapshot per file, attached by the first chunk a
#: worker runs and reused by every later one.
_attached_snapshots: Dict[Tuple[str, Tuple], CSRGraph] = {}


def _attach_snapshot_file(path: str, header: Tuple) -> CSRGraph:
    """Unpickle a by-path snapshot (see :meth:`CSRGraph.__reduce__`).

    Maps ``path`` like :func:`load_snapshot`.  ``header`` is ``(n,
    num_indices, weighted, header_crc, arrays_crc)`` of the file the
    pickled snapshot was backed by; a file that was since overwritten with
    another graph — even one of the same size — fails loudly instead of
    handing the worker the wrong graph.
    """
    key = (path, header)
    snapshot = _attached_snapshots.get(key)
    if snapshot is None:
        snapshot = load_snapshot(path)
        if snapshot.file_header() != header:
            raise _corrupt(
                path,
                "file no longer matches the pickled snapshot (file "
                "(n, num_indices, weighted, header_crc, arrays_crc) = "
                f"{snapshot.file_header()}, pickled {header}) — was it "
                "overwritten while workers were using it?",
            )
        _attached_snapshots[key] = snapshot
    return snapshot


# ---------------------------------------------------------------------------
# Content digests
# ---------------------------------------------------------------------------
def content_digest(graph) -> str:
    """A hex digest identifying a graph's exact content and iteration order.

    Covers the node labels (in insertion order), each node's neighbour
    list (in adjacency order — the order every deterministic traversal
    scans) and, on weighted graphs, the float64 edge weights.  A dict
    :class:`~repro.graphs.graph.Graph` and any CSR snapshot of it (in-RAM
    or memory-mapped) produce the **same** digest, so
    content-addressed caches — the ``GroundTruthCache`` disk tier — hit
    across process restarts and across backends.
    """
    hasher = hashlib.sha256()

    def feed(token: str) -> None:
        hasher.update(token.encode("utf-8"))
        hasher.update(b"\x00")

    if isinstance(graph, CSRGraph):
        weighted = graph.weights is not None
        feed(f"n={graph.n}")
        feed(f"weighted={int(weighted)}")
        indptr, indices = graph.adjacency_lists()
        weights = graph.weight_list()
        labels = graph.labels
        for i, label in enumerate(labels):
            feed(f"\x01{label!r}")
            for pos in range(indptr[i], indptr[i + 1]):
                feed(repr(labels[indices[pos]]))
                if weighted:
                    feed(repr(float(weights[pos])))
    else:
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


# ---------------------------------------------------------------------------
# Rebuilding a dict Graph from a snapshot
# ---------------------------------------------------------------------------
def graph_from_snapshot(snapshot: CSRGraph) -> Graph:
    """Rebuild a dict :class:`Graph` equivalent to ``snapshot``.

    The rebuilt graph's node order and **per-node adjacency order** match
    the snapshot exactly, so ``CSRGraph.from_graph`` of the result is
    byte-identical to the snapshot and every traversal (BFS settle order,
    sigma accumulation, RNG consumption) is bit-identical to one on the
    graph the snapshot was taken from.  Edges are emitted in a linear
    extension of all per-node segment orders (a Kahn-style readiness
    queue over the segment fronts), built through the public mutation API
    so the version/journal protocol holds.

    Raises
    ------
    GraphError
        If the snapshot's adjacency is not symmetric (no consistent
        insertion sequence exists — a corrupt snapshot).
    """
    indptr, indices = snapshot.adjacency_lists()
    weights = snapshot.weight_list()
    labels = snapshot.labels
    n = snapshot.n
    graph = Graph()
    for label in labels:
        graph.add_node(label)
    cursor = [indptr[i] for i in range(n)]
    end = [indptr[i + 1] for i in range(n)]

    def front(i: int) -> int:
        return indices[cursor[i]]

    ready: "deque[Tuple[int, int]]" = deque()
    for i in range(n):
        if cursor[i] < end[i]:
            j = front(i)
            # Seed each mutually-front edge once: the scan reaches it from
            # both endpoints, so only the lower-index side enqueues it.
            if j > i and cursor[j] < end[j] and front(j) == i:
                ready.append((i, j))
    emitted = 0
    while ready:
        i, j = ready.popleft()
        pos = cursor[i]
        weight = 1.0 if weights is None else weights[pos]
        graph.add_edge(labels[i], labels[j], weight=weight)
        emitted += 1
        cursor[i] += 1
        cursor[j] += 1
        for x in (i, j):
            if cursor[x] < end[x]:
                y = front(x)
                # A pair becomes mutually-front at exactly one advance (the
                # later of its two), so this discovers each edge once.
                if cursor[y] < end[y] and front(y) == x and (y, x) != (i, j):
                    if front(x) == y and front(y) == x:
                        ready.append((x, y))
    if emitted != snapshot.m:
        raise GraphError(
            f"snapshot adjacency is not symmetric: reconstructed {emitted} "
            f"of {snapshot.m} edges (corrupt snapshot?)"
        )
    return graph


# ---------------------------------------------------------------------------
# Key-addressed snapshot directories
# ---------------------------------------------------------------------------
class SnapshotStore:
    """A directory of snapshots (plus JSON metadata) addressed by string keys.

    The datasets registry memoises generated graphs here
    (``<dir>/datasets``) and the ground-truth cache keeps its persistent
    tier next to it (``<dir>/ground_truth``); benches and tests build
    scratch stores directly.  Keys are sanitised to file-system-safe
    names (:func:`safe_key`); a key's graph lives in ``<key>.csr`` and its
    metadata in ``<key>.meta.json``.
    """

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """The snapshot file backing ``key``."""
        return self.directory / f"{safe_key(key)}.csr"

    def meta_path_for(self, key: str) -> Path:
        """The JSON side-car metadata file of ``key``."""
        return self.directory / f"{safe_key(key)}.meta.json"

    def contains(self, key: str) -> bool:
        """Whether a snapshot for ``key`` exists on disk."""
        return self.path_for(key).exists()

    def save(self, key: str, graph) -> Path:
        """Persist ``graph`` (a ``Graph`` or ``CSRGraph``) under ``key``."""
        return save_snapshot(graph, self.path_for(key))

    def load(self, key: str) -> Optional[CSRGraph]:
        """Attach the snapshot of ``key``, or ``None`` when absent.

        The arrays checksum is verified (``verify=True``): corrupt or
        stale-format files raise :class:`GraphError` (from
        :func:`load_snapshot`), and callers memoising *re-generatable*
        data may catch it and rebuild.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        return load_snapshot(path, verify=True)

    def save_meta(self, key: str, meta: Dict) -> Path:
        """Persist a JSON metadata document next to ``key``'s snapshot."""
        return atomic_write(
            self.meta_path_for(key), (json.dumps(meta).encode("utf-8"),)
        )

    def load_meta(self, key: str) -> Optional[Dict]:
        """Load ``key``'s metadata document, or ``None`` when it is absent,
        unreadable or not a JSON object."""
        try:
            with open(self.meta_path_for(key), "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except (OSError, ValueError):
            return None
        return meta if isinstance(meta, dict) else None

    def keys(self) -> Iterator[str]:
        """Iterate the (sanitised) keys present in the store."""
        if not self.directory.exists():
            return iter(())
        return (path.name[: -len(".csr")] for path in sorted(self.directory.glob("*.csr")))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SnapshotStore({str(self.directory)!r})"


def safe_key(key: str) -> str:
    """Sanitise a store key to a file-system-safe name (collision-hashed).

    Alphanumerics and ``-_.@#`` pass through; anything else is replaced
    and a short content hash is appended so distinct keys cannot collide
    after sanitisation.
    """
    safe = "".join(ch if ch.isalnum() or ch in "-_.@#" else "_" for ch in key)
    if safe == key:
        return safe
    suffix = hashlib.sha256(key.encode("utf-8")).hexdigest()[:8]
    return f"{safe}-{suffix}"
