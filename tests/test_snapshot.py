"""On-disk CSR snapshot store: format, knobs, handoff, persistence.

Covers the PR-10 out-of-core subsystem end to end:

* save/load roundtrip **byte-identity** of the mapped arrays against
  ``CSRGraph.from_graph`` (``tobytes`` asserts), on unweighted, weighted,
  identity- and string-labelled graphs, with and without ``verify``;
* corruption safety — truncation, bad magic, foreign endianness, stale
  format version, header/arrays checksum damage all raise ``GraphError``
  naming the path and the mismatch, and corrupt store entries are
  rebuilt, never served;
* the ``snapshot_dir`` knob protocol (arg > setter > env > default,
  env-mirrored setter);
* ``graph_from_snapshot`` adjacency-order-exact reconstruction and
  ``content_digest`` backend-independence;
* atomic, fsynced writes of every store file (``store.atomic_write``) and
  metadata that is not a JSON object read as missing;
* the datasets-registry memoisation, snapshot adoption into ``as_csr``,
  and how a snapshot pickles to workers: by file path, or by value;
* the ``GroundTruthCache`` disk tiers, including bit-identical reuse
  across a real process boundary, recomputation of truncated files and
  distinct files for keys that sanitise alike.

The CSR parts need numpy (``requires_numpy``); the numpy boundary itself
is in ``tests/test_numpy_boundary.py``.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from repro.centrality.brandes import betweenness_centrality
from repro.datasets import GroundTruthCache, load, load_csr
from repro.datasets.ground_truth import exact_betweenness
from repro.datasets.registry import dataset_key
from repro.errors import GraphError
from repro.experiments.config import ExperimentConfig
from repro.graphs import csr as csr_module
from repro.graphs import store
from repro.graphs.csr import CSRGraph, adopt_snapshot, as_csr, effective_backend
from repro.graphs.generators import path_graph, star_graph
from repro.graphs.graph import Graph
from repro.graphs.store import (
    SnapshotStore,
    content_digest,
    graph_from_snapshot,
    load_snapshot,
    save_snapshot,
)

def _bytes(arr) -> bytes:
    """Raw bytes of an int64/float64 array (``b""`` for ``None``)."""
    if arr is None:
        return b""
    import numpy as np

    return np.asarray(arr).tobytes()


def _snapshot_bytes(csr: CSRGraph) -> bytes:
    return _bytes(csr.indptr) + _bytes(csr.indices) + _bytes(csr.weights)


def _ordered_graph(label=str) -> Graph:
    # Insertion order is deliberately not sorted: node b's adjacency is
    # [c, a], which a naive label-order rebuild would flatten to [a, c].
    graph = Graph()
    for u, v in [("a", "c"), ("b", "c"), ("a", "b"), ("c", "d"), ("d", "e")]:
        graph.add_edge(label(u), label(v))
    return graph


def _weighted_graph() -> Graph:
    graph = Graph()
    graph.add_edge(0, 1, weight=2.5)
    graph.add_edge(1, 2, weight=0.125)
    graph.add_edge(0, 2)  # unit edge inside a weighted graph
    graph.add_edge(2, 3, weight=7.0)
    return graph


@pytest.fixture(autouse=True)
def _reset_knobs():
    yield
    store.set_default_snapshot_dir(None)


# ----------------------------------------------------------------------
# Roundtrip byte-identity
# ----------------------------------------------------------------------
@pytest.mark.requires_numpy
class TestRoundtrip:
    @pytest.mark.parametrize("verify", [False, True])
    def test_unweighted_roundtrip_bytes(self, tmp_path, verify):
        graph = _ordered_graph()
        csr = CSRGraph.from_graph(graph)
        path = tmp_path / "g.csr"
        returned = csr.save(path)
        assert returned == path
        assert csr.source_path == str(path)
        loaded = CSRGraph.load(path, verify=verify)
        assert loaded.labels == csr.labels
        assert loaded.n == csr.n and loaded.m == csr.m
        assert loaded.weights is None
        assert loaded.source_path == str(path)
        assert _snapshot_bytes(loaded) == _snapshot_bytes(csr)

    @pytest.mark.parametrize("verify", [False, True])
    def test_weighted_roundtrip_bytes(self, tmp_path, verify):
        csr = CSRGraph.from_graph(_weighted_graph())
        path = tmp_path / "w.csr"
        csr.save(path)
        loaded = CSRGraph.load(path, verify=verify)
        assert loaded.weights is not None
        assert _snapshot_bytes(loaded) == _snapshot_bytes(csr)
        assert loaded.weight_list() == csr.weight_list()

    def test_identity_labels_skip_blob(self, tmp_path):
        csr = CSRGraph.from_graph(Graph.from_edges([(0, 1), (1, 2)]))
        assert csr.identity_labels
        path = tmp_path / "ident.csr"
        csr.save(path)
        loaded = CSRGraph.load(path, verify=True)
        assert loaded.identity_labels
        assert loaded.labels == [0, 1, 2]
        assert _snapshot_bytes(loaded) == _snapshot_bytes(csr)

    def test_empty_graph(self, tmp_path):
        csr = CSRGraph.from_graph(Graph())
        path = tmp_path / "empty.csr"
        csr.save(path)
        loaded = CSRGraph.load(path, verify=True)
        assert loaded.n == 0 and loaded.m == 0

    def test_isolated_nodes(self, tmp_path):
        graph = Graph()
        graph.add_node("x")
        graph.add_node("y")
        graph.add_edge("y", "z")
        csr = CSRGraph.from_graph(graph)
        path = tmp_path / "iso.csr"
        csr.save(path)
        loaded = CSRGraph.load(path, verify=True)
        assert loaded.labels == ["x", "y", "z"]
        assert _snapshot_bytes(loaded) == _snapshot_bytes(csr)

    def test_mmap_views_are_readonly_memmaps(self, tmp_path):
        import numpy as np

        csr = CSRGraph.from_graph(_weighted_graph())
        path = tmp_path / "w.csr"
        csr.save(path)
        loaded = CSRGraph.load(path)
        assert isinstance(loaded.indptr, np.memmap)
        assert isinstance(loaded.indices, np.memmap)
        assert isinstance(loaded.weights, np.memmap)
        with pytest.raises((ValueError, RuntimeError)):
            loaded.indices[0] = 99

    def test_save_accepts_dict_graph(self, tmp_path):
        graph = _ordered_graph()
        path = save_snapshot(graph, tmp_path / "g.csr")
        assert _snapshot_bytes(load_snapshot(path, verify=True)) == _snapshot_bytes(
            as_csr(graph)
        )
        # Saving armed the graph's own cached snapshot for the file handoff.
        assert as_csr(graph).source_path == str(path)

    def test_effective_backend_accepts_loaded_snapshot(self, tmp_path):
        csr = CSRGraph.from_graph(_ordered_graph())
        path = tmp_path / "g.csr"
        csr.save(path)
        loaded = CSRGraph.load(path)
        assert effective_backend(loaded) == "csr"
        assert as_csr(loaded) is loaded

    def test_unserialisable_labels_raise(self, tmp_path):
        graph = Graph.from_edges([((1, 2), (3, 4))])  # tuple labels
        with pytest.raises(GraphError, match="not an int or str"):
            save_snapshot(graph, tmp_path / "bad.csr")


# ----------------------------------------------------------------------
# Corruption safety
# ----------------------------------------------------------------------
def _patch_byte(path: Path, offset: int, value: bytes) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        handle.write(value)


@pytest.mark.requires_numpy
class TestCorruption:
    @pytest.fixture
    def snapshot_path(self, tmp_path) -> Path:
        path = tmp_path / "g.csr"
        save_snapshot(CSRGraph.from_graph(_weighted_graph()), path)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphError, match="cannot stat"):
            load_snapshot(tmp_path / "nope.csr")

    def test_truncated_header(self, snapshot_path):
        with open(snapshot_path, "r+b") as handle:
            handle.truncate(10)
        with pytest.raises(GraphError) as excinfo:
            load_snapshot(snapshot_path)
        assert str(snapshot_path) in str(excinfo.value)
        assert "truncated" in str(excinfo.value)

    def test_truncated_arrays(self, snapshot_path):
        size = os.path.getsize(snapshot_path)
        with open(snapshot_path, "r+b") as handle:
            handle.truncate(size - 8)
        with pytest.raises(GraphError, match="header describes"):
            load_snapshot(snapshot_path)

    def test_trailing_garbage(self, snapshot_path):
        with open(snapshot_path, "ab") as handle:
            handle.write(b"\0" * 16)
        with pytest.raises(GraphError, match="header describes"):
            load_snapshot(snapshot_path)

    def test_bad_magic(self, snapshot_path):
        _patch_byte(snapshot_path, 0, b"NOTACSRF")
        with pytest.raises(GraphError, match="bad magic"):
            load_snapshot(snapshot_path)

    def test_foreign_endianness(self, snapshot_path):
        # A foreign-endianness writer would store the sentinel byte-swapped.
        swapped = struct.pack("=I", 0x01020304)[::-1]
        _patch_byte(snapshot_path, 8, swapped)
        with pytest.raises(GraphError, match="foreign byte order"):
            load_snapshot(snapshot_path)

    def test_stale_format_version(self, snapshot_path):
        _patch_byte(snapshot_path, 12, struct.pack("=I", store.FORMAT_VERSION + 1))
        with pytest.raises(GraphError) as excinfo:
            load_snapshot(snapshot_path)
        message = str(excinfo.value)
        assert "format version" in message and str(snapshot_path) in message

    def test_header_checksum(self, snapshot_path):
        # Flip a count byte: the header CRC must catch it.
        _patch_byte(snapshot_path, 24, b"\x09")
        with pytest.raises(GraphError, match="checksum mismatch"):
            load_snapshot(snapshot_path)

    @pytest.mark.parametrize("array", ["indptr", "indices", "weights"])
    def test_arrays_checksum_covers_every_array(self, tmp_path, array):
        # One flipped byte inside each array: a plain load skips the arrays
        # checksum (the O(1) attach), verify=True and store hits check it.
        snap = SnapshotStore(tmp_path)
        csr = CSRGraph.from_graph(_weighted_graph())
        path = snap.save("w", csr)
        rows, slots = len(csr.indptr), len(csr.indices)
        arrays_start = os.path.getsize(path) - 8 * (rows + 2 * slots)
        first = {"indptr": 0, "indices": rows, "weights": rows + slots}[array]
        # The low byte of the array's second entry.
        _patch_byte(path, arrays_start + 8 * (first + 1), b"\xab")
        load_snapshot(path)
        with pytest.raises(GraphError, match="arrays checksum mismatch"):
            load_snapshot(path, verify=True)
        with pytest.raises(GraphError, match="arrays checksum mismatch"):
            snap.load("w")

    def test_verify_reads_the_mapped_arrays_without_copying(
        self, snapshot_path, monkeypatch
    ):
        import numpy as np

        def no_copy(self, *args, **kwargs):
            raise AssertionError("verify must not copy the mapped arrays")

        monkeypatch.setattr(np.memmap, "tobytes", no_copy, raising=False)
        loaded = load_snapshot(snapshot_path, verify=True)
        assert loaded.weights is not None


# ----------------------------------------------------------------------
# Knob protocol
# ----------------------------------------------------------------------
class TestKnobs:
    def test_snapshot_dir_precedence(self, tmp_path, monkeypatch):
        monkeypatch.delenv(store.SNAPSHOT_DIR_ENV_VAR, raising=False)
        assert store.resolve_snapshot_dir() is None
        monkeypatch.setenv(store.SNAPSHOT_DIR_ENV_VAR, str(tmp_path / "env"))
        assert store.resolve_snapshot_dir() == tmp_path / "env"
        store.set_default_snapshot_dir(tmp_path / "setter")
        assert store.resolve_snapshot_dir() == tmp_path / "setter"
        assert os.environ[store.SNAPSHOT_DIR_ENV_VAR] == str(tmp_path / "setter")
        assert store.resolve_snapshot_dir(tmp_path / "arg") == tmp_path / "arg"
        store.set_default_snapshot_dir(None)
        assert store.resolve_snapshot_dir() == tmp_path / "env"

    def test_snapshot_dir_empty_setter_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            store.set_default_snapshot_dir("   ")

    def test_experiment_config_fields(self, tmp_path):
        config = ExperimentConfig(snapshot_dir=str(tmp_path))
        assert config.snapshot_dir == str(tmp_path)
        with pytest.raises(ValueError, match="snapshot_dir"):
            ExperimentConfig(snapshot_dir="  ")

    @pytest.mark.requires_numpy
    def test_runner_applies_snapshot_config(self, tmp_path):
        from repro.experiments.runner import ExperimentRunner

        config = ExperimentConfig(
            datasets=("karate",), scale=1.0, snapshot_dir=str(tmp_path)
        )
        runner = ExperimentRunner(config)
        try:
            runner.dataset("karate")
            assert store.resolve_snapshot_dir() == tmp_path
            assert (tmp_path / "datasets").is_dir()
        finally:
            store.set_default_snapshot_dir(None)

    def test_cli_flags(self, tmp_path):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["rank", "--snapshot-dir", str(tmp_path)]
        )
        assert args.snapshot_dir == str(tmp_path)


# ----------------------------------------------------------------------
# Reconstruction and digests
# ----------------------------------------------------------------------
@pytest.mark.requires_numpy
class TestGraphFromSnapshot:
    def test_preserves_adjacency_order(self):
        graph = _ordered_graph()
        csr = CSRGraph.from_graph(graph)
        rebuilt = graph_from_snapshot(csr)
        assert list(rebuilt.nodes()) == list(graph.nodes())
        for node in graph.nodes():
            assert list(rebuilt.neighbors(node)) == list(graph.neighbors(node))
        assert _snapshot_bytes(CSRGraph.from_graph(rebuilt)) == _snapshot_bytes(csr)

    def test_weighted_reconstruction(self):
        graph = _weighted_graph()
        csr = CSRGraph.from_graph(graph)
        rebuilt = graph_from_snapshot(csr)
        again = CSRGraph.from_graph(rebuilt)
        assert _snapshot_bytes(again) == _snapshot_bytes(csr)
        assert again.weight_list() == csr.weight_list()

    def test_roundtrip_through_disk(self, tmp_path):
        graph = _ordered_graph()
        csr = CSRGraph.from_graph(graph)
        path = tmp_path / "g.csr"
        csr.save(path)
        rebuilt = graph_from_snapshot(CSRGraph.load(path))
        assert _snapshot_bytes(CSRGraph.from_graph(rebuilt)) == _snapshot_bytes(csr)

    def test_asymmetric_snapshot_rejected(self):
        csr = CSRGraph.from_graph(Graph.from_edges([(0, 1), (1, 2)]))
        # Break symmetry: claim node 0 has neighbour 2 instead of 1.
        indices = list(csr.indices)
        indices[0] = 2
        import numpy as np

        bad = CSRGraph(np.asarray(csr.indptr), np.asarray(indices), csr.labels)
        with pytest.raises(GraphError, match="not symmetric"):
            graph_from_snapshot(bad)

    def test_dataset_scale_reconstruction(self):
        graph = load("flickr", scale=0.1, seed=3).graph
        csr = CSRGraph.from_graph(graph)
        rebuilt = graph_from_snapshot(csr)
        assert _snapshot_bytes(CSRGraph.from_graph(rebuilt)) == _snapshot_bytes(csr)


class TestContentDigest:
    @pytest.mark.requires_numpy
    def test_graph_and_snapshot_agree(self, tmp_path):
        graph = _ordered_graph()
        csr = CSRGraph.from_graph(graph)
        path = tmp_path / "g.csr"
        csr.save(path)
        digests = {
            content_digest(graph),
            content_digest(csr),
            content_digest(CSRGraph.load(path)),
        }
        assert len(digests) == 1

    @pytest.mark.requires_numpy
    def test_weighted_graph_and_snapshot_agree(self):
        graph = _weighted_graph()
        assert content_digest(graph) == content_digest(CSRGraph.from_graph(graph))

    def test_content_changes_digest(self):
        base = _ordered_graph()
        other = _ordered_graph()
        other.add_edge("a", "e")
        assert content_digest(base) != content_digest(other)
        weighted = Graph()
        weighted.add_edge("a", "b", weight=2.0)
        unweighted = Graph.from_edges([("a", "b")])
        assert content_digest(weighted) != content_digest(unweighted)

    def test_adjacency_order_matters(self):
        # Same edge set, different insertion order => different traversal
        # order => different digest (it addresses *bit-identical* truth).
        one = Graph.from_edges([(0, 1), (0, 2)])
        two = Graph.from_edges([(0, 2), (0, 1)])
        assert content_digest(one) != content_digest(two)


# ----------------------------------------------------------------------
# SnapshotStore
# ----------------------------------------------------------------------
def _count_fsyncs(monkeypatch):
    """Record every ``os.fsync`` call (and still sync)."""
    synced = []
    fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or fsync(fd))
    return synced


class TestSnapshotStore:
    @pytest.mark.requires_numpy
    def test_save_load_contains(self, tmp_path):
        snap = SnapshotStore(tmp_path / "store")
        graph = _ordered_graph()
        assert snap.load("k") is None
        assert not snap.contains("k")
        snap.save("k", graph)
        assert snap.contains("k")
        loaded = snap.load("k")
        assert _snapshot_bytes(loaded) == _snapshot_bytes(as_csr(graph))
        assert list(snap.keys()) == ["k"]

    def test_meta_sidecar(self, tmp_path):
        snap = SnapshotStore(tmp_path)
        assert snap.load_meta("k") is None
        snap.save_meta("k", {"description": "x", "n": 3})
        assert snap.load_meta("k") == {"description": "x", "n": 3}

    def test_key_sanitisation_is_collision_safe(self, tmp_path):
        snap = SnapshotStore(tmp_path)
        a, b = "k/1", "k:1"  # both sanitise to k_1 without the hash suffix
        assert snap.path_for(a) != snap.path_for(b)
        assert snap.path_for("plain@1.0#0").name == "plain@1.0#0.csr"

    def test_failed_meta_write_leaves_no_temp_file(self, tmp_path):
        with pytest.raises(TypeError):
            SnapshotStore(tmp_path).save_meta("k", {"x": object()})
        assert list(tmp_path.iterdir()) == []

    def test_meta_that_is_not_an_object_reads_as_missing(self, tmp_path):
        snap = SnapshotStore(tmp_path)
        snap.meta_path_for("k").write_text("[1, 2]")
        assert snap.load_meta("k") is None

    def test_interrupted_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "f.bin"
        store.atomic_write(path, (b"old",))

        def chunks():
            yield b"new"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            store.atomic_write(path, chunks())
        assert path.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [path]

    def test_meta_and_truth_writes_fsync_once_each(self, tmp_path, monkeypatch):
        synced = _count_fsyncs(monkeypatch)
        SnapshotStore(tmp_path).save_meta("k", {"n": 3})
        assert len(synced) == 1
        cache = GroundTruthCache(cache_dir=tmp_path / "keys", digest_dir=tmp_path / "gt")
        cache.get("p5", path_graph(5))
        assert len(synced) == 3  # the key file and the digest file

    @pytest.mark.requires_numpy
    def test_snapshot_write_fsyncs_once(self, tmp_path, monkeypatch):
        synced = _count_fsyncs(monkeypatch)
        save_snapshot(_ordered_graph(), tmp_path / "g.csr")
        assert len(synced) == 1


# ----------------------------------------------------------------------
# Registry memoisation
# ----------------------------------------------------------------------
@pytest.mark.requires_numpy
class TestRegistryMemoisation:
    def test_store_roundtrip_is_bit_identical(self, tmp_path):
        fresh = load("flickr", scale=0.1, seed=3)
        first = load("flickr", scale=0.1, seed=3, snapshot_dir=str(tmp_path))
        hit = load("flickr", scale=0.1, seed=3, snapshot_dir=str(tmp_path))
        key = dataset_key("flickr", 0.1, 3)
        assert (tmp_path / "datasets" / f"{key}.csr").exists()
        for dataset in (first, hit):
            assert list(dataset.graph.nodes()) == list(fresh.graph.nodes())
            assert _snapshot_bytes(CSRGraph.from_graph(dataset.graph)) == (
                _snapshot_bytes(CSRGraph.from_graph(fresh.graph))
            )
            assert dataset.description == fresh.description
            assert dataset.paper_reference == fresh.paper_reference

    def test_coordinates_roundtrip(self, tmp_path):
        fresh = load("usa-road", scale=0.3, seed=1)
        load("usa-road", scale=0.3, seed=1, snapshot_dir=str(tmp_path))
        hit = load("usa-road", scale=0.3, seed=1, snapshot_dir=str(tmp_path))
        assert hit.coordinates == fresh.coordinates

    def test_store_hit_adopts_snapshot(self, tmp_path):
        load("karate", snapshot_dir=str(tmp_path))
        hit = load("karate", snapshot_dir=str(tmp_path))
        csr = as_csr(hit.graph)
        assert csr.source_path is not None
        import numpy as np

        assert isinstance(csr.indptr, np.memmap)

    def test_load_csr_store_hit(self, tmp_path):
        fresh = as_csr(load("karate").graph)
        csr = load_csr("karate", snapshot_dir=str(tmp_path))
        assert csr.source_path is not None
        assert _snapshot_bytes(csr) == _snapshot_bytes(fresh)
        again = load_csr("karate", snapshot_dir=str(tmp_path))
        assert _snapshot_bytes(again) == _snapshot_bytes(fresh)

    def test_load_csr_without_store(self):
        csr = load_csr("karate")
        assert _snapshot_bytes(csr) == _snapshot_bytes(as_csr(load("karate").graph))

    @pytest.mark.parametrize("loader", [load, load_csr], ids=["load", "load_csr"])
    def test_corrupt_store_entry_is_rebuilt(self, tmp_path, loader):
        load("karate", snapshot_dir=str(tmp_path))
        key = dataset_key("karate", 1.0, 0)
        path = tmp_path / "datasets" / f"{key}.csr"
        with open(path, "r+b") as handle:
            handle.truncate(40)
        hit = loader("karate", snapshot_dir=str(tmp_path))
        assert (hit.graph.number_of_nodes() if loader is load else hit.n) == 34
        # The corrupt file was overwritten with a good snapshot.
        reloaded = load_snapshot(path, verify=True)
        assert reloaded.n == 34

    @pytest.mark.parametrize("loader", [load, load_csr], ids=["load", "load_csr"])
    @pytest.mark.parametrize("swap", ["within-segment", "asymmetric"])
    def test_same_size_corruption_is_rebuilt(self, tmp_path, loader, swap):
        # Two swapped int64 entries of the stored indices: the file keeps
        # its size and header, so only the arrays checksum catches them.
        # Within one node's segment the graph stays symmetric with another
        # adjacency order; across two segments it turns asymmetric.
        fresh = CSRGraph.from_graph(load("usa-road", scale=0.3, seed=7).graph)
        load("usa-road", scale=0.3, seed=7, snapshot_dir=str(tmp_path))
        path = tmp_path / "datasets" / f"{dataset_key('usa-road', 0.3, 7)}.csr"
        indptr, indices = fresh.adjacency_lists()
        a = indptr[0]
        if swap == "within-segment":
            b = a + 1
        else:
            b = next(
                indptr[j] for j in range(1, fresh.n)
                if indices[indptr[j]] not in indices[indptr[0]:indptr[1]]
                and indices[indptr[j]] != 0
            )
        assert indices[a] != indices[b]
        start = os.path.getsize(path) - 8 * len(indices)
        _patch_byte(path, start + 8 * a, struct.pack("=q", indices[b]))
        _patch_byte(path, start + 8 * b, struct.pack("=q", indices[a]))
        served = loader("usa-road", scale=0.3, seed=7, snapshot_dir=str(tmp_path))
        if loader is load:
            served = CSRGraph.from_graph(served.graph)
        assert _snapshot_bytes(served) == _snapshot_bytes(fresh)
        # The entry was rewritten with the good snapshot.
        rewritten = load_snapshot(path, verify=True)
        assert _snapshot_bytes(rewritten) == _snapshot_bytes(fresh)

    def test_meta_that_is_not_an_object_is_rebuilt(self, tmp_path):
        load("karate", snapshot_dir=str(tmp_path))
        key = dataset_key("karate", 1.0, 0)
        meta = tmp_path / "datasets" / f"{key}.meta.json"
        meta.write_text("[1, 2]")
        hit = load("karate", snapshot_dir=str(tmp_path))
        assert hit.graph.number_of_nodes() == 34
        assert isinstance(json.loads(meta.read_text()), dict)

    def test_knob_driven_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv(store.SNAPSHOT_DIR_ENV_VAR, str(tmp_path))
        load("karate")
        assert (tmp_path / "datasets").is_dir()

    def test_mutating_a_store_hit_patches_copy_on_write(self, tmp_path):
        load("karate", snapshot_dir=str(tmp_path))
        hit = load("karate", snapshot_dir=str(tmp_path))
        adopted = as_csr(hit.graph)
        before = _snapshot_bytes(adopted)
        hit.graph.add_edge(0, 9) if 9 not in set(hit.graph.neighbors(0)) else None
        patched = as_csr(hit.graph)
        assert patched is not adopted
        assert patched.source_path is None  # fresh in-RAM arrays
        assert _snapshot_bytes(adopted) == before  # mapped file untouched
        assert _snapshot_bytes(patched) == _snapshot_bytes(
            CSRGraph.from_graph(hit.graph)
        )


# ----------------------------------------------------------------------
# Worker handoff: how a snapshot pickles
# ----------------------------------------------------------------------
def _weighted_labelled_graph(last_weight: float = 3.25) -> Graph:
    graph = Graph()
    graph.add_edge("x", "y", weight=0.5)
    graph.add_edge("y", "z")
    graph.add_edge("z", "x", weight=last_weight)
    return graph


_PICKLE_GRAPHS = [
    pytest.param(lambda: path_graph(6), id="unit-identity"),
    pytest.param(_ordered_graph, id="unit-labelled"),
    pytest.param(_weighted_graph, id="weighted-identity"),
    pytest.param(_weighted_labelled_graph, id="weighted-labelled"),
]

#: (first graph, a same-size graph overwriting it), named after the CRC
#: that differs: the path vs the star centred at 0 (indices), one weight
#: changed (weights), the same adjacency under other labels (header).
_SAME_SIZE_OVERWRITES = [
    pytest.param(lambda: path_graph(5), lambda: star_graph(4), id="indices"),
    pytest.param(
        _weighted_labelled_graph,
        lambda: _weighted_labelled_graph(last_weight=4.25),
        id="weights",
    ),
    pytest.param(_ordered_graph, lambda: _ordered_graph(str.upper), id="labels"),
]


@pytest.mark.requires_numpy
class TestSnapshotPickle:
    """``CSRGraph.__reduce__``: by file path while a backing file exists,
    else by value — arrays and labels only."""

    @pytest.mark.parametrize("make_graph", _PICKLE_GRAPHS)
    def test_by_value_round_trip(self, make_graph):
        csr = CSRGraph.from_graph(make_graph())
        fn, args = csr.__reduce__()
        assert fn is csr_module._snapshot_from_arrays
        restored = pickle.loads(pickle.dumps(csr))
        assert _snapshot_bytes(restored) == _snapshot_bytes(csr)
        assert restored.labels == csr.labels
        assert restored.index == csr.index
        assert restored.is_weighted == csr.is_weighted

    @pytest.mark.parametrize("make_graph", _PICKLE_GRAPHS)
    def test_by_value_ships_arrays_and_labels_only(self, make_graph):
        csr = CSRGraph.from_graph(make_graph())
        csr.adjacency_lists()  # warm every list cache first
        csr.weight_list()
        _fn, args = csr.__reduce__()
        indptr, indices, labels, weights = args
        assert indptr is csr.indptr and indices is csr.indices
        assert weights is csr.weights
        assert labels is (None if csr.identity_labels else csr.labels)
        raw = len(_snapshot_bytes(csr))
        assert len(pickle.dumps(csr)) <= raw + len(pickle.dumps(labels)) + 1024

    def test_file_backed_pickles_by_path(self, tmp_path):
        csr = load_csr("flickr", scale=0.1, seed=3, snapshot_dir=str(tmp_path))
        fn, _args = csr.__reduce__()
        assert fn is store._attach_snapshot_file
        blob = pickle.dumps(csr)
        assert len(blob) < 512  # path + header, not the arrays
        assert _snapshot_bytes(pickle.loads(blob)) == _snapshot_bytes(csr)

    @pytest.mark.parametrize("make_graph", _PICKLE_GRAPHS)
    def test_saved_snapshot_pickles_by_path(self, tmp_path, make_graph):
        csr = CSRGraph.from_graph(make_graph())
        save_snapshot(csr, tmp_path / "g.csr")
        blob = pickle.dumps(csr)
        assert len(blob) < 512
        restored = pickle.loads(blob)
        assert _snapshot_bytes(restored) == _snapshot_bytes(csr)
        assert restored.labels == csr.labels
        assert restored.is_weighted == csr.is_weighted

    @pytest.mark.parametrize("verify", [False, True])
    def test_save_and_load_record_the_file_crcs(self, tmp_path, verify):
        csr = CSRGraph.from_graph(_weighted_labelled_graph())
        assert csr.source_crcs is None  # nothing backs it yet
        path = save_snapshot(csr, tmp_path / "w.csr")
        fields = store._HEADER_STRUCT.unpack_from(path.read_bytes())
        header_crc, arrays_crc = fields[4], fields[8]
        assert csr.source_crcs == (header_crc, arrays_crc)
        loaded = load_snapshot(path, verify=verify)
        assert loaded.source_crcs == (header_crc, arrays_crc)
        assert loaded.file_header() == csr.file_header()

    @pytest.mark.parametrize("make_graph", _PICKLE_GRAPHS)
    def test_attach_maps_the_file(self, tmp_path, make_graph):
        import numpy as np

        csr = CSRGraph.from_graph(make_graph())
        save_snapshot(csr, tmp_path / "g.csr")
        restored = pickle.loads(pickle.dumps(csr))
        arrays = [restored.indptr, restored.indices]
        assert (restored.weights is None) is (csr.weights is None)
        if csr.weights is not None:
            arrays.append(restored.weights)
        assert all(isinstance(array, np.memmap) for array in arrays)
        assert not any(array.flags.writeable for array in arrays)
        assert _snapshot_bytes(restored) == _snapshot_bytes(csr)

    def test_deleted_file_falls_back_to_by_value(self, tmp_path):
        csr = load_csr("karate", snapshot_dir=str(tmp_path))
        os.unlink(csr.source_path)
        fn, _args = csr.__reduce__()
        assert fn is csr_module._snapshot_from_arrays
        assert _snapshot_bytes(pickle.loads(pickle.dumps(csr))) == _snapshot_bytes(csr)

    def test_worker_attach_is_cached_per_file(self, tmp_path):
        csr = load_csr("karate", snapshot_dir=str(tmp_path))
        args = (csr.source_path, csr.file_header())
        first = store._attach_snapshot_file(*args)
        second = store._attach_snapshot_file(*args)
        assert first is second

    def test_attach_cache_keys_on_the_file_crcs(self, tmp_path):
        # A file rewritten with a graph of the same size is a new cache
        # entry: the worker attaches the new file, not the cached old one.
        target = tmp_path / "g.csr"
        first = CSRGraph.from_graph(path_graph(5))
        save_snapshot(first, target)
        attached_first = pickle.loads(pickle.dumps(first))
        second = CSRGraph.from_graph(star_graph(4))
        save_snapshot(second, target)
        assert second.file_header()[:3] == first.file_header()[:3]
        attached_second = pickle.loads(pickle.dumps(second))
        assert attached_second is not attached_first
        assert _snapshot_bytes(attached_second) == _snapshot_bytes(second)
        assert _snapshot_bytes(attached_first) == _snapshot_bytes(first)

    def test_attach_header_mismatch_raises(self, tmp_path):
        csr = load_csr("karate", snapshot_dir=str(tmp_path))
        n, num_indices, weighted, header_crc, arrays_crc = csr.file_header()
        with pytest.raises(GraphError, match="no longer matches"):
            store._attach_snapshot_file(
                csr.source_path,
                (n + 1, num_indices, weighted, header_crc, arrays_crc),
            )

    @pytest.mark.parametrize("make_first,make_second", _SAME_SIZE_OVERWRITES)
    def test_overwritten_file_of_the_same_size_raises(
        self, tmp_path, make_first, make_second
    ):
        # Each pair shares n, index count and weightedness, so only a CRC
        # tells the two files apart.
        target = tmp_path / "g.csr"
        first = CSRGraph.from_graph(make_first())
        save_snapshot(first, target)
        second = CSRGraph.from_graph(make_second())
        save_snapshot(second, target)
        assert second.file_header()[:3] == first.file_header()[:3]
        blob = pickle.dumps(first)
        with pytest.raises(GraphError, match="no longer matches") as excinfo:
            pickle.loads(blob)
        assert str(target) in str(excinfo.value)

    @pytest.mark.parametrize("start_method", [None, "spawn"])
    def test_worker_equivalence_on_adopted_snapshot(
        self, tmp_path, monkeypatch, start_method
    ):
        if start_method is not None:
            monkeypatch.setenv("REPRO_START_METHOD", start_method)
        baseline = betweenness_centrality(
            load("flickr", scale=0.1, seed=3).graph, normalized=True, workers=0
        )
        load("flickr", scale=0.1, seed=3, snapshot_dir=str(tmp_path))
        hit = load("flickr", scale=0.1, seed=3, snapshot_dir=str(tmp_path))
        assert as_csr(hit.graph).source_path is not None  # pickles by path
        serial = betweenness_centrality(hit.graph, normalized=True, workers=0)
        pooled = betweenness_centrality(hit.graph, normalized=True, workers=2)
        assert serial == pooled == baseline


# ----------------------------------------------------------------------
# Persistent ground truth
# ----------------------------------------------------------------------
class TestPersistentGroundTruth:
    def test_digest_tier_reuses_across_cache_instances(self, tmp_path):
        graph = load("karate").graph
        first = GroundTruthCache(digest_dir=tmp_path / "gt")
        truth = first.get("karate", graph)
        files = list((tmp_path / "gt").glob("bt_*_hop.json"))
        assert len(files) == 1
        # A different cache instance, different key, same content: digest hit.
        second = GroundTruthCache(digest_dir=tmp_path / "gt")
        reloaded = second.get("another-key", load("karate").graph)
        assert reloaded == truth

    @pytest.mark.requires_numpy
    def test_digest_tier_derives_from_snapshot_dir_knob(self, tmp_path):
        store.set_default_snapshot_dir(tmp_path)
        try:
            cache = GroundTruthCache()
            cache.get("karate", load("karate").graph)
            assert list((tmp_path / "ground_truth").glob("bt_*.json"))
        finally:
            store.set_default_snapshot_dir(None)

    def test_no_store_means_no_files(self, tmp_path, monkeypatch):
        monkeypatch.delenv(store.SNAPSHOT_DIR_ENV_VAR, raising=False)
        cache = GroundTruthCache()
        cache.get("karate", load("karate").graph)
        assert not list(tmp_path.iterdir())

    def test_metric_routes_the_digest_file(self, tmp_path):
        from repro.graphs.sssp import set_default_weighted

        graph = load("ba-weighted", scale=0.2, seed=5).graph
        cache = GroundTruthCache(digest_dir=tmp_path)
        weighted_truth = cache.get("w", graph)
        assert list(tmp_path.glob("bt_*_weighted.json"))
        set_default_weighted("off")
        try:
            hop_truth = GroundTruthCache(digest_dir=tmp_path).get("w", graph)
            assert list(tmp_path.glob("bt_*_hop.json"))
        finally:
            set_default_weighted(None)
        assert weighted_truth != hop_truth

    @pytest.mark.parametrize("tier", ["cache_dir", "digest_dir"])
    def test_truncated_file_is_recomputed_and_rewritten(self, tmp_path, tier):
        graph = path_graph(5)
        GroundTruthCache(**{tier: tmp_path}).get("p5", graph)
        [path] = tmp_path.glob("*.json")
        content = path.read_bytes()
        with open(path, "r+b") as handle:
            handle.truncate(10)
        values = GroundTruthCache(**{tier: tmp_path}).get("p5", graph)
        assert values == exact_betweenness(graph)
        assert path.read_bytes() == content

    def test_keys_that_sanitise_alike_keep_their_own_values(self, tmp_path):
        path5, star4 = path_graph(5), star_graph(4)  # 5 nodes each
        assert GroundTruthCache(cache_dir=tmp_path).get("g#1", path5) == (
            exact_betweenness(path5)
        )
        assert GroundTruthCache(cache_dir=tmp_path).get("g_1", star4) == (
            exact_betweenness(star4)
        )
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_restart_equivalence_across_process_boundary(self, tmp_path):
        """Exact Brandes survives a real process restart, bit for bit."""
        graph = load("karate").graph
        parent = GroundTruthCache(digest_dir=tmp_path).get("karate", graph)
        child_script = (
            "import json, sys\n"
            "from repro.datasets import GroundTruthCache, load\n"
            "import repro.datasets.ground_truth as gt\n"
            "def boom(graph, *, workers=None):\n"
            "    raise AssertionError('recomputed instead of disk hit')\n"
            "gt.exact_betweenness = boom\n"
            "cache = GroundTruthCache(digest_dir=sys.argv[1])\n"
            "values = cache.get('karate', load('karate').graph)\n"
            "print(json.dumps({repr(k): repr(v) for k, v in values.items()}))\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", child_script, str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        child = json.loads(result.stdout)
        assert child == {repr(k): repr(v) for k, v in parent.items()}
