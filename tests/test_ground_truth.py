"""Persistent ground truth: the ``snapshot_dir`` knob, content digests,
atomic writes and the two disk tiers of ``GroundTruthCache``.

Covers:

* the ``snapshot_dir`` knob protocol (arg > setter > env > default,
  env-mirrored setter), its config field, runner hook and flag;
* ``content_digest`` and ``safe_key``, which name the files;
* ``atomic_write`` under faults: a full disk at ``write``, ``fsync`` or
  ``os.replace``, two interleaved writers on one file, and ``*.tmp``
  leftovers of a killed writer;
* both disk tiers (key-named ``cache_dir`` and content-addressed
  ``digest_dir``, also as the ``snapshot_dir`` knob roots it): reuse
  across cache instances and a real process restart, and files that do
  not describe the graph (truncated, wrong labels, non-finite values)
  being recomputed and rewritten, never served.
"""

from __future__ import annotations

import builtins
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datasets import GroundTruthCache, load
from repro.datasets import ground_truth
from repro.datasets.ground_truth import (
    atomic_write,
    content_digest,
    exact_betweenness,
    resolve_snapshot_dir,
    safe_key,
    set_default_snapshot_dir,
)
from repro.experiments.config import ExperimentConfig
from repro.graphs.generators import path_graph, star_graph
from repro.graphs.graph import Graph

#: The disk tiers, by what roots them: the two ``GroundTruthCache``
#: arguments, and the ``snapshot_dir`` knob, which roots the digest tier at
#: ``DIR/ground_truth`` when ``digest_dir`` is not given.
TIERS = ["cache_dir", "digest_dir", "knob"]


@pytest.fixture(autouse=True)
def _reset_knobs():
    yield
    set_default_snapshot_dir(None)


def _ordered_graph() -> Graph:
    return Graph.from_edges([("a", "c"), ("b", "c"), ("a", "b"), ("c", "d"), ("d", "e")])


def _no_brandes(graph, **kwargs):
    raise AssertionError("recomputed instead of served from disk")


def _tier_cache(tier: str, root: Path) -> tuple[GroundTruthCache, Path]:
    """A fresh cache whose ``tier`` lives under ``root``, and the folder
    that tier writes its files to."""
    if tier == "knob":
        set_default_snapshot_dir(root)
        return GroundTruthCache(), root / "ground_truth"
    return GroundTruthCache(**{tier: root}), root


# ----------------------------------------------------------------------
# The snapshot_dir knob
# ----------------------------------------------------------------------
class TestKnobs:
    def test_snapshot_dir_precedence(self, tmp_path, monkeypatch):
        env = ground_truth.SNAPSHOT_DIR_ENV_VAR
        monkeypatch.delenv(env, raising=False)
        assert resolve_snapshot_dir() is None
        monkeypatch.setenv(env, str(tmp_path / "env"))
        assert resolve_snapshot_dir() == tmp_path / "env"
        set_default_snapshot_dir(tmp_path / "setter")
        assert resolve_snapshot_dir() == tmp_path / "setter"
        assert os.environ[env] == str(tmp_path / "setter")
        assert resolve_snapshot_dir(tmp_path / "arg") == tmp_path / "arg"
        set_default_snapshot_dir(None)
        assert resolve_snapshot_dir() == tmp_path / "env"

    def test_snapshot_dir_empty_setter_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            set_default_snapshot_dir("   ")

    def test_experiment_config_fields(self, tmp_path):
        config = ExperimentConfig(snapshot_dir=str(tmp_path))
        assert config.snapshot_dir == str(tmp_path)
        with pytest.raises(ValueError, match="snapshot_dir"):
            ExperimentConfig(snapshot_dir="  ")

    def test_runner_applies_snapshot_config(self, tmp_path):
        from repro.experiments.runner import ExperimentRunner

        config = ExperimentConfig(
            datasets=("karate",), scale=1.0, snapshot_dir=str(tmp_path)
        )
        runner = ExperimentRunner(config)
        runner.ground_truth("karate")
        assert resolve_snapshot_dir() == tmp_path
        assert len(list((tmp_path / "ground_truth").glob("bt_*_hop.json"))) == 1

    def test_cli_flags(self, tmp_path):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["rank", "--snapshot-dir", str(tmp_path)]
        )
        assert args.snapshot_dir == str(tmp_path)


# ----------------------------------------------------------------------
# File names
# ----------------------------------------------------------------------
class TestContentDigest:
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


def test_key_sanitisation_is_collision_safe():
    assert safe_key("k/1") != safe_key("k:1")  # both would read k_1 unhashed
    assert safe_key("plain@1.0#0") == "plain@1.0#0"


# ----------------------------------------------------------------------
# Atomic writes and their faults
# ----------------------------------------------------------------------
def _enospc(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class _FullDiskHandle:
    """A file handle whose ``write`` fails as on a full disk."""

    def __init__(self, handle) -> None:
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self._handle.close()

    def write(self, data):
        _enospc()

    def __getattr__(self, name):
        return getattr(self._handle, name)


def _fill_the_disk(monkeypatch, stage: str) -> None:
    """Make the ``stage`` step of every later write fail with ENOSPC."""
    if stage == "write":
        monkeypatch.setattr(
            ground_truth, "open",
            lambda *args, **kwargs: _FullDiskHandle(builtins.open(*args, **kwargs)),
            raising=False,
        )
    else:
        monkeypatch.setattr(os, stage, _enospc)


STAGES = ["write", "fsync", "replace"]


class TestAtomicWrite:
    def test_interrupted_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "f.bin"
        atomic_write(path, (b"old",))

        def chunks():
            yield b"new"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            atomic_write(path, chunks())
        assert path.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [path]

    def test_truth_writes_fsync_once_each(self, tmp_path, monkeypatch):
        synced = []
        fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or fsync(fd))
        cache = GroundTruthCache(cache_dir=tmp_path / "keys", digest_dir=tmp_path / "gt")
        cache.get("p5", path_graph(5))
        assert len(synced) == 2  # the key file and the digest file

    @pytest.mark.parametrize("stage", STAGES)
    def test_full_disk_keeps_the_old_file_and_leaves_no_tmp(
        self, tmp_path, monkeypatch, stage
    ):
        path = tmp_path / "f.json"
        atomic_write(path, (b"old",))
        _fill_the_disk(monkeypatch, stage)
        with pytest.raises(OSError) as excinfo:
            atomic_write(path, (b"new",))
        assert excinfo.value.errno == errno.ENOSPC
        assert path.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize("tier", TIERS)
    def test_get_raises_and_a_later_get_rewrites(
        self, tmp_path, monkeypatch, tier, stage
    ):
        graph = path_graph(5)
        cache, folder = _tier_cache(tier, tmp_path)
        with monkeypatch.context() as patch:
            _fill_the_disk(patch, stage)
            with pytest.raises(OSError) as excinfo:
                cache.get("p5", graph)
        assert excinfo.value.errno == errno.ENOSPC
        assert list(folder.iterdir()) == []
        values = cache.get("p5", graph)
        assert values == exact_betweenness(graph)
        [path] = folder.iterdir()
        assert json.loads(path.read_text()) == {str(n): v for n, v in values.items()}

    def test_interleaved_writers_leave_one_complete_document(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "bt.json"
        pid = [1001]
        monkeypatch.setattr(os, "getpid", lambda: pid[0])
        first = json.dumps({"0": 0.25, "1": 0.5}).encode("utf-8")
        second = json.dumps({"0": 0.75, "1": 1.0}).encode("utf-8")

        def first_chunks():
            yield first[:7]
            # Another process writes the same file from start to finish
            # while this writer still has chunks pending.
            pid[0] = 1002
            atomic_write(path, (second,))
            assert path.read_bytes() == second
            pid[0] = 1001
            yield first[7:]

        atomic_write(path, first_chunks())
        assert path.read_bytes() == first
        assert json.loads(path.read_bytes()) == {"0": 0.25, "1": 0.5}
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("tier", TIERS)
    def test_stale_tmp_files_are_never_read_and_never_block(self, tmp_path, tier):
        graph = path_graph(5)
        name = (
            "p5#hop.json" if tier == "cache_dir"
            else f"bt_{content_digest(graph)}_hop.json"
        )
        # Complete but wrong documents, as a writer killed before its
        # rename leaves them: one under another pid, one under this pid.
        wrong = json.dumps({str(node): 0.5 for node in graph.nodes()})
        cache, folder = _tier_cache(tier, tmp_path)
        folder.mkdir(exist_ok=True)
        other = folder / f"{name}.99999.tmp"
        ours = folder / f"{name}.{os.getpid()}.tmp"
        for stale in (other, ours):
            stale.write_text(wrong)
        values = cache.get("p5", graph)
        assert values == exact_betweenness(graph)
        assert json.loads((folder / name).read_text()) == {
            str(n): v for n, v in values.items()
        }
        assert other.read_text() == wrong
        assert not ours.exists()  # reused for this write, then renamed


# ----------------------------------------------------------------------
# The disk tiers
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

    def test_digest_tier_derives_from_snapshot_dir_knob(self, tmp_path):
        set_default_snapshot_dir(tmp_path)
        cache = GroundTruthCache()
        cache.get("karate", load("karate").graph)
        assert list((tmp_path / "ground_truth").glob("bt_*.json"))

    def test_no_store_means_no_files(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ground_truth.SNAPSHOT_DIR_ENV_VAR, raising=False)
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

    @pytest.mark.parametrize("tier", TIERS)
    def test_truncated_file_is_recomputed_and_rewritten(self, tmp_path, tier):
        graph = path_graph(5)
        cache, folder = _tier_cache(tier, tmp_path)
        cache.get("p5", graph)
        [path] = folder.glob("*.json")
        content = path.read_bytes()
        with open(path, "r+b") as handle:
            handle.truncate(10)
        values = _tier_cache(tier, tmp_path)[0].get("p5", graph)
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
            "def boom(graph, **kwargs):\n"
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

    def test_weighted_argument_keeps_its_own_entry(self, tmp_path):
        graph = load("ba-weighted", scale=0.2, seed=5).graph
        cache = GroundTruthCache(cache_dir=tmp_path / "keys", digest_dir=tmp_path)
        weighted_truth = cache.get("w", graph, weighted="on")
        hop_truth = cache.get("w", graph, weighted="off")
        assert weighted_truth == exact_betweenness(graph, weighted="on")
        assert hop_truth == exact_betweenness(graph, weighted="off")
        assert weighted_truth != hop_truth
        assert sorted(path.name for path in (tmp_path / "keys").iterdir()) == [
            "w#hop.json", "w#weighted.json"
        ]


#: Graphs whose labels do not come back from ``int()`` of their JSON keys.
LABEL_CASES = {
    "digit-strings": lambda: Graph.from_edges([("1", "2"), ("2", "3"), ("3", "4")]),
    "int-like-strings": lambda: Graph.from_edges(
        [("+5", "1_0"), ("1_0", "a"), ("a", "b")]
    ),
    "tuples": lambda: Graph.from_edges(
        [((0, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (1, 0)), ((0, 1), (0, 2))]
    ),
    "floats": lambda: Graph.from_edges([(0.5, 1.5), (1.5, 2.5), (2.5, 3.5)]),
}

#: Edits that leave a truth file valid JSON but no longer about the graph.
CORRUPTIONS = {
    "string-value": lambda raw: raw.update({"2": "0.5"}),
    "nan": lambda raw: raw.update({"2": float("nan")}),
    "infinity": lambda raw: raw.update({"2": float("inf")}),
    "null": lambda raw: raw.update({"2": None}),
    "renamed-key": lambda raw: raw.update({"not-a-node": raw.pop("2")}),
}


class TestFilesDescribeTheGraph:
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("make_graph", LABEL_CASES.values(), ids=list(LABEL_CASES))
    def test_restart_serves_the_graphs_own_nodes(
        self, tmp_path, monkeypatch, tier, make_graph
    ):
        graph = make_graph()
        truth = _tier_cache(tier, tmp_path)[0].get("g", graph)
        monkeypatch.setattr(ground_truth, "exact_betweenness", _no_brandes)
        served = _tier_cache(tier, tmp_path)[0].get("g", graph)
        assert list(served) == list(graph.nodes())
        assert served == truth

    @pytest.mark.parametrize("tier", TIERS)
    def test_labels_that_collide_under_str_are_always_recomputed(
        self, tmp_path, monkeypatch, tier
    ):
        graph = Graph.from_edges([(1, "1"), ("1", 2), (2, "2")])
        truth = _tier_cache(tier, tmp_path)[0].get("g", graph)
        assert list(truth) == list(graph.nodes())
        runs = []
        monkeypatch.setattr(
            ground_truth, "exact_betweenness",
            lambda graph, **kwargs: runs.append(graph) or truth,
        )
        assert _tier_cache(tier, tmp_path)[0].get("g", graph) == truth
        assert runs == [graph]
        assert list(tmp_path.iterdir()) == []  # the disk is never touched

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=list(CORRUPTIONS))
    def test_a_file_that_misdescribes_the_graph_is_recomputed(
        self, tmp_path, tier, corrupt
    ):
        graph = path_graph(5)
        cache, folder = _tier_cache(tier, tmp_path)
        cache.get("p5", graph)
        [path] = folder.glob("*.json")
        good = path.read_bytes()
        raw = json.loads(good)
        corrupt(raw)
        path.write_text(json.dumps(raw))  # NaN and Infinity as JSON literals
        values = _tier_cache(tier, tmp_path)[0].get("p5", graph)
        assert values == exact_betweenness(graph)
        assert path.read_bytes() == good
