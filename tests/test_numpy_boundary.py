"""The numpy boundary: the CSR backend and the snapshot store require numpy.

Every test here runs as if numpy were not importable — by patching
``csr.HAS_NUMPY`` where numpy is installed, and for real on numpy-less
installs — and checks that ``auto`` falls back to the dict backend while an
explicit ``csr`` and every snapshot entry point raise a ``GraphError`` that
names numpy.
"""

from __future__ import annotations

import pytest

from repro.datasets import load
from repro.errors import GraphError
from repro.graphs import csr, store
from repro.graphs.generators import path_graph

NUMPY_ERROR = "requires numpy, which is not importable"


@pytest.fixture(autouse=True)
def without_numpy(monkeypatch):
    monkeypatch.setattr(csr, "HAS_NUMPY", False)
    monkeypatch.delenv(csr.BACKEND_ENV_VAR, raising=False)
    monkeypatch.delenv(store.SNAPSHOT_DIR_ENV_VAR, raising=False)
    yield
    csr.set_default_backend(None)


class TestBackendChoice:
    def test_explicit_argument_raises(self):
        with pytest.raises(
            GraphError, match=f"csr backend {NUMPY_ERROR}; .*backend='dict' .*'auto'"
        ):
            csr.effective_backend(path_graph(3), "csr")

    def test_default_backend_setter_raises(self):
        csr.set_default_backend("csr")
        with pytest.raises(GraphError, match=NUMPY_ERROR):
            csr.effective_backend(path_graph(3))

    def test_env_var_raises(self, monkeypatch):
        monkeypatch.setenv(csr.BACKEND_ENV_VAR, "csr")
        with pytest.raises(GraphError, match=NUMPY_ERROR):
            csr.effective_backend(path_graph(3))

    def test_auto_picks_dict_above_the_size_threshold(self):
        big = path_graph(csr.AUTO_CSR_THRESHOLD)
        assert big.number_of_nodes() + big.number_of_edges() >= csr.AUTO_CSR_THRESHOLD
        assert csr.effective_backend(big) == csr.DICT_BACKEND
        assert csr.effective_backend(big, "auto") == csr.DICT_BACKEND


class TestSnapshots:
    def test_from_graph_raises(self):
        with pytest.raises(GraphError, match=NUMPY_ERROR):
            csr.CSRGraph.from_graph(path_graph(3))

    def test_save_snapshot_raises_and_writes_nothing(self, tmp_path):
        with pytest.raises(GraphError, match=f"saving snapshot .* {NUMPY_ERROR}"):
            store.save_snapshot(path_graph(3), tmp_path / "g.csr")
        assert list(tmp_path.iterdir()) == []

    def test_load_snapshot_raises_before_reading(self, tmp_path):
        path = tmp_path / "g.csr"
        path.write_bytes(b"REPROCSR")  # too short to be a snapshot
        with pytest.raises(GraphError, match=f"loading snapshot .* {NUMPY_ERROR}"):
            store.load_snapshot(path)

    @pytest.mark.parametrize("configured_by", ["argument", "knob"])
    def test_registry_with_a_store_raises(self, tmp_path, monkeypatch, configured_by):
        if configured_by == "knob":
            monkeypatch.setenv(store.SNAPSHOT_DIR_ENV_VAR, str(tmp_path))
            snapshot_dir = None
        else:
            snapshot_dir = str(tmp_path)
        with pytest.raises(GraphError, match=NUMPY_ERROR):
            load("karate", snapshot_dir=snapshot_dir)
