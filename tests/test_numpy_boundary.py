"""The numpy boundary: the CSR backend requires numpy.

Every test here runs as if numpy were not importable — by patching
``csr.HAS_NUMPY`` where numpy is installed, and for real on numpy-less
installs — and checks that ``auto`` falls back to the dict backend while an
explicit ``csr`` and building a snapshot raise a ``GraphError`` that names
numpy, and that persistent ground truth, which is JSON, needs none.
"""

from __future__ import annotations

import pytest

from repro.datasets import GroundTruthCache, ground_truth, load
from repro.errors import GraphError
from repro.graphs import csr
from repro.graphs.generators import path_graph

NUMPY_ERROR = "requires numpy, which is not importable"


@pytest.fixture(autouse=True)
def without_numpy(monkeypatch):
    monkeypatch.setattr(csr, "HAS_NUMPY", False)
    monkeypatch.delenv(csr.BACKEND_ENV_VAR, raising=False)
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


class TestPersistentGroundTruth:
    @pytest.mark.parametrize("tier", ["cache_dir", "digest_dir", "knob"])
    def test_truth_is_written_and_served_without_numpy(
        self, tmp_path, monkeypatch, tier
    ):
        if tier == "knob":
            monkeypatch.setenv(ground_truth.SNAPSHOT_DIR_ENV_VAR, str(tmp_path))
            make, folder = GroundTruthCache, tmp_path / "ground_truth"
        else:
            monkeypatch.delenv(ground_truth.SNAPSHOT_DIR_ENV_VAR, raising=False)
            make, folder = lambda: GroundTruthCache(**{tier: tmp_path}), tmp_path
        graph = load("karate").graph
        truth = make().get("karate", graph)
        assert len(list(folder.glob("*.json"))) == 1
        monkeypatch.setattr(ground_truth, "exact_betweenness", None)
        assert make().get("karate", graph) == truth
