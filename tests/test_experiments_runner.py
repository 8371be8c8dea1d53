"""Tests for the experiment runner and the figure/table drivers.

Everything runs on the ``smoke`` configuration (tiny graphs, capped sample
counts) so the whole module completes in well under a minute.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import (
    epsilon_sweep,
    figure3_running_time,
    figure4_rank_correlation,
    figure5_subset_size,
    figure6_relative_error,
    figure7_road_case_study,
)
from repro.experiments.runner import ALGORITHM_LABELS, ExperimentRunner
from repro.experiments.tables import table1_vc_bounds, table2_networks, table3_subsets


@pytest.fixture(scope="module")
def smoke_runner() -> ExperimentRunner:
    return ExperimentRunner(ExperimentConfig.smoke())


@pytest.fixture(scope="module")
def road_runner() -> ExperimentRunner:
    config = ExperimentConfig(
        datasets=("usa-road",),
        scale=0.3,
        epsilons=(0.1,),
        subset_size=15,
        num_subsets=1,
        subset_sizes=(10,),
        max_samples_cap=2_000,
    )
    return ExperimentRunner(config)


class TestRunnerCaching:
    def test_dataset_cached(self, smoke_runner):
        assert smoke_runner.dataset("flickr") is smoke_runner.dataset("flickr")

    def test_new_knob_configs_applied_lazily(self, monkeypatch):
        from repro import parallel
        from repro.graphs import csr as csr_module
        from repro.graphs import sssp as sssp_module

        monkeypatch.delenv(parallel.START_METHOD_ENV_VAR, raising=False)
        monkeypatch.delenv(sssp_module.WEIGHTED_ENV_VAR, raising=False)
        try:
            runner = ExperimentRunner(
                ExperimentConfig(
                    datasets=("flickr",),
                    scale=0.05,
                    backend="csr",
                    start_method="spawn",
                    weighted="off",
                )
            )
            # Construction flips nothing.
            assert parallel.start_method() is None
            assert sssp_module.resolve_weighted() == "auto"
            runner.dataset("flickr")  # first real work applies the overrides
            assert parallel.start_method() == "spawn"
            assert csr_module.default_backend() == "csr"
            assert sssp_module.resolve_weighted() == "off"
        finally:
            csr_module.set_default_backend(None)
            parallel.set_default_start_method(None)
            sssp_module.set_default_weighted(None)

    def test_block_cut_tree_cached(self, smoke_runner):
        assert smoke_runner.block_cut_tree("flickr") is smoke_runner.block_cut_tree(
            "flickr"
        )

    def test_ground_truth_covers_all_nodes(self, smoke_runner):
        truth = smoke_runner.ground_truth("flickr")
        assert len(truth) == smoke_runner.dataset("flickr").graph.number_of_nodes()

    def test_whole_network_estimate_cached(self, smoke_runner):
        first = smoke_runner.whole_network_estimate("kadabra", "flickr", 0.2)
        second = smoke_runner.whole_network_estimate("kadabra", "flickr", 0.2)
        assert first is second

    def test_subsets_deterministic(self, smoke_runner):
        first = smoke_runner.subsets("flickr", 10, 2)
        second = smoke_runner.subsets("flickr", 10, 2)
        assert first == second

    def test_unknown_algorithm_rejected(self, smoke_runner):
        with pytest.raises(ValueError):
            smoke_runner.subset_estimate("mystery", "flickr", [0, 1], 0.1)


class TestEvaluation:
    def test_evaluate_subset_fields(self, smoke_runner):
        subset = smoke_runner.subsets("flickr", 10, 1)[0]
        evaluation = smoke_runner.evaluate_subset("flickr", "saphyra", 0.2, subset, 0)
        assert evaluation.dataset == "flickr"
        assert evaluation.algorithm == "saphyra"
        assert evaluation.subset_size == 10
        assert -1.0 <= evaluation.spearman <= 1.0
        assert evaluation.max_abs_error >= 0.0
        assert evaluation.num_samples > 0
        assert 0.0 <= evaluation.false_zero_fraction <= 1.0

    def test_saphyra_meets_epsilon_on_smoke_graph(self, smoke_runner):
        subset = smoke_runner.subsets("flickr", 10, 1)[0]
        evaluation = smoke_runner.evaluate_subset("flickr", "saphyra", 0.1, subset, 0)
        assert evaluation.max_abs_error < 0.1


class TestEpsilonSweep:
    def test_rows_cover_grid(self, smoke_runner):
        rows = smoke_runner.epsilon_sweep()
        config = smoke_runner.config
        expected = (
            len(config.datasets) * len(config.epsilons) * len(config.algorithms)
        )
        assert len(rows) == expected
        for row in rows:
            assert row.algorithm in ALGORITHM_LABELS
            assert row.num_subsets == config.num_subsets
            assert row.spearman_ci_low <= row.mean_spearman <= row.spearman_ci_high

    def test_figure3_and_4_views(self, smoke_runner):
        rows = smoke_runner.epsilon_sweep()
        fig3 = figure3_running_time(rows=rows)
        fig4 = figure4_rank_correlation(rows=rows)
        assert set(fig3) == set(smoke_runner.config.datasets)
        for dataset, curves in fig3.items():
            assert set(curves) == {
                ALGORITHM_LABELS[name] for name in smoke_runner.config.algorithms
            }
            for points in curves.values():
                assert len(points) == len(smoke_runner.config.epsilons)
        for curves in fig4.values():
            for points in curves.values():
                for _, mean, low, high in points:
                    assert low <= mean <= high


class TestOtherFigures:
    def test_figure5(self, smoke_runner):
        rows = figure5_subset_size(runner=smoke_runner, epsilon=0.2)
        sizes = {row.subset_size for row in rows}
        assert sizes == set(smoke_runner.config.subset_sizes)

    def test_figure6(self, smoke_runner):
        rows = figure6_relative_error(runner=smoke_runner, epsilon=0.2)
        assert {row.algorithm for row in rows} == set(smoke_runner.config.algorithms)
        for row in rows:
            assert 0.0 <= row.true_zero_percent <= 100.0
            assert 0.0 <= row.false_zero_percent <= 100.0
            if row.algorithm in ("saphyra", "saphyra_full"):
                assert row.false_zero_percent == 0.0
            total = sum(percent for _, percent in row.histogram)
            assert total == pytest.approx(100.0)

    def test_figure7(self, road_runner):
        rows = figure7_road_case_study(runner=road_runner, epsilon=0.1)
        areas = {row.area for row in rows}
        assert areas == {"NYC", "BAY", "CO", "FL"}
        for row in rows:
            assert row.running_time_seconds >= 0.0
            assert 0.0 <= row.rank_deviation_percent <= 100.0

    def test_figure7_requires_coordinates(self, smoke_runner):
        with pytest.raises(ValueError):
            figure7_road_case_study(runner=smoke_runner, dataset="flickr")


class TestTables:
    def test_table1(self, smoke_runner):
        rows = table1_vc_bounds(runner=smoke_runner)
        assert len(rows) == 2 * len(smoke_runner.config.datasets)
        for row in rows:
            assert row.report.personalized_vc <= row.report.riondato_vc

    def test_table2(self, smoke_runner):
        rows = table2_networks(runner=smoke_runner)
        assert [row.dataset for row in rows] == list(smoke_runner.config.datasets)
        for row in rows:
            assert row.summary.num_nodes > 0
            assert row.paper_nodes > row.summary.num_nodes

    def test_table3(self, road_runner):
        rows = table3_subsets(runner=road_runner)
        assert len(rows) == 4
        sizes = [row.num_nodes for row in rows]
        assert sizes == sorted(sizes)
        assert all(row.num_nodes > 0 for row in rows)

    def test_table3_requires_coordinates(self, smoke_runner):
        with pytest.raises(ValueError):
            table3_subsets(runner=smoke_runner, dataset="flickr")
