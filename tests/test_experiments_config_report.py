"""Tests for experiment configuration and text rendering."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.report import render_series, render_table


class TestConfig:
    def test_defaults_valid(self):
        config = ExperimentConfig.default()
        assert set(config.datasets) == {"flickr", "livejournal", "usa-road", "orkut"}
        assert config.delta == 0.01

    def test_smoke_preset_is_small(self):
        smoke = ExperimentConfig.smoke()
        default = ExperimentConfig.default()
        assert smoke.scale < default.scale
        assert smoke.num_subsets <= default.num_subsets

    def test_paper_preset_matches_paper_grid(self):
        paper = ExperimentConfig.paper()
        assert tuple(paper.epsilons) == (0.2, 0.1, 0.05, 0.02, 0.01)
        assert paper.subset_size == 100
        assert paper.delta == 0.01

    def test_epsilon_grid_sorted_descending(self):
        config = ExperimentConfig(epsilons=(0.05, 0.2, 0.1))
        assert config.epsilon_grid() == (0.2, 0.1, 0.05)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scale": 0},
            {"subset_size": 1},
            {"num_subsets": 0},
            {"epsilons": ()},
            {"algorithms": ("abra", "mystery")},
            {"backend": "gpu"},
            {"start_method": "threads"},
            {"dag_cache_size": 0},
            {"dag_cache_budget": -5},
            {"dag_cache_size": True},
            {"delta": 0.0},
            {"delta": 1.5},
            {"epsilons": (0.2, 0.0)},
            {"epsilons": (1.5,)},
            {"max_samples_cap": 0},
            {"subset_sizes": (1, 10)},
            {"delta": 1.0},
            {"delta": float("nan")},
            {"epsilons": (1.0,)},
            {"epsilons": (0.1, -0.2)},
            {"max_samples_cap": -3},
            {"subset_sizes": (10, 0)},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_samples_cap": None},
            {"max_samples_cap": 1},
            {"subset_sizes": (2,)},
            {"epsilons": (0.999, 1e-6), "delta": 0.5},
        ],
    )
    def test_boundary_configs_accepted(self, kwargs):
        config = ExperimentConfig(**kwargs)
        for name, value in kwargs.items():
            assert getattr(config, name) == value

    def test_knob_fields_accept_valid_values(self):
        config = ExperimentConfig(
            backend="csr",
            start_method="spawn",
            dag_cache_size=128,
            dag_cache_budget=1_000_000,
        )
        assert config.backend == "csr"
        assert config.start_method == "spawn"
        assert config.dag_cache_size == 128
        assert config.dag_cache_budget == 1_000_000

    def test_every_knob_env_var_has_a_config_field(self):
        # The knob protocol, from the other side: each REPRO_* executor
        # knob the lint audits must stay addressable per-experiment.
        for field_name in (
            "backend",
            "workers",
            "start_method",
            "dag_cache",
            "dag_cache_size",
            "dag_cache_budget",
            "shared_memory",
            "weighted",
        ):
            assert hasattr(ExperimentConfig(), field_name)


class TestRenderTable:
    def test_alignment_and_content(self):
        text = render_table(["name", "value"], [("a", 1.5), ("bbbb", 22)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "value" in lines[0]
        assert "bbbb" in lines[3]
        # All rows have the same width.
        assert len(set(len(line) for line in lines)) <= 2

    def test_float_formatting(self):
        text = render_table(["x"], [(0.123456,), (1234567.0,), (float("nan"),)])
        assert "0.123" in text
        assert "nan" in text

    def test_empty_rows(self):
        text = render_table(["a", "b"], [])
        assert "a" in text


class TestRenderSeries:
    def test_merges_x_values(self):
        text = render_series(
            {"one": [(0.1, 1.0), (0.2, 2.0)], "two": [(0.1, 3.0)]},
            x_label="epsilon",
            y_label="time",
        )
        assert "epsilon" in text
        assert "one" in text and "two" in text
        assert "-" in text  # missing point for series "two" at x=0.2
