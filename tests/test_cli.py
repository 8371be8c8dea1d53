"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_unknown_command_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["rank", "--epsilon", "1.5"], "--epsilon"),
            (["compare", "--delta", "0"], "--delta"),
            (["figure", "3", "--epsilons", "0.2,1.5"], "--epsilons"),
            # Both ends of (0, 1) are excluded.
            (["rank", "--epsilon", "0"], "--epsilon"),
            (["rank", "--epsilon", "1"], "--epsilon"),
            (["compare", "--delta", "1.0"], "--delta"),
            (["rank", "--delta", "-0.1"], "--delta"),
            (["rank", "--delta", "nan"], "--delta"),
            (["compare", "--epsilon", "inf"], "--epsilon"),
            (["compare", "--epsilon", "abc"], "--epsilon"),
            (["figure", "3", "--epsilons", "0"], "--epsilons"),
            (["figure", "3", "--epsilons", "0.2,nan"], "--epsilons"),
            (["figure", "3", "--epsilons", "0.2,x"], "--epsilons"),
            (["figure", "3", "--epsilons", ","], "--epsilons"),
        ],
    )
    def test_out_of_range_accuracy_is_a_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,field,expected",
        [
            (["rank", "--epsilon", "0.2"], "epsilon", 0.2),
            (["compare", "--delta", "1e-3"], "delta", 0.001),
            (["figure", "3", "--epsilons", "0.2, 0.1,"], "epsilons", (0.2, 0.1)),
        ],
    )
    def test_in_range_accuracy_parses(self, argv, field, expected):
        assert getattr(build_parser().parse_args(argv), field) == expected


class TestProcessKnobFlags:
    def test_shared_memory_flag_applies_override(self, capsys, monkeypatch):
        from repro import parallel

        # Pin the environment: with REPRO_SHARED_MEMORY exported (e.g. the
        # README's env-wide workflow) the post-restore default would be the
        # exported value, not the built-in on.
        monkeypatch.delenv(parallel.SHARED_MEMORY_ENV_VAR, raising=False)
        try:
            code = main(
                ["rank", "--dataset", "karate", "--subset-size", "6",
                 "--epsilon", "0.2", "--delta", "0.1", "--seed", "3",
                 "--shared-memory", "off"]
            )
            assert code == 0
            assert parallel.shared_memory_enabled() is False
            assert "rank | node" in capsys.readouterr().out
        finally:
            parallel.set_shared_memory_enabled(None)
        assert parallel.shared_memory_enabled() is True

    def test_workers_flag_mirrors_environment(self, capsys, monkeypatch):
        import os

        from repro import parallel

        monkeypatch.delenv(parallel.WORKERS_ENV_VAR, raising=False)
        try:
            code = main(
                ["rank", "--dataset", "karate", "--subset-size", "6",
                 "--epsilon", "0.2", "--delta", "0.1", "--seed", "3",
                 "--workers", "0"]
            )
            assert code == 0
            assert os.environ[parallel.WORKERS_ENV_VAR] == "0"
        finally:
            parallel.set_default_workers(None)
        assert parallel.WORKERS_ENV_VAR not in os.environ

    def test_start_method_flag_mirrors_environment(self, capsys, monkeypatch):
        import os

        from repro import parallel

        monkeypatch.delenv(parallel.START_METHOD_ENV_VAR, raising=False)
        try:
            code = main(
                ["rank", "--dataset", "karate", "--subset-size", "6",
                 "--epsilon", "0.2", "--delta", "0.1", "--seed", "3",
                 "--workers", "0", "--start-method", "spawn"]
            )
            assert code == 0
            assert os.environ[parallel.START_METHOD_ENV_VAR] == "spawn"
            assert parallel.start_method() == "spawn"
        finally:
            parallel.set_default_start_method(None)
            parallel.set_default_workers(None)
        assert parallel.START_METHOD_ENV_VAR not in os.environ

    def test_dag_cache_bounds_flags_mirror_environment(self, capsys, monkeypatch):
        import os

        from repro.engine import dag_cache as dag_cache_module

        monkeypatch.delenv(dag_cache_module.DAG_CACHE_SIZE_ENV_VAR, raising=False)
        monkeypatch.delenv(dag_cache_module.DAG_CACHE_BUDGET_ENV_VAR, raising=False)
        try:
            code = main(
                ["rank", "--dataset", "karate", "--subset-size", "6",
                 "--epsilon", "0.2", "--delta", "0.1", "--seed", "3",
                 "--dag-cache-size", "33", "--dag-cache-budget", "44444"]
            )
            assert code == 0
            assert os.environ[dag_cache_module.DAG_CACHE_SIZE_ENV_VAR] == "33"
            assert os.environ[dag_cache_module.DAG_CACHE_BUDGET_ENV_VAR] == "44444"
            assert dag_cache_module.resolve_dag_cache_size() == 33
            assert dag_cache_module.resolve_dag_cache_budget() == 44444
        finally:
            dag_cache_module.set_default_dag_cache_size(None)
            dag_cache_module.set_default_dag_cache_budget(None)
        assert dag_cache_module.DAG_CACHE_SIZE_ENV_VAR not in os.environ
        assert dag_cache_module.DAG_CACHE_BUDGET_ENV_VAR not in os.environ

    def test_dag_cache_delta_flags_mirror_environment(self, capsys, monkeypatch):
        import os

        from repro.engine import dag_cache as dag_cache_module

        monkeypatch.delenv(dag_cache_module.DAG_CACHE_DELTA_ENV_VAR, raising=False)
        monkeypatch.delenv(
            dag_cache_module.DELTA_JOURNAL_SIZE_ENV_VAR, raising=False
        )
        try:
            code = main(
                ["rank", "--dataset", "karate", "--subset-size", "6",
                 "--epsilon", "0.2", "--delta", "0.1", "--seed", "3",
                 "--dag-cache-delta", "on", "--delta-journal-size", "64"]
            )
            assert code == 0
            assert os.environ[dag_cache_module.DAG_CACHE_DELTA_ENV_VAR] == "on"
            assert os.environ[dag_cache_module.DELTA_JOURNAL_SIZE_ENV_VAR] == "64"
            assert dag_cache_module.resolve_dag_cache_delta() == "on"
            assert dag_cache_module.resolve_delta_journal_size() == 64
        finally:
            dag_cache_module.set_default_dag_cache_delta(None)
            dag_cache_module.set_default_delta_journal_size(None)
        assert dag_cache_module.DAG_CACHE_DELTA_ENV_VAR not in os.environ
        assert dag_cache_module.DELTA_JOURNAL_SIZE_ENV_VAR not in os.environ


class TestDatasetsCommand:
    def test_lists_datasets(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        for name in ("karate", "flickr", "usa-road"):
            assert name in output


class TestRankCommand:
    def test_rank_karate(self, capsys):
        code = main(
            ["rank", "--dataset", "karate", "--subset-size", "8",
             "--epsilon", "0.1", "--delta", "0.1", "--seed", "3", "--top", "5"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "dataset=karate" in output
        assert "rank | node" in output

    def test_rank_explicit_targets(self, capsys):
        code = main(
            ["rank", "--dataset", "karate", "--targets", "0, 1, 33",
             "--epsilon", "0.1", "--delta", "0.1", "--seed", "3"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "33" in output

    def test_rank_edge_list(self, tmp_path, capsys):
        path = tmp_path / "toy.txt"
        path.write_text("0 1\n1 2\n2 0\n2 3\n3 4\n4 2\n")
        code = main(
            ["rank", "--edge-list", str(path), "--subset-size", "4",
             "--epsilon", "0.2", "--delta", "0.2", "--seed", "1"]
        )
        assert code == 0
        assert "estimated betweenness" in capsys.readouterr().out


class TestCompareCommand:
    def test_compare_on_karate(self, capsys):
        code = main(
            ["compare", "--dataset", "karate", "--subset-size", "8",
             "--epsilon", "0.2", "--delta", "0.2", "--seed", "2",
             "--estimators", "saphyra,kadabra"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "estimator" in output and "saphyra" in output


class TestTableCommand:
    def test_table2(self, capsys):
        code = main(
            ["table", "2", "--scale", "0.12", "--seed", "1",
             "--datasets", "flickr,usa-road"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "|" in output and "flickr" in output

    def test_table3(self, capsys):
        code = main(["table", "3", "--scale", "0.3", "--seed", "1"])
        assert code == 0
        assert "NYC" in capsys.readouterr().out

    def test_table1(self, capsys):
        code = main(
            ["table", "1", "--scale", "0.1", "--seed", "1", "--datasets", "flickr"]
        )
        assert code == 0
        assert "VC" in capsys.readouterr().out


class TestFigureCommand:
    def test_figure6_small(self, capsys):
        code = main(
            ["figure", "6", "--scale", "0.1", "--num-subsets", "1",
             "--subset-size", "15", "--datasets", "flickr",
             "--epsilons", "0.2"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "true zeros" in output

    def test_figure3_small(self, capsys):
        code = main(
            ["figure", "3", "--scale", "0.1", "--num-subsets", "1",
             "--subset-size", "15", "--datasets", "flickr",
             "--epsilons", "0.2,0.1"]
        )
        assert code == 0
        assert "Fig. 3" in capsys.readouterr().out
