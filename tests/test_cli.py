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
            (["rank", "--subset-size", "0"], "--subset-size"),
            (["rank", "--subset-size", "-3"], "--subset-size"),
            (["compare", "--subset-size", "x"], "--subset-size"),
            (["figure", "5", "--subset-size", "1"], "--subset-size"),
            (["rank", "--top", "-2"], "--top"),
            (["figure", "5", "--num-subsets", "0"], "--num-subsets"),
            (["rank", "--scale", "0"], "--scale"),
            (["compare", "--scale", "nan"], "--scale"),
            (["table", "2", "--scale", "0"], "--scale"),
            (["figure", "3", "--scale", "inf"], "--scale"),
            (["rank", "--dataset", "nosuch"], "--dataset"),
            (["compare", "--dataset", "karate,flickr"], "--dataset"),
            (["table", "2", "--datasets", "flickr,nosuch"], "--datasets"),
            (["figure", "3", "--datasets", ","], "--datasets"),
            (["compare", "--estimators", "nosuch"], "--estimators"),
            (["compare", "--estimators", ","], "--estimators"),
            (["rank", "--targets", "999"], "--targets"),
            (["rank", "--targets", "0,0,1"], "--targets"),
            (["rank", "--targets", ","], "--targets"),
        ],
    )
    def test_out_of_range_value_is_a_usage_error(self, argv, flag, capsys):
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
            (["rank", "--scale", "0.5", "--top", "1"], "scale", 0.5),
            (["rank", "--dataset", " flickr "], "dataset", "flickr"),
            (["table", "2", "--datasets", "flickr, karate"], "datasets",
             ("flickr", "karate")),
            (["table", "2"], "datasets", None),
            (["compare"], "estimators", ("saphyra", "kadabra", "abra")),
            (["compare", "--estimators", "rk,abra"], "estimators", ("rk", "abra")),
            (["rank", "--targets", " 0, -1,x,"], "targets", (0, -1, "x")),
        ],
    )
    def test_in_range_value_parses(self, argv, field, expected):
        assert getattr(build_parser().parse_args(argv), field) == expected

    @pytest.mark.parametrize(
        "content,cause",
        [
            (None, "cannot read"),
            ("directory", "cannot read"),
            (b"0 1\nx\n", "toy.txt:2: expected 'u v' or 'u v weight'"),
            (b"\xff\xfe0 1\n", "not UTF-8 text"),
            (b"", "has 0 nodes; ranking needs at least 3"),
            (b"0 1\n", "has 2 nodes; ranking needs at least 3"),
        ],
        ids=["missing", "directory", "malformed", "binary", "empty", "two-nodes"],
    )
    def test_bad_edge_list_is_a_usage_error(self, tmp_path, capsys, content, cause):
        path = tmp_path / "toy.txt"
        if content == "directory":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        with pytest.raises(SystemExit) as excinfo:
            main(["rank", "--edge-list", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --edge-list:" in err and cause in err


class TestProcessKnobFlags:
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

    def test_snapshot_dir_flag_mirrors_environment(
        self, capsys, monkeypatch, tmp_path
    ):
        import os

        from repro.datasets import ground_truth, load

        monkeypatch.delenv(ground_truth.SNAPSHOT_DIR_ENV_VAR, raising=False)
        argv = ["compare", "--dataset", "karate", "--subset-size", "6",
                "--epsilon", "0.2", "--delta", "0.1", "--seed", "3",
                "--estimators", "rk", "--snapshot-dir", str(tmp_path)]
        try:
            assert main(argv) == 0
            assert os.environ[ground_truth.SNAPSHOT_DIR_ENV_VAR] == str(tmp_path)
            assert ground_truth.resolve_snapshot_dir() == tmp_path
            digest = ground_truth.content_digest(load("karate").graph)
            stored = [path.name for path in (tmp_path / "ground_truth").iterdir()]
            assert stored == [f"bt_{digest}_hop.json"]
            # A second run reads the file instead of running Brandes again.
            monkeypatch.setattr(ground_truth, "exact_betweenness", None)
            assert main(argv) == 0
        finally:
            ground_truth.set_default_snapshot_dir(None)
        assert ground_truth.SNAPSHOT_DIR_ENV_VAR not in os.environ


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
