"""Tests of the benchmark itself: plans, metric names, checker, limits, tracing."""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest

import checker
import layers
import run
import workloads

run.import_program()

from repro.graphs.generators import path_graph  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)


def _grid(size: int):
    nodes = list(range(size * size))
    edges = [(r * size + c, r * size + c + 1) for r in range(size) for c in range(size - 1)]
    edges += [(r * size + c, (r + 1) * size + c) for r in range(size - 1) for c in range(size)]
    return nodes, edges


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_plan_is_deterministic_in_the_seed(name):
    workload = workloads.WORKLOADS[name]
    nodes, edges = _grid(12)
    first = workloads.make_plan(workload, nodes, edges, seed=5)
    assert first == workloads.make_plan(workload, list(reversed(nodes)), edges, seed=5)
    assert first != workloads.make_plan(workload, nodes, edges, seed=6)
    present = {tuple(sorted(e)) for e in edges}
    for op in first:
        if op.kind == "ins":
            assert not present & set(op.edges)
        if op.targets is not None:
            assert len(set(op.targets)) == workloads.TARGETS_PER_QUERY


def test_metric_names_match_benchmark_json():
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == {**layers.LAYER_METRICS, **run.CHECK_METRICS}
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    for name in [*end_to_end, *per_layer, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name), name


def test_checker_fails_a_perturbed_estimate():
    graph = path_graph(7)
    bc_op = workloads.Op(0, "bc", (), targets=(1, 3, 5), seed=1)
    cc_op = workloads.Op(1, "cc", (), targets=(0, 3, 6), seed=1)
    truth = checker.compute_truth(graph, [bc_op, cc_op])
    exact_bc = {v: truth[()].bc[v] for v in bc_op.targets}
    exact_cc = {v: truth[()].cc[v] for v in cc_op.targets}
    eps = workloads.EPSILON
    bound = 6  # distance bound D of the closeness answer

    def bc_answer(values):
        return checker.Answer(list(bc_op.targets), values, sorted(values))

    def cc_answer(values):
        return checker.Answer(list(cc_op.targets), values, sorted(values),
                              distance_bound=bound)

    assert checker.check("bc", bc_op, bc_answer(exact_bc), truth, eps).ok
    assert checker.check("cc", cc_op, cc_answer(exact_cc), truth, eps).ok
    verdict = checker.check("bc", bc_op, bc_answer({**exact_bc, 3: exact_bc[3] + 1.5 * eps}),
                            truth, eps)
    assert not verdict.ok and "missed eps" in verdict.cause
    # 1.5 eps on the normalised average distance avg * (n - 1) / (n * D).
    shift = 1.5 * eps * 7 * bound / 6
    verdict = checker.check("cc", cc_op, cc_answer({**exact_cc, 6: exact_cc[6] + shift}),
                            truth, eps)
    assert not verdict.ok and verdict.max_err_over_eps == pytest.approx(1.5)


def test_spearman_uses_average_ranks():
    assert checker.spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert checker.spearman([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)
    assert checker.spearman([0, 0, 1, 2], [0, 0, 5, 9]) == pytest.approx(1.0)
    assert checker.spearman([1, 1, 1], [1, 2, 3]) is None


SMALL = workloads.Workload(
    name="small", dataset="flickr", scale=0.2,
    pattern=("bc", "kad", "ins", "bc", "cc", "del", "full", "cc", "ins", "del"),
    why="test",
)


@pytest.fixture(scope="module")
def session():
    session = run.Session(SMALL, seed=3, deadline=time.perf_counter() + 120,
                          truth_cache=None)
    session.set_up(reps=1)
    return session


def test_traced_round_repeats_the_untraced_answers(session):
    untraced = session.run_round()
    assert not [r for r in untraced.records if r.failed]
    tracer = layers.Tracer()
    with layers.instrument(tracer):
        traced = [session.run_round(tracer) for _ in range(2)]
    assert run.consistency_problems(untraced, traced, "traced") == []
    assert run.consistency_problems(untraced, [session.run_round()], "again") == []
    traced[1].layer["gen_bc.samples"] += 1
    assert run.consistency_problems(untraced, traced, "traced")
    metrics = traced[0].layer
    assert set(metrics) | {"registry.load_s", "trace.overhead_s"} == set(layers.LAYER_METRICS)
    assert metrics["gen_bc.samples"] > 0
    assert metrics["bidirectional.visited_edges"] > 0 and metrics["cc.sample_s"] > 0
    assert metrics["exact_bc.work"] > 0 and metrics["graph.edit_calls"] == 4 * workloads.EDGES_PER_BATCH
    assert metrics["pool.chunks"] == 0
    # Instrumentation is removed again on exit.
    from repro.saphyra_bc import gen_bc

    assert not hasattr(gen_bc.bidirectional_shortest_paths, "__wrapped__")


def test_call_over_its_limit_is_a_recorded_failure(session, monkeypatch):
    monkeypatch.setattr(run, "OP_LIMIT_S", 1e-4)
    records = session.run_round().records
    queries = [r for r in records if r.op.kind in workloads.QUERY_KINDS]
    assert queries and all(r.cause.startswith("timeout") for r in queries)


def test_refuses_stray_knobs_and_missing_program(monkeypatch, tmp_path, capsys):
    args = ["--workload", "social-mixed", "--seed", "1", "--seconds", "1"]
    monkeypatch.setenv("REPRO_WORKERS", "2")
    assert run.main(args) == 2
    monkeypatch.delenv("REPRO_WORKERS")
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(args) == 2
    assert capsys.readouterr().out == ""
