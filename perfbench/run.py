"""End-to-end SaPHyRa ranking benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload road-subset --seed 1 --seconds 15 --trace 0

One closed-loop client sends a workload's fixed operation list (see
``workloads.py``) to the public ranking calls — ``SaPHyRaBC.rank``,
``SaPHyRaCC.rank``, ``KADABRA.estimate`` — and to edge edits, timing each
call from the outside and scaling it by an interleaved calibration pass
(:class:`Calibrator`).  The list is repeated in rounds for ``--seconds``
(at least one round); every answer is checked against exact truth computed
before timing starts.  ``--trace 1`` runs one untraced round, then traced
rounds, and reports the per-layer metrics of ``layers.py`` plus the tracing
overhead; a traced answer that differs from the untraced one fails the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable report.  The program is imported from ``src/`` next to
this directory and nowhere else; without it, or with any ``REPRO_*``
variable set (a leaked knob measures a different program), the benchmark
exits with an error before measuring anything.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import layers  # noqa: E402
from workloads import (  # noqa: E402
    DATASET_SEED, DELTA, EPSILON, QUERY_KINDS, WORKLOADS, Op, Workload, make_plan,
)

#: End-to-end metrics with their units (BENCHMARK.json lists the same names).
END_TO_END: Dict[str, str] = {
    "wall_s": "s",
    "bc_query_s_p50": "s",
    "cc_query_s_p50": "s",
    "baseline_s_p50": "s",
    "edit_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "spearman_mean": "ratio",
}
#: Checker figures reported with the per-layer metrics: their run-to-run
#: spread (an extreme value; a count that is usually 0) is too wide to gate.
CHECK_METRICS: Dict[str, str] = {
    "max_err_over_eps": "ratio",
    "failed_frac": "ratio",
}
#: Operation kinds behind each per-call latency metric.
LATENCY_KINDS = {
    "bc_query_s_p50": ("bc", "full"),
    "cc_query_s_p50": ("cc",),
    "baseline_s_p50": ("kad",),
    "edit_s_p50": ("ins", "del"),
}
#: Exact betweenness of graph states, kept between runs in one checkout.
TRUTH_CACHE = HERE.parent / ".perfbench_cache"
#: Set-up repetitions per run; setup_s is their median.
SETUP_REPS = 5
#: Time of one calibration pass on the reference machine (2-CPU container).
CALIB_REF_S = 0.0035
#: Per-operation time limit and the whole run's limit, in seconds.
OP_LIMIT_S = 60.0
RUN_LIMIT_S = 170.0


class Calibrator:
    """A fixed pure-Python BFS workload whose time tracks the host's speed.

    The benchmark runs on shared machines where neighbours slow every call
    by up to 2x for minutes at a time.  Every reported time is scaled by
    ``CALIB_REF_S / c``, where ``c`` is this pass's time measured right
    before and after the call: contention then cancels, and on the
    reference machine the scale is close to 1.
    """

    def __init__(self, side: int = 40, sources: int = 8) -> None:
        nodes = side * side
        self.adjacency: Dict[int, List[int]] = {node: [] for node in range(nodes)}
        for node in range(nodes):
            for other in (node + 1 if (node + 1) % side else None, node + side):
                if other is not None and other < nodes:
                    self.adjacency[node].append(other)
                    self.adjacency[other].append(node)
        self.sources = [(index * 7919) % nodes for index in range(sources)]

    def measure(self) -> float:
        adjacency = self.adjacency
        start = time.perf_counter()
        for source in self.sources:
            dist = {source: 0}
            frontier = [source]
            while frontier:
                following = []
                for node in frontier:
                    level = dist[node] + 1
                    for other in adjacency[node]:
                        if other not in dist:
                            dist[other] = level
                            following.append(other)
                frontier = following
        return time.perf_counter() - start

    @staticmethod
    def scale(before: float, after: float) -> float:
        return CALIB_REF_S / ((before + after) / 2)


class BenchmarkError(Exception):
    """The benchmark cannot run here; reported without a result line."""


class OpTimeout(Exception):
    """An operation hit its time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise :class:`OpTimeout` in the block after ``seconds``."""
    if seconds <= 0:
        raise OpTimeout()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def import_program():
    """Import ``repro`` from this checkout's ``src/`` only."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"program sources not found at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchmarkError(f"imported repro from {repro.__file__}, not {SRC}")
    return repro


def stray_knobs() -> List[str]:
    return sorted(name for name in os.environ if name.startswith("REPRO_"))


# ----------------------------------------------------------------------
@dataclass
class OpRecord:
    op: Op
    seconds: float = 0.0
    raw_seconds: float = 0.0
    result: object = None
    cause: str = ""
    backend: str = ""
    digest: str = ""
    verdict: Optional[checker.Verdict] = None

    @property
    def failed(self) -> bool:
        return bool(self.cause) or (self.verdict is not None and not self.verdict.ok)


@dataclass
class Round:
    wall: float
    records: List[OpRecord]
    layer: Optional[Dict[str, float]] = None

    def digests(self) -> List[str]:
        return [record.digest for record in self.records]


class Session:
    """One workload on one graph: set-up, truth, and timed rounds."""

    def __init__(self, workload: Workload, seed: int, deadline: float,
                 truth_cache: Optional[Path] = TRUTH_CACHE) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.truth_cache = truth_cache
        self.calibrator = Calibrator()
        self.setup_s: List[float] = []
        self.load_s: List[float] = []
        self.graph = None
        self.plan: List[Op] = []
        self.truth: checker.Truth = {}

    # -- set-up ----------------------------------------------------------
    def set_up(self, reps: int = SETUP_REPS) -> None:
        """Dataset load, CSR build and warm-up, ``reps`` times; the last
        graph is the one measured.  Truth is computed after, untimed."""
        from repro.datasets import registry
        from repro.graphs import csr

        w = self.workload
        for _ in range(reps):
            before = self.calibrator.measure()
            start = time.perf_counter()
            dataset = registry.load(w.dataset, scale=w.scale, seed=DATASET_SEED)
            loaded = time.perf_counter()
            csr.as_csr(dataset.graph)
            self._warm_up(dataset.graph)
            done = time.perf_counter()
            scale = Calibrator.scale(before, self.calibrator.measure())
            self.setup_s.append((done - start) * scale)
            self.load_s.append((loaded - start) * scale)
            self.graph = dataset.graph
        self.plan = make_plan(
            w, list(self.graph.nodes()), list(self.graph.edges()), self.seed
        )
        self.truth = checker.compute_truth(self.graph, self.plan, self.truth_cache)

    def _warm_up(self, graph) -> None:
        from repro.baselines.kadabra import KADABRA
        from repro.saphyra_bc import SaPHyRaBC
        from repro.saphyra_cc.algorithm import SaPHyRaCC

        nodes = sorted(graph.nodes())[:5]
        workers = self.workload.workers
        SaPHyRaBC(EPSILON, DELTA, seed=0, max_samples_cap=64,
                  workers=workers).rank(graph, nodes)
        SaPHyRaCC(EPSILON, DELTA, seed=0, max_samples_cap=64,
                  workers=workers).rank(graph, nodes)
        KADABRA(EPSILON, DELTA, seed=0, max_samples_cap=64,
                workers=workers).estimate(graph)

    # -- operations --------------------------------------------------------
    def _execute(self, op: Op, tracer: Optional[layers.Tracer]):
        from repro.baselines.kadabra import KADABRA
        from repro.graphs import csr
        from repro.saphyra_bc import SaPHyRaBC
        from repro.saphyra_cc.algorithm import SaPHyRaCC

        graph = self.graph
        workers = self.workload.workers
        if op.kind in ("bc", "full"):
            targets = None if op.targets is None else list(op.targets)
            return SaPHyRaBC(EPSILON, DELTA, seed=op.seed,
                             workers=workers).rank(graph, targets)
        if op.kind == "cc":
            return SaPHyRaCC(EPSILON, DELTA, seed=op.seed,
                             workers=workers).rank(graph, list(op.targets))
        if op.kind == "kad":
            return KADABRA(EPSILON, DELTA, seed=op.seed,
                           workers=workers).estimate(graph)
        edit = graph.add_edge if op.kind == "ins" else graph.remove_edge
        with tracer.span("graph.edit") if tracer else contextlib.nullcontext():
            for u, v in op.edges:
                edit(u, v)
        if tracer:
            tracer.counts["graph.edit_calls"] += len(op.edges)
        csr.as_csr(graph)
        return None

    def _backend(self, op: Op) -> str:
        from repro.graphs import csr
        from repro.graphs.bidirectional import AUTO_CSR_BIDIRECTIONAL_THRESHOLD

        general = csr.effective_backend(self.graph)
        if op.kind in ("bc", "full", "kad"):
            search = csr.effective_backend(
                self.graph, auto_threshold=AUTO_CSR_BIDIRECTIONAL_THRESHOLD
            )
            return f"{general}/search={search}"
        return general

    def run_round(self, tracer: Optional[layers.Tracer] = None) -> Round:
        from repro.engine import dag_cache

        # Every round starts from the same program state: the DAG cache is
        # the only cache that outlives a query.
        dag_cache.clear_default_dag_cache()
        if tracer:
            tracer.reset()
        records: List[OpRecord] = []
        calibrations = [self.calibrator.measure()]
        for op in self.plan:
            record = OpRecord(op, backend=self._backend(op))
            before = dag_cache.default_dag_cache().stats() if tracer else None
            began = time.perf_counter()
            try:
                limit = min(OP_LIMIT_S, self.deadline - began)
                root = f"{'query' if op.kind in QUERY_KINDS else 'edit'}.{op.kind}"
                with time_limit(limit):
                    with tracer.span(root) if tracer else contextlib.nullcontext():
                        record.result = self._execute(op, tracer)
            except OpTimeout:
                record.cause = f"timeout: over {limit:.1f} s"
            except Exception as exc:  # a query that raises is a failed query
                record.cause = f"{type(exc).__name__}: {exc}"
            if record.cause and tracer:
                del tracer.stack[:]  # an interrupted span may not have closed
            record.raw_seconds = time.perf_counter() - began
            calibrations.append(self.calibrator.measure())
            record.seconds = record.raw_seconds * Calibrator.scale(*calibrations[-2:])
            if tracer:
                after = dag_cache.default_dag_cache().stats()
                for key in ("hits", "misses", "evictions"):
                    tracer.counts[f"dag_cache.{key}"] += after[key] - before[key]
            records.append(record)
        layer = None
        if tracer:
            scale = CALIB_REF_S / statistics.median(calibrations)
            layer = {
                key: value * scale if layers.LAYER_METRICS[key] == "s" else value
                for key, value in layers.layer_metrics(tracer).items()
            }
        self._check(records)
        return Round(sum(r.seconds for r in records), records, layer)

    def _check(self, records: Sequence[OpRecord]) -> None:
        for record in records:
            op = record.op
            if record.cause or op.kind not in QUERY_KINDS:
                record.digest = record.cause or op.kind
                continue
            answer = checker.answer_of(op.kind, op, record.result)
            record.digest = answer.digest(op.kind)
            record.verdict = checker.check(op.kind, op, answer, self.truth, EPSILON)
            record.result = None  # keep only what the report needs

    def run_rounds(self, seconds: float, tracer=None) -> List[Round]:
        """Rounds until ``seconds`` would be exceeded (at least one)."""
        rounds: List[Round] = []
        start = time.perf_counter()
        while True:
            rounds.append(self.run_round(tracer))
            elapsed = time.perf_counter() - start
            typical = statistics.median(r.wall for r in rounds)
            if elapsed + typical > seconds or time.perf_counter() + 2 * typical > self.deadline:
                return rounds


# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its worker children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(session: Session, rounds: Sequence[Round]) -> Dict[str, float]:
    records = [record for r in rounds for record in r.records]
    metrics: Dict[str, float] = {
        "wall_s": statistics.median(r.wall for r in rounds),
    }
    for name, kinds in LATENCY_KINDS.items():
        times = [r.seconds for r in records if r.op.kind in kinds and not r.failed]
        metrics[name] = statistics.median(times) if times else float("nan")
    metrics["setup_s"] = statistics.median(session.setup_s)
    metrics["peak_rss_mb"] = peak_rss_mb()
    rhos = [r.verdict.spearman for r in records
            if r.verdict is not None and r.verdict.spearman is not None]
    metrics["spearman_mean"] = statistics.fmean(rhos) if rhos else float("nan")
    return metrics


def check_metrics(records: Sequence[OpRecord]) -> Dict[str, float]:
    errors = [r.verdict.max_err_over_eps for r in records if r.verdict is not None]
    return {
        "max_err_over_eps": max(errors, default=float("nan")),
        "failed_frac": sum(r.failed for r in records) / len(records),
    }


def consistency_problems(reference: Round, rounds: Sequence[Round], what: str) -> List[str]:
    """Answers must repeat ``reference``'s exactly, and layer counts the
    first of ``rounds``'s."""
    problems = []
    for number, r in enumerate(rounds, 1):
        if r.digests() != reference.digests():
            problems.append(f"{what} round {number}: answers differ from the first round")
        if r.layer:
            for key in layers.DETERMINISTIC_COUNTS:
                if r.layer[key] != rounds[0].layer[key]:
                    problems.append(
                        f"{what} round {number}: {key} {r.layer[key]} != {rounds[0].layer[key]}"
                    )
    return problems


def environment(session: Session, rounds: Sequence[Round]) -> List[str]:
    import multiprocessing

    from repro.graphs import compiled, csr

    backends: Dict[str, set] = {}
    for record in rounds[0].records:
        backends.setdefault(record.op.kind, set()).add(record.backend)
    graph = session.graph
    return [
        f"env nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={csr.HAS_NUMPY} numba={compiled.HAS_NUMBA} "
        f"start_method={multiprocessing.get_context().get_start_method()}",
        f"workload {session.workload.name}: {session.workload.dataset}"
        f"@{session.workload.scale} seed={DATASET_SEED} n={graph.number_of_nodes()} "
        f"m={graph.number_of_edges()} workers={session.workload.workers} "
        f"ops/round={len(session.plan)} rounds={len(rounds)}",
        "backend " + " ".join(
            f"{kind}={','.join(sorted(values))}" for kind, values in sorted(backends.items())
        ),
    ]


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        deadline: float) -> dict:
    """Run one workload; return the report lines and the result object."""
    session = Session(workload, seed, deadline)
    with time_limit(deadline - time.perf_counter()):
        session.set_up()
    untraced = session.run_rounds(0.0 if trace else seconds)
    problems = consistency_problems(untraced[0], untraced, "untraced")
    measured = untraced
    overhead = None
    if trace:
        tracer = layers.Tracer()
        with layers.instrument(tracer):
            traced = session.run_rounds(seconds, tracer)
        problems += consistency_problems(untraced[0], traced, "traced")
        overhead = statistics.median(r.wall for r in traced) - untraced[0].wall
        measured = traced
    records = [record for r in measured for record in r.records]
    lines = environment(session, measured)
    lines += [
        f"op {r.op.index} {r.op.kind} {r.seconds:.4f} s (raw {r.raw_seconds:.4f} s) "
        f"digest={r.digest} "
        f"backend={r.backend}"
        for r in untraced[0].records
    ]
    lines.append(f"digest {checker_digest(untraced[0])}")
    if trace:
        metrics = {
            key: statistics.median(r.layer[key] for r in measured)
            for key in measured[0].layer
        }
        for key in layers.DETERMINISTIC_COUNTS:
            metrics[key] = measured[0].layer[key]
        metrics["registry.load_s"] = statistics.median(session.load_s)
        metrics["trace.overhead_s"] = overhead
        metrics.update(check_metrics(records))
        units = {**layers.LAYER_METRICS, **CHECK_METRICS}
        lines.append(f"trace overhead {overhead:+.4f} s per round "
                     f"(untraced {untraced[0].wall:.4f} s)")
    else:
        metrics = end_to_end(session, measured)
        units = END_TO_END
        lines += [f"metric {name} = {value:.6g} {CHECK_METRICS[name]}"
                  for name, value in check_metrics(records).items()]
    lines += [f"metric {name} = {metrics[name]:.6g} {unit}" for name, unit in units.items()]
    failed = [r for r in records if r.failed]
    lines += [
        f"failed op {r.op.index} ({r.op.kind}): {r.cause or r.verdict.cause}"
        for r in failed
    ]
    lines += [f"inconsistent: {problem}" for problem in problems]
    result = {
        "correct": not failed and not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    return {"lines": lines, "result": result}


def checker_digest(first: Round) -> str:
    return hashlib.sha256("".join(first.digests()).encode()).hexdigest()[:16]


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    try:
        knobs = stray_knobs()
        if knobs:
            raise BenchmarkError(
                "refusing to run with REPRO_* knobs set: " + ", ".join(knobs)
            )
        import_program()
        outcome = run(WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace), started + RUN_LIMIT_S)
    except (BenchmarkError, OpTimeout) as exc:
        print(f"perfbench: error: {str(exc) or 'set-up exceeded the run time limit'}",
              file=sys.stderr)
        return 2
    for line in outcome["lines"]:
        print(line)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
