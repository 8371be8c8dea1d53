"""Per-layer tracing from outside the program.

:func:`instrument` wraps the public functions of each layer at the name its
caller binds (``repro.saphyra_bc.gen_bc.bidirectional_shortest_paths`` is
the search ``Gen_bc`` calls, ``repro.baselines.kadabra.
bidirectional_shortest_paths`` the one KADABRA calls, methods at their
class), and restores every binding on exit; the program's source is never
modified.

Each wrapped call is a span with a name and a parent.  The tracer keeps a
stack of open spans and folds each span into per-name totals when it
closes: its self time is its duration minus the durations of its children
(children nest and run one at a time in the benchmark process).  Totals are
also kept per root span (``name@query.bc``), which splits a layer by the
query kind that caused it.  Counts come from the wrapped calls' return
values, never from program internals, and no wrapper draws randomness or
reorders calls, so a traced run returns bit-identical answers.

Spans are recorded only in the benchmark process and only inside a root
span the benchmark opened around one operation.  Worker processes forked
from a traced run inherit the wrappers but record nothing, so with
``workers > 1`` the time layers spend in workers shows up as
``pool.map_wait_s``; the counts below that come from merged return values
(``gen_bc.*``, ``bidirectional.calls``/``visited_edges``, ``kadabra.*``,
``driver.*``) still cover every process.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterator, List, Optional

#: Every per-layer metric with its unit, in report order.
LAYER_METRICS: Dict[str, str] = {
    "bidirectional.search_s": "s",
    "bidirectional.gen_bc.search_s": "s",
    "bidirectional.kadabra.search_s": "s",
    "bidirectional.calls": "count",
    "bidirectional.visited_edges": "count",
    "bidirectional.path_sample_s": "s",
    "gen_bc.sample_s": "s",
    "gen_bc.samples": "count",
    "gen_bc.pairs_drawn": "count",
    "gen_bc.rejections": "count",
    "gen_bc.acceptance_rate": "ratio",
    "isp.build_s": "s",
    "isp.sample_pair_s": "s",
    "isp.sample_pair_calls": "count",
    "block_cut_tree.build_s": "s",
    "block_cut_tree.blocks": "count",
    "vc_bounds.s": "s",
    "vc_bounds.vc_dimension": "count",
    "exact_bc.s": "s",
    "exact_bc.work": "count",
    "exact_bc.lambda_exact": "ratio",
    "driver.fold_s": "s",
    "driver.samples": "count",
    "driver.pilot_samples": "count",
    "driver.stages": "count",
    "driver.samples_over_vc_cap": "ratio",
    "driver.converged_vc": "count",
    "pool.start_s": "s",
    "pool.map_wait_s": "s",
    "pool.chunks": "count",
    "pool.payload_bytes": "bytes",
    "dag_cache.hits": "count",
    "dag_cache.misses": "count",
    "dag_cache.evictions": "count",
    "dag_cache.hit_rate": "ratio",
    "cc.problem_build_s": "s",
    "cc.sample_s": "s",
    "kadabra.s": "s",
    "kadabra.samples": "count",
    "csr.as_csr_s": "s",
    "csr.as_csr_calls": "count",
    "graph.edit_calls": "count",
    "graph.edit_s": "s",
    "registry.load_s": "s",
    "trace.overhead_s": "s",
}

#: Layer counts that must repeat exactly: across rounds, across runs of one
#: seed, and between a traced and an untraced run.
DETERMINISTIC_COUNTS = (
    "gen_bc.samples",
    "gen_bc.pairs_drawn",
    "gen_bc.rejections",
    "bidirectional.calls",
    "bidirectional.visited_edges",
    "exact_bc.work",
    "driver.samples",
    "driver.stages",
    "kadabra.samples",
    "dag_cache.hits",
    "dag_cache.misses",
)


class Tracer:
    """Span stack plus per-name aggregates for one traced round."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.stack: List[list] = []
        self.reset()

    def reset(self) -> None:
        """Drop the aggregates (between rounds)."""
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, List[float]] = defaultdict(list)
        self.generators: List[object] = []

    def _open(self, name: str) -> list:
        frame = [name, 0.0, time.perf_counter()]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        duration = time.perf_counter() - frame[2]
        self.stack.pop()
        name = frame[0]
        own = duration - frame[1]
        self.self_s[name] += own
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][1] += duration
            self.self_s[f"{name}@{self.stack[0][0]}"] += own

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span the benchmark opens around its own calls into a layer."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def recording(self) -> bool:
        return bool(self.stack) and os.getpid() == self.pid

    def wrap(
        self,
        function: Callable,
        name,
        after: Optional[Callable] = None,
    ) -> Callable:
        """Wrap ``function`` as span ``name`` (a string, or a callable of the
        call's arguments returning the name or ``None`` for no span);
        ``after(tracer, result, args)`` reads counts off the return value."""
        tracer = self
        name_of = name if callable(name) else (lambda args: name)

        @functools.wraps(function, updated=())
        def wrapper(*args, **kwargs):
            if not tracer.recording():
                return function(*args, **kwargs)
            span_name = name_of(args)
            if span_name is None:
                return function(*args, **kwargs)
            frame = tracer._open(span_name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(frame)
            if after is not None:
                after(tracer, result, args)
            return result

        return wrapper


# --- return-value readers -------------------------------------------------
def _count_blocks(tracer, bct, args) -> None:
    tracer.counts["block_cut_tree.blocks"] += bct.num_blocks


def _count_vc(tracer, vc_dimension, args) -> None:
    tracer.values["vc_bounds.vc_dimension"].append(vc_dimension)


def _count_exact(tracer, exact, args) -> None:
    tracer.counts["exact_bc.work"] += exact.work
    tracer.values["exact_bc.lambda_exact"].append(exact.lambda_exact)


def _keep_generator(tracer, generator, args) -> None:
    tracer.generators.append(generator)


def _count_batch(tracer, drawn, args) -> None:
    tracer.counts["driver.samples"] += drawn


def _count_schedule(tracer, outcome, args) -> None:
    _, schedule, stopping = args[:3]
    tracer.counts["driver.stages"] += outcome.num_stages
    tracer.counts["driver.schedule_samples"] += outcome.num_samples
    tracer.counts["driver.schedule_cap"] += schedule.max_samples
    if outcome.converged_by == stopping.cap_label:
        tracer.counts["driver.converged_vc"] += 1


def _count_pilot(tracer, estimate, args) -> None:
    tracer.counts["driver.pilot_samples"] += estimate.num_pilot_samples


def _map_span(args) -> str:
    pool, chunks = args[0], args[1]
    if pool.workers > 1 and len(chunks) > 1:
        return "pool.map"
    return "driver.chunk_tasks"


def _count_map(tracer, results, args) -> None:
    pool, chunks = args[0], args[1]
    if pool.workers > 1 and len(chunks) > 1:
        # Under the default fork start method the payload is inherited, so
        # the bytes that cross the pipes are the chunk arguments and results.
        tracer.counts["pool.chunks"] += len(chunks)
        tracer.counts["pool.payload_bytes"] += len(
            pickle.dumps((list(chunks), results), pickle.HIGHEST_PROTOCOL)
        )


def _start_span(args) -> Optional[str]:
    return "pool.start" if args[0]._pool is None else None


def _count_kadabra(tracer, result, args) -> None:
    tracer.counts["kadabra.samples"] += result.num_samples
    tracer.counts["kadabra.visited_edges"] += result.extra["visited_edges"]


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer's public functions for the duration of the block."""
    from repro.baselines import kadabra
    from repro.core import adaptive
    from repro.engine import driver
    from repro.graphs import bidirectional, csr
    from repro import parallel
    from repro.saphyra_bc import algorithm as bc_algorithm
    from repro.saphyra_bc import gen_bc, isp
    from repro.saphyra_cc import algorithm as cc_algorithm
    from repro.saphyra_cc import problem as cc_problem

    targets = [
        (gen_bc, "bidirectional_shortest_paths", "bidirectional.search", None),
        (kadabra, "bidirectional_shortest_paths", "bidirectional.search", None),
        (bidirectional.BidirectionalBFSResult, "sample_path",
         "bidirectional.path_sample", None),
        (gen_bc.GenBC, "sample_path", "gen_bc.sample", None),
        (bc_algorithm, "GenBC", "gen_bc.build", _keep_generator),
        (bc_algorithm, "PersonalizedISP", "isp.build", None),
        (isp.PersonalizedISP, "sample_pair", "isp.sample_pair", None),
        (bc_algorithm, "build_block_cut_tree", "block_cut_tree.build",
         _count_blocks),
        (bc_algorithm, "personalized_vc_dimension", "vc_bounds", _count_vc),
        (bc_algorithm, "exact_two_hop_risks", "exact_bc", _count_exact),
        (adaptive.AdaptiveSampler, "estimate", "adaptive.estimate",
         _count_pilot),
        (driver.SampleDriver, "run_batch", "driver.run_batch", _count_batch),
        (driver.SampleDriver, "run_schedule", "driver.run_schedule",
         _count_schedule),
        (parallel.WorkerPool, "map", _map_span, _count_map),
        # The pool starts lazily inside this private method; wrapping the
        # public map alone could not separate start-up from waiting.
        (parallel.WorkerPool, "_ensure_pool", _start_span, None),
        (cc_algorithm, "ClosenessProblem", "cc.problem_build", None),
        (cc_problem.ClosenessProblem, "sample_losses", "cc.sample", None),
        (kadabra.KADABRA, "estimate", "kadabra", _count_kadabra),
        (csr, "as_csr", "csr.as_csr", None),
    ]
    originals = []
    try:
        for owner, attr, name, after in targets:
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced round (everything but the set-up and
    overhead figures, which the benchmark adds)."""
    own = tracer.self_s
    counts = tracer.counts
    samples = pairs = rejections = visited = 0
    for generator in tracer.generators:
        stats = generator.stats
        samples += stats.samples_returned
        pairs += stats.pairs_drawn
        rejections += stats.rejections
        visited += stats.visited_edges

    def by_root(name: str, *roots: str) -> float:
        return sum(own[f"{name}@{root}"] for root in roots)

    def mean(key: str) -> float:
        values = tracer.values[key]
        return sum(values) / len(values) if values else 0.0

    lookups = counts["dag_cache.hits"] + counts["dag_cache.misses"]
    cap = counts["driver.schedule_cap"]
    return {
        "bidirectional.search_s": own["bidirectional.search"],
        "bidirectional.gen_bc.search_s": by_root(
            "bidirectional.search", "query.bc", "query.full"
        ),
        "bidirectional.kadabra.search_s": by_root(
            "bidirectional.search", "query.kad"
        ),
        "bidirectional.calls": pairs + counts["kadabra.samples"],
        "bidirectional.visited_edges": visited + counts["kadabra.visited_edges"],
        "bidirectional.path_sample_s": own["bidirectional.path_sample"],
        "gen_bc.sample_s": own["gen_bc.sample"],
        "gen_bc.samples": samples,
        "gen_bc.pairs_drawn": pairs,
        "gen_bc.rejections": rejections,
        "gen_bc.acceptance_rate": samples / pairs if pairs else 0.0,
        "isp.build_s": own["isp.build"],
        "isp.sample_pair_s": own["isp.sample_pair"],
        "isp.sample_pair_calls": tracer.calls["isp.sample_pair"],
        "block_cut_tree.build_s": own["block_cut_tree.build"],
        "block_cut_tree.blocks": counts["block_cut_tree.blocks"],
        "vc_bounds.s": own["vc_bounds"],
        "vc_bounds.vc_dimension": mean("vc_bounds.vc_dimension"),
        "exact_bc.s": own["exact_bc"],
        "exact_bc.work": counts["exact_bc.work"],
        "exact_bc.lambda_exact": mean("exact_bc.lambda_exact"),
        "driver.fold_s": own["driver.run_batch"],
        "driver.samples": counts["driver.samples"],
        "driver.pilot_samples": counts["driver.pilot_samples"],
        "driver.stages": counts["driver.stages"],
        "driver.samples_over_vc_cap": (
            counts["driver.schedule_samples"] / cap if cap else 0.0
        ),
        "driver.converged_vc": counts["driver.converged_vc"],
        "pool.start_s": own["pool.start"],
        "pool.map_wait_s": own["pool.map"],
        "pool.chunks": counts["pool.chunks"],
        "pool.payload_bytes": counts["pool.payload_bytes"],
        "dag_cache.hits": counts["dag_cache.hits"],
        "dag_cache.misses": counts["dag_cache.misses"],
        "dag_cache.evictions": counts["dag_cache.evictions"],
        "dag_cache.hit_rate": counts["dag_cache.hits"] / lookups if lookups else 0.0,
        "cc.problem_build_s": own["cc.problem_build"],
        "cc.sample_s": own["cc.sample"],
        "kadabra.s": own["kadabra"],
        "kadabra.samples": counts["kadabra.samples"],
        "csr.as_csr_s": own["csr.as_csr"],
        "csr.as_csr_calls": tracer.calls["csr.as_csr"],
        "graph.edit_calls": counts["graph.edit_calls"],
        "graph.edit_s": own["graph.edit"],
    }
