"""Command-line interface: ``repro <command>`` or ``python -m repro <command>``.

Commands
--------
``rank``        Rank a node subset of a named dataset (or an edge-list file).
``compare``     Compare estimators on one subset-ranking task.
``datasets``    List the available datasets with their summaries.
``table``       Regenerate Table I, II or III.
``figure``      Regenerate the data behind Figures 3-7.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, List, Optional, Sequence, Tuple

from repro import knobs
from repro._version import __version__
from repro.utils.validation import check_in_unit_interval


def _unit_interval(text: str) -> float:
    """argparse ``type=`` for ``--epsilon``/``--delta``: a float in (0, 1).

    A bad value becomes a usage error (exit 2) naming the flag instead of
    a traceback from the first estimator.
    """
    try:
        value = float(text)
        check_in_unit_interval(value, "the value")
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return value


def _unit_interval_list(text: str) -> Tuple[float, ...]:
    """argparse ``type=`` for ``--epsilons``: comma-separated values in (0, 1)."""
    values = tuple(_unit_interval(token) for token in text.split(",") if token.strip())
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def _scale(text: str) -> float:
    """argparse ``type=`` for ``--scale``: a finite float > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"the value must be a finite number > 0, got {text!r}"
        )
    return value


def _count(minimum: int) -> Callable[[str], int]:
    """argparse ``type=`` for a count flag: an int >= ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"the value must be >= {minimum}, got {value}"
            )
        return value

    return parse


def _names(text: str, available: Sequence[str], kind: str) -> Tuple[str, ...]:
    """Comma-separated names, each one of ``available``."""
    names = tuple(token.strip() for token in text.split(",") if token.strip())
    if not names:
        raise argparse.ArgumentTypeError(f"expected at least one {kind} name")
    for name in names:
        if name not in available:
            raise argparse.ArgumentTypeError(
                f"unknown {kind} {name!r}; available: {', '.join(available)}"
            )
    return names


def _dataset_names(text: str) -> Tuple[str, ...]:
    """argparse ``type=`` for ``--datasets``: registry dataset names."""
    from repro.datasets import available_datasets

    return _names(text, available_datasets(), "dataset")


def _dataset_name(text: str) -> str:
    """argparse ``type=`` for ``--dataset``: one registry dataset name."""
    names = _dataset_names(text)
    if len(names) > 1:
        raise argparse.ArgumentTypeError(f"expected one dataset name, got {text!r}")
    return names[0]


def _node_ids(text: str) -> Tuple:
    """argparse ``type=`` for ``--targets``: distinct comma-separated node
    ids, integers where a token is one (the edge-list reader's ids)."""
    ids = tuple(
        int(token) if token.lstrip("-").isdigit() else token
        for token in (token.strip() for token in text.split(","))
        if token
    )
    if not ids:
        raise argparse.ArgumentTypeError("expected at least one node id")
    repeated = sorted({str(node) for node in ids if ids.count(node) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(f"repeated node ids: {', '.join(repeated)}")
    return ids


class _FlagError(Exception):
    """A flag value that fails only once the command reads it; :func:`main`
    reports it as a usage error (exit 2) naming the flag."""

    def __init__(self, flag: str, cause: object) -> None:
        super().__init__(f"argument {flag}: {cause}")


def _estimator_names(text: str) -> Tuple[str, ...]:
    """argparse ``type=`` for ``--estimators``: names ``compare_estimators``
    can build."""
    from repro.analysis import AVAILABLE_ESTIMATORS

    return _names(text, AVAILABLE_ESTIMATORS, "estimator")


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SaPHyRa: ranking nodes in large networks (ICDE 2022 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    rank = subparsers.add_parser("rank", help="rank a node subset by betweenness")
    rank.add_argument(
        "--dataset", type=_dataset_name, default="karate",
        help="dataset name (see `repro datasets`)",
    )
    rank.add_argument("--edge-list", default=None, help="edge-list file overriding --dataset")
    rank.add_argument("--scale", type=_scale, default=0.25, help="dataset scale factor")
    rank.add_argument(
        "--subset-size", type=_count(1), default=20, help="random target-subset size"
    )
    rank.add_argument(
        "--targets", type=_node_ids, default=None,
        help="comma-separated node ids (overrides --subset-size)",
    )
    rank.add_argument("--epsilon", type=_unit_interval, default=0.05)
    rank.add_argument("--delta", type=_unit_interval, default=0.01)
    rank.add_argument("--seed", type=int, default=7)
    rank.add_argument(
        "--top", type=_count(1), default=10, help="how many ranked nodes to print"
    )
    knobs.add_cli_flags(rank)
    rank.set_defaults(usage_error=rank.error)

    subparsers.add_parser("datasets", help="list available datasets")

    compare = subparsers.add_parser(
        "compare", help="compare estimators on one subset-ranking task"
    )
    compare.add_argument("--dataset", type=_dataset_name, default="karate")
    compare.add_argument("--scale", type=_scale, default=0.25)
    compare.add_argument("--subset-size", type=_count(1), default=30)
    compare.add_argument("--epsilon", type=_unit_interval, default=0.05)
    compare.add_argument("--delta", type=_unit_interval, default=0.01)
    compare.add_argument("--seed", type=int, default=7)
    compare.add_argument(
        "--estimators", type=_estimator_names, default="saphyra,kadabra,abra",
        help="comma-separated estimator names "
             "(saphyra, saphyra_full, kadabra, abra, rk, bader, ego)",
    )
    knobs.add_cli_flags(compare)

    table = subparsers.add_parser("table", help="regenerate a table of the paper")
    table.add_argument("number", type=int, choices=(1, 2, 3), help="table number")
    table.add_argument("--scale", type=_scale, default=0.25)
    table.add_argument("--seed", type=int, default=7)
    table.add_argument(
        "--datasets", type=_dataset_names, default=None,
        help="comma-separated dataset names (default: the paper's four networks)",
    )
    knobs.add_cli_flags(table)

    figure = subparsers.add_parser("figure", help="regenerate a figure of the paper")
    figure.add_argument("number", type=int, choices=(3, 4, 5, 6, 7), help="figure number")
    figure.add_argument("--scale", type=_scale, default=0.15)
    figure.add_argument("--seed", type=int, default=7)
    figure.add_argument("--num-subsets", type=_count(1), default=2)
    # ExperimentConfig needs two targets to correlate rankings.
    figure.add_argument("--subset-size", type=_count(2), default=30)
    figure.add_argument(
        "--epsilons", type=_unit_interval_list, default=None,
        help="comma-separated epsilon grid, e.g. '0.2,0.1,0.05'",
    )
    figure.add_argument(
        "--datasets", type=_dataset_names, default=None,
        help="comma-separated dataset names (default: the paper's four networks)",
    )
    knobs.add_cli_flags(figure)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    # Every given knob flag becomes its process-wide, env-mirrored override
    # (``--backend auto`` too, so it beats an exported REPRO_BACKEND).
    knobs.apply(vars(args))
    if args.command == "rank":
        try:
            return _command_rank(args)
        except _FlagError as error:
            args.usage_error(str(error))
    if args.command == "datasets":
        return _command_datasets()
    if args.command == "compare":
        return _command_compare(args)
    if args.command == "table":
        return _command_table(args)
    if args.command == "figure":
        return _command_figure(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


# ----------------------------------------------------------------------
def _command_rank(args) -> int:
    from repro.datasets import load, random_subset
    from repro.errors import GraphError
    from repro.graphs.io import read_edge_list
    from repro.graphs.components import largest_connected_component
    from repro.saphyra_bc import SaPHyRaBC

    if args.edge_list:
        try:
            graph = read_edge_list(args.edge_list)
        except OSError as error:
            raise _FlagError(
                "--edge-list",
                f"cannot read {args.edge_list}: {error.strerror or error}",
            ) from None
        except UnicodeDecodeError:
            raise _FlagError(
                "--edge-list", f"cannot read {args.edge_list}: not UTF-8 text"
            ) from None
        except GraphError as error:
            raise _FlagError("--edge-list", error) from None
        graph = graph.subgraph(largest_connected_component(graph))
        if graph.number_of_nodes() < 3:
            raise _FlagError(
                "--edge-list",
                f"the largest connected component of {args.edge_list} has "
                f"{graph.number_of_nodes()} nodes; ranking needs at least 3",
            )
        name = args.edge_list
    else:
        dataset = load(args.dataset, scale=args.scale, seed=args.seed)
        graph, name = dataset.graph, dataset.name
    if args.targets:
        targets: List = list(args.targets)
        missing = [node for node in targets if not graph.has_node(node)]
        if missing:
            raise _FlagError("--targets", f"not nodes of {name}: {missing}")
    else:
        targets = random_subset(graph, min(args.subset_size, graph.number_of_nodes()), args.seed)
    # workers=None: the --workers flag was installed process-wide by main()
    # via set_default_workers, mirroring the --backend mechanism.
    algorithm = SaPHyRaBC(args.epsilon, args.delta, seed=args.seed)
    result = algorithm.rank(graph, targets)
    print(f"# dataset={name} nodes={graph.number_of_nodes()} edges={graph.number_of_edges()}")
    if graph.is_weighted:
        # SaPHyRa's bidirectional sample generator is defined on hop
        # distances; weighted rankings come from the weighted-aware
        # estimators (`repro compare --estimators kadabra,abra,rk,bader`).
        print(
            "# note: SaPHyRa ranks hop-shortest-path betweenness; edge "
            "weights are ignored by this command"
        )
    print(
        f"# epsilon={args.epsilon} delta={args.delta} samples={result.num_samples} "
        f"converged_by={result.converged_by} time={result.wall_time_seconds:.3f}s"
    )
    print("rank | node | estimated betweenness")
    for position, node in enumerate(result.ranking[: args.top], start=1):
        print(f"{position:4d} | {node} | {result.scores[node]:.6f}")
    return 0


def _command_compare(args) -> int:
    from repro.analysis import compare_estimators, comparison_table
    from repro.datasets import load, random_subset

    dataset = load(args.dataset, scale=args.scale, seed=args.seed)
    graph = dataset.graph
    targets = random_subset(
        graph, min(args.subset_size, graph.number_of_nodes()), args.seed
    )
    rows = compare_estimators(
        graph,
        targets,
        epsilon=args.epsilon,
        delta=args.delta,
        seed=args.seed,
        estimators=args.estimators,
    )
    print(
        f"# dataset={dataset.name} nodes={graph.number_of_nodes()} "
        f"edges={graph.number_of_edges()} targets={len(targets)} "
        f"epsilon={args.epsilon} delta={args.delta}"
    )
    print(comparison_table(rows))
    return 0


def _command_datasets() -> int:
    from repro.datasets import available_datasets, load
    from repro.graphs.properties import summarize

    print("name | nodes | edges | diameter(est) | description")
    for name in available_datasets():
        dataset = load(name, scale=0.1, seed=0)
        summary = summarize(dataset.graph, exact=False, seed=0)
        print(
            f"{name} | {summary.num_nodes} | {summary.num_edges} | "
            f"{summary.diameter} | {dataset.description}"
        )
    return 0


def _command_table(args) -> int:
    from repro.experiments import (
        ExperimentConfig,
        render_table,
        table1_vc_bounds,
        table2_networks,
        table3_subsets,
    )

    overrides = {}
    if args.datasets is not None:
        overrides["datasets"] = args.datasets
    config = ExperimentConfig(scale=args.scale, seed=args.seed, **overrides)
    if args.number == 1:
        rows = table1_vc_bounds(config)
        print(
            render_table(
                ["dataset", "subset", "size", "VD(V)", "BD(V)", "BS(A)",
                 "VC RK", "VC full", "VC subset"],
                [
                    (
                        row.dataset,
                        row.subset_kind,
                        row.subset_size,
                        row.report.vertex_diameter,
                        row.report.max_block_diameter,
                        row.report.bs_value,
                        row.report.riondato_vc,
                        row.report.bicomponent_vc,
                        row.report.personalized_vc,
                    )
                    for row in rows
                ],
            )
        )
    elif args.number == 2:
        rows = table2_networks(config)
        print(
            render_table(
                ["dataset", "nodes", "edges", "diameter", "blocks", "cutpoints",
                 "paper nodes", "paper edges", "paper diam."],
                [
                    (
                        row.dataset,
                        row.summary.num_nodes,
                        row.summary.num_edges,
                        row.summary.diameter,
                        row.summary.num_blocks,
                        row.summary.num_cutpoints,
                        row.paper_nodes,
                        row.paper_edges,
                        row.paper_diameter,
                    )
                    for row in rows
                ],
            )
        )
    else:
        rows = table3_subsets(config)
        print(
            render_table(
                ["area", "nodes", "edges"],
                [(row.area, row.num_nodes, row.num_edges) for row in rows],
            )
        )
    return 0


def _command_figure(args) -> int:
    from repro.experiments import (
        ExperimentConfig,
        figure3_running_time,
        figure4_rank_correlation,
        figure5_subset_size,
        figure6_relative_error,
        figure7_road_case_study,
        render_table,
    )
    from repro.experiments.figures import epsilon_sweep

    overrides = {}
    if args.datasets is not None:
        overrides["datasets"] = args.datasets
    if args.epsilons is not None:
        overrides["epsilons"] = args.epsilons
    config = ExperimentConfig(
        scale=args.scale,
        seed=args.seed,
        num_subsets=args.num_subsets,
        subset_size=args.subset_size,
        subset_sizes=(10, args.subset_size),
        **overrides,
    )
    if args.number in (3, 4):
        rows = epsilon_sweep(config)
        if args.number == 3:
            series = figure3_running_time(rows=rows)
            for dataset, curves in series.items():
                print(f"== Fig. 3 ({dataset}): running time (s) ==")
                print(
                    render_table(
                        ["epsilon"] + list(curves),
                        _merge_series(curves),
                    )
                )
        else:
            series = figure4_rank_correlation(rows=rows)
            for dataset, curves in series.items():
                print(f"== Fig. 4 ({dataset}): Spearman correlation ==")
                print(
                    render_table(
                        ["epsilon"] + list(curves),
                        _merge_series(
                            {name: [(x, y) for x, y, _, _ in points] for name, points in curves.items()}
                        ),
                    )
                )
    elif args.number == 5:
        rows = figure5_subset_size(config)
        print(
            render_table(
                ["dataset", "algorithm", "subset size", "spearman", "ci low", "ci high"],
                [
                    (r.dataset, r.algorithm, r.subset_size, r.mean_spearman,
                     r.spearman_ci_low, r.spearman_ci_high)
                    for r in rows
                ],
            )
        )
    elif args.number == 6:
        rows = figure6_relative_error(config)
        print(
            render_table(
                ["dataset", "algorithm", "true zeros %", "false zeros %"],
                [
                    (r.dataset, r.algorithm, r.true_zero_percent, r.false_zero_percent)
                    for r in rows
                ],
            )
        )
    else:
        rows = figure7_road_case_study(config)
        print(
            render_table(
                ["area", "algorithm", "nodes", "time (s)", "spearman", "rank dev. %"],
                [
                    (r.area, r.algorithm, r.num_nodes, r.running_time_seconds,
                     r.spearman, r.rank_deviation_percent)
                    for r in rows
                ],
            )
        )
    return 0


def _merge_series(curves):
    """Merge ``{label: [(x, y), ...]}`` into table rows keyed by x."""
    xs = []
    for points in curves.values():
        for x, _ in points:
            if x not in xs:
                xs.append(x)
    rows = []
    for x in xs:
        row = [x]
        for label in curves:
            value = next((y for px, y in curves[label] if px == x), "-")
            row.append(value)
        rows.append(row)
    return rows


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
