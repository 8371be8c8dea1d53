"""The floor check shared by the ``check_*_baseline.py`` regression gates.

Each gate measures one same-process ratio per ``(topology, scenario)``
entry of its committed ``BENCH_*.json`` and hands the ratios to
:func:`run_gate`, which reports every ratio against the entry's
``min_speedup`` floor and exits 1 if any falls below it.  ``--update``
rewrites the ``measured_speedup`` fields instead (keeping the floors), so
the committed file documents real numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple


def run_gate(
    measure: Callable[[], Dict[Tuple[str, str], float]],
    baseline_path: Path,
    *,
    description: str,
    comparison: str,
    quantity: str,
    argv: Optional[Sequence[str]] = None,
) -> int:
    """Check (or, with ``--update``, record) ``measure()`` against the
    floors in ``baseline_path``; returns the process exit code.

    ``comparison`` and ``quantity`` name what a ratio measures in the
    report, e.g. ``"delta-on vs off"`` and ``"speedup"``.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--update", action="store_true",
        help=f"rewrite measured_speedup fields in {baseline_path.name}",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(baseline_path.read_text())
    measured = measure()

    failures = []
    for entry in baseline["entries"]:
        ratio = measured[(entry["topology"], entry["scenario"])]
        label = f"{entry['topology']}/{entry['scenario']}"
        print(
            f"{label}: {comparison} {quantity} {ratio:.2f}x "
            f"(floor {entry['min_speedup']:.2f}x, "
            f"recorded {entry['measured_speedup']:.2f}x)"
        )
        if args.update:
            entry["measured_speedup"] = round(ratio, 2)
        elif ratio < entry["min_speedup"]:
            failures.append(
                f"{label}: {ratio:.2f}x below the {entry['min_speedup']:.2f}x floor"
            )

    if args.update:
        baseline_path.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"updated {baseline_path}")
        return 0
    if failures:
        print("\nREGRESSION: " + "; ".join(failures), file=sys.stderr)
        return 1
    print(f"\nall scenarios at or above their committed {quantity} floors")
    return 0
