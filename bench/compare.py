"""Compare two benchmark results against the bounds in ``BENCHMARK.json``.

    python3 bench/compare.py A B

``A`` (the parent) and ``B`` (the change) are each a ``results.json``
written by ``bench/run.py``, or a directory holding several (one per
run, searched recursively).  Each run's value is one sample, so the
spread compared with a bound is the run-to-run spread; a side with a
single run has none.

One row per workload and end-to-end metric gives each side's median,
quartiles and sample count, the change in the metric's worse
direction, its bound, and a verdict:

* ``unresolved`` when either side's interquartile spread (as a share of
  its median) is wider than the bound, unless every B sample reads
  better (``better``) or worse (``worse``) than every A sample;
* otherwise ``worse`` / ``better`` when the medians differ by more than
  the bound, else ``same``.

``error_rate`` gets a row too, with bound 0: any increase is worse.
Exits 1 on any ``worse``, 2 on any ``unresolved`` (and no ``worse``),
else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

if not __package__:  # run as a script: make the bench package importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import ROOT  # noqa: E402
from bench.stats import quartiles, spread  # noqa: E402


def load_runs(path: Path) -> list[dict[str, Any]]:
    """The ``results.json`` documents at *path* (a file or a directory)."""
    files = sorted(path.rglob("results.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"compare: no results.json under {path}")
    return [json.loads(file.read_text()) for file in files]


def samples(runs: list[dict[str, Any]], workload: str,
            name: str) -> list[float]:
    """The metric's value in each run that reported it."""
    return [run["workloads"][workload]["metrics"][name]["value"]
            for run in runs
            if name in run["workloads"][workload]["metrics"]]


def verdict(a: list[float], b: list[float], bound: float,
            better: str) -> tuple[str, float]:
    """``(verdict, change)``; *change* is positive in the worse direction."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    change = sign * (statistics.median(b) - base) / abs(base) if base else 0.0
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better", change
        if all(sign * (y - x) > 0 for x in a for y in b) and change > bound:
            return "worse", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def describe(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def compare(spec: dict[str, Any], side_a: list[dict[str, Any]],
            side_b: list[dict[str, Any]]) -> list[tuple[str, ...]]:
    """Rows ``(workload, metric, unit, A, B, change, bound, verdict)``."""
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        present = [all(workload in run["workloads"] for run in side)
                   for side in (side_a, side_b)]
        if not all(present):
            if any(present):
                rows.append((workload, "*", "", "", "", "", "",
                             "unresolved"))
            continue
        for entry in spec["end_to_end"]:
            a = samples(side_a, workload, entry["name"])
            b = samples(side_b, workload, entry["name"])
            if not a or not b:
                rows.append((workload, entry["name"], entry["unit"], "", "",
                             "", f"{entry['bound']:.0%}", "unresolved"))
                continue
            result, change = verdict(a, b, entry["bound"], entry["better"])
            rows.append((workload, entry["name"], entry["unit"],
                         describe(a), describe(b), f"{change:+.1%}",
                         f"{entry['bound']:.0%}", result))
        rate_a = max(run["workloads"][workload]["error_rate"]
                     for run in side_a)
        rate_b = max(run["workloads"][workload]["error_rate"]
                     for run in side_b)
        rows.append((workload, "error_rate", "ratio", f"{rate_a:.4g}",
                     f"{rate_b:.4g}", f"{rate_b - rate_a:+.4g}", "0",
                     "worse" if rate_b > rate_a else "same"))
    return rows


def exit_code(rows: list[tuple[str, ...]]) -> int:
    """1 on any ``worse``, else 2 on any ``unresolved``, else 0."""
    verdicts = {row[-1] for row in rows}
    if "worse" in verdicts:
        return 1
    if "unresolved" in verdicts:
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 bench/compare.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="parent results (file or dir)")
    parser.add_argument("b", type=Path, help="change results (file or dir)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(spec, load_runs(args.a), load_runs(args.b))
    header = ("workload", "metric", "unit", "A median [q1, q3]",
              "B median [q1, q3]", "change", "bound", "verdict")
    widths = [max(len(row[k]) for row in [header, *rows])
              for k in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    return exit_code(rows)


if __name__ == "__main__":
    sys.exit(main())
