"""Text tables in the shape of the paper's Results section (§12, Fig. 12).

Formatting helpers used by the benchmark harness: a two-flow comparison
table (area/frequency, experiments E1/E2), the per-module inventory
(Fig. 12) and generic aligned tables for the remaining experiments.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence


def format_table(rows: Sequence[Mapping[str, Any]],
                 columns: Sequence[str] | None = None) -> str:
    """Render dict rows as an aligned text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {
        col: max(len(str(col)), *(len(str(r.get(col, ""))) for r in rows))
        for col in columns
    }
    header = "  ".join(str(col).ljust(widths[col]) for col in columns)
    rule = "  ".join("-" * widths[col] for col in columns)
    lines = [header, rule]
    for row in rows:
        lines.append("  ".join(
            str(row.get(col, "")).ljust(widths[col]) for col in columns
        ))
    return "\n".join(lines)


def flow_comparison(osss, vhdl) -> str:
    """E1/E2 table: the two flows side by side plus ratios."""
    rows = [osss.summary(), vhdl.summary()]
    ratio = {
        "flow": "osss / vhdl",
        "area_ge": round(osss.area / vhdl.area, 3),
        "cells": round(osss.cells / vhdl.cells, 3),
        "flops": round(len(osss.circuit.flops())
                       / max(1, len(vhdl.circuit.flops())), 3),
        "fmax_mhz": round(osss.timing.fmax_mhz / vhdl.timing.fmax_mhz, 3),
        "fmax_routed_mhz": round(osss.fmax_mhz / vhdl.fmax_mhz, 3),
        "critical_ns": round(
            osss.timing_routed.critical_path_ns
            / vhdl.timing_routed.critical_path_ns, 3
        ),
    }
    return format_table(rows + [ratio])


def module_inventory(result, depth: int = 2) -> str:
    """Fig. 12: the synthesized top-level modules with their areas."""
    report = result.area_report(depth)
    rows = []
    for prefix, area in report.by_module.items():
        rows.append({
            "module": prefix,
            "area_ge": round(area, 1),
            "share_%": round(100.0 * area / report.total, 1),
        })
    rows.append({"module": "TOTAL", "area_ge": round(report.total, 1),
                 "share_%": 100.0})
    return format_table(rows)
