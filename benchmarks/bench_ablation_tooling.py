"""Ablation — behavioral-synthesis 'tool maturity' knobs (DESIGN.md §6).

Paper §11–12 stress that the OSSS results depend on prototypic tools that
*"produce some unnecessary overhead"*.  This ablation quantifies our own
tool's maturity levers on the OSSS ExpoCU netlist:

* raw technology mapping (no optimization at all),
* optimization without the mux-chain collapse rule,
* the full optimizer.
"""

from conftest import record_report

from repro.eval import format_table
from repro.expocu import ExpoCU
from repro.hdl import Clock, NS, Signal
from repro.netlist import analyze, map_module, total_area
from repro.netlist import opt as opt_module
from repro.synth import synthesize
from repro.types import Bit
from repro.types.spec import bit


def _rtl():
    return synthesize(
        ExpoCU[16, 16]("expocu", Clock("clk", 15 * NS),
                       Signal("rst", bit(), Bit(1))),
        observe_children=False,
    )


def _optimize_without_mux_chain(arena):
    saved = opt_module._Worklist._mux_chain
    opt_module._Worklist._mux_chain = lambda self, cell: False
    try:
        return opt_module.optimize(arena)
    finally:
        opt_module._Worklist._mux_chain = saved


def test_ablation_optimizer_maturity(benchmark):
    rtl = _rtl()
    raw = map_module(rtl).to_circuit()
    raw_area = total_area(raw)
    raw_cells = len(raw.cells)
    no_chain = _optimize_without_mux_chain(map_module(_rtl()))
    full = benchmark.pedantic(
        lambda: opt_module.optimize(map_module(_rtl())),
        rounds=1, iterations=1,
    )
    rows = [
        {"tool level": "raw mapping (no optimizer)",
         "cells": raw_cells, "area_ge": round(raw_area, 1),
         "fmax_mhz": "-"},
        {"tool level": "optimizer w/o mux-chain collapse",
         "cells": len(no_chain.cells),
         "area_ge": round(total_area(no_chain), 1),
         "fmax_mhz": round(analyze(no_chain).fmax_mhz, 1)},
        {"tool level": "full optimizer",
         "cells": len(full.cells),
         "area_ge": round(total_area(full), 1),
         "fmax_mhz": round(analyze(full).fmax_mhz, 1)},
    ]
    lines = [
        "ablation: behavioral-flow area as a function of tool maturity",
        "(the paper's 'unnecessary overhead' shrinks as passes mature)",
        "",
        format_table(rows),
    ]
    record_report("X_ablation_tooling", "\n".join(lines))
    assert total_area(full) < raw_area
