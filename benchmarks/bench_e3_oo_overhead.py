"""E3 — zero overhead of class/template resolution (paper §8).

Paper claim: *"The resolution of object-oriented design features like
classes and templates do not create an additional overhead."*  The same
synchronizer is described twice — once with the templated SyncRegister
objects (Fig. 2–5), once hand-resolved into procedural shift operations
(what the Fig. 7/8 intermediate looks like) — and both are synthesized and
optimized.  The netlists must match cell for cell.
"""

from conftest import record_report

from repro.eval import format_table
from repro.expocu import CamSync
from repro.hdl import Clock, Input, Module, NS, Output, Signal
from repro.netlist import cell_histogram, map_module, optimize, total_area
from repro.synth import synthesize
from repro.types import Bit, BitVector
from repro.types.spec import bit
from repro.types.spec import bits as bits_spec


class CamSyncProcedural(Module):
    """CamSync with the objects hand-resolved away (Fig. 8 style)."""

    pix_valid = Input(bit())
    line_strobe = Input(bit())
    frame_strobe = Input(bit())
    pix_valid_sync = Output(bit())
    line_start = Output(bit())
    frame_start = Output(bit())

    def __init__(self, name, clk, rst):
        super().__init__(name)
        self.cthread(self.sync_input, clock=clk, reset=rst)

    def sync_input(self):
        valid_hist = BitVector(4, 0)
        line_hist = BitVector(4, 0)
        frame_hist = BitVector(4, 0)
        self.pix_valid_sync.write(Bit(0))
        self.line_start.write(Bit(0))
        self.frame_start.write(Bit(0))
        yield
        while True:
            valid_hist = valid_hist.range(2, 0).concat(
                Bit(self.pix_valid.read())
            )
            line_hist = line_hist.range(2, 0).concat(
                Bit(self.line_strobe.read())
            )
            frame_hist = frame_hist.range(2, 0).concat(
                Bit(self.frame_strobe.read())
            )
            self.pix_valid_sync.write(valid_hist.bit(1))
            self.line_start.write(line_hist.bit(1) & ~line_hist.bit(2))
            self.frame_start.write(frame_hist.bit(1) & ~frame_hist.bit(2))
            yield


def _netlist(factory):
    rtl = synthesize(
        factory(Clock("clk", 10 * NS), Signal("rst", bit(), Bit(1))),
        observe_children=False,
    )
    return optimize(map_module(rtl))


def test_e3_class_resolution_adds_nothing(benchmark):
    oo_circuit = benchmark(
        lambda: _netlist(lambda c, r: CamSync("s", c, r))
    )
    proc_circuit = _netlist(lambda c, r: CamSyncProcedural("s", c, r))
    oo_hist = cell_histogram(oo_circuit)
    proc_hist = cell_histogram(proc_circuit)
    rows = [
        {"description": "OSSS classes + templates",
         "cells": len(oo_circuit.cells),
         "area_ge": round(total_area(oo_circuit), 1),
         "flops": len(oo_circuit.flops())},
        {"description": "hand-resolved procedural",
         "cells": len(proc_circuit.cells),
         "area_ge": round(total_area(proc_circuit), 1),
         "flops": len(proc_circuit.flops())},
    ]
    lines = [
        "paper: class/template resolution creates no additional overhead",
        "",
        format_table(rows),
        "",
        f"cell histograms equal: {oo_hist == proc_hist}  "
        f"({dict(oo_hist)})",
    ]
    record_report("E3_oo_overhead", "\n".join(lines))
    assert oo_hist == proc_hist, (oo_hist, proc_hist)
    assert total_area(oo_circuit) == total_area(proc_circuit)
