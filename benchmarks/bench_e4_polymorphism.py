"""E4 — cost of polymorphism (paper §8).

Paper claim: *"In case of polymorphism, multiplexers are being inserted to
select the function and object ... If described in conventional approach,
logic would have to be added anyway."*  The polymorphic ALU is compared
against a conventional hand-muxed ALU of identical behaviour.
"""

from conftest import record_report

from repro.eval import format_table
from repro.expocu import PolyAluUnit
from repro.hdl import Clock, Input, Module, NS, Output, Signal
from repro.netlist import cell_histogram, map_module, optimize, total_area
from repro.synth import synthesize
from repro.types import Bit, Unsigned
from repro.types.spec import bit, unsigned


class ManualAluUnit(Module):
    """The conventional version: explicit operation select, no objects."""

    op_select = Input(unsigned(2))
    a = Input(unsigned(8))
    b = Input(unsigned(8))
    result = Output(unsigned(16))
    history = Output(unsigned(16))

    def __init__(self, name, clk, rst):
        super().__init__(name)
        self.cthread(self.run, clock=clk, reset=rst)

    def run(self):
        self.result.write(Unsigned(16, 0))
        self.history.write(Unsigned(16, 0))
        yield
        while True:
            select = self.op_select.read()
            yield  # same two-phase timing as the polymorphic version
            a = self.a.read()
            b = self.b.read()
            if select == 0:
                value = (a + b).resized(16)
            elif select == 1:
                value = (a - b).resized(16)
            elif select == 2:
                value = a * b
            else:
                if a > b:
                    value = a.resized(16)
                else:
                    value = b.resized(16)
            self.result.write(value)
            self.history.write(value)
            yield


def _netlist(factory):
    rtl = synthesize(
        factory(Clock("clk", 10 * NS), Signal("rst", bit(), Bit(1))),
        observe_children=False,
    )
    return optimize(map_module(rtl))


def test_e4_polymorphism_cost(benchmark):
    poly = benchmark(lambda: _netlist(lambda c, r: PolyAluUnit("p", c, r)))
    manual = _netlist(lambda c, r: ManualAluUnit("m", c, r))
    rows = []
    for label, circuit in (("polymorphic (PolyVar)", poly),
                           ("conventional hand-mux", manual)):
        hist = cell_histogram(circuit)
        rows.append({
            "description": label,
            "cells": len(circuit.cells),
            "area_ge": round(total_area(circuit), 1),
            "mux2": hist.get("MUX2", 0),
            "flops": len(circuit.flops()),
        })
    ratio = total_area(poly) / total_area(manual)
    lines = [
        "paper: polymorphism inserts selection muxes; a conventional",
        "       description adds equivalent logic anyway",
        "",
        format_table(rows),
        "",
        f"measured area ratio polymorphic/manual = {ratio:.2f} "
        "(expected ~1, small tag overhead)",
    ]
    record_report("E4_polymorphism", "\n".join(lines))
    assert 0.7 <= ratio <= 1.8, ratio
