"""Tests for the structural Verilog netlist emitter."""

import pytest

from repro.netlist import (
    map_module,
    netlist_stats_comment,
    optimize,
    to_structural_verilog,
)
from repro.netlist.verilog import CELL_MODELS
from repro.rtl import Read, RtlBuilder, mux
from repro.types.spec import bit, unsigned


def circuit():
    b = RtlBuilder("dsp")
    en = b.input("enable", bit())
    a = b.input("a", unsigned(4))
    reg = b.register("acc", unsigned(8))
    b.next(reg, mux(en, (Read(reg) + a).resized(8), Read(reg)))
    b.output("acc", Read(reg))
    return optimize(map_module(b.build()))


class TestStructuralEmission:
    def test_contains_cell_models(self):
        text = to_structural_verilog(circuit())
        for cell in ("module NAND2", "module DFF", "module MUX2"):
            assert cell in text

    def test_without_models(self):
        text = to_structural_verilog(circuit(), include_models=False)
        assert "module NAND2" not in text
        assert "module dsp" in text

    def test_bus_ports(self):
        text = to_structural_verilog(circuit())
        assert "input wire [3:0] a" in text
        assert "output wire [7:0] acc" in text

    def test_every_cell_instantiated(self):
        c = circuit()
        text = to_structural_verilog(c, include_models=False)
        instantiations = [line for line in text.splitlines()
                          if line.strip().startswith(
                              tuple(CELL_MODELS_NAMES))]
        assert len(instantiations) == len(c.cells)

    def test_flops_get_clock(self):
        text = to_structural_verilog(circuit(), include_models=False)
        dff_lines = [line for line in text.splitlines() if "DFF u" in line]
        assert dff_lines and all(".clk(clk)" in line for line in dff_lines)

    def test_unvalidated_circuit_rejected(self):
        from repro.netlist import Circuit

        c = Circuit("c")
        a, y = c.new_net("a"), c.new_net("y")
        c.add_cell("g", "INV", a=a, y=y)
        c.mark_output("y", [y])
        with pytest.raises(Exception):
            to_structural_verilog(c)

    def test_stats_comment(self):
        comment = netlist_stats_comment(circuit())
        assert comment.startswith("// design dsp")
        assert "DFF" in comment


CELL_MODELS_NAMES = ("INV", "BUF", "NAND2", "NOR2", "AND2", "OR2", "XOR2",
                     "XNOR2", "MUX2", "DFF", "TIE0", "TIE1")
