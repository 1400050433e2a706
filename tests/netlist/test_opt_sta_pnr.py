"""Tests for netlist optimization, STA, placement, linking, circuit rules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import (
    Circuit,
    GateSimulator,
    NetlistError,
    analyze,
    cell_histogram,
    link,
    map_module,
    optimize,
    place,
    total_area,
)
from repro.netlist.cells import DFF, LIBRARY
from repro.rtl import BinOp, Const, Read, RtlBuilder, RtlModule, mux
from repro.types.spec import bit, unsigned


def small_design():
    b = RtlBuilder("d")
    a = b.input("a", unsigned(4))
    c = b.input("b", unsigned(4))
    reg = b.register("acc", unsigned(8))
    b.next(reg, (Read(reg) + (a * c)).resized(8))
    b.output("q", Read(reg))
    return b.build()


class TestCircuitRules:
    def test_multiple_drivers_rejected(self):
        c = Circuit("c")
        n = c.new_net("n")
        c.add_cell("g1", "TIE0", y=n)
        with pytest.raises(NetlistError):
            c.add_cell("g2", "TIE1", y=n)

    def test_unconnected_pin_rejected(self):
        c = Circuit("c")
        n = c.new_net("n")
        with pytest.raises(NetlistError):
            c.add_cell("g", "INV", a=n)  # y missing

    def test_validate_undriven(self):
        c = Circuit("c")
        a, y = c.new_net("a"), c.new_net("y")
        c.add_cell("g", "INV", a=a, y=y)
        c.mark_output("y", [y])
        with pytest.raises(NetlistError):
            c.validate()

    def test_topological_order_detects_loop(self):
        c = Circuit("c")
        a, b = c.new_net("a"), c.new_net("b")
        c.add_cell("g1", "INV", a=a, y=b)
        c.add_cell("g2", "INV", a=b, y=a)
        c.mark_output("y", [a])
        with pytest.raises(NetlistError):
            c.topological_comb_order()


class TestOptimization:
    def test_reduces_area_and_preserves_behavior(self):
        module = small_design()
        raw = map_module(module)
        before_cells = len(raw.cells)
        reference = GateSimulator(map_module(small_design()).to_circuit())
        circuit = optimize(raw)
        assert len(circuit.cells) < before_cells
        optimized = GateSimulator(circuit)
        stim = [dict(reset=1)] + [
            dict(reset=0, a=i % 16, b=(3 * i) % 16) for i in range(40)
        ]
        for entry in stim:
            reference.step(**entry)
            optimized.step(**entry)
            assert reference.peek_outputs() == optimized.peek_outputs()

    def test_constant_folding_collapses(self):
        m = RtlModule("m")
        a = m.add_input("a", bit())
        zero = Const(bit(), 0)
        m.add_output("y", BinOp("and", Read(a), zero))
        circuit = optimize(map_module(m))
        # y is constant 0: only the tie cell should remain.
        kinds = cell_histogram(circuit)
        assert kinds.get("AND2", 0) == 0

    def test_double_inverter_removed(self):
        m = RtlModule("m")
        a = m.add_input("a", bit())
        from repro.rtl import UnaryOp

        m.add_output("y", UnaryOp("not", UnaryOp("not", Read(a))))
        circuit = optimize(map_module(m))
        assert cell_histogram(circuit).get("INV", 0) == 0

    def test_cse_merges_duplicates(self):
        m = RtlModule("m")
        a = m.add_input("a", unsigned(4))
        b = m.add_input("b", unsigned(4))
        # Two identical adders.
        m.add_output("x", BinOp("add", Read(a), Read(b)))
        m.add_output("y", BinOp("add", Read(a), Read(b)))
        arena = map_module(m)
        before = total_area(arena.to_circuit())
        assert total_area(optimize(arena)) <= before / 1.8

    def test_dead_logic_removed(self):
        m = RtlModule("m")
        a = m.add_input("a", unsigned(8))
        m.add_wire("unused", BinOp("mul", Read(a), Read(a)))
        m.add_output("y", Read(a))
        circuit = optimize(map_module(m))
        assert cell_histogram(circuit).get("AND2", 0) == 0


class TestTiming:
    def test_deeper_logic_is_slower(self):
        def adder(width):
            m = RtlModule(f"add{width}")
            a = m.add_input("a", unsigned(width))
            b = m.add_input("b", unsigned(width))
            m.add_output("y", BinOp("add", Read(a), Read(b)))
            return analyze(map_module(m).to_circuit())

        assert adder(16).critical_path_ns > adder(4).critical_path_ns

    def test_fmax_inverse_of_path(self):
        report = analyze(map_module(small_design()).to_circuit())
        assert report.fmax_mhz == pytest.approx(
            1000.0 / report.critical_path_ns
        )

    def test_meets(self):
        report = analyze(map_module(small_design()).to_circuit())
        assert report.meets(1.0)
        assert not report.meets(1e9)

    def test_registered_paths_include_clk_q_and_setup(self):
        b = RtlBuilder("pipe", reset_port=None)
        r1 = b.register("r1", bit())
        r2 = b.register("r2", bit())
        b.next(r1, Read(r2))
        b.next(r2, Read(r1))
        b.output("q", Read(r1))
        report = analyze(map_module(b.build()).to_circuit())
        assert report.critical_path_ns >= DFF.clk_to_q + DFF.setup

    def test_critical_path_names_cells(self):
        module = small_design()
        circuit = optimize(map_module(module))
        report = analyze(circuit)
        assert report.path, "expected a non-empty critical path"


class TestPlacement:
    def test_placement_covers_cells(self):
        circuit = optimize(map_module(small_design()))
        placement = place(circuit)
        assert len(placement.positions) == len(
            circuit.flops() + circuit.topological_comb_order()
        )
        assert placement.total_wirelength > 0

    def test_wire_delays_slow_design(self):
        circuit = optimize(map_module(small_design()))
        placement = place(circuit)
        plain = analyze(circuit)
        routed = analyze(circuit, placement.wire_delays())
        assert routed.critical_path_ns >= plain.critical_path_ns

    def test_configuration_record(self):
        circuit = optimize(map_module(small_design()))
        config = place(circuit).configuration()
        assert config["design"] == "d" and config["placed_cells"] > 0


class TestLinker:
    def test_blackbox_resolution(self):
        from repro.baseline.vhdl_ip import ip_library, multiplier_blackbox

        b = RtlBuilder("host", reset_port=None)
        a = b.input("a", unsigned(16))
        c = b.input("b", unsigned(8))
        inst = b.instance("mul0", multiplier_blackbox(16, 8), a=a, b=c)
        b.output("p", inst.output("p"))
        module = b.build()
        arena = map_module(module)
        assert arena.blackboxes
        with pytest.raises(NetlistError):
            arena.to_circuit().validate()  # unresolved until linked
        circuit = link(arena, ip_library(16, 8)).to_circuit()
        circuit.validate()
        sim = GateSimulator(circuit)
        sim.drive(a=300, b=7)
        sim._settle_all()
        assert sim.peek_outputs()["p"] == 2100

    def test_missing_ip_rejected(self):
        from repro.baseline.vhdl_ip import multiplier_blackbox

        b = RtlBuilder("host", reset_port=None)
        a = b.input("a", unsigned(16))
        c = b.input("b", unsigned(8))
        inst = b.instance("mul0", multiplier_blackbox(16, 8), a=a, b=c)
        b.output("p", inst.output("p"))
        arena = map_module(b.build())
        with pytest.raises(NetlistError):
            link(arena, {})
