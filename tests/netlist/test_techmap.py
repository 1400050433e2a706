"""Tests for technology mapping, with property-based RTL↔gate equivalence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import GateSimulator, map_module, optimize
from repro.rtl import (
    BinOp,
    Concat,
    Const,
    Mux,
    Read,
    RtlBuilder,
    RtlModule,
    ShiftDyn,
    Slice,
    UnaryOp,
)
from repro.rtl.simulate import RtlSimulator
from repro.types.spec import bit, bits, signed, unsigned


def comb_module(build_output):
    """One-output combinational module over two 8-bit inputs."""
    m = RtlModule("comb")
    a = m.add_input("a", unsigned(8))
    b = m.add_input("b", unsigned(8))
    m.add_output("y", build_output(Read(a), Read(b)))
    return m


def gate_value(module, a, b, run_opt=True):
    arena = map_module(module)
    circuit = optimize(arena) if run_opt else arena.to_circuit()
    sim = GateSimulator(circuit)
    sim.drive(a=a, b=b)
    sim._settle_all()
    return sim.peek_outputs()["y"]


def rtl_value(module, a, b):
    sim = RtlSimulator(module)
    sim.drive(a=a, b=b)
    return sim.peek_outputs()["y"]


OPS = {
    "add": lambda a, b: BinOp("add", a, b),
    "sub": lambda a, b: BinOp("sub", a, b),
    "mul": lambda a, b: BinOp("mul", a, b),
    "and": lambda a, b: BinOp("and", a, b),
    "or": lambda a, b: BinOp("or", a, b),
    "xor": lambda a, b: BinOp("xor", a, b),
    "eq": lambda a, b: BinOp("eq", a, b),
    "ne": lambda a, b: BinOp("ne", a, b),
    "lt": lambda a, b: BinOp("lt", a, b),
    "le": lambda a, b: BinOp("le", a, b),
    "gt": lambda a, b: BinOp("gt", a, b),
    "ge": lambda a, b: BinOp("ge", a, b),
}


class TestOperatorMapping:
    @pytest.mark.parametrize("op", sorted(OPS))
    @given(a=st.integers(0, 255), b=st.integers(0, 255))
    @settings(max_examples=25, deadline=None)
    def test_unsigned_ops_match_rtl(self, op, a, b):
        module = comb_module(OPS[op])
        assert gate_value(module, a, b) == rtl_value(module, a, b)

    @pytest.mark.parametrize("op", ["add", "mul", "lt", "ge"])
    @given(a=st.integers(0, 255), b=st.integers(0, 255))
    @settings(max_examples=25, deadline=None)
    def test_signed_ops_match_rtl(self, op, a, b):
        def build(ra, rb):
            return OPS[op](
                __import__("repro.rtl", fromlist=["Resize"]).Resize(
                    ra, signed(8)),
                __import__("repro.rtl", fromlist=["Resize"]).Resize(
                    rb, signed(8)),
            )

        module = comb_module(build)
        assert gate_value(module, a, b) == rtl_value(module, a, b)

    @given(a=st.integers(0, 255), b=st.integers(0, 15))
    @settings(max_examples=25, deadline=None)
    def test_dynamic_shift(self, a, b):
        def build(ra, rb):
            return ShiftDyn(ra, Slice(rb, 3, 0), left=False)

        module = comb_module(build)
        assert gate_value(module, a, b) == rtl_value(module, a, b)

    @given(a=st.integers(0, 255), b=st.integers(0, 255))
    @settings(max_examples=20, deadline=None)
    def test_mux_and_reductions(self, a, b):
        def build(ra, rb):
            sel = UnaryOp("reduce_xor", ra)
            return Mux(sel, UnaryOp("invert", rb),
                       BinOp("and", ra, rb))

        module = comb_module(build)
        assert gate_value(module, a, b) == rtl_value(module, a, b)

    @given(a=st.integers(0, 255), b=st.integers(0, 255))
    @settings(max_examples=20, deadline=None)
    def test_slice_concat_resize(self, a, b):
        def build(ra, rb):
            from repro.rtl import Resize

            return Resize(Concat([Slice(ra, 7, 4), Slice(rb, 3, 0)]),
                          unsigned(8))

        module = comb_module(build)
        assert gate_value(module, a, b) == rtl_value(module, a, b)

    def test_mapping_without_opt_also_correct(self):
        module = comb_module(OPS["mul"])
        assert gate_value(module, 13, 11, run_opt=False) == 143


class TestSequentialMapping:
    def test_register_with_reset(self):
        b = RtlBuilder("seq")
        en = b.input("en", bit())
        reg = b.register("r", unsigned(4), reset=5)
        from repro.rtl import mux

        b.next(reg, mux(en, (Read(reg) + 1).resized(4), Read(reg)))
        b.output("q", Read(reg))
        module = b.build()
        circuit = optimize(map_module(module))
        sim = GateSimulator(circuit)
        sim.step(reset=1)
        assert sim.peek_outputs()["q"] == 5
        sim.step(reset=0, en=1)
        assert sim.peek_outputs()["q"] == 6

    def test_flop_count_matches_register_bits(self):
        b = RtlBuilder("seq")
        reg = b.register("r", unsigned(6))
        b.next(reg, (Read(reg) + 1).resized(6))
        b.output("q", Read(reg))
        circuit = map_module(b.build()).to_circuit()
        assert len(circuit.flops()) == 6

    def test_hierarchy_flattened_with_prefixes(self):
        child = RtlModule("leaf")
        x = child.add_input("x", unsigned(4))
        child.add_output("y", (Read(x) + 1).resized(4))
        parent = RtlModule("top")
        a = parent.add_input("a", unsigned(4))
        inst = parent.add_instance("u0", child)
        inst.connect("x", Read(a))
        parent.add_output("y", inst.output("y"))
        circuit = map_module(parent).to_circuit()
        assert any(cell.name.startswith("top/u0/") for cell in circuit.cells)
