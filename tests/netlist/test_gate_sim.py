"""Focused tests of the event-driven gate simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import Circuit, GateSimulator, map_module, optimize
from repro.netlist.sim import _eval_cell
from repro.rtl import Read, RtlBuilder, mux
from repro.types.spec import bit, unsigned


class TestCellEvaluation:
    @given(a=st.integers(0, 1), b=st.integers(0, 1))
    def test_truth_tables(self, a, b):
        assert _eval_cell("AND2", [a, b]) == (a & b)
        assert _eval_cell("NAND2", [a, b]) == 1 - (a & b)
        assert _eval_cell("OR2", [a, b]) == (a | b)
        assert _eval_cell("NOR2", [a, b]) == 1 - (a | b)
        assert _eval_cell("XOR2", [a, b]) == (a ^ b)
        assert _eval_cell("XNOR2", [a, b]) == 1 - (a ^ b)
        assert _eval_cell("INV", [a]) == 1 - a
        assert _eval_cell("BUF", [a]) == a
        assert _eval_cell("MUX2", [a, b, 0]) == a
        assert _eval_cell("MUX2", [a, b, 1]) == b

    def test_unknown_cell(self):
        with pytest.raises(Exception):
            _eval_cell("ROM", [0])


def pipeline_circuit():
    b = RtlBuilder("pipe")
    x = b.input("x", unsigned(4))
    s1 = b.register("s1", unsigned(4))
    s2 = b.register("s2", unsigned(4))
    b.next(s1, x)
    b.next(s2, Read(s1))
    b.output("y", Read(s2))
    return optimize(map_module(b.build()))


class TestSequentialBehaviour:
    def test_two_stage_latency(self):
        sim = GateSimulator(pipeline_circuit())
        sim.step(reset=1)
        values = [5, 9, 3, 7]
        seen = []
        for value in values:
            sim.step(reset=0, x=value)
            seen.append(sim.peek_outputs()["y"])
        assert seen == [0, 5, 9, 3]

    def test_flops_commit_simultaneously(self):
        """s2 must take s1's OLD value, even though s1 changes same edge."""
        sim = GateSimulator(pipeline_circuit())
        sim.step(reset=1)
        sim.step(reset=0, x=15)
        outs = sim.peek_outputs()
        assert outs["y"] == 0  # not 15: no shoot-through

    def test_idle_cycles_cheap_but_correct(self):
        sim = GateSimulator(pipeline_circuit())
        sim.step(reset=1)
        sim.step(reset=0, x=9)
        for _ in range(5):
            sim.step(reset=0, x=9)  # no input changes
        assert sim.peek_outputs()["y"] == 9

    def test_cycle_counter(self):
        sim = GateSimulator(pipeline_circuit())
        sim.run([{"reset": 1}] * 3)
        assert sim.cycle == 3

    def test_unknown_bus_rejected(self):
        sim = GateSimulator(pipeline_circuit())
        with pytest.raises(Exception):
            sim.step(bogus=1)


class TestDriveSanitization:
    def test_wide_value_masked_to_bus_width(self):
        sim = GateSimulator(pipeline_circuit())
        sim.step(reset=1)
        sim.step(reset=0, x=0x1F5)  # 4-bit bus: only 0x5 survives
        sim.step(reset=0, x=0)
        assert sim.peek_outputs()["y"] == 0x5

    def test_masking_applies_before_change_detection(self):
        # 0x15 and 0x5 are the same 4-bit pattern: no nets may dirty.
        sim = GateSimulator(pipeline_circuit())
        sim.drive(x=0x5)
        assert sim.drive(x=0x15) == []

    def test_negative_value_rejected(self):
        from repro.netlist.circuit import NetlistError

        sim = GateSimulator(pipeline_circuit())
        with pytest.raises(NetlistError, match="negative"):
            sim.drive(x=-1)
        with pytest.raises(NetlistError, match="negative"):
            sim.step(reset=0, x=-3)


class TestCycleBudget:
    def test_run_within_budget(self):
        sim = GateSimulator(pipeline_circuit())
        outs = sim.run([{"reset": 1}] * 3, max_cycles=3)
        assert len(outs) == 3

    def test_run_exceeding_budget_raises(self):
        from repro.netlist.circuit import NetlistError

        def endless():
            while True:
                yield {"reset": 0, "x": 0}

        sim = GateSimulator(pipeline_circuit())
        with pytest.raises(NetlistError, match="cycle budget"):
            sim.run(endless(), max_cycles=10)
        assert sim.cycle == 10  # stopped right at the budget


class TestCompiledBackend:
    def test_matches_event_backend_on_pipeline(self):
        event = GateSimulator(pipeline_circuit())
        compiled = GateSimulator(pipeline_circuit(), backend="compiled")
        for stim in ({"reset": 1}, {"reset": 0, "x": 5},
                     {"reset": 0, "x": 9}, {"reset": 0, "x": 3},
                     {"reset": 0, "x": 3}, {"reset": 0, "x": 15}):
            assert event.step(**stim) == compiled.step(**stim)
            assert event.peek_outputs() == compiled.peek_outputs()

    def test_masking_and_budget_apply_to_compiled(self):
        from repro.netlist.circuit import NetlistError

        sim = GateSimulator(pipeline_circuit(), backend="compiled")
        sim.step(reset=1)
        sim.step(reset=0, x=0x1F5)
        sim.step(reset=0, x=0)
        assert sim.peek_outputs()["y"] == 0x5
        with pytest.raises(NetlistError, match="negative"):
            sim.step(reset=0, x=-1)

    def test_compiled_source_is_straight_line(self):
        sim = GateSimulator(pipeline_circuit(), backend="compiled")
        source = sim.compiled_source
        assert source.count("def settle(") == 1
        assert "def settle(v, f):" in source
        assert "def commit(v):" in source
        assert "def peek(v):" in source
        # One assignment per combinational cell, no loops.
        assert "for " not in source
        assert "while " not in source

    def test_unknown_backend_rejected(self):
        from repro.netlist.circuit import NetlistError

        with pytest.raises(NetlistError, match="backend"):
            GateSimulator(pipeline_circuit(), backend="turbo")

    def test_repr_names_backend(self):
        assert "compiled" in repr(
            GateSimulator(pipeline_circuit(), backend="compiled")
        )


class TestEventDrivenPropagation:
    @given(values=st.lists(st.integers(0, 15), min_size=5, max_size=20))
    @settings(max_examples=20, deadline=None)
    def test_matches_rtl_reference(self, values):
        """Event-driven gate updates must track the RTL simulator exactly."""
        from repro.rtl import RtlSimulator

        b = RtlBuilder("pipe")
        x = b.input("x", unsigned(4))
        s1 = b.register("s1", unsigned(4))
        s2 = b.register("s2", unsigned(4))
        b.next(s1, x)
        b.next(s2, Read(s1))
        b.output("y", Read(s2))
        module = b.build()
        reference = RtlSimulator(module)
        circuit = optimize(map_module(module))
        gates = GateSimulator(circuit)
        reference.step(reset=1)
        gates.step(reset=1)
        for value in values:
            reference.step(reset=0, x=value)
            gates.step(reset=0, x=value)
            assert reference.peek_outputs() == gates.peek_outputs()
