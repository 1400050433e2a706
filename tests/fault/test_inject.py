"""Injector-level tests: SEU flips, stuck-at forcing, snapshots."""

import pytest

from repro.fault.campaign import Fault
from repro.fault.inject import (
    FaultInjectionError,
    FaultableGateSimulator,
    GateFaultInjector,
    RtlFaultInjector,
)
from repro.netlist import map_module, optimize
from repro.rtl import Read, RtlBuilder, RtlSimulator
from repro.types.spec import unsigned


def pipeline_module(width=4):
    b = RtlBuilder("pipe")
    x = b.input("x", unsigned(width))
    s1 = b.register("s1", unsigned(width))
    s2 = b.register("s2", unsigned(width))
    b.next(s1, x)
    b.next(s2, Read(s1))
    b.output("y", Read(s2))
    return b.build()


def pipeline_circuit(width=4):
    return optimize(map_module(pipeline_module(width)))


class TestRtlInjector:
    def test_flip_register_changes_state(self):
        sim = RtlSimulator(pipeline_module())
        injector = RtlFaultInjector(sim)
        sim.step(x=5)
        reg = sim.find_register("s1")
        before = sim.register_value(reg)
        injector.flip_register("s1", 1)
        assert sim.register_value(reg) == before ^ 2

    def test_seu_corrupts_then_flushes(self):
        sim = RtlSimulator(pipeline_module())
        injector = RtlFaultInjector(sim)
        sim.step(x=0)
        sim.step(x=0)
        injector.inject(Fault("seu", "s2", 0, 0))
        assert sim.peek_outputs()["y"] == 1  # upset visible immediately
        sim.step(x=0)
        assert sim.peek_outputs()["y"] == 0  # clean stream overwrites it

    def test_flip_rejects_bad_targets(self):
        injector = RtlFaultInjector(RtlSimulator(pipeline_module()))
        with pytest.raises(FaultInjectionError):
            injector.flip_register("nope", 0)
        with pytest.raises(FaultInjectionError):
            injector.flip_register("s1", 99)

    def test_rtl_rejects_net_faults(self):
        injector = RtlFaultInjector(RtlSimulator(pipeline_module()))
        with pytest.raises(FaultInjectionError):
            injector.inject(Fault("sa0", "s1", 0, 1))

    def test_snapshot_restore_replays_identically(self):
        sim = RtlSimulator(pipeline_module())
        injector = RtlFaultInjector(sim)
        sim.step(x=9)
        snap = injector.snapshot()
        sim.step(x=3)
        injector.restore(snap)
        replay = [sim.step(x=3), sim.step(x=7)]
        injector.restore(snap)
        assert [sim.step(x=3), sim.step(x=7)] == replay

    def test_seu_targets_deterministic(self):
        module = pipeline_module()
        sim = RtlSimulator(module)
        a = RtlFaultInjector(sim).seu_targets()
        b = RtlFaultInjector(sim).seu_targets()
        assert a == b
        assert ("s1", 4) in a and ("s2", 4) in a

    def test_poke_register_masks_to_width(self):
        sim = RtlSimulator(pipeline_module())
        reg = sim.find_register("s1")
        sim.poke_register(reg, 0x1F5)
        assert sim.register_value(reg) == 0x5


class TestGateInjector:
    def test_stuck_at_forces_and_releases(self):
        sim = FaultableGateSimulator(pipeline_circuit())
        sim.step(reset=1)
        net = sim.circuit.output_buses["y"][0]
        sim.force_net(net, 1)
        for _ in range(3):
            sim.step(reset=0, x=0)
        assert sim.peek_outputs()["y"] & 1 == 1
        sim.release_all()
        for _ in range(3):
            sim.step(reset=0, x=0)
        assert sim.peek_outputs()["y"] == 0

    def test_seu_flip_visible_then_flushed(self):
        sim = FaultableGateSimulator(pipeline_circuit())
        injector = GateFaultInjector(sim)
        sim.step(reset=1)
        for _ in range(3):
            sim.step(reset=0, x=0)
        names = [name for name, _ in injector.seu_targets()]
        assert names
        before = list(sim._values)
        injector.inject(Fault("seu", names[0], 0, 0))
        assert sim._values != before  # state bit flipped and propagated
        for _ in range(3):
            sim.step(reset=0, x=0)
        assert sim.peek_outputs()["y"] == 0

    def test_snapshot_restore_clears_forcing(self):
        sim = FaultableGateSimulator(pipeline_circuit())
        injector = GateFaultInjector(sim)
        sim.step(reset=1)
        snap = injector.snapshot()
        net = sim.circuit.output_buses["y"][0]
        sim.force_net(net, 1)
        injector.restore(snap)
        for _ in range(3):
            sim.step(reset=0, x=0)
        assert sim.peek_outputs()["y"] == 0

    def test_matches_plain_simulator_when_fault_free(self):
        from repro.netlist import GateSimulator

        circuit_a = pipeline_circuit()
        reference = GateSimulator(circuit_a)
        faultable = FaultableGateSimulator(pipeline_circuit())
        reference.step(reset=1)
        faultable.step(reset=1)
        for value in (5, 9, 3, 7, 0, 15):
            reference.step(reset=0, x=value)
            faultable.step(reset=0, x=value)
            assert reference.peek_outputs() == faultable.peek_outputs()

    def test_unknown_net_rejected(self):
        injector = GateFaultInjector(
            FaultableGateSimulator(pipeline_circuit())
        )
        with pytest.raises(FaultInjectionError):
            injector.inject(Fault("sa1", "no-such-net", 0, 0))

    def test_requires_faultable_simulator(self):
        from repro.netlist import GateSimulator

        with pytest.raises(TypeError):
            GateFaultInjector(GateSimulator(pipeline_circuit()))
