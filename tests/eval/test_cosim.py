"""Tests for the kernel↔RTL/gate co-simulation shell."""

from repro.baseline import i2c_rtl, sync_rtl
from repro.eval import RtlCosimModule
from repro.hdl import Clock, Module, NS, Signal, Simulator
from repro.netlist import GateSimulator, map_module, optimize
from repro.types import Bit
from repro.types.spec import bit


def host(engine=None, rtl=None):
    top = Module("top")
    top.clk = Clock("clk", 10 * NS)
    top.rst = Signal("rst", bit(), Bit(1))
    top.dut = RtlCosimModule("dut", rtl or sync_rtl(), top.clk, top.rst,
                             engine=engine)
    sim = Simulator(top)
    sim.run(20 * NS)
    top.rst.write(0)
    return top, sim


class TestRtlCosim:
    def test_ports_mirror_rtl_interface(self):
        top, _ = host()
        ports = top.dut.ports()
        assert ports["pix_valid"].direction == "in"
        assert ports["frame_start"].direction == "out"
        assert "reset" not in ports  # driven from the kernel reset signal

    def test_behaviour_matches_direct_rtl_sim(self):
        from repro.rtl import RtlSimulator

        top, sim = host()
        reference = RtlSimulator(sync_rtl())
        reference.step(reset=1)
        reference.step(reset=1)
        drive = [0, 1, 1, 0, 0, 1, 0, 0]
        for level in drive:
            top.dut.port("frame_strobe").drive(level)
            sim.run(10 * NS)
            reference.step(reset=0, frame_strobe=level, pix_valid=0,
                           line_strobe=0)
            assert int(top.dut.port("frame_start").read()) == \
                reference.peek_outputs()["frame_start"]

    def test_reset_passthrough(self):
        top, sim = host()
        top.dut.port("frame_strobe").drive(1)
        sim.run(30 * NS)
        top.rst.write(1)  # re-assert kernel reset
        sim.run(30 * NS)
        assert int(top.dut.port("frame_start").read()) == 0

    def test_gate_level_engine(self):
        circuit = optimize(map_module(sync_rtl()))
        top, sim = host(engine=GateSimulator(circuit))
        pulses = 0
        for level in (0, 1, 1, 0, 0, 0, 0):
            top.dut.port("frame_strobe").drive(level)
            sim.run(10 * NS)
            pulses += int(top.dut.port("frame_start").read())
        assert pulses == 1

    def test_wraps_multi_state_fsm(self):
        top, sim = host(rtl=i2c_rtl(2))
        top.dut.port("dev_addr").drive(0x21)
        top.dut.port("reg_addr").drive(1)
        top.dut.port("data").drive(2)
        top.dut.port("sda_in").drive(0)
        top.dut.port("start").drive(1)
        assert sim.run_until(lambda: int(top.dut.port("busy").read()),
                             200 * 10 * NS)
        top.dut.port("start").drive(0)
        assert sim.run_until(lambda: int(top.dut.port("done").read()),
                             3000 * 10 * NS)
