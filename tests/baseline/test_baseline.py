"""Tests for the hand-written VHDL-flow baseline modules."""

import pytest

from repro.baseline import (
    cam_ctrl_rtl,
    expocu_rtl,
    histogram_rtl,
    i2c_rtl,
    ip_library,
    multiplier_ip_circuit,
    params_rtl,
    resetctl_rtl,
    sync_rtl,
    threshold_rtl,
)
from repro.netlist import GateSimulator, link, map_module, optimize
from repro.rtl import RtlSimulator, lint_module


class TestLintAll:
    @pytest.mark.parametrize("factory", [
        sync_rtl, histogram_rtl, threshold_rtl, resetctl_rtl,
        params_rtl, i2c_rtl, cam_ctrl_rtl,
    ])
    def test_units_lint_clean_of_errors(self, factory):
        lint_module(factory())  # raises on structural errors

    def test_top_validates(self):
        expocu_rtl().validate()


class TestSyncRtl:
    def test_edge_pulse(self):
        sim = RtlSimulator(sync_rtl())
        sim.step(reset=1)
        pulses = []
        for level in [0, 1, 1, 0, 0, 0]:
            sim.step(reset=0, frame_strobe=level, pix_valid=0,
                     line_strobe=0)
            pulses.append(sim.peek_outputs()["frame_start"])
        assert sum(pulses) == 1


class TestHistogramRtl:
    def test_count_latch_clear(self):
        sim = RtlSimulator(histogram_rtl(10))
        sim.step(reset=1)
        for pix in (3, 10, 250):
            sim.step(reset=0, pix=pix, pix_valid=1, frame_start=0)
        sim.step(reset=0, pix=0, pix_valid=0, frame_start=1)
        sim.step(reset=0, pix=0, pix_valid=0, frame_start=0)
        outs = sim.peek_outputs()
        assert outs["hist0"] == 2 and outs["hist7"] == 1
        assert outs["hist_valid"] == 0  # pulse has passed


class TestThresholdRtl:
    def test_mean_matches_osss_math(self):
        sim = RtlSimulator(threshold_rtl(10, 256))
        sim.step(reset=1)
        hist = {f"hist{i}": 32 for i in range(8)}
        sim.step(reset=0, hist_valid=1, **hist)
        for _ in range(12):
            sim.step(reset=0, hist_valid=0, **hist)
        assert sim.peek_outputs()["mean"] == 128


class TestParamsRtl:
    def run_update(self, sim, mean):
        sim.step(reset=0, mean=mean, stats_valid=1)
        for _ in range(60):
            sim.step(reset=0, mean=mean, stats_valid=0)
            if sim.peek_outputs()["params_valid"]:
                break
        return sim.peek_outputs()

    def test_dark_raises_exposure(self):
        sim = RtlSimulator(params_rtl(128))
        sim.step(reset=1)
        outs = self.run_update(sim, 40)
        assert outs["exposure"] > 128

    def test_gain_iir_step(self):
        sim = RtlSimulator(params_rtl(128))
        sim.step(reset=1)
        outs = self.run_update(sim, 64)
        assert outs["gain"] == 80  # (3*64 + 128) >> 2

    def test_matches_osss_params_result(self):
        """Same algorithm: final values agree with the OSSS unit."""
        from repro.expocu import ExpoParamsUnit
        from tests.conftest import Bench

        bench = Bench(lambda c, r: ExpoParamsUnit[128]("p", c, r))
        bench.cycle(mean=40, stats_valid=1)
        for _ in range(70):
            bench.cycle(mean=40, stats_valid=0)
            if bench.out("params_valid"):
                break
        sim = RtlSimulator(params_rtl(128))
        sim.step(reset=1)
        outs = self.run_update(sim, 40)
        assert outs["exposure"] == bench.out("exposure")
        assert outs["gain"] == bench.out("gain")


class TestI2cRtl:
    def test_produces_clock_activity(self):
        sim = RtlSimulator(i2c_rtl(2))
        sim.step(reset=1)
        sim.step(reset=0, start=1, dev_addr=0x21, reg_addr=0x10,
                 data=0x55, sda_in=0)
        edges = 0
        prev = 1
        for _ in range(400):
            sim.step(reset=0, start=0, dev_addr=0x21, reg_addr=0x10,
                     data=0x55, sda_in=0)
            scl = sim.peek_outputs()["scl"]
            edges += int(scl != prev)
            prev = scl
            if sim.peek_outputs()["done"]:
                break
        assert sim.peek_outputs()["done"] == 1
        assert edges >= 54  # 27 bits clocked

    def test_slave_decodes_baseline_master(self):
        """Protocol compatibility with the camera model's slave."""
        from repro.eval.cosim import RtlCosimModule
        from repro.expocu import CameraModel
        from repro.hdl import Clock, Module, NS, Signal, Simulator
        from repro.types import Bit
        from repro.types.spec import bit

        top = Module("top")
        top.clk = Clock("clk", 10 * NS)
        top.rst = Signal("rst", bit(), Bit(1))
        top.cam = CameraModel("cam", top.clk, top.rst)
        top.i2c = RtlCosimModule("i2c", i2c_rtl(2), top.clk, top.rst)
        top.cam.port("scl").bind(top.i2c.port("scl"))
        top.cam.port("sda_master").bind(top.i2c.port("sda_out"))
        top.cam.port("sda_oe").bind(top.i2c.port("sda_oe"))
        top.i2c.port("sda_in").bind(top.cam.port("sda_in"))
        sim = Simulator(top)
        sim.run(20 * NS)
        top.rst.write(0)
        top.i2c.port("dev_addr").drive(0x21)
        top.i2c.port("reg_addr").drive(0x10)
        top.i2c.port("data").drive(0x42)
        top.i2c.port("start").drive(1)
        sim.run_until(lambda: int(top.i2c.port("busy").read()),
                      300 * 10 * NS)
        top.i2c.port("start").drive(0)
        assert sim.run_until(lambda: int(top.i2c.port("done").read()),
                             5000 * 10 * NS)
        assert top.cam.exposure == 0x42


class TestVhdlIp:
    def test_ip_circuit_multiplies(self):
        circuit = multiplier_ip_circuit(16, 8)
        sim = GateSimulator(circuit)
        sim.drive(a=1234, b=200)
        sim._settle_all()
        assert sim.peek_outputs()["p"] == 246800

    def test_linked_top_simulates(self):
        arena = map_module(expocu_rtl())
        assert arena.blackboxes, "top must use IP black boxes"
        circuit = optimize(link(arena, ip_library()))
        circuit.validate()
        sim = GateSimulator(circuit)
        sim.step(reset=1)
        sim.step(reset=0, pix=0, pix_valid=0, line_strobe=0,
                 frame_strobe=0, sda_in=1)
        assert sim.peek_outputs()["scl"] == 1  # idle bus
