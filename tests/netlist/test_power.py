"""Tests for the activity-based power model."""

from repro.netlist import map_module, optimize
from repro.netlist.power import ActivitySimulator, estimate_power
from repro.rtl import Read, RtlBuilder, mux
from repro.types.spec import bit, unsigned


def toggler():
    b = RtlBuilder("toggler")
    en = b.input("en", bit())
    reg = b.register("state", unsigned(4))
    b.next(reg, mux(en, (Read(reg) + 1).resized(4), Read(reg)))
    b.output("q", Read(reg))
    return optimize(map_module(b.build()))


class TestActivityCounting:
    def test_idle_design_has_few_toggles(self):
        circuit = toggler()
        idle = estimate_power(circuit, [dict(reset=0, en=0)] * 50)
        busy = estimate_power(toggler(), [dict(reset=0, en=1)] * 50)
        assert busy.toggles > idle.toggles
        assert busy.dynamic > idle.dynamic

    def test_leakage_scales_with_cycles(self):
        circuit = toggler()
        short = estimate_power(circuit, [dict(reset=0, en=0)] * 10)
        long = estimate_power(toggler(), [dict(reset=0, en=0)] * 40)
        assert long.leakage > short.leakage

    def test_flop_toggles_counted(self):
        circuit = toggler()
        sim = ActivitySimulator(circuit)
        sim.step(reset=0, en=1)
        sim.step(reset=0, en=1)
        flop_nets = {f.pins["q"].uid for f in circuit.flops()}
        assert any(uid in sim.toggle_counts for uid in flop_nets)

    def test_per_prefix_attribution(self):
        report = estimate_power(toggler(), [dict(reset=0, en=1)] * 20)
        assert report.by_prefix
        assert all(energy >= 0 for energy in report.by_prefix.values())

    def test_per_cycle_average(self):
        report = estimate_power(toggler(), [dict(reset=0, en=1)] * 20)
        assert report.per_cycle == report.total / 20
        assert "PowerReport" in repr(report)

    def test_zero_cycles(self):
        report = estimate_power(toggler(), [])
        assert report.per_cycle == 0.0
