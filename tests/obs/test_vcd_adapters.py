"""RtlTrace / GateTrace adapters and the equivalence mismatch VCD."""

import os

import pytest

from repro.eval.equivalence import lockstep
from repro.expocu import CamSync
from repro.hdl import Clock, NS, Signal
from repro.netlist.opt import optimize
from repro.netlist.sim import GateSimulator
from repro.netlist.techmap import map_module
from repro.obs import GateTrace, RtlTrace
from repro.obs.vcd import mismatch_window_vcd
from repro.rtl import Read, RtlBuilder
from repro.rtl.simulate import RtlSimulator
from repro.synth import synthesize
from repro.types import Bit
from repro.types.spec import bit, unsigned


def make_rtl():
    return synthesize(
        CamSync("camsync", Clock("clk", 10 * NS),
                Signal("rst", bit(), Bit(1))),
        observe_children=False,
    )


def drive(sim, cycles=8):
    sim.step(reset=1)
    for k in range(cycles):
        sim.step(reset=0, pix_valid=k & 1, line_strobe=0, frame_strobe=0)


class TestRtlTrace:
    def test_outputs_traced_per_cycle(self):
        sim = RtlSimulator(make_rtl())
        trace = RtlTrace(sim)
        drive(sim)
        text = trace.render()
        assert "$scope module rtl $end" in text
        assert "pix_valid_sync" in text
        assert trace.change_count > 0

    def test_include_registers(self):
        sim = RtlSimulator(make_rtl())
        trace = RtlTrace(sim, include_registers=True)
        drive(sim)
        assert trace.writer.var_count > len(sim.module.outputs)

    def test_detach_stops_sampling(self):
        sim = RtlSimulator(make_rtl())
        trace = RtlTrace(sim)
        drive(sim, cycles=4)
        count = trace.change_count
        trace.detach()
        trace.detach()  # idempotent
        drive(sim, cycles=4)
        assert trace.change_count == count
        assert sim.step_hooks == []


def parse_vcd(text):
    """``(names, series)``: ident -> var name, ident -> {time: value}."""
    names: dict[str, str] = {}
    series: dict[str, dict[int, int]] = {}
    time = 0
    for line in text.splitlines():
        if line.startswith("$var"):
            _, _, _, ident, name, _ = line.split()
            names[ident] = name
            series[ident] = {}
        elif line.startswith("#"):
            time = int(line[1:])
        elif line.startswith("b"):
            raw, ident = line[1:].split()
            series[ident][time] = int(raw, 2)
        elif line[:1] in ("0", "1"):
            series[line[1:]][time] = int(line[0])
    return names, series


def twin_register_module():
    """Two registers named ``r``, as the synthesizer sometimes emits."""
    b = RtlBuilder("twins")
    x = b.input("x", unsigned(4))
    first = b.register("r", unsigned(4))
    second = b.register("r", unsigned(4))
    b.next(first, x)
    b.next(second, (Read(second) + Read(first)).resized(4))
    b.output("y", Read(second))
    return b.build(), first, second


class TestDuplicateRegisterNames:
    def test_each_var_carries_its_own_register(self):
        module, first, second = twin_register_module()
        sim = RtlSimulator(module)
        trace = RtlTrace(sim, include_registers=True)
        expected = {"r": [0], "r_1": [0]}
        for x in (3, 5, 9, 1, 14, 7):
            sim.step(reset=0, x=x)
            expected["r"].append(sim.register_value(first))
            expected["r_1"].append(sim.register_value(second))
        assert expected["r"] != expected["r_1"]
        names, series = parse_vcd(trace.render())
        assert sorted(names.values()) == ["r", "r_1", "y"]
        for ident, name in names.items():
            if name == "y":
                continue
            value, seen = 0, []
            for cycle in range(sim.cycle + 1):
                value = series[ident].get(cycle, value)
                seen.append(value)
            assert seen == expected[name], name

    def test_every_expocu_var_is_written(self):
        from repro.fault.scenarios import expocu_injector

        sim = expocu_injector("rtl", side=4).sim
        trace = RtlTrace(sim, include_registers=True)
        sim.step(reset=1)
        names, series = parse_vcd(trace.render())
        assert len(names) == trace.writer.var_count
        assert len(set(names.values())) == len(names)
        assert [names[i] for i, changes in series.items() if not changes] \
            == []


class TestGateTrace:
    @pytest.fixture(scope="class")
    def circuit(self):
        circuit = map_module(make_rtl())
        optimize(circuit)
        return circuit

    @pytest.mark.parametrize("backend", ["event", "compiled"])
    def test_backends_produce_identical_waveforms(self, circuit, backend):
        sim = GateSimulator(circuit, backend=backend)
        trace = GateTrace(sim)
        drive(sim)
        text = trace.render()
        assert "$scope module netlist $end" in text
        if not hasattr(self, "_golden"):
            type(self)._golden = {}
        self._golden[backend] = text
        if len(self._golden) == 2:
            assert self._golden["event"] == self._golden["compiled"]

    def test_include_flops(self, circuit):
        sim = GateSimulator(circuit, backend="event")
        trace = GateTrace(sim, include_flops=True)
        drive(sim)
        assert trace.writer.var_count > len(circuit.output_buses)

    def test_two_traces_coexist_and_detach(self, circuit):
        sim = GateSimulator(circuit, backend="event")
        first = GateTrace(sim)
        second = GateTrace(sim)
        first.detach()
        drive(sim, cycles=4)
        assert second.change_count > first.change_count
        second.close()
        assert sim.step_hooks == []


class _ScriptedStage:
    """A lockstep stage replaying a fixed output sequence."""

    def __init__(self, name, outputs):
        self.name = name
        self._outputs = iter(outputs)

    def step(self, inputs):
        return next(self._outputs)


class TestMismatchVcd:
    def run_diverging(self, tmp_path, margin=3):
        good = [{"y": k % 4} for k in range(20)]
        bad = [dict(row) for row in good]
        bad[12]["y"] = 9  # diverges at cycle 12 only
        path = tmp_path / "mismatch.vcd"
        report = lockstep(
            [_ScriptedStage("ref", good), _ScriptedStage("dut", bad)],
            [{} for _ in range(20)],
            vcd_on_mismatch=str(path), vcd_margin=margin,
        )
        return report, path

    def test_vcd_written_on_mismatch(self, tmp_path):
        report, path = self.run_diverging(tmp_path)
        assert not report.equivalent
        assert report.mismatches[0].cycle == 12
        assert report.vcd_path == str(path)
        text = path.read_text()
        assert "$scope module ref $end" in text
        assert "$scope module dut $end" in text
        # Windowed around the divergence: [12-3, 12+3].
        assert "#9" in text and "#15" in text
        assert "#5\n" not in text and "#16" not in text
        # The diverging value (9 = b1001) appears in the dut scope.
        assert "b1001" in text

    def test_no_vcd_when_equivalent(self, tmp_path):
        rows = [{"y": k % 4} for k in range(10)]
        path = tmp_path / "never.vcd"
        report = lockstep(
            [_ScriptedStage("a", list(rows)), _ScriptedStage("b", rows)],
            [{} for _ in range(10)],
            vcd_on_mismatch=str(path),
        )
        assert report.equivalent
        assert report.vcd_path is None
        assert not os.path.exists(str(path))

    def test_window_clips_at_zero(self):
        samples = {"s": [(k, {"y": k & 1}) for k in range(6)]}
        writer, window = mismatch_window_vcd(samples, first_cycle=1,
                                             last_cycle=2, margin=8)
        assert window == (0, 10)
        assert "$scope module s $end" in writer.render(window)
