"""Multi-stage lockstep equivalence checking (paper §12, claim R6).

*"What we found out is that the behavior on every stage is bit and cycle
accurate and fully complies with its original description."*  This module
makes that claim mechanical: the same stimulus drives the OSSS kernel
simulation, the generated RTL and the optimized gate-level netlist in
lockstep, comparing every observed output every cycle.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.hdl.kernel import Simulator
from repro.hdl.module import Module
from repro.hdl.signal import Clock, Signal
from repro.hdl.simtime import NS
from repro.netlist.opt import optimize
from repro.netlist.sim import GateSimulator
from repro.netlist.techmap import TechMapper
from repro.obs.vcd import mismatch_window_vcd
from repro.rtl.ir import RtlModule
from repro.rtl.simulate import RtlSimulator
from repro.synth.modulegen import synthesize
from repro.types.logic import Bit
from repro.types.spec import bit


class Mismatch:
    """One divergence between two simulation stages."""

    def __init__(self, cycle: int, stage_a: str, stage_b: str,
                 outputs_a: dict, outputs_b: dict) -> None:
        self.cycle = cycle
        self.stage_a = stage_a
        self.stage_b = stage_b
        self.outputs_a = outputs_a
        self.outputs_b = outputs_b

    def __repr__(self) -> str:
        diffs = {
            key: (self.outputs_a.get(key), self.outputs_b.get(key))
            for key in set(self.outputs_a) | set(self.outputs_b)
            if self.outputs_a.get(key) != self.outputs_b.get(key)
        }
        return (f"Mismatch(cycle={self.cycle}, {self.stage_a} vs "
                f"{self.stage_b}: {diffs})")


class EquivalenceReport:
    """Outcome of a lockstep run."""

    def __init__(self, cycles: int, stages: Sequence[str],
                 mismatches: list[Mismatch]) -> None:
        self.cycles = cycles
        self.stages = list(stages)
        self.mismatches = mismatches
        #: Path of the side-by-side mismatch VCD, when one was written.
        self.vcd_path: str | None = None

    @property
    def equivalent(self) -> bool:
        """True when no stage ever diverged."""
        return not self.mismatches

    def __repr__(self) -> str:
        status = "OK" if self.equivalent else \
            f"{len(self.mismatches)} mismatch(es)"
        return (f"EquivalenceReport({' = '.join(self.stages)}, "
                f"{self.cycles} cycles: {status})")


class KernelStage:
    """Drives a fresh kernel-level module instance cycle by cycle."""

    name = "osss-sim"

    def __init__(self, factory: Callable[[Clock, Signal], Module],
                 observed: Sequence[str], reset_cycles: int = 2) -> None:
        self.clk = Clock("clk", 10 * NS)
        self.rst = Signal("rst", bit(), Bit(1))
        self.dut = factory(self.clk, self.rst)
        host = Module("eqtop")
        host.clk = self.clk
        host.rst = self.rst
        host.dut = self.dut
        self.sim = Simulator(host)
        self.observed = list(observed)
        for _ in range(reset_cycles):
            self.sim.run(10 * NS)
        self.rst.write(0)

    def step(self, inputs: Mapping[str, int]) -> dict[str, int]:
        self.sim.activate()
        for name, value in inputs.items():
            self.dut.port(name).drive(value)
        self.sim.run(10 * NS)
        result = {}
        for name in self.observed:
            port = self.dut.port(name)
            result[name] = port.spec.to_raw(port.read())
        return result


class RtlStage:
    """Drives an :class:`RtlSimulator` in lockstep."""

    name = "rtl"

    def __init__(self, rtl: RtlModule, observed: Sequence[str],
                 reset_cycles: int = 2) -> None:
        self.sim = RtlSimulator(rtl)
        self.observed = list(observed)
        for _ in range(reset_cycles):
            self.sim.step(reset=1)

    def step(self, inputs: Mapping[str, int]) -> dict[str, int]:
        self.sim.step(reset=0, **inputs)
        outputs = self.sim.peek_outputs()
        return {name: outputs[name] for name in self.observed}


class GateStage:
    """Drives a :class:`GateSimulator` in lockstep."""

    name = "netlist"

    def __init__(self, circuit, observed: Sequence[str],
                 reset_cycles: int = 2) -> None:
        self.sim = GateSimulator(circuit)
        self.observed = list(observed)
        for _ in range(reset_cycles):
            self.sim.step(reset=1)

    def step(self, inputs: Mapping[str, int]) -> dict[str, int]:
        self.sim.step(reset=0, **inputs)
        outputs = self.sim.peek_outputs()
        return {name: outputs[name] for name in self.observed}


def lockstep(stages: Sequence, stimulus: Iterable[Mapping[str, int]],
             max_mismatches: int = 5,
             vcd_on_mismatch: str | None = None,
             vcd_margin: int = 8) -> EquivalenceReport:
    """Run all *stages* over *stimulus*, comparing outputs each cycle.

    With *vcd_on_mismatch*, every stage's observed outputs are buffered
    per cycle; if any stage diverges, a side-by-side VCD (one scope per
    stage, timestamps in cycles) covering ``[first mismatch -
    vcd_margin, last mismatch + vcd_margin]`` is written to that path —
    the §12 debugging workflow ("inspect the intermediate on all
    levels") packaged as an artifact.
    """
    mismatches: list[Mismatch] = []
    samples: dict[str, list[tuple[int, dict[str, int]]]] = {
        stage.name: [] for stage in stages
    } if vcd_on_mismatch else {}
    cycles = 0

    def finish(cycles: int) -> EquivalenceReport:
        report = EquivalenceReport(cycles, [s.name for s in stages],
                                   mismatches)
        if vcd_on_mismatch and mismatches:
            writer, window = mismatch_window_vcd(
                samples,
                first_cycle=mismatches[0].cycle,
                last_cycle=mismatches[-1].cycle,
                margin=vcd_margin,
            )
            writer.write(vcd_on_mismatch, window)
            report.vcd_path = vcd_on_mismatch
        return report

    for cycle, entry in enumerate(stimulus):
        observations = [(stage.name, stage.step(entry)) for stage in stages]
        if vcd_on_mismatch:
            for stage_name, outputs in observations:
                samples[stage_name].append((cycle, outputs))
        reference_name, reference = observations[0]
        for other_name, outputs in observations[1:]:
            if outputs != reference:
                mismatches.append(Mismatch(cycle, reference_name,
                                           other_name, reference, outputs))
                if len(mismatches) >= max_mismatches:
                    return finish(cycle + 1)
        cycles = cycle + 1
    return finish(cycles)


def check_all_stages(
    factory: Callable[[Clock, Signal], Module],
    stimulus: Sequence[Mapping[str, int]],
    observed: Sequence[str],
    include_gates: bool = True,
    vcd_on_mismatch: str | None = None,
) -> EquivalenceReport:
    """The full R6 check: OSSS simulation = RTL = optimized netlist.

    *factory* builds a fresh DUT given (clock, reset); it is called twice —
    once for the kernel stage, once for synthesis — so state captured at
    synthesis time matches a fresh simulation.  *vcd_on_mismatch* dumps
    a three-stage side-by-side waveform around any divergence (see
    :func:`lockstep`).
    """
    kernel = KernelStage(factory, observed)
    rtl = synthesize(factory(Clock("clk", 10 * NS),
                             Signal("rst", bit(), Bit(1))))
    stages: list[Any] = [kernel, RtlStage(rtl, observed)]
    if include_gates:
        circuit = optimize(TechMapper(rtl).map())
        stages.append(GateStage(circuit, observed))
    # Reactivate the kernel stage's simulator (synthesis does not disturb
    # it, but constructing a second Simulator moved the active pointer).
    kernel.sim.activate()
    return lockstep(stages, stimulus, vcd_on_mismatch=vcd_on_mismatch)
