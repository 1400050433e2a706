"""Measurement helpers: simulation speed, cycle counting (claims R7).

The paper's §10 lists *"much higher simulation speed than conventional RTL
simulators"* among the OSSS benefits.  :func:`simulation_rates` measures
cycles-per-second of the same design at the three levels our flow offers —
behavioral (kernel) simulation, RTL simulation, gate-level simulation —
over identical stimulus.
"""

from __future__ import annotations

import time
from typing import Callable, Mapping, Sequence


class RateSample:
    """Throughput of one simulation stage."""

    def __init__(self, stage: str, cycles: int, seconds: float) -> None:
        self.stage = stage
        self.cycles = cycles
        self.seconds = seconds

    @property
    def cycles_per_second(self) -> float:
        """Simulated clock cycles per wall-clock second."""
        if self.seconds <= 0:
            return float("inf")
        return self.cycles / self.seconds

    def __repr__(self) -> str:
        return (f"RateSample({self.stage}: "
                f"{self.cycles_per_second:,.0f} cycles/s)")


def measure_stage(stage, stimulus: Sequence[Mapping[str, int]],
                  repeat: int = 1) -> RateSample:
    """Drive *stage* (an equivalence-stage object) and time it."""
    start = time.perf_counter()
    cycles = 0
    for _ in range(repeat):
        for entry in stimulus:
            stage.step(entry)
            cycles += 1
    elapsed = time.perf_counter() - start
    return RateSample(stage.name, cycles, elapsed)


def simulation_rates(
    factory: Callable,
    stimulus: Sequence[Mapping[str, int]],
    observed: Sequence[str],
    repeat: int = 1,
) -> dict[str, RateSample]:
    """Cycles/s of behavioral vs RTL vs gate simulation of one design."""
    from repro.eval.equivalence import GateStage, KernelStage, RtlStage
    from repro.hdl.signal import Clock, Signal
    from repro.hdl.simtime import NS
    from repro.netlist.opt import optimize
    from repro.netlist.techmap import TechMapper
    from repro.synth.modulegen import synthesize
    from repro.types.logic import Bit
    from repro.types.spec import bit

    rtl = synthesize(factory(Clock("clk", 10 * NS),
                             Signal("rst", bit(), Bit(1))))
    circuit = optimize(TechMapper(rtl).map())
    kernel = KernelStage(factory, observed)
    kernel.sim.activate()
    rates = {"behavioral": measure_stage(kernel, stimulus, repeat)}
    rates["rtl"] = measure_stage(RtlStage(rtl, observed), stimulus, repeat)
    rates["gate"] = measure_stage(GateStage(circuit, observed), stimulus,
                                  repeat)
    return rates


def speedup_table(rates: Mapping[str, RateSample]) -> dict[str, float]:
    """Normalized speed (gate level = 1.0)."""
    base = rates["gate"].cycles_per_second
    return {
        stage: round(sample.cycles_per_second / base, 2)
        for stage, sample in rates.items()
    }
