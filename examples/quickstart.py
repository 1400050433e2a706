"""Quickstart: one OSSS class from simulation to gates.

Reproduces the paper's running example (Fig. 2–8): the templated
``SyncRegister`` class inside a small module is

1. simulated on the SystemC-like kernel,
2. resolved into readable non-member functions (Fig. 7),
3. synthesized to RTL and technology-mapped to gates,
4. checked cycle-accurate at every stage, and reported (area, Fmax).

Run:  python examples/quickstart.py
"""

import random

from repro.expocu import CamSync, SyncRegister
from repro.hdl import Clock, Module, NS, Signal, Simulator
from repro.netlist import AreaReport, GateSimulator, analyze, map_module, optimize
from repro.rtl import RtlSimulator
from repro.synth import synthesize
from repro.synth.codegen import resolve_class_text
from repro.types import Bit
from repro.types.spec import bit


def main() -> None:
    # ------------------------------------------------------------------
    # 1. simulate the OSSS description on the kernel
    # ------------------------------------------------------------------
    top = Module("top")
    top.clk = Clock("clk", 15 * NS)  # the paper's 66 MHz system clock
    top.rst = Signal("rst", bit(), Bit(1))
    top.dut = CamSync("sync", top.clk, top.rst)
    sim = Simulator(top)
    sim.run(2 * 15 * NS)
    top.rst.write(0)

    rng = random.Random(1)
    stimulus = [dict(pix_valid=rng.randint(0, 1),
                     line_strobe=rng.randint(0, 1),
                     frame_strobe=rng.randint(0, 1)) for _ in range(100)]
    kernel_trace = []
    for entry in stimulus:
        for name, value in entry.items():
            top.dut.port(name).drive(value)
        sim.run(15 * NS)
        kernel_trace.append((int(top.dut.frame_start.read()),
                             int(top.dut.line_start.read())))
    print(f"[1] kernel simulation: {len(stimulus)} cycles, "
          f"{sum(f for f, _ in kernel_trace)} frame pulses")

    # ------------------------------------------------------------------
    # 2. the Fig. 7 intermediate: classes resolved to non-member functions
    # ------------------------------------------------------------------
    print("\n[2] generated procedural intermediate (paper Fig. 7):\n")
    text = resolve_class_text(SyncRegister[4, 0])
    for line in text.splitlines():
        if line.startswith("def _SyncRegister"):
            print("   ", line)

    # ------------------------------------------------------------------
    # 3. synthesize and map to gates
    # ------------------------------------------------------------------
    rtl = synthesize(CamSync("sync", Clock("clk", 15 * NS),
                             Signal("rst", bit(), Bit(1))))
    circuit = optimize(map_module(rtl))
    timing = analyze(circuit)
    print(f"\n[3] synthesized: {rtl.attributes.get('fsm_states')} "
          f"-> {len(circuit.cells)} cells, "
          f"{AreaReport(circuit).total:.1f} GE, "
          f"Fmax {timing.fmax_mhz:.0f} MHz "
          f"(target 66 MHz: {'met' if timing.meets(66) else 'MISSED'})")

    # ------------------------------------------------------------------
    # 4. bit/cycle accuracy at RTL and gate level (paper §12)
    # ------------------------------------------------------------------
    rtl_sim = RtlSimulator(rtl)
    gate_sim = GateSimulator(circuit)
    for stage_sim in (rtl_sim, gate_sim):
        stage_sim.step(reset=1)
        stage_sim.step(reset=1)
    mismatches = 0
    for index, entry in enumerate(stimulus):
        rtl_sim.step(reset=0, **entry)
        gate_sim.step(reset=0, **entry)
        rtl_out = rtl_sim.peek_outputs()
        gate_out = gate_sim.peek_outputs()
        expected = kernel_trace[index]
        got = (rtl_out["frame_start"], rtl_out["line_start"])
        if got != expected or rtl_out != gate_out:
            mismatches += 1
    print(f"[4] lockstep check kernel = RTL = gates: "
          f"{mismatches} mismatches over {len(stimulus)} cycles")
    assert mismatches == 0


if __name__ == "__main__":
    main()
