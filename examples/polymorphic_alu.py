"""Polymorphism demo (paper §6): one interface, four ALU classes.

A :class:`PolyVar` dispatches ``execute`` over Add/Sub/Mul/Max objects —
the paper's ALU example — and the synthesizer lowers the virtual call to
tag-selected multiplexers (§8).  The script shows dynamic reassignment in
simulation, then synthesizes the unit and reports the mux cost.

Run:  python examples/polymorphic_alu.py
"""

from repro.expocu import ALU_CLASSES, AluOp, PolyAluUnit
from repro.hdl import Clock, Module, NS, Signal, Simulator
from repro.netlist import analyze, cell_histogram, map_module, optimize, total_area
from repro.osss import PolyVar
from repro.synth import synthesize
from repro.synth.polygen import poly_layout_note
from repro.types import Bit, Unsigned
from repro.types.spec import bit


def main() -> None:
    # --- object-level demo -------------------------------------------
    alu = PolyVar(AluOp, ALU_CLASSES)
    print("polymorphic dispatch through one interface:")
    for cls in ALU_CLASSES:
        alu.assign(cls())
        result = alu.execute(Unsigned(8, 12), Unsigned(8, 5))
        print(f"  {cls.__name__:8s} execute(12, 5) = {int(result)}"
              f"   (tag={alu.tag})")
    print("hardware geometry:", poly_layout_note(alu))

    # --- module-level simulation --------------------------------------
    top = Module("top")
    top.clk = Clock("clk", 10 * NS)
    top.rst = Signal("rst", bit(), Bit(1))
    top.dut = PolyAluUnit("alu", top.clk, top.rst)
    sim = Simulator(top)
    sim.run(20 * NS)
    top.rst.write(0)
    for select in range(4):
        top.dut.op_select.drive(select)
        top.dut.a.drive(12)
        top.dut.b.drive(5)
        sim.run(20 * NS)
        print(f"  module op {select}: result = "
              f"{int(top.dut.result.read())}")

    # --- synthesis: §8 'multiplexers are being inserted' ---------------
    rtl = synthesize(PolyAluUnit("alu", Clock("clk", 10 * NS),
                                 Signal("rst", bit(), Bit(1))))
    circuit = optimize(map_module(rtl))
    histogram = cell_histogram(circuit)
    print(f"\nsynthesized: {len(circuit.cells)} cells, "
          f"{total_area(circuit):.1f} GE, "
          f"Fmax {analyze(circuit).fmax_mhz:.0f} MHz")
    print(f"selection multiplexers inserted: {histogram.get('MUX2', 0)}")


if __name__ == "__main__":
    main()
