"""Global-object demo (paper §6/§8): a guarded multiplier, three schedulers.

Two clocked threads compete for one `SharedMultiplier`.  The same design is
run with the round-robin, static-priority and FCFS schedulers ("a designer
can use a standard scheduler or implement an own"), showing the grant order
each policy produces; the design is then synthesized and the generated
arbiter module is reported.

Run:  python examples/shared_multiplier.py
"""

from repro.expocu.expoparams import SharedMultiplier
from repro.hdl import Clock, Input, Module, NS, Output, Signal, Simulator
from repro.netlist import analyze, map_module, optimize, total_area
from repro.osss import Fcfs, RoundRobin, SharedObject, StaticPriority
from repro.synth import synthesize
from repro.types import Bit, Unsigned
from repro.types.spec import bit, unsigned


class Worker(Module):
    result = Output(unsigned(24))

    def __init__(self, name, clk, rst, port, operand):
        super().__init__(name)
        self.port = port
        self.operand = operand
        self.cthread(self.run, clock=clk, reset=rst)

    def run(self):
        self.result.write(Unsigned(24, 0))
        yield
        while True:
            value = yield from self.port.call(
                "multiply", Unsigned(16, self.operand), Unsigned(8, 3)
            )
            self.result.write(value)
            yield
            yield


def demo(policy) -> None:
    shared = SharedObject("mul", SharedMultiplier(), scheduler=policy)

    class Top(Module):
        def __init__(self):
            super().__init__("top")
            self.clk = Clock("clk", 10 * NS)
            self.rst = Signal("rst", bit(), Bit(1))
            self.w0 = Worker("w0", self.clk, self.rst,
                             shared.client_port("w0"), 11)
            self.w1 = Worker("w1", self.clk, self.rst,
                             shared.client_port("w1"), 22)

    top = Top()
    sim = Simulator(top)
    sim.run(20 * NS)
    top.rst.write(0)
    sim.run(200 * NS)
    grants = [winner for _, winner in shared.grant_history[:8]]
    print(f"  {type(policy).__name__:14s} grant order: {grants}  "
          f"(object served {int(shared.instance.op_count)} calls)")


def main() -> None:
    print("arbitration policies over the same contention pattern:")
    for policy in (RoundRobin(), StaticPriority(), Fcfs()):
        demo(policy)

    # Synthesize one instance and inspect the generated arbiter.
    shared = SharedObject("mul", SharedMultiplier(),
                          scheduler=RoundRobin())

    class Top(Module):
        def __init__(self, clk, rst):
            super().__init__("top")
            self.w0 = Worker("w0", clk, rst, shared.client_port("w0"), 11)
            self.w1 = Worker("w1", clk, rst, shared.client_port("w1"), 22)

    # observe_children exposes the workers' results as top-level outputs
    # so the netlist keeps the whole datapath alive.
    rtl = synthesize(Top(Clock("clk", 10 * NS),
                         Signal("rst", bit(), Bit(1))))
    arbiter = next(i for i in rtl.instances
                   if i.name.startswith("arbiter_"))
    print(f"\ngenerated arbiter: {arbiter.module.name} "
          f"(policy={arbiter.module.attributes['policy']}, "
          f"registers={len(arbiter.module.registers)})")
    circuit = optimize(map_module(rtl))
    print(f"whole design: {len(circuit.cells)} cells, "
          f"{total_area(circuit):.1f} GE, "
          f"Fmax {analyze(circuit).fmax_mhz:.0f} MHz")


if __name__ == "__main__":
    main()
