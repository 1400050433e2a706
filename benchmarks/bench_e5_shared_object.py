"""E5 — cost of global (shared) objects (paper §8).

Paper claim: *"When global objects are being instantiated and accessed,
some scheduling logic of course has to be added.  But in any case: if
described in conventional approach, logic would have to be added anyway."*
A two-client shared multiplier (generated arbiter, per policy) is compared
against a hand-written time-multiplexed multiplier with a manual priority
arbiter of the same behaviour.
"""

from conftest import record_report

from repro.eval import format_table
from repro.hdl import Clock, Input, Module, NS, Output, Signal
from repro.netlist import analyze, map_module, optimize, total_area
from repro.osss import Fcfs, HwClass, RoundRobin, SharedObject, StaticPriority
from repro.rtl import Const, Read, RtlBuilder, mux
from repro.synth import synthesize
from repro.types import Bit, Unsigned
from repro.types.spec import bit, unsigned


class MulServer(HwClass):
    def mul(self, a: unsigned(8), b: unsigned(8)) -> unsigned(16):
        return a * b


def make_shared_host(policy):
    class Host(Module):
        go = Input(bit())
        a_out = Output(unsigned(16))
        b_out = Output(unsigned(16))

        def __init__(self, name, clk, rst):
            super().__init__(name)
            shared = SharedObject(f"{name}_srv", MulServer(),
                                  scheduler=policy)
            self.pa = shared.client_port("a")
            self.pb = shared.client_port("b")
            self.cthread(self.wa, clock=clk, reset=rst)
            self.cthread(self.wb, clock=clk, reset=rst)

        def wa(self):
            self.a_out.write(Unsigned(16, 0))
            yield
            while True:
                if self.go.read():
                    r = yield from self.pa.call("mul", Unsigned(8, 3),
                                                Unsigned(8, 5))
                    self.a_out.write(r)
                yield

        def wb(self):
            self.b_out.write(Unsigned(16, 0))
            yield
            while True:
                if self.go.read():
                    r = yield from self.pb.call("mul", Unsigned(8, 7),
                                                Unsigned(8, 9))
                    self.b_out.write(r)
                yield

    return Host


def manual_arbiter_rtl():
    """Hand RTL: one multiplier, two requesters, fixed-priority mux."""
    b = RtlBuilder("manual_shared")
    go = b.input("go", bit())
    req_a = b.register("req_a", bit(), 0)
    req_b = b.register("req_b", bit(), 0)
    a_out = b.register("a_out", unsigned(16), 0)
    b_out = b.register("b_out", unsigned(16), 0)
    grant_a = Read(req_a)
    grant_b = Read(req_b) & ~Read(req_a)
    mul_a = mux(grant_a, Const(unsigned(8), 3), Const(unsigned(8), 7))
    mul_b = mux(grant_a, Const(unsigned(8), 5), Const(unsigned(8), 9))
    product = b.wire("product", mul_a * mul_b)
    b.next(req_a, mux(go, Const(bit(), 1),
                      mux(grant_a, Const(bit(), 0), Read(req_a))))
    b.next(req_b, mux(go, Const(bit(), 1),
                      mux(grant_b, Const(bit(), 0), Read(req_b))))
    b.next(a_out, mux(grant_a, product, Read(a_out)))
    b.next(b_out, mux(grant_b, product, Read(b_out)))
    b.output("a_out", Read(a_out))
    b.output("b_out", Read(b_out))
    return b.build()


def _osss_netlist(policy):
    host = make_shared_host(policy)(
        "h", Clock("clk", 10 * NS), Signal("rst", bit(), Bit(1))
    )
    rtl = synthesize(host, observe_children=False)
    return optimize(map_module(rtl))


def test_e5_shared_object_cost(benchmark):
    manual = optimize(map_module(manual_arbiter_rtl()))
    rows = [{
        "description": "manual time-mux + priority (hand RTL)",
        "cells": len(manual.cells),
        "area_ge": round(total_area(manual), 1),
        "fmax_mhz": round(analyze(manual).fmax_mhz, 1),
    }]
    circuits = {}
    for policy in (StaticPriority(), RoundRobin(), Fcfs()):
        name = type(policy).__name__
        circuits[name] = _osss_netlist(policy)
    benchmark(lambda: _osss_netlist(StaticPriority()))
    for name, circuit in circuits.items():
        rows.append({
            "description": f"generated arbiter ({name})",
            "cells": len(circuit.cells),
            "area_ge": round(total_area(circuit), 1),
            "fmax_mhz": round(analyze(circuit).fmax_mhz, 1),
        })
    ratio = total_area(circuits["StaticPriority"]) / total_area(manual)
    lines = [
        "paper: shared objects add scheduling logic, comparable to what a",
        "       conventional description adds by hand",
        "",
        format_table(rows),
        "",
        f"measured area ratio generated/manual = {ratio:.2f}",
        "(the generated version also carries the full request/ack client",
        " protocol, which the minimal hand design omits)",
    ]
    record_report("E5_shared_object", "\n".join(lines))
    assert ratio < 6.0
