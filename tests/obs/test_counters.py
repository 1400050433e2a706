"""The uniform ``.stats()`` counters facade across all three simulators.

Includes the headline backend comparison: on the ExpoCU fault campaign
the compiled gate backend performs strictly fewer interpreted cell
evaluations than the event backend — its settles run as generated
straight-line code (``settle_passes``/``fast_commits``), which is the
entire point of the fast path.
"""

import pytest

from repro.expocu import CamSync
from repro.hdl import Clock, Module, NS, Signal, Simulator
from repro.netlist.opt import optimize
from repro.netlist.sim import GateSimulator
from repro.netlist.techmap import map_module
from repro.rtl.simulate import RtlSimulator
from repro.synth import synthesize
from repro.types import Bit
from repro.types.spec import bit


def make_camsync():
    return CamSync("camsync", Clock("clk", 10 * NS),
                   Signal("rst", bit(), Bit(1)))


def make_rtl():
    return synthesize(make_camsync(), observe_children=False)


KERNEL_KEYS = {"backend", "delta_cycles", "process_activations",
               "events_fired", "timed_callbacks"}
RTL_KEYS = {"backend", "steps", "register_commits", "register_changes",
            "carrier_evals"}
GATE_KEYS = {"backend", "steps", "cells", "settle_passes", "cell_evals",
             "event_wakeups", "fast_commits"}


class TestKernelStats:
    def build(self):
        top = Module("top")
        top.clk = Clock("clk", 10 * NS)
        top.rst = Signal("rst", bit(), Bit(1))
        top.dut = CamSync("camsync", top.clk, top.rst)
        return top, Simulator(top)

    def test_keys_and_backend(self):
        _, sim = self.build()
        stats = sim.stats()
        assert set(stats) == KERNEL_KEYS
        assert stats["backend"] == "kernel"

    def test_counters_grow_with_simulation(self):
        top, sim = self.build()
        sim.run(20 * NS)
        top.rst.write(0)
        sim.run(200 * NS)
        stats = sim.stats()
        assert stats["delta_cycles"] > 0
        assert stats["process_activations"] > 0
        assert stats["events_fired"] > 0
        assert stats["timed_callbacks"] > 0
        # The clock alone fires an event per edge.
        assert stats["events_fired"] >= 20

    def test_reset_stats_keeps_state(self):
        top, sim = self.build()
        sim.run(50 * NS)
        now = sim.now
        sim.reset_stats()
        stats = sim.stats()
        assert stats["delta_cycles"] == 0
        assert stats["process_activations"] == 0
        assert sim.now == now  # simulation state untouched


class TestRtlStats:
    def test_keys_and_growth(self):
        sim = RtlSimulator(make_rtl())
        assert set(sim.stats()) == RTL_KEYS
        assert sim.stats()["backend"] == "rtl"
        sim.step(reset=1)
        for k in range(10):
            sim.step(reset=0, pix_valid=k & 1, line_strobe=0,
                     frame_strobe=0)
        stats = sim.stats()
        assert stats["steps"] == 11
        assert stats["register_commits"] > 0
        assert stats["carrier_evals"] > 0
        # Only a subset of registers changes on any given cycle.
        assert stats["register_changes"] <= stats["register_commits"]

    def test_reset_stats(self):
        sim = RtlSimulator(make_rtl())
        sim.step(reset=1)
        sim.reset_stats()
        assert sim.stats()["steps"] == 0
        assert sim.stats()["register_commits"] == 0


class TestGateStats:
    @pytest.fixture(scope="class")
    def circuit(self):
        circuit = map_module(make_rtl())
        optimize(circuit)
        return circuit

    def run_steps(self, sim, cycles=10):
        sim.step(reset=1)
        for k in range(cycles):
            sim.step(reset=0, pix_valid=k & 1, line_strobe=0,
                     frame_strobe=0)

    def test_event_backend_counters(self, circuit):
        sim = GateSimulator(circuit, backend="event")
        assert set(sim.stats()) == GATE_KEYS
        self.run_steps(sim)
        stats = sim.stats()
        assert stats["backend"] == "event"
        assert stats["steps"] == 11
        # Evaluable comb cells: constant TIE cells are settled once at
        # construction, not evaluated per pass.
        evaluable = [c for c in circuit.comb_cells()
                     if not c.ctype.name.startswith("TIE")]
        assert stats["cells"] == len(evaluable)
        # Construction did one interpreted full settle.
        assert stats["settle_passes"] == 1
        assert stats["event_wakeups"] > 0
        # cell_evals = the full construction settle + every wakeup.
        assert stats["cell_evals"] == \
            stats["cells"] + stats["event_wakeups"]
        assert stats["fast_commits"] == 0

    def test_compiled_backend_counters(self, circuit):
        sim = GateSimulator(circuit, backend="compiled")
        self.run_steps(sim)
        stats = sim.stats()
        assert stats["backend"] == "compiled"
        assert stats["steps"] == 11
        # One settle per step plus the construction settle; all of them
        # run as generated code, so no interpreted cell dispatches.
        assert stats["settle_passes"] >= 12
        assert stats["cell_evals"] == 0
        assert stats["event_wakeups"] == 0
        assert stats["fast_commits"] == 11

    def test_reset_stats(self, circuit):
        sim = GateSimulator(circuit, backend="compiled")
        self.run_steps(sim, cycles=3)
        sim.reset_stats()
        stats = sim.stats()
        assert stats["steps"] == 0
        assert stats["settle_passes"] == 0
        assert stats["fast_commits"] == 0
        assert stats["cells"] > 0  # structural, not a counter

    def test_backends_agree_on_outputs(self, circuit):
        a = GateSimulator(circuit, backend="event")
        b = GateSimulator(circuit, backend="compiled")
        for entry in ({"reset": 1}, {"reset": 0, "pix_valid": 1},
                      {"reset": 0, "pix_valid": 0}):
            assert a.step(**entry) == b.step(**entry)


class TestExpoCuBackendComparison:
    """Acceptance check: compiled does strictly fewer interpreted cell
    evals than the event backend on the ExpoCU campaign."""

    def test_compiled_fewer_cell_evals_on_campaign(self):
        from repro.eval.flows import netlist_prefix
        from repro.fault.campaign import generate_fault_list, run_campaign
        from repro.fault.inject import (
            FaultableGateSimulator,
            GateFaultInjector,
        )
        from repro.fault.scenarios import (
            expocu_config,
            expocu_design,
            expocu_stimulus,
        )
        from repro.store import StageRunner

        circuit = netlist_prefix(expocu_design(side=8),
                                 StageRunner(None)).value()
        stimulus = expocu_stimulus(seed=1, frames=1, side=8)
        stats = {}
        reports = {}
        for backend in ("event", "compiled"):
            injector = GateFaultInjector(
                FaultableGateSimulator(circuit, backend=backend)
            )
            faults = generate_fault_list(injector, 3, len(stimulus), seed=1)
            result = run_campaign(injector, stimulus, faults,
                                  expocu_config("none"), design="ExpoCU",
                                  hardening="none", seed=1)
            stats[backend] = injector.sim.stats()
            reports[backend] = result.to_json()
        event, compiled = stats["event"], stats["compiled"]
        # The headline inequality, plus its explanation: the event
        # backend pays an interpreted dispatch per woken cell; the
        # compiled backend pays none, even at fault-injection instants
        # (force_net/flip_net only mark its settle stale).
        assert compiled["cell_evals"] < event["cell_evals"]
        assert compiled["cell_evals"] == 0
        assert event["cell_evals"] > event["steps"]
        assert compiled["fast_commits"] > 0
        # Same campaign, same verdicts, regardless of backend.
        assert reports["event"] == reports["compiled"]


class TestStatsInTraceExports:
    def test_campaign_trace_embeds_sim_stats(self):
        from repro.fault.scenarios import expocu_campaign
        from repro.obs import Tracer, validate_trace

        tracer = Tracer("inject")
        expocu_campaign(flow="rtl", faults=2, seed=1, side=4, tracer=tracer)
        doc = validate_trace(tracer.as_dict())
        campaign = next(s for s in doc["spans"] if s["name"] == "campaign")
        stats = campaign["meta"]["sim_stats"]
        assert stats["backend"] == "rtl"
        assert stats["steps"] > 0
