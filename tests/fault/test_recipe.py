"""The fault injector builds its netlist through the one design-to-gates recipe.

``repro inject`` and design-space exploration attack the same netlist
because both take it from :func:`repro.eval.flows.netlist_prefix`, and
the injector's stages show up as spans under ``build_injector``.
"""

import pytest

from repro.eval.flows import netlist_prefix
from repro.fault import expocu_campaign, expocu_injector
from repro.fault.scenarios import expocu_design
from repro.obs import Tracer
from repro.store import StageRunner, canonical_json, serialize_circuit


def _injector_stages(flow, hardening):
    """``(name, cache)`` of each span under a traced ``build_injector``."""
    tracer = Tracer("inject")
    expocu_campaign(flow=flow, faults=1, seed=1, hardening=hardening,
                    side=4, tracer=tracer)
    [build] = [span for span in tracer.roots
               if span.name == "build_injector"]
    return [(span.name, span.snapshot()["cache"]) for span in build.children]


class TestInjectorStages:
    @pytest.mark.parametrize("hardening, stages", [
        ("none", ["synthesize", "opt"]),
        ("tmr+parity", ["synthesize", "opt", "harden"]),
    ])
    def test_netlist_flow_runs_the_recipe(self, hardening, stages):
        assert _injector_stages("netlist", hardening) == [
            (stage, "off") for stage in stages]

    def test_rtl_flow_runs_synthesize_alone(self):
        assert _injector_stages("rtl", "none") == [("synthesize", "off")]


class TestSameNetlistAsDse:
    @pytest.mark.parametrize("hardening",
                             ["none", "tmr", "parity", "tmr+parity"])
    def test_injector_circuit_is_the_recipe_netlist(self, hardening):
        injector = expocu_injector("netlist", hardening, side=4)
        netlist = netlist_prefix(expocu_design(4), StageRunner(None),
                                 hardening).value()
        assert (canonical_json(serialize_circuit(injector.sim.circuit))
                == canonical_json(serialize_circuit(netlist)))
