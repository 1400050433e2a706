"""The integer gate arena the mapper, linker and optimizer share.

* Golden digests pin the netlists every gate-level number comes from:
  the optimized OSSS and VHDL ExpoCU netlists, the fault injector's, the
  IP library circuit and the raw OSSS map.  A change that moves any of
  them (a new rewrite rule, a different mapping) has to update them on
  purpose.
* A cold build makes :class:`Cell` objects only for the cells that
  survive optimization, plus the IP library's.
* ``optimize`` on a hand-built circuit writes back onto its objects.
"""

import hashlib

import pytest

from repro.baseline import expocu_rtl
from repro.baseline.vhdl_ip import ip_library
from repro.eval.flows import gate_stages, netlist_prefix, synthesis_stage
from repro.fault.scenarios import expocu_design
from repro.netlist import Circuit, link, map_module, optimize, total_area
from repro.netlist.arena import GateArena
from repro.netlist.circuit import Cell
from repro.netlist.techmap import TechMapper
from repro.netlist.verilog import to_structural_verilog
from repro.serve.jobs import default_design, make_spec, run_job
from repro.store import ArtifactStore, StageRunner, canonical_json
from repro.store import serialize_circuit


def digest(circuit: Circuit) -> str:
    return hashlib.sha256(
        canonical_json(serialize_circuit(circuit)).encode()).hexdigest()


@pytest.fixture(scope="module")
def osss():
    """The OSSS flow's synthesized RTL and optimized netlist."""
    runner = StageRunner(None)
    synth = synthesis_stage(default_design(), runner)
    return synth.value(), gate_stages(synth, runner).value()


class TestGoldenNetlists:
    def test_optimized_osss(self, osss):
        _, circuit = osss
        assert len(circuit.cells) == 5777
        assert digest(circuit) == (
            "6f4fc2ed4c12d3119b9bbb4b0e4be8ee"
            "0f37a3bdbc92e3a349be713533738ff9")

    def test_optimized_osss_verilog(self, osss):
        # Verilog lists each cell's pins in the order its Cell.pins has.
        _, circuit = osss
        verilog = to_structural_verilog(circuit).encode()
        assert hashlib.sha256(verilog).hexdigest() == (
            "162a75a91091ae455726bb0e8ec27fa4"
            "8c0d92644ee5ac9306778224c1c5b3e4")

    def test_optimized_vhdl(self):
        # The calls the VHDL flow's opt stage makes.
        arena = TechMapper(expocu_rtl()).map()
        circuit = optimize(link(arena, ip_library()))
        assert len(circuit.cells) == 3575
        assert digest(circuit) == (
            "7dc06574dba4f8e958cc63d2b7d40042"
            "56181c2e8c736353b0e6045ee9282219")

    def test_injector(self):
        circuit = netlist_prefix(expocu_design(8), StageRunner(None),
                                 "none").value()
        assert len(circuit.cells) == 5421
        assert digest(circuit) == (
            "c48a326d62cd74003b115a12beddd5d3"
            "6e0cdf84984b0b63bc9e360a120fc9d4")

    def test_ip_library(self):
        [circuit] = ip_library().values()
        assert len(circuit.cells) == 664
        assert digest(circuit) == (
            "5cb6a5902d1b9482e29765b0833e3e3d"
            "e8780f3d7d2ba80ea914403a045d2486")

    def test_raw_osss_map(self, osss):
        rtl, _ = osss
        raw = map_module(rtl)
        assert len(raw.cells) == 60162
        assert total_area(raw) == pytest.approx(103026.35, abs=0.005)
        assert digest(raw) == (
            "a80f302da38c6d9cfdabeb4e7786aa66"
            "b1722d1d6f515a2a7e889ccaa2296992")


class TestColdBuildObjects:
    def test_only_survivors_become_cells(self, tmp_path):
        # Every Cell takes the next uid from Cell._ids.
        first = next(Cell._ids)
        run_job(make_spec("build", {"flow": "both"}),
                store=ArtifactStore(tmp_path / "cache"))
        made = next(Cell._ids) - first - 1
        # 5 777 + 3 575 optimized cells, plus the IP library's 664.
        assert made <= 5777 + 3575 + 664


class TestArena:
    def _circuit(self):
        circuit = Circuit("c")
        a, b = circuit.new_bus("a", 1)[0], circuit.new_bus("b", 1)[0]
        circuit.mark_input("a", [a])
        circuit.mark_input("b", [b])
        x, y, z = (circuit.new_net(name) for name in ("x", "y", "z"))
        circuit.add_cell("and", "AND2", i0=a, i1=b, y=x)
        circuit.add_cell("twin", "AND2", i0=b, i1=a, y=y)
        circuit.add_cell("or", "OR2", i0=x, i1=y, y=z)
        circuit.mark_output("z", [z])
        return circuit, a, b, x

    def test_optimize_keeps_the_surviving_objects(self):
        circuit, a, b, x = self._circuit()
        kept = circuit.cells[0]
        out = circuit.output_buses["z"]
        assert optimize(circuit) is circuit
        # OR(x, x) -> x, and the twin AND merges into the first.
        assert circuit.cells == [kept]
        assert kept.pins["i0"] is a and kept.pins["i1"] is b
        assert circuit.output_buses["z"] is out and out == [x]
        assert x.driver == (kept, "y")
        assert circuit.nets == [a, b, x]

    def test_pins_keep_the_order_they_were_given_in(self):
        circuit, a, b, x = self._circuit()
        y = circuit.new_net("y2")
        circuit.add_cell("nand", "NAND2", y=y, i1=x, i0=a)
        circuit.mark_output("y2", [y])
        optimize(circuit)
        assert [list(cell.pins) for cell in circuit.cells] == [
            ["i0", "i1", "y"], ["y", "i1", "i0"]]

    def test_black_boxes_keep_their_objects_and_bus_lists(self):
        host = Circuit("host")
        x, mid, z = (host.new_bus(name, 1) for name in ("x", "mid", "z"))
        host.mark_input("x", x)
        host.mark_output("z", z)
        host.add_cell("buf", "BUF", a=x[0], y=mid[0])
        box = host.add_blackbox("u_ip", "ip", {"a": mid}, {"y": z})
        bus = box.input_buses["a"]
        optimize(host)
        assert host.blackboxes == [box] and box.input_buses["a"] is bus
        assert bus == x and host.cells == []
        assert host.nets == [x[0], z[0]]

    def test_reading_and_writing_back_changes_nothing(self):
        circuit, *_ = self._circuit()
        once = canonical_json(serialize_circuit(circuit))
        cells, nets = list(circuit.cells), list(circuit.nets)
        assert GateArena.from_circuit(circuit).to_circuit(
            into=circuit) is circuit
        assert circuit.cells == cells and circuit.nets == nets
        assert canonical_json(serialize_circuit(circuit)) == once

    def test_cells_list_the_mapped_then_the_optimized_netlist(self, osss):
        # A wrapper around optimize() reads len(netlist.cells) before
        # and after the call, as the benchmark's layer spans do.
        rtl, _ = osss
        arena = TechMapper(rtl).map()
        assert len(arena.cells) == 60162
        circuit = optimize(arena)
        assert len(arena.cells) == len(circuit.cells) == 5777

    def test_add_cell_rejects_a_second_driver(self):
        arena = GateArena("c")
        a, y = arena.new_net("a"), arena.new_net("y")
        arena.add_cell("inv", "INV", a=a, y=y)
        with pytest.raises(ValueError, match="multiple drivers"):
            arena.add_cell("buf", "BUF", a=a, y=y)
