"""The integer gate arena the mapper, linker and optimizer share.

* Golden digests pin the netlists every gate-level number comes from:
  the optimized OSSS and VHDL ExpoCU netlists, the fault injector's, the
  IP library circuit and the raw OSSS map.  A change that moves any of
  them (a new rewrite rule, a different mapping) has to update them on
  purpose.
* A cold build makes :class:`Cell` objects only for the cells that
  survive optimization, plus the IP library's.
* ``optimize`` takes a gate arena and returns a new circuit of the
  survivors, every cell's pins in library order, so a netlist renders
  one structural Verilog whether it was just optimized or loaded from
  the store.
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
from repro.store import deserialize_circuit, serialize_circuit


def digest(circuit: Circuit) -> str:
    return hashlib.sha256(
        canonical_json(serialize_circuit(circuit)).encode()).hexdigest()


@pytest.fixture(scope="module")
def osss():
    """The OSSS flow's synthesized RTL and optimized netlist."""
    runner = StageRunner(None)
    synth = synthesis_stage(default_design(), runner)
    return synth.value(), gate_stages(synth, runner).value()


@pytest.fixture(scope="module")
def vhdl():
    """The VHDL flow's optimized netlist, by the calls its opt stage
    makes."""
    arena = TechMapper(expocu_rtl()).map()
    return optimize(link(arena, ip_library()))


class TestGoldenNetlists:
    def test_optimized_osss(self, osss):
        _, circuit = osss
        assert len(circuit.cells) == 5777
        assert digest(circuit) == (
            "6f4fc2ed4c12d3119b9bbb4b0e4be8ee"
            "0f37a3bdbc92e3a349be713533738ff9")

    def test_optimized_osss_verilog(self, osss):
        # Verilog lists each cell's pins in the order its Cell.pins has,
        # which is library order.
        _, circuit = osss
        verilog = to_structural_verilog(circuit).encode()
        assert hashlib.sha256(verilog).hexdigest() == (
            "48cd01f41ae26c6c82910f62cf9b2c46"
            "87ff5b7b5a3f68cca9c7bd9670f00402")

    def test_optimized_vhdl(self, vhdl):
        circuit = vhdl
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
        raw = map_module(rtl).to_circuit()
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


class TestOneVerilogPerNetlist:
    @pytest.mark.parametrize("flow", ["osss", "vhdl"])
    def test_fresh_and_stored_netlists_render_alike(self, flow, osss, vhdl):
        fresh = osss[1] if flow == "osss" else vhdl
        stored = deserialize_circuit(serialize_circuit(fresh))
        assert to_structural_verilog(stored) == to_structural_verilog(fresh)


class TestArena:
    def _arena(self):
        arena = GateArena("c")
        a, b = arena.new_bus("a", 1)[0], arena.new_bus("b", 1)[0]
        arena.mark_input("a", [a])
        arena.mark_input("b", [b])
        x, y, z = (arena.new_net(name) for name in ("x", "y", "z"))
        arena.add_cell("and", "AND2", i0=a, i1=b, y=x)
        arena.add_cell("twin", "AND2", i0=b, i1=a, y=y)
        arena.add_cell("or", "OR2", i0=x, i1=y, y=z)
        arena.mark_output("z", [z])
        return arena

    def test_optimize_returns_a_circuit_of_the_survivors(self):
        circuit = optimize(self._arena())
        # OR(x, x) -> x, and the twin AND merges into the first.
        [kept] = circuit.cells
        assert kept.name == "and"
        assert [net.name for net in circuit.nets] == ["a[0]", "b[0]", "x"]
        a, b, x = circuit.nets
        assert kept.pins == {"i0": a, "i1": b, "y": x}
        assert x.driver == (kept, "y")
        assert circuit.input_buses == {"a": [a], "b": [b]}
        assert circuit.output_buses == {"z": [x]}

    def test_pins_are_in_library_order(self):
        arena = self._arena()
        x = arena.nets[2]
        y2 = arena.new_net("y2")
        arena.add_cell("nand", "NAND2", y=y2, i1=x, i0=arena.nets[0])
        arena.mark_output("y2", [y2])
        assert [list(cell.pins) for cell in optimize(arena).cells] == [
            ["i0", "i1", "y"], ["i0", "i1", "y"]]
        circuit = Circuit("c")
        a, out = circuit.new_net("a"), circuit.new_net("out")
        cell = circuit.add_cell("mux", "MUX2", y=out, s=a, d1=a, d0=a)
        assert list(cell.pins) == ["d0", "d1", "s", "y"]

    def test_black_box_buses_follow_the_rewrites(self):
        host = GateArena("host")
        x, mid, z = (host.new_bus(name, 1) for name in ("x", "mid", "z"))
        host.mark_input("x", x)
        host.mark_output("z", z)
        host.add_cell("buf", "BUF", a=x[0], y=mid[0])
        host.add_blackbox("u_ip", "ip", {"a": mid}, {"y": z})
        circuit = optimize(host)
        [box] = circuit.blackboxes
        assert (box.name, box.ip_name) == ("u_ip", "ip")
        assert box.input_buses == {"a": circuit.input_buses["x"]}
        assert box.output_buses == {"y": circuit.output_buses["z"]}
        assert circuit.cells == []
        assert [net.name for net in circuit.nets] == ["x[0]", "z[0]"]

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
