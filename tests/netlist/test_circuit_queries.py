"""The shared structural queries: ``fanout_map`` and ``fanin_cone``.

Both the optimizer's dead-logic sweep and the netlist analysis engine
are defined in terms of these two ``Circuit`` methods, so their
semantics are pinned here independently of either consumer — plus a
regression that the optimizer still removes exactly the cells outside
the cone.
"""

from repro.netlist import Circuit
from repro.netlist.opt import optimize


def _diamond():
    """x0,x1 → AND/OR → XOR → y, plus a dead INV chain off x0."""
    circuit = Circuit("diamond")
    x0, x1 = circuit.new_bus("x", 2)
    circuit.mark_input("x", [x0, x1])
    n_and = circuit.new_net("n_and")
    n_or = circuit.new_net("n_or")
    y = circuit.new_net("y")
    d0 = circuit.new_net("d0")
    d1 = circuit.new_net("d1")
    circuit.add_cell("g_and", "AND2", i0=x0, i1=x1, y=n_and)
    circuit.add_cell("g_or", "OR2", i0=x0, i1=x1, y=n_or)
    circuit.add_cell("g_xor", "XOR2", i0=n_and, i1=n_or, y=y)
    circuit.add_cell("dead0", "INV", a=x0, y=d0)
    circuit.add_cell("dead1", "INV", a=d0, y=d1)
    circuit.mark_output("y", [y])
    circuit.validate()
    return circuit


class TestFanoutMap:
    def test_loads_by_pin(self):
        circuit = _diamond()
        fanout = circuit.fanout_map()
        x0 = circuit.input_buses["x"][0]
        loads = sorted((cell.name, pin) for cell, pin in fanout[x0.uid])
        assert loads == [("dead0", "a"), ("g_and", "i0"), ("g_or", "i0")]

    def test_unloaded_net_is_absent(self):
        circuit = _diamond()
        (y,) = circuit.output_buses["y"]
        assert y.uid not in circuit.fanout_map()

    def test_flop_d_pin_is_a_load(self):
        circuit = Circuit("ff")
        (x,) = circuit.new_bus("x", 1)
        circuit.mark_input("x", [x])
        q = circuit.new_net("q")
        circuit.add_cell("ff", "DFF", d=x, q=q)
        circuit.mark_output("y", [q])
        ((cell, pin),) = circuit.fanout_map()[x.uid]
        assert (cell.name, pin) == ("ff", "d")


class TestFaninCone:
    def test_cone_excludes_dead_chain(self):
        circuit = _diamond()
        net_uids, cell_uids = circuit.fanin_cone(
            circuit.output_buses["y"]
        )
        names = {c.name for c in circuit.cells if c.uid in cell_uids}
        assert names == {"g_and", "g_or", "g_xor"}
        dead_nets = {net.name for net in circuit.nets
                     if net.uid not in net_uids}
        assert {"d0", "d1"} <= dead_nets

    def test_cone_crosses_flops(self):
        circuit = Circuit("seq")
        (x,) = circuit.new_bus("x", 1)
        circuit.mark_input("x", [x])
        n = circuit.new_net("n")
        q = circuit.new_net("q")
        circuit.add_cell("g", "INV", a=x, y=n)
        circuit.add_cell("ff", "DFF", d=n, q=q)
        circuit.mark_output("y", [q])
        net_uids, cell_uids = circuit.fanin_cone(
            circuit.output_buses["y"]
        )
        assert {net.uid for net in (x, n, q)} <= net_uids
        assert len(cell_uids) == 2

    def test_empty_seeds_empty_cone(self):
        assert _diamond().fanin_cone([]) == (set(), set())

    def test_shared_fanin_visited_once(self):
        circuit = _diamond()
        net_uids, _ = circuit.fanin_cone(circuit.output_buses["y"])
        # x0 feeds both diamond arms but appears once, as a set element.
        x0 = circuit.input_buses["x"][0]
        assert x0.uid in net_uids


class TestDeadRemovalRegression:
    def test_optimize_removes_exactly_the_out_of_cone_cells(self):
        circuit = _diamond()
        _, live_before = circuit.fanin_cone(circuit.output_buses["y"])
        live_names = {c.name for c in circuit.cells
                      if c.uid in live_before}
        optimize(circuit)
        assert {c.name for c in circuit.cells} <= live_names
        assert not {"dead0", "dead1"} & {c.name for c in circuit.cells}

    def test_optimize_keeps_logic_feeding_outputs(self):
        circuit = _diamond()
        optimize(circuit)
        circuit.validate()
        assert circuit.output_buses["y"][0].driver is not None
