"""Property tests of the worklist optimizer.

Every optimized circuit must

* step identically to its unoptimized copy,
* be a fixed point: a second :func:`optimize` call leaves its
  serialization byte-identical, and
* list only connected nets (cell pins and bus members).

The circuits are seeded :func:`random_arena` netlists, a MUX2-heavy
variant built from pass-through multiplexer chains so the mux-chain
rule fires, and the two ExpoCU netlists the flows optimize, all built
on gate arenas.  The unoptimized reference is the arena's
:meth:`~repro.netlist.arena.GateArena.to_circuit`, and the fixed-point
check optimizes one arena twice.
"""

import random

import pytest

from repro.netlist import (
    Circuit,
    GateSimulator,
    cell_histogram,
    link,
    map_module,
    optimize,
)
from repro.netlist import opt
from repro.netlist.arena import GateArena
from repro.store import canonical_json, serialize_circuit

from tests.netlist.test_sim_oracle import random_arena


def mux_chain_circuit(seed: int, n_inputs: int = 3, n_chains: int = 6,
                      chain_length: int = 5) -> GateArena:
    """Registers fed by random multiplexer chains over few shared values.

    Each chain starts from a register's output and wraps it in muxes
    whose other arm comes from a three-net value set, on a random side,
    so that neighbouring links often share an arm — the pass-through
    shape FSM write folding produces.  Some links also feed a second
    mux or an output, which must keep them from being bypassed.
    """
    rng = random.Random(seed)
    circuit = GateArena(f"muxes{seed}")
    inputs = circuit.new_bus("x", n_inputs)
    circuit.mark_input("x", inputs)
    q_nets = [circuit.new_net(f"q{i}") for i in range(n_chains)]
    pool = list(inputs) + q_nets + [circuit.const_net(rng.randrange(2))]
    taps = []
    for chain, q_net in enumerate(q_nets):
        values = [q_net] + rng.sample(pool, 2)
        cur = rng.choice(values)
        for link_no in range(chain_length):
            other = rng.choice(values)
            d0, d1 = (cur, other) if rng.random() < 0.5 else (other, cur)
            out = circuit.new_net(f"m{chain}_{link_no}")
            circuit.add_cell(f"mux{chain}_{link_no}", "MUX2", d0=d0, d1=d1,
                             s=rng.choice(inputs + q_nets), y=out)
            if rng.random() < 0.15:
                taps.append(out)
            cur = out
        circuit.add_cell(f"ff{chain}", "DFF", d=cur, q=q_net)
    circuit.mark_output("y", q_nets + taps)
    return circuit


def _assert_optimized_properties(build, seed: int, n_inputs: int) -> None:
    raw = build(seed).to_circuit()
    raw.validate()
    reference = GateSimulator(raw)
    arena = build(seed)
    circuit = optimize(arena)
    optimized = GateSimulator(circuit)
    stim = random.Random(seed + 1)
    for _ in range(40):
        entry = {"x": stim.randrange(1 << n_inputs)}
        assert reference.step(**entry) == optimized.step(**entry)
        assert reference.peek_outputs() == optimized.peek_outputs()

    once = canonical_json(serialize_circuit(circuit))
    assert canonical_json(serialize_circuit(optimize(arena))) == once

    connected = {net.uid for cell in circuit.cells
                 for net in cell.pins.values()}
    for bus in (*circuit.input_buses.values(),
                *circuit.output_buses.values()):
        connected.update(net.uid for net in bus)
    assert all(net.uid in connected for net in circuit.nets)


class TestOptimizerProperties:
    @pytest.mark.parametrize("seed", range(16))
    def test_random_circuit(self, seed):
        _assert_optimized_properties(random_arena, seed, n_inputs=4)

    @pytest.mark.parametrize("seed", range(16))
    def test_mux_chains(self, seed):
        _assert_optimized_properties(mux_chain_circuit, seed, n_inputs=3)

    def test_mux_chain_variant_exercises_the_rule(self, monkeypatch):
        rule = opt._Worklist._mux_chain
        fired = []

        def counting(self, cell):
            changed = rule(self, cell)
            fired.append(changed)
            return changed

        monkeypatch.setattr(opt._Worklist, "_mux_chain", counting)
        for seed in range(16):
            optimize(mux_chain_circuit(seed))
        assert sum(fired) >= 16


def _fixed_point(arena: GateArena) -> Circuit:
    circuit = optimize(arena)
    once = canonical_json(serialize_circuit(circuit))
    assert canonical_json(serialize_circuit(optimize(arena))) == once
    return circuit


class TestRevisitTriggers:
    """Each circuit visits a cell before the edit that enables its rule.

    In circuit order the first cell sees nothing to do; only a revisit
    triggered by the later edit lets one call reach the fixed point.
    """

    def _mux_pair(self):
        circuit = GateArena("pair")
        s, si, x, z = (circuit.new_bus(name, 1)[0]
                       for name in ("s", "si", "x", "z"))
        for name, net in (("s", s), ("si", si), ("x", x), ("z", z)):
            circuit.mark_input(name, [net])
        inner, outer = circuit.new_net("inner"), circuit.new_net("outer")
        return circuit, s, si, x, z, inner, outer

    def test_inputs_of_an_inner_mux_moved(self):
        # outer = s ? x : inner, inner = si ? buf(x) : z; the BUF is
        # visited last, and only then does inner share x with outer.
        circuit, s, si, x, z, inner, outer = self._mux_pair()
        buffered = circuit.new_net("buffered")
        circuit.add_cell("outer", "MUX2", d0=inner, d1=x, s=s, y=outer)
        circuit.add_cell("inner", "MUX2", d0=z, d1=buffered, s=si, y=inner)
        circuit.add_cell("buf", "BUF", a=x, y=buffered)
        circuit.mark_output("y", [outer])
        assert cell_histogram(_fixed_point(circuit)) == {"MUX2": 1,
                                                         "OR2": 1}

    def test_fanout_of_an_output_net_falls_to_one(self):
        # inner also drives an output and an AND with 0; once the AND
        # folds away, outer is inner's only load and absorbs it.
        circuit, s, si, x, z, inner, outer = self._mux_pair()
        masked = circuit.new_net("masked")
        circuit.add_cell("outer", "MUX2", d0=inner, d1=x, s=s, y=outer)
        circuit.add_cell("inner", "MUX2", d0=z, d1=x, s=si, y=inner)
        circuit.add_cell("mask", "AND2", i0=inner, i1=circuit.const_net(0),
                         y=masked)
        circuit.mark_output("y", [outer, inner, masked])
        assert cell_histogram(_fixed_point(circuit))["OR2"] == 1

    def test_driver_changed_type(self):
        # y = ~(a ^ 1): the XOR becomes an inverter after the INV was
        # visited, and the double inverter then cancels.
        circuit = GateArena("retype")
        a = circuit.new_bus("a", 1)
        circuit.mark_input("a", a)
        flipped, y = circuit.new_net("flipped"), circuit.new_net("y")
        circuit.add_cell("inv", "INV", a=flipped, y=y)
        circuit.add_cell("xor", "XOR2", i0=a[0], i1=circuit.const_net(1),
                         y=flipped)
        circuit.mark_output("y", [y])
        optimized = _fixed_point(circuit)
        assert optimized.cells == []
        assert optimized.output_buses["y"] == optimized.input_buses["a"]


def _osss_expocu() -> GateArena:
    from repro.serve.jobs import default_design
    from repro.synth.modulegen import synthesize

    return map_module(synthesize(default_design(), observe_children=False))


def _vhdl_expocu() -> GateArena:
    from repro.baseline import expocu_rtl
    from repro.baseline.vhdl_ip import ip_library

    return link(map_module(expocu_rtl()), ip_library())


class TestExpoCUFixedPoint:
    """One call reaches the fixed point on the netlists both flows build.

    The area caps are what the earlier 25-pass sweep optimizer reached;
    the worklist must never do worse.
    """

    @pytest.mark.parametrize("build, max_cells", [
        (_osss_expocu, 7233),
        (_vhdl_expocu, 3591),
    ], ids=["osss", "vhdl"])
    def test_second_call_is_a_no_op(self, build, max_cells):
        assert len(_fixed_point(build()).cells) <= max_cells
