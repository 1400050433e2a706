"""Randomized equivalence oracle for the gate-simulator backends.

Small random circuits are driven with random stimulus through four
engines that must agree bit-for-bit on every cycle:

* the event-driven engine (``_propagate`` over changed cones),
* a full re-evaluation reference (``_settle_all`` after every change),
* the code-generated compiled backend,
* the lane-packed bitparallel backend (scalar mode, ``M == 1``, where
  every wide expression must reduce exactly to its scalar counterpart).

This is the safety net under the compiled evaluators: any codegen bug —
a wrong expression, a missed commit, a stale lazy settle — shows up as
a divergence on some seed.  The lane property tests additionally pack
random stuck-at and flip faults into lanes and check each lane against
an independent scalar compiled simulator carrying that one fault.
"""

import random
import re

import pytest

from repro.fault.inject import FaultableGateSimulator
from repro.netlist import Circuit, GateSimulator, NetlistError
from repro.netlist.arena import GateArena

_COMB = ("INV", "BUF", "AND2", "OR2", "XOR2", "XNOR2", "NAND2", "NOR2",
         "MUX2")


def random_arena(seed: int, n_inputs: int = 4, n_cells: int = 40,
                 n_flops: int = 6, n_outputs: int = 8) -> GateArena:
    """A random acyclic netlist with feedback through flops only, built
    on a gate arena (what :func:`~repro.netlist.optimize` takes).

    Cells are created in topological order (each consumes already-driven
    nets), flop D pins may close cycles through the registered boundary,
    and outputs sample random internal nets.
    """
    rng = random.Random(seed)
    arena = GateArena(f"rand{seed}")
    inputs = arena.new_bus("x", n_inputs)
    arena.mark_input("x", inputs)
    q_nets = [arena.new_net(f"q{i}") for i in range(n_flops)]
    pool = list(inputs) + q_nets
    if rng.random() < 0.5:
        pool.append(arena.const_net(rng.randrange(2)))
    comb_nets = []
    for k in range(n_cells):
        ctype = rng.choice(_COMB)
        out = arena.new_net(f"n{k}")
        if ctype in ("INV", "BUF"):
            pins = {"a": rng.choice(pool)}
        elif ctype == "MUX2":
            pins = {"d0": rng.choice(pool), "d1": rng.choice(pool),
                    "s": rng.choice(pool)}
        else:
            pins = {"i0": rng.choice(pool), "i1": rng.choice(pool)}
        arena.add_cell(f"g{k}", ctype, y=out, **pins)
        pool.append(out)
        comb_nets.append(out)
    for i, q_net in enumerate(q_nets):
        arena.add_cell(f"ff{i}", "DFF", d=rng.choice(pool), q=q_net)
    arena.mark_output(
        "y", [rng.choice(pool) for _ in range(n_outputs)]
    )
    return arena


def random_circuit(seed: int, **sizes: int) -> Circuit:
    """:func:`random_arena` as a :class:`Circuit`."""
    circuit = random_arena(seed, **sizes).to_circuit()
    circuit.validate()
    return circuit


def _stimulus(seed: int, n_inputs: int, cycles: int) -> list[dict]:
    rng = random.Random(seed + 1)
    return [{"x": rng.randrange(1 << n_inputs)} for _ in range(cycles)]


class TestFourWayOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_event_settle_compiled_and_bitparallel_agree(self, seed):
        n_inputs = 4
        circuit = random_circuit(seed, n_inputs=n_inputs)
        event = GateSimulator(circuit, backend="event")
        compiled = GateSimulator(circuit, backend="compiled")
        bitparallel = GateSimulator(circuit, backend="bitparallel")
        # Reference: the event engine with every propagation widened to
        # a full settle — brute-force re-evaluation of all cells.
        settle = GateSimulator(circuit, backend="event")
        settle._propagate = \
            lambda dirty: GateSimulator._settle_all(settle)
        for entry in _stimulus(seed, n_inputs, cycles=30):
            out_event = event.step(**entry)
            out_settle = settle.step(**entry)
            out_compiled = compiled.step(**entry)
            out_wide = bitparallel.step(**entry)
            assert out_event == out_settle == out_compiled == out_wide
            assert (event.peek_outputs() == settle.peek_outputs()
                    == compiled.peek_outputs()
                    == bitparallel.peek_outputs())

    @pytest.mark.parametrize("seed", (2, 7))
    def test_faultable_backends_agree_fault_free(self, seed):
        circuit = random_circuit(seed)
        event = FaultableGateSimulator(circuit, backend="event")
        compiled = FaultableGateSimulator(circuit, backend="compiled")
        wide = FaultableGateSimulator(circuit, backend="bitparallel")
        for entry in _stimulus(seed, 4, cycles=20):
            assert (event.step(**entry) == compiled.step(**entry)
                    == wide.step(**entry))

    @pytest.mark.parametrize("seed", (1, 5, 9))
    def test_stuck_at_clamps_agree_across_backends(self, seed):
        """The three clamp points behave identically under both engines."""
        rng = random.Random(seed + 2)
        circuit = random_circuit(seed)
        event = FaultableGateSimulator(circuit, backend="event")
        compiled = FaultableGateSimulator(circuit, backend="compiled")
        consts = {net.uid for net in circuit.constant_nets().values()}
        forceable = [
            cell.pins["y"] for cell in circuit.comb_cells()
            if not cell.ctype.name.startswith("TIE")
        ] + [net for net in circuit.input_buses["x"] +
             [f.pins["q"] for f in circuit.flops()]
             if net.uid not in consts]
        stim = _stimulus(seed, 4, cycles=24)
        for sim in (event, compiled):
            for entry in stim[:4]:
                sim.step(**entry)
        target = forceable[rng.randrange(len(forceable))]
        value = rng.randrange(2)
        event.force_net(target, value)
        compiled.force_net(target, value)
        for entry in stim[4:16]:
            assert event.step(**entry) == compiled.step(**entry)
        event.release_all()
        compiled.release_all()
        for entry in stim[16:]:
            assert event.step(**entry) == compiled.step(**entry)
            assert event.peek_outputs() == compiled.peek_outputs()

    @pytest.mark.parametrize("seed", (0, 3))
    def test_state_seu_flips_agree_across_backends(self, seed):
        circuit = random_circuit(seed)
        flops = circuit.flops()
        event = FaultableGateSimulator(circuit, backend="event")
        compiled = FaultableGateSimulator(circuit, backend="compiled")
        stim = _stimulus(seed, 4, cycles=20)
        for entry in stim[:5]:
            event.step(**entry)
            compiled.step(**entry)
        q_net = flops[seed % len(flops)].pins["q"]
        event.flip_net(q_net)
        compiled.flip_net(q_net)
        assert event.peek_outputs() == compiled.peek_outputs()
        for entry in stim[5:]:
            assert event.step(**entry) == compiled.step(**entry)

    @pytest.mark.parametrize("seed", (2, 6, 11))
    def test_transient_flips_agree_across_backends(self, seed):
        """One-step glitches on combinational and input nets, at ``M == 1``.

        Every other cycle the three backends flip the same net — alone
        at first, then beside a stuck-at forced on that net in the same
        cycle — and must give the same outputs right after the
        injection, on every step and after it, once each glitch has
        expired and the forces are released.  Half the nets are guarded
        up front; a fault on any other one regenerates the settle.
        """
        rng = random.Random(seed + 41)
        circuit = random_circuit(seed)
        sims = [FaultableGateSimulator(circuit, backend=backend)
                for backend in ("event", "compiled", "bitparallel")]
        targets = [cell.pins["y"] for cell in circuit.comb_cells()]
        targets += circuit.input_buses["x"]
        consts = {net.uid for net in circuit.constant_nets().values()}
        declared = [net for net in targets[::2] if net.uid not in consts]
        for sim in sims:
            sim.guard_nets(declared)
        guarded = sims[1]._compiled.guarded
        hit_declared = False
        for cycle, entry in enumerate(_stimulus(seed, 4, cycles=36)):
            if 4 <= cycle < 28 and cycle % 2 == 0:
                net = rng.choice(targets)
                hit_declared |= net in declared
                value = rng.randrange(2)
                for sim in sims:
                    if cycle >= 16:
                        sim.force_net(net, value)
                    sim.flip_net(net)
                peeks = [sim.peek_outputs() for sim in sims]
                assert peeks[0] == peeks[1] == peeks[2], f"cycle {cycle}"
            if cycle == 28:
                for sim in sims:
                    sim.release_all()
            outs = [sim.step(**entry) for sim in sims]
            assert outs[0] == outs[1] == outs[2], f"cycle {cycle}"
            peeks = [sim.peek_outputs() for sim in sims]
            assert peeks[0] == peeks[1] == peeks[2], f"cycle {cycle}"
        # Both paths ran: a declared site, and a new one guarded on the spot.
        assert hit_declared
        assert guarded and guarded < sims[1]._compiled.guarded

    @pytest.mark.parametrize("backend", ("event", "compiled", "bitparallel"))
    def test_release_heals_clamped_inputs(self, backend):
        """After ``release_all`` input nets read their driven bits at once."""
        circuit = random_circuit(2)
        sim = FaultableGateSimulator(circuit, backend=backend)
        twin = FaultableGateSimulator(circuit, backend=backend)
        stim = _stimulus(2, 4, cycles=3)
        for entry in stim:
            sim.step(**entry)
            twin.step(**entry)
        x0, x1 = circuit.input_buses["x"][:2]
        sim.force_net(x0, (stim[-1]["x"] & 1) ^ 1)
        sim.flip_net(x1)
        sim.release_all()
        assert sim.peek_outputs() == twin.peek_outputs()
        assert sim.snapshot_state() == twin.snapshot_state()


class TestCompiledBackendSurface:
    def test_unknown_backend_rejected(self):
        circuit = random_circuit(0)
        with pytest.raises(NetlistError, match="backend"):
            GateSimulator(circuit, backend="jit")

    @pytest.mark.parametrize("backend", ("compiled", "bitparallel"))
    def test_one_settle_guards_exactly_the_declared_sites(self, backend):
        circuit = random_circuit(5)
        plain = GateSimulator(circuit, backend=backend)
        assert plain.compiled_source.count("def settle(") == 1
        assert " not in f " not in plain.compiled_source

        def guarded(source):
            return {int(slot) for slot in re.findall(
                r"^    v\[(\d+)\] = .* if \1 not in f else ", source,
                re.MULTILINE)}

        sim = FaultableGateSimulator(circuit, backend=backend)
        combs = [cell.pins["y"] for cell in circuit.comb_cells()]
        flop_q = circuit.flops()[0].pins["q"]
        # Only the combinational outputs among the declared nets take a
        # guard: the settle never writes flop outputs or primary inputs.
        sim.guard_nets(combs[::3] + circuit.input_buses["x"] + [flop_q])
        source = sim.compiled_source
        assert source.count("def settle(") == 1
        assert "def settle(v, f):" in source
        declared = {sim._slot[net.uid] for net in combs[::3]}
        assert guarded(source) == declared
        sim.force_net(combs[1], 1)  # outside the set: guarded from now on
        sim.flip_net(combs[0])  # inside: no change
        sim.force_net(flop_q, 0)
        assert guarded(sim.compiled_source) \
            == declared | {sim._slot[combs[1].uid]}
        assert sim.compiled_source.count("def settle(") == 1

    def test_compiled_source_exposed(self):
        circuit = random_circuit(0)
        event = GateSimulator(circuit)
        compiled = GateSimulator(circuit, backend="compiled")
        assert event.compiled_source is None
        source = compiled.compiled_source
        assert "def settle(v, f):" in source
        assert "def commit(v):" in source

    def test_snapshot_restore_replays_identically(self):
        circuit = random_circuit(4)
        sim = GateSimulator(circuit, backend="compiled")
        stim = _stimulus(4, 4, cycles=12)
        for entry in stim[:6]:
            sim.step(**entry)
        snap = sim.snapshot_state()
        first = [sim.step(**entry) for entry in stim[6:]]
        sim.restore_state(snap)
        assert [sim.step(**entry) for entry in stim[6:]] == first


class TestConstantNetEncapsulation:
    def test_constant_nets_returns_copy(self):
        circuit = random_circuit(1)
        # Force both constants to exist.
        zero, one = circuit.const_net(0), circuit.const_net(1)
        consts = circuit.constant_nets()
        assert consts[0] is zero and consts[1] is one
        consts.clear()
        assert circuit.constant_nets() == {0: zero, 1: one}

    @pytest.mark.parametrize("backend", ("event", "compiled", "bitparallel"))
    def test_fault_clamp_refuses_constant_nets(self, backend):
        circuit = random_circuit(1)
        zero = circuit.const_net(0)
        sim = FaultableGateSimulator(circuit, backend=backend)
        with pytest.raises(NetlistError, match="constant net"):
            sim.force_net(zero, 1)
        with pytest.raises(NetlistError, match="constant net"):
            sim.flip_net(zero)
        assert not sim._clamps


def _forceable_nets(circuit):
    """Nets a stuck-at clamp may target (mirrors the clamp tests)."""
    consts = {net.uid for net in circuit.constant_nets().values()}
    return [
        cell.pins["y"] for cell in circuit.comb_cells()
        if not cell.ctype.name.startswith("TIE")
    ] + [net for net in circuit.input_buses["x"] +
         [f.pins["q"] for f in circuit.flops()]
         if net.uid not in consts]


class TestLanePacking:
    """Seeded property: each lane ≡ a scalar compiled sim with its fault.

    A wide simulator carries one random fault per lane (a stuck-at, or
    in the flip test also a transient flip); an independent scalar
    compiled simulator carries the same single fault.
    Per cycle every lane's pre-commit outputs (``peek_lane_outputs``
    between ``step_lanes`` and ``commit_lanes``) must equal the scalar
    simulator's ``step`` outputs — the exact observation point the
    campaign classifier reduces over.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_lanes_match_scalar_compiled(self, seed):
        rng = random.Random(seed + 17)
        circuit = random_circuit(seed)
        forceable = _forceable_nets(circuit)
        n_lanes = rng.randrange(2, 9)
        picks = [(rng.choice(forceable), rng.randrange(2))
                 for _ in range(n_lanes)]
        stim = _stimulus(seed, 4, cycles=16)

        wide = FaultableGateSimulator(circuit, backend="bitparallel")
        scalars = [FaultableGateSimulator(circuit, backend="compiled")
                   for _ in picks]
        for entry in stim[:4]:  # shared warm-up, fault-free
            wide.step(**entry)
            for sim in scalars:
                sim.step(**entry)
        wide.begin_lanes(n_lanes)
        for lane, (net, value) in enumerate(picks):
            wide.force_net(net, value, lane)
            scalars[lane].force_net(net, value)
        for entry in stim[4:]:
            wide.step_lanes(entry)
            lane_outs = [wide.peek_lane_outputs(lane)
                         for lane in range(n_lanes)]
            wide.commit_lanes()
            for lane, sim in enumerate(scalars):
                assert lane_outs[lane] == sim.step(**entry), \
                    f"lane {lane} diverged from its scalar twin"

    @pytest.mark.parametrize("seed", (3, 8))
    def test_staggered_forcing_mid_flight(self, seed):
        """Lanes forced on different cycles, like a campaign batch."""
        rng = random.Random(seed + 23)
        circuit = random_circuit(seed)
        forceable = _forceable_nets(circuit)
        n_lanes = 5
        picks = [(rng.choice(forceable), rng.randrange(2),
                  rng.randrange(5, 10)) for _ in range(n_lanes)]
        stim = _stimulus(seed, 4, cycles=14)

        wide = FaultableGateSimulator(circuit, backend="bitparallel")
        scalars = [FaultableGateSimulator(circuit, backend="compiled")
                   for _ in picks]
        for entry in stim[:5]:
            wide.step(**entry)
            for sim in scalars:
                sim.step(**entry)
        wide.begin_lanes(n_lanes)
        for cycle, entry in enumerate(stim[5:], start=5):
            for lane, (net, value, at) in enumerate(picks):
                if at == cycle:
                    wide.force_net(net, value, lane)
                    scalars[lane].force_net(net, value)
            wide.step_lanes(entry)
            lane_outs = [wide.peek_lane_outputs(lane)
                         for lane in range(n_lanes)]
            wide.commit_lanes()
            for lane, sim in enumerate(scalars):
                assert lane_outs[lane] == sim.step(**entry)

    @pytest.mark.parametrize("seed", (1, 4, 9))
    def test_flips_beside_forces_match_scalar_twins(self, seed):
        """Lane flips (``flip_net(net, lane)``) mixed with lane stuck-ats.

        Each lane carries a stuck-at or a flip on any faultable net —
        primary input, combinational output or flop output — from its
        own cycle on; in further lanes a net is flipped twice in one
        cycle, which restores it.  Outputs must match the scalar twin's
        before the commit (the classifier's observation point) and
        after it, once a glitch has expired and a glitched input has
        been healed.
        """
        rng = random.Random(seed + 31)
        circuit = random_circuit(seed)
        forceable = _forceable_nets(circuit)
        # Every primary input glitches in some lane: healing is only
        # visible there, through combinational paths to the outputs.
        picks = [(net, "flip", rng.randrange(5, 10))
                 for net in circuit.input_buses["x"]]
        picks += [(rng.choice(forceable), rng.choice(("sa0", "sa1", "flip")),
                   rng.randrange(5, 10)) for _ in range(12)]
        assert {kind for _, kind, _ in picks} == {"sa0", "sa1", "flip"}
        picks += [(net, "flip2", rng.randrange(5, 10))
                  for net in circuit.input_buses["x"]
                  + rng.sample(forceable, 4)]
        n_lanes = len(picks)
        stim = _stimulus(seed, 4, cycles=16)

        wide = FaultableGateSimulator(circuit, backend="bitparallel")
        scalars = [FaultableGateSimulator(circuit, backend="compiled")
                   for _ in picks]
        # Half the sites are guarded up front, as a campaign declares
        # them; a fault on any other one regenerates the settle.
        declared = forceable[::2]
        for sim in [wide, *scalars]:
            sim.guard_nets(declared)
        before_faults = wide._compiled.guarded
        for entry in stim[:5]:
            wide.step(**entry)
            for sim in scalars:
                sim.step(**entry)
        wide.begin_lanes(n_lanes)
        for cycle, entry in enumerate(stim[5:], start=5):
            for lane, (net, kind, at) in enumerate(picks):
                if at != cycle:
                    continue
                if kind in ("flip", "flip2"):
                    for _ in range(2 if kind == "flip2" else 1):
                        wide.flip_net(net, lane)
                        scalars[lane].flip_net(net)
                else:
                    wide.force_net(net, kind == "sa1", lane)
                    scalars[lane].force_net(net, kind == "sa1")
            wide.step_lanes(entry)
            before = [wide.peek_lane_outputs(lane)
                      for lane in range(n_lanes)]
            wide.commit_lanes()
            after = [wide.peek_lane_outputs(lane)
                     for lane in range(n_lanes)]
            for lane, sim in enumerate(scalars):
                assert before[lane] == sim.step(**entry), \
                    f"lane {lane} diverged from its scalar twin"
                assert after[lane] == sim.peek_outputs()
        assert before_faults and before_faults < wide._compiled.guarded

    def test_end_lanes_keeps_lane_zero(self):
        seed = 2
        circuit = random_circuit(seed)
        forceable = _forceable_nets(circuit)
        stim = _stimulus(seed, 4, cycles=12)
        wide = FaultableGateSimulator(circuit, backend="bitparallel")
        scalar = FaultableGateSimulator(circuit, backend="compiled")
        for entry in stim[:4]:
            wide.step(**entry)
            scalar.step(**entry)
        wide.begin_lanes(4)
        wide.force_net(forceable[0], 1, 2)  # lane 2 only
        for entry in stim[4:8]:
            wide.step_lanes(entry)
            wide.commit_lanes()
            scalar.step(**entry)
        wide.end_lanes()
        wide.release_all()
        scalar.release_all()
        for entry in stim[8:]:  # lane 0 was fault-free == scalar twin
            assert wide.step(**entry) == scalar.step(**entry)

    def test_lane_mode_guards(self):
        circuit = random_circuit(0)
        compiled = FaultableGateSimulator(circuit, backend="compiled")
        with pytest.raises(NetlistError, match="bitparallel"):
            compiled.begin_lanes(2)
        wide = FaultableGateSimulator(circuit, backend="bitparallel")
        with pytest.raises(NetlistError, match="begin_lanes"):
            wide.step_lanes({"x": 0})
        wide.begin_lanes(3)
        with pytest.raises(NetlistError, match="scalar"):
            wide.step(x=0)
        with pytest.raises(NetlistError, match="already"):
            wide.begin_lanes(2)
        wide.end_lanes()
        wide.step(x=0)  # back to scalar mode
