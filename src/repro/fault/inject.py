"""Non-invasive fault-injection hooks for both simulators.

The fault-free simulators stay untouched on their hot paths: RTL
injection goes through the public ``registers``/``register_value``/
``poke_register`` accessors of :class:`~repro.rtl.simulate.RtlSimulator`,
and gate-level injection subclasses :class:`~repro.netlist.sim
.GateSimulator` to clamp *forced* (stuck-at) nets at the three points
where net values are written — input drive, combinational evaluation and
flop commit.

Both injectors speak the same small protocol the campaign engine
(:mod:`repro.fault.campaign`) consumes:

``step(entry)``            advance one cycle, return the outputs;
``snapshot()/restore(s)``  checkpoint and rewind simulator state;
``inject(fault)``          apply one :class:`~repro.fault.campaign.Fault`;
``clear_faults()``         release stuck-at forcing;
``seu_targets()``          deterministic ``(name, width)`` state bits;
``net_targets()``          deterministic net names for stuck-at/transient
                           faults (empty at RTL level).

The gate injector on the ``bitparallel`` backend adds a lane surface
(``lane_capacity``, ``resolve``, ``inject_lane``, ``step_lanes`` …) so
one replay classifies up to 64 faults of any kind.
"""

from __future__ import annotations

from typing import Mapping

from repro.netlist.circuit import Circuit, Net, NetlistError
from repro.netlist.sim import GateSimulator
from repro.rtl.ir import Register, RtlError
from repro.rtl.simulate import RtlSimulator


class FaultInjectionError(ValueError):
    """Raised for ill-formed faults (unknown target, bad bit index...)."""


def _unique_names(pairs):
    """Disambiguate duplicate names with ``#k``, then sort by name.

    The sort matters: register/net collection order can vary across
    *processes* (hash-randomized iteration inside the synthesis flow),
    and fault targets are addressed by name so that seeded fault lists
    — and hence campaign reports — are byte-identical between runs.
    """
    seen: dict[str, int] = {}
    result = []
    for name, payload in pairs:
        count = seen.get(name, 0)
        seen[name] = count + 1
        result.append((name if count == 0 else f"{name}#{count}", payload))
    result.sort(key=lambda pair: pair[0])
    return result


# ======================================================================
# RTL level
# ======================================================================
class RtlFaultInjector:
    """SEU injection on :class:`RtlSimulator` register state."""

    flow = "rtl"

    def __init__(self, sim: RtlSimulator) -> None:
        self.sim = sim
        self._by_name: dict[str, Register] = dict(
            _unique_names((reg.name, reg) for reg in sim.registers())
        )

    # -- campaign protocol --------------------------------------------
    def step(self, entry: Mapping[str, int]) -> dict[str, int]:
        return self.sim.step(**dict(entry))

    def snapshot(self) -> tuple:
        return (dict(self.sim.state), self.sim.cycle, dict(self.sim._inputs))

    def restore(self, snap: tuple) -> None:
        state, cycle, inputs = snap
        self.sim.state = dict(state)
        self.sim.cycle = cycle
        self.sim._inputs = dict(inputs)

    def seu_targets(self) -> list[tuple[str, int]]:
        return [(name, reg.spec.width)
                for name, reg in self._by_name.items()]

    def net_targets(self) -> list[str]:
        return []

    def fault_collapse_map(self) -> dict[tuple[str, str], tuple[str, str]]:
        """No structural collapsing at RTL level (no gate graph)."""
        return {}

    def inject(self, fault) -> None:
        if fault.kind != "seu":
            raise FaultInjectionError(
                f"RTL injection supports 'seu' faults only, got "
                f"{fault.kind!r}"
            )
        self.flip_register(fault.target, fault.bit)

    def clear_faults(self) -> None:
        """SEUs are one-shot state flips; nothing persists."""

    # -- direct API ----------------------------------------------------
    def flip_register(self, name: str, bit: int) -> int:
        """Flip one bit of a register; returns the new raw contents."""
        reg = self._by_name.get(name)
        if reg is None:
            raise FaultInjectionError(f"no register named {name!r}")
        if not 0 <= bit < reg.spec.width:
            raise FaultInjectionError(
                f"bit {bit} out of range for {name!r} "
                f"(width {reg.spec.width})"
            )
        raw = self.sim.register_value(reg) ^ (1 << bit)
        self.sim.poke_register(reg, raw)
        return raw


# ======================================================================
# gate level
# ======================================================================
class FaultableGateSimulator(GateSimulator):
    """Gate simulator with stuck-at forcing and transient net flips.

    Forced nets are clamped at the three points where the base simulator
    writes net values — input drive, combinational evaluation and flop
    commit — under *every* evaluation backend: the event engine clamps
    in ``_eval`` and the commit loop from ``_forced``/``_transient``;
    both generated engines run ``settle_forced`` over per-slot
    ``(keep, value)`` masks (a scalar clamp is ``(0, value)``) and
    re-apply them after the generated commit, so on the bitparallel
    engine each lane can hold its own fault — a stuck-at
    (:meth:`force_net_lane`) or a transient (:meth:`flip_net_lane`, a
    one-step glitch mask composed with the stuck-at masks of the other
    lanes).  Input drive clamps through the same masks on every
    backend.  The fault-free hot path is
    untouched because clamping only happens in this subclass, and only
    while a force is active.  Forced slots are keyed by value-list slot
    (see :class:`~repro.netlist.sim.GateSimulator`).

    Transient flips (:meth:`flip_net`) on combinational or input nets
    are *one-cycle* glitches: the inverted value is clamped through
    exactly one following step — so the flops sample it once — and
    healed before the next cycle.  The clamp makes the semantics
    backend-uniform; previously the event engine let a glitch persist
    until the driver's cone next changed while a compiled settle healed
    it before anything sampled it, so the same transient fault could
    classify differently (or on the final stimulus cycle be dropped
    outright / act stuck through the drain) depending on the backend.
    Flop-output flips are state upsets and persist until the next
    commit overwrites them, identically under every backend.
    """

    #: Lane steps with an unchanged force set before the wide engine
    #: recompiles the settle with the clamps baked in as literals
    #: (:meth:`~repro.netlist.sim._CompiledEngine.specialize_forced`).
    #: High enough that the stimulus phase, where lanes activate every
    #: few cycles, almost never compiles; low enough that a long drain
    #: amortizes the one-time compile within a few dozen steps.
    SPEC_AFTER = 32

    def __init__(self, circuit: Circuit, backend: str = "event") -> None:
        # Before super().__init__: the base constructor settles the
        # circuit through our clamped _eval, which reads these.
        #: Event engine: slot -> stuck-at value.
        self._forced: dict[int, int] = {}
        #: Every backend: slot -> (keep, value) stuck-at masks; a
        #: settled expression becomes ``expr & keep | value``.
        self._force_masks: dict[int, tuple[int, int]] = {}
        #: One-cycle transient clamps: slot -> glitch value, healed
        #: after the next committed step.
        self._transient: dict[int, int] = {}
        #: Lane-parallel one-cycle glitches: slot -> (keep, value) lane
        #: masks, composed with ``_force_masks`` and expired by the next
        #: commit_lanes().
        self._glitch_masks: dict[int, tuple[int, int]] = {}
        #: Wide-settle specialization state: once the same force set has
        #: been lane-stepped SPEC_AFTER times in a row, the engine
        #: recompiles the settle with the clamps baked in as literals.
        self._forces_version = 0
        self._spec_version = -1
        self._spec_streak = 0
        self._spec_settle = None
        super().__init__(circuit, backend=backend)
        self._flop_q_set = frozenset(self._flop_q)
        self._in_bit: dict[int, tuple[str, int]] = {
            net_slot: (name, k)
            for name, slots in self._in_slots.items()
            for k, net_slot in enumerate(slots)
        }

    def _slot_of(self, net: Net) -> int:
        net_slot = self._slot.get(net.uid)
        if net_slot is None:
            raise FaultInjectionError(
                f"net {net.name!r} does not belong to circuit "
                f"{self.circuit.name!r}"
            )
        if net.uid in self._const_uids:
            raise NetlistError(
                f"refusing to fault constant net {net.name!r}: it is "
                "shared by every cell consuming that constant, so "
                "forcing or flipping it would corrupt unrelated logic; "
                "target the consuming cells' output nets instead"
            )
        return net_slot

    # -- forcing -------------------------------------------------------
    def _any_fault(self) -> bool:
        return bool(self._forced or self._force_masks or self._transient
                    or self._glitch_masks)

    def _lane_forces(self) -> dict[int, tuple[int, int]]:
        """The ``(keep, value)`` clamps for the generated ``settle_forced``.

        Scalar transients become ``(0, glitch)`` pairs; stuck-at masks
        win over glitches on the lanes they clamp.
        """
        forces = self._force_masks
        if self._transient:
            forces = {net_slot: (0, glitch)
                      for net_slot, glitch in self._transient.items()}
            forces.update(self._force_masks)
        if self._glitch_masks:
            forces = dict(forces)
            for net_slot, (g_keep, g_val) in self._glitch_masks.items():
                keep, val = forces.get(net_slot, (self._lane_mask, 0))
                forces[net_slot] = (keep & g_keep, val | g_val & keep)
        return forces

    def _lane_bit(self, lane: int) -> int:
        if not 0 <= lane < self._lanes:
            raise FaultInjectionError(
                f"lane {lane} outside the {self._lanes} active lane(s)"
            )
        return 1 << lane

    def force_net(self, net: Net, value: int) -> None:
        """Stuck-at: hold *net* at *value* until :meth:`release_all`."""
        net_slot = self._slot_of(net)
        self._ensure_settled()
        value &= 1
        self._forced[net_slot] = value
        self._force_masks[net_slot] = (0, value and self._lane_mask)
        self._forces_version += 1
        if self._values[net_slot] != value:
            self._values[net_slot] = value
            if self._compiled is not None:
                self._stale = True
            else:
                self._propagate([net_slot])

    def force_net_lane(self, net: Net, value: int, lane: int) -> None:
        """Stuck-at in one lane of a lane-parallel (bitparallel) run.

        The lane's bit of *net* is clamped to *value* through drive,
        settle and commit while the other lanes evaluate freely; the
        clamp also applies immediately so a forced flop output diverges
        in its injection cycle exactly like a scalar :meth:`force_net`.
        """
        net_slot = self._slot_of(net)
        bit = self._lane_bit(lane)
        value_bit = bit if value & 1 else 0
        keep, val = self._force_masks.get(net_slot,
                                          (self._lane_mask, 0))
        self._force_masks[net_slot] = (keep & ~bit, val & ~bit | value_bit)
        self._forces_version += 1
        self._values[net_slot] = self._values[net_slot] & ~bit | value_bit
        self._stale = True

    def flip_net(self, net: Net) -> None:
        """Transient upset: invert the current value of *net* once.

        Flop outputs (a state SEU) stay inverted until the next clock
        commit overwrites them.  Combinational and input nets glitch for
        exactly one cycle: the inverted value is clamped through the
        next step — surviving that step's input drive and settle, so the
        flops sample it once — and healed before the following cycle.
        Identical under every backend (see the class docstring).
        """
        net_slot = self._slot_of(net)
        self._ensure_settled()
        glitch = self._values[net_slot] ^ 1
        if net_slot not in self._flop_q_set:
            self._transient[net_slot] = glitch
            self._forces_version += 1
        self._values[net_slot] = glitch
        if self._compiled is not None:
            self._stale = True
        else:
            self._propagate([net_slot])

    def flip_net_lane(self, net: Net, lane: int) -> None:
        """Transient upset in one lane of a lane-parallel (bitparallel) run.

        :meth:`flip_net` per lane: a flop-output flip inverts the lane's
        state bit until the next commit overwrites it; any other net
        gets a one-step ``(keep, value)`` glitch mask holding the inverse
        of the lane's settled pre-step value.  The mask composes with
        the stuck-at masks other lanes hold on the same slot and expires
        in :meth:`commit_lanes`, which also heals a glitched primary
        input back to its driven bit.
        """
        net_slot = self._slot_of(net)
        bit = self._lane_bit(lane)
        self._ensure_settled()
        values = self._values
        if net_slot in self._flop_q_set:
            values[net_slot] ^= bit
        else:
            glitch = ~values[net_slot] & bit
            keep, val = self._glitch_masks.get(net_slot,
                                               (self._lane_mask, 0))
            self._glitch_masks[net_slot] = (keep & ~bit, val | glitch)
            self._forces_version += 1
            values[net_slot] = values[net_slot] & ~bit | glitch
        self._stale = True

    def release_all(self) -> None:
        """Remove every force and pending glitch; re-settle the circuit."""
        if not self._any_fault():
            return
        self._restore_glitched_inputs([*self._transient, *self._glitch_masks])
        self._forced.clear()
        self._force_masks.clear()
        self._transient.clear()
        self._glitch_masks.clear()
        self._forces_version += 1
        # Recompute from scratch: forced values may have latched into
        # arbitrary downstream state, so settle every cell once.  Flop
        # contents corrupted while the force was active stay corrupted —
        # removing a physical fault does not repair the state it caused.
        self._settle_all()

    def _restore_glitched_inputs(self, slots) -> None:
        """Put glitched primary-input *slots* back to their driven bits.

        A settle only recomputes cell outputs, so a transient on an
        input net must be healed from the stored bus values (and the
        stuck-at masks other lanes hold on it re-applied).
        """
        values = self._values
        mask = self._lane_mask
        for net_slot in slots:
            in_bit = self._in_bit.get(net_slot)
            if in_bit is not None:
                name, k = in_bit
                keep, val = self._force_masks.get(net_slot, (mask, 0))
                driven = (self._inputs[name] >> k) & 1 and mask
                values[net_slot] = driven & keep | val

    def _heal_transients(self) -> None:
        """End-of-step healing: one-cycle glitches expire here."""
        self._restore_glitched_inputs(self._transient)
        self._transient.clear()
        self._forces_version += 1
        if self._compiled is not None:
            self._stale = True
        else:
            self._settle_all()

    # -- clamped write points -----------------------------------------
    def _settle_all(self) -> None:
        if self._compiled is not None and self._any_fault():
            self._n_settles += 1
            self._compiled.settle_forced(self._values, self._lane_forces())
            self._stale = False
            return
        super()._settle_all()

    def _eval(self, cell) -> bool:
        out = self._cell_out[cell.uid]
        forced = self._forced.get(out)
        if forced is None:
            forced = self._transient.get(out)
        if forced is not None:
            if self._values[out] == forced:
                return False
            self._values[out] = forced
            return True
        return super()._eval(cell)

    def drive(self, **buses: int) -> list[int]:
        dirty = super().drive(**buses)
        values = self._values
        for net_slot, (keep, val) in self._lane_forces().items():
            clamped = values[net_slot] & keep | val
            if values[net_slot] != clamped:
                values[net_slot] = clamped
                dirty.append(net_slot)
        return dirty

    def _step_event(self, buses) -> dict[str, int]:
        if not self._any_fault():
            return super()._step_event(buses)
        dirty = self.drive(**buses)
        if dirty:
            self._propagate(dirty)
        outputs = self.peek_outputs()
        values = self._values
        forced = self._forced
        sampled = [values[d] for d in self._flop_d]
        changed: list[int] = []
        for q, d_value in zip(self._flop_q, sampled):
            d_value = forced.get(q, d_value)
            if values[q] != d_value:
                values[q] = d_value
                changed.append(q)
        if changed:
            self._propagate(changed)
        self.cycle += 1
        if self._transient:
            self._heal_transients()
        return outputs

    def _step_compiled(self, buses) -> dict[str, int]:
        if not self._any_fault():
            return super()._step_compiled(buses)
        self.drive(**buses)  # re-applies input clamps
        engine = self._compiled
        values = self._values
        engine.settle_forced(values, self._lane_forces())
        self._n_settles += 1
        outputs = engine.peek(values)
        engine.commit(values)
        self._n_fast_commits += 1
        for net_slot, (keep, val) in self._force_masks.items():
            values[net_slot] = values[net_slot] & keep | val  # flop clamps
        self._stale = True
        self.cycle += 1
        if self._transient:
            self._heal_transients()
        return outputs

    def restore_state(self, snap: tuple) -> None:
        self._forced.clear()
        self._force_masks.clear()
        self._transient.clear()
        self._glitch_masks.clear()
        self._forces_version += 1
        super().restore_state(snap)

    # -- lane-parallel stepping (bitparallel backend) ------------------
    def begin_lanes(self, n: int) -> None:
        if self._any_fault():
            raise NetlistError(
                "begin_lanes() needs a fault-free scalar state; release "
                "forces before widening"
            )
        super().begin_lanes(n)

    def step_lanes(self, entry: Mapping[str, int]) -> None:
        """Lane step, phase 1: drive the stimulus and settle all lanes.

        Leaves the simulator in the *pre-commit* observation state the
        scalar step samples its outputs from; read the lane reducers
        (:meth:`lanes_output_diff` & co.), then :meth:`commit_lanes`.
        ``step_hooks`` are not called — lane-packed values would corrupt
        a VCD trace.
        """
        if self._lanes == 1:
            raise NetlistError("step_lanes() needs begin_lanes() first")
        self.drive(**dict(entry))
        forces = self._lane_forces()
        if forces:
            if self._spec_version != self._forces_version:
                self._spec_version = self._forces_version
                self._spec_streak = 0
                self._spec_settle = None
            if self._spec_settle is not None:
                self._spec_settle(self._values)
            else:
                self._compiled.settle_forced(self._values, forces)
                self._spec_streak += 1
                if self._spec_streak >= self.SPEC_AFTER:
                    self._spec_settle = (
                        self._compiled.specialize_forced(forces)
                    )
        else:
            self._compiled.settle(self._values)
        self._n_settles += 1

    def commit_lanes(self) -> None:
        """Lane step, phase 2: flop commit plus post-commit clamps.

        Lane glitches (:meth:`flip_net_lane`) expire here.
        """
        if self._lanes == 1:
            raise NetlistError("commit_lanes() needs begin_lanes() first")
        values = self._values
        self._compiled.commit(values)
        self._n_fast_commits += 1
        for net_slot, (keep, val) in self._force_masks.items():
            values[net_slot] = values[net_slot] & keep | val
        if self._glitch_masks:
            self._restore_glitched_inputs(self._glitch_masks)
            self._glitch_masks.clear()
            self._forces_version += 1
        self._stale = True
        self.cycle += 1
        self._n_steps += 1

    # -- lane reducers (read between step_lanes and commit_lanes) ------
    def lanes_output_diff(self, reference: Mapping[str, int],
                          names) -> int:
        """Bitmask of lanes whose named outputs differ from *reference*."""
        values = self._values
        mask = self._lane_mask
        acc = 0
        for name in names:
            ref = reference.get(name) or 0
            for k, net_slot in enumerate(self._out_slots.get(name, ())):
                if (ref >> k) & 1:
                    acc |= mask ^ values[net_slot]
                else:
                    acc |= values[net_slot]
        return acc

    def lanes_detect_rise(self, reference: Mapping[str, int],
                          signals) -> int:
        """Bitmask of lanes where a detect signal rose above *reference*.

        Mirrors the scalar classifier's ``sample and not reference``: a
        signal whose golden reference is already truthy cannot rise.
        """
        values = self._values
        acc = 0
        for sig in signals:
            if reference.get(sig):
                continue
            for net_slot in self._out_slots.get(sig, ()):
                acc |= values[net_slot]
        return acc

    def lanes_done(self, done_signal: str, done_value: int) -> int:
        """Bitmask of lanes whose done-signal equals *done_value*."""
        slots = self._out_slots.get(done_signal)
        if slots is None or done_value >> len(slots):
            return 0
        values = self._values
        mask = self._lane_mask
        eq = mask
        for k, net_slot in enumerate(slots):
            if (done_value >> k) & 1:
                eq &= values[net_slot]
            else:
                eq &= mask ^ values[net_slot]
        return eq

    def lane_state_snapshot(self, active: int) -> list[int]:
        """The *active* lanes' flop bits, for steady-state cycle detection.

        After :meth:`commit_lanes`, under a fixed input and constant
        forcing masks (every glitch expired), a lane's flop bits fully
        determine its future: each settle recomputes the combinational
        values from them.  Lanes never interact, so two equal snapshots
        under the same *active* mask mean every active lane repeats
        forever — the basis of the batch drain's periodicity shortcut.
        Lanes outside *active* are masked out: a finished lane that
        keeps toggling would otherwise stretch the period of the whole
        state far beyond that of the lanes still running.
        """
        values = self._values
        return [values[q] & active for q in self._flop_q]


class GateFaultInjector:
    """Campaign adapter for :class:`FaultableGateSimulator`.

    SEUs target flop output (state) bits; stuck-at-0/1 and transient
    flips target combinational cell outputs and primary inputs.
    """

    flow = "netlist"

    def __init__(self, sim: FaultableGateSimulator) -> None:
        if not isinstance(sim, FaultableGateSimulator):
            raise TypeError("GateFaultInjector needs a FaultableGateSimulator")
        self.sim = sim
        circuit = sim.circuit
        self._state_nets: dict[str, Net] = dict(_unique_names(
            (flop.pins["q"].name, flop.pins["q"]) for flop in circuit.flops()
        ))
        comb_outs = [
            (cell.pins[cell.ctype.outputs[0]].name,
             cell.pins[cell.ctype.outputs[0]])
            for cell in circuit.comb_cells()
            if not cell.ctype.name.startswith("TIE")
        ]
        primary = [
            (net.name, net)
            for nets in circuit.input_buses.values() for net in nets
        ]
        self._comb_nets: dict[str, Net] = dict(
            _unique_names(comb_outs + primary)
        )

    # -- campaign protocol --------------------------------------------
    def step(self, entry: Mapping[str, int]) -> dict[str, int]:
        return self.sim.step(**dict(entry))

    def snapshot(self) -> tuple:
        return self.sim.snapshot_state()

    def restore(self, snap: tuple) -> None:
        # FaultableGateSimulator.restore_state also releases any active
        # stuck-at forcing before rewinding the value store.
        self.sim.restore_state(snap)

    def seu_targets(self) -> list[tuple[str, int]]:
        return [(name, 1) for name in self._state_nets]

    def net_targets(self) -> list[str]:
        return list(self._comb_nets)

    def addressable_nets(self) -> dict[str, Net]:
        """Target name → the net :meth:`inject` would resolve it to.

        Mirrors the lookup precedence of :meth:`inject` for stuck-at and
        flip faults — combinational names shadow state names — so the
        quiescence profiler and the fault-collapsing canonicalizer
        reason about exactly the nets a campaign would clamp.
        """
        nets = dict(self._state_nets)
        nets.update(self._comb_nets)
        return nets

    def fault_collapse_map(self) -> dict[tuple[str, str], tuple[str, str]]:
        """``(target, kind)`` → equivalent representative ``(target, kind)``.

        Built from the structural equivalence classes of
        :func:`repro.analyze.netlist.collapse_faults`: members of one
        class force identical circuit behavior, so the campaign engine
        simulates the representative and copies its record to the
        others.  Representatives are the lexicographic minimum of each
        class so the choice is deterministic across processes.  Class
        members whose net is not addressable by name (shadowed by a
        duplicate) are left out — they must be simulated directly.
        Computed once per injector and cached.
        """
        cached = getattr(self, "_collapse_map", None)
        if cached is not None:
            return cached
        from repro.analyze.netlist import collapse_faults

        name_of: dict[int, str] = {
            net.uid: name for name, net in self.addressable_nets().items()
        }
        mapping: dict[tuple[str, str], tuple[str, str]] = {}
        equivalence = collapse_faults(self.sim.circuit).equivalence
        for members in equivalence.classes().values():
            named = sorted(
                (name_of[uid], kind)
                for uid, kind in members if uid in name_of
            )
            if len(named) < 2:
                continue
            rep = named[0]
            for member in named[1:]:
                mapping[member] = rep
        self._collapse_map = mapping
        return mapping

    def resolve(self, fault) -> Net:
        """The net *fault* targets, validated before anything is applied.

        Raises, in the same order and with the same message, wherever
        :meth:`inject` would — unknown targets or kinds, constant nets —
        so the campaign scheduler can divert faults that do not resolve
        to the scalar classifier (which records the exception as
        ``detected``) and pack every other fault into lanes.
        """
        if fault.kind == "seu":
            net = self._state_nets.get(fault.target)
            if net is None:
                raise FaultInjectionError(
                    f"no state (flop output) net named {fault.target!r}"
                )
        else:
            net = self._comb_nets.get(fault.target) \
                or self._state_nets.get(fault.target)
            if net is None:
                raise FaultInjectionError(f"no net named {fault.target!r}")
            if fault.kind not in ("sa0", "sa1", "flip"):
                raise FaultInjectionError(
                    f"unknown fault kind {fault.kind!r}"
                )
        self.sim._slot_of(net)  # rejects constant and foreign nets
        return net

    def inject(self, fault) -> None:
        net = self.resolve(fault)
        if fault.kind in ("sa0", "sa1"):
            self.sim.force_net(net, 1 if fault.kind == "sa1" else 0)
        else:
            self.sim.flip_net(net)

    def clear_faults(self) -> None:
        self.sim.release_all()

    # -- lane-parallel (PPSFP) surface --------------------------------
    @property
    def lane_capacity(self) -> int:
        """Faults one lane-parallel pass can carry (0 = none)."""
        if self.sim.backend == "bitparallel":
            return self.sim.LANE_CAPACITY
        return 0

    def begin_lanes(self, n: int) -> None:
        self.sim.begin_lanes(n)

    def end_lanes(self) -> None:
        self.sim.end_lanes()

    def inject_lane(self, fault, lane: int) -> None:
        """Apply one fault of any kind to one lane (see :meth:`inject`)."""
        net = self.resolve(fault)
        if fault.kind in ("sa0", "sa1"):
            self.sim.force_net_lane(net, 1 if fault.kind == "sa1" else 0,
                                    lane)
        else:
            self.sim.flip_net_lane(net, lane)

    def step_lanes(self, entry: Mapping[str, int]) -> None:
        self.sim.step_lanes(entry)

    def commit_lanes(self) -> None:
        self.sim.commit_lanes()

    def lanes_output_diff(self, reference, names) -> int:
        return self.sim.lanes_output_diff(reference, names)

    def lanes_detect_rise(self, reference, signals) -> int:
        return self.sim.lanes_detect_rise(reference, signals)

    def lanes_done(self, done_signal, done_value) -> int:
        return self.sim.lanes_done(done_signal, done_value)

    def lane_state_snapshot(self, active: int) -> list[int]:
        return self.sim.lane_state_snapshot(active)
