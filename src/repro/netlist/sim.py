"""Gate-level simulation.

A levelized simulator for mapped circuits with two interchangeable
evaluation backends:

``event`` (default)
    Event-driven within each cycle: the combinational cells are
    topologically ordered once; each clock cycle applies the inputs,
    re-evaluates only the fan-out cones of changed nets, then clocks
    every flip-flop simultaneously.
``compiled``
    One straight-line Python function is code-generated per circuit from
    the same topological order — one bitwise expression per cell over a
    flat value list, no per-cell dict lookups or dispatch — and executed
    once per cycle.  Combinational values are re-settled lazily after
    the flop commit, so the steady-state cost is a single generated
    call per cycle.
``bitparallel``
    The compiled evaluator regenerated with *lane-parallel* bitwise
    expressions (PPSFP): every net slot holds up to
    :attr:`GateSimulator.LANE_CAPACITY` independent one-bit simulations
    packed into one Python int, so a single ``settle`` evaluates all
    lanes at once.  With one lane active the generated code reduces
    exactly to the scalar compiled semantics (the all-lanes mask ``M``
    is 1), so the backend doubles as a drop-in compiled engine; the
    fault campaign (:mod:`repro.fault.campaign`) widens it to pack up
    to 64 faults per settle.

All backends share one state representation (a dense ``list`` indexed
by per-circuit net *slots*) and are asserted equivalent by a randomized
oracle (``tests/netlist/test_sim_oracle.py``).  Used by the
stage-equivalence harness (claim R6: the netlist is bit- and
cycle-accurate against the OSSS source), as the slowest rung of the
simulation-speed ladder (claim R7), and as the hot path of the
fault-injection campaign engine (:mod:`repro.fault`).
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping

from repro.netlist.circuit import Cell, Circuit, NetlistError

#: The simulation backends selectable via ``GateSimulator(..., backend=)``.
BACKENDS = ("event", "compiled", "bitparallel")


def _eval_cell(name: str, ins: list[int]) -> int:
    if name == "INV":
        return ins[0] ^ 1
    if name == "BUF":
        return ins[0]
    if name == "AND2":
        return ins[0] & ins[1]
    if name == "OR2":
        return ins[0] | ins[1]
    if name == "XOR2":
        return ins[0] ^ ins[1]
    if name == "XNOR2":
        return (ins[0] ^ ins[1]) ^ 1
    if name == "NAND2":
        return (ins[0] & ins[1]) ^ 1
    if name == "NOR2":
        return (ins[0] | ins[1]) ^ 1
    if name == "MUX2":
        d0, d1, s = ins
        return d1 if s else d0
    raise NetlistError(f"cannot evaluate cell type {name}")


def _cell_expr(name: str, ins: list[int]) -> str:
    """The cell's output as a Python expression over value slots."""
    if name == "INV":
        return f"v[{ins[0]}] ^ 1"
    if name == "BUF":
        return f"v[{ins[0]}]"
    if name == "AND2":
        return f"v[{ins[0]}] & v[{ins[1]}]"
    if name == "OR2":
        return f"v[{ins[0]}] | v[{ins[1]}]"
    if name == "XOR2":
        return f"v[{ins[0]}] ^ v[{ins[1]}]"
    if name == "XNOR2":
        return f"1 ^ v[{ins[0]}] ^ v[{ins[1]}]"
    if name == "NAND2":
        return f"1 ^ (v[{ins[0]}] & v[{ins[1]}])"
    if name == "NOR2":
        return f"1 ^ (v[{ins[0]}] | v[{ins[1]}])"
    if name == "MUX2":
        d0, d1, s = ins
        return f"v[{d1}] if v[{s}] else v[{d0}]"
    raise NetlistError(f"cannot compile cell type {name}")


def _cell_expr_wide(name: str, ins: list[int]) -> str:
    """Lane-parallel variant of :func:`_cell_expr`.

    ``M`` is a module-level global of the generated namespace holding
    the all-lanes mask ``(1 << lanes) - 1``: it replaces the scalar
    constant 1 so inversions flip every active lane, and MUX2 becomes
    branch-free so each lane selects independently.  With ``M == 1``
    every expression reduces exactly to its scalar counterpart.
    """
    if name == "INV":
        return f"M ^ v[{ins[0]}]"
    if name == "BUF":
        return f"v[{ins[0]}]"
    if name == "AND2":
        return f"v[{ins[0]}] & v[{ins[1]}]"
    if name == "OR2":
        return f"v[{ins[0]}] | v[{ins[1]}]"
    if name == "XOR2":
        return f"v[{ins[0]}] ^ v[{ins[1]}]"
    if name == "XNOR2":
        return f"M ^ v[{ins[0]}] ^ v[{ins[1]}]"
    if name == "NAND2":
        return f"M ^ (v[{ins[0]}] & v[{ins[1]}])"
    if name == "NOR2":
        return f"M ^ (v[{ins[0]}] | v[{ins[1]}])"
    if name == "MUX2":
        d0, d1, s = ins
        return f"(v[{d1}] & v[{s}]) | (v[{d0}] & (M ^ v[{s}]))"
    raise NetlistError(f"cannot compile cell type {name}")


class _CompiledEngine:
    """The code-generated evaluator functions for one circuit.

    ``settle(v, f)``         full combinational settle, straight-line;
                             each *guarded* slot present in the clamp
                             table *f* (the fault subsystem's stuck-ats
                             and glitches) is clamped with its per-slot
                             ``(keep, value)`` mask pair;
    ``commit(v)``            simultaneous flop commit (one tuple
                             assignment: every D is read before any Q
                             is written);
    ``peek(v)``              output buses as a fresh ``{name: value}``.

    A *wide* (lane-parallel) engine additionally carries:

    ``peek_lane(v, lane)``   one lane's output buses, extracted bit by
                             bit from the packed slots;
    ``set_mask(m)``          rebind the generated namespace's all-lanes
                             mask ``M`` (1 = scalar mode).

    A guarded slot's line reads ``v[o] = (expr) if o not in f else
    (expr) & f[o][0] | f[o][1]``, so on a wide engine individual lanes
    are clamped while the others evaluate freely (a scalar clamp is the
    degenerate pair ``(0, value)``); every other line is a plain
    assignment.  Nothing is guarded at first: :meth:`guard` grows the
    set and regenerates the settle alone into the engine's own
    namespace, so a wide engine's ``M`` stays live.
    """

    __slots__ = ("settle", "commit", "peek", "peek_lane", "source",
                 "namespace", "guarded", "_exprs", "_rest", "_filename")

    def __init__(self, exprs: dict[int, str], rest: str,
                 filename: str) -> None:
        #: Combinational output slot -> its cell expression, in
        #: topological order.
        self._exprs = exprs
        self._rest = rest
        self._filename = filename
        #: The output slots whose settle line applies a clamp.
        self.guarded: frozenset[int] = frozenset()
        self.namespace: dict = {}
        exec(compile(rest, filename, "exec"), self.namespace)
        self.commit = self.namespace["commit"]
        self.peek = self.namespace["peek"]
        self.peek_lane = self.namespace.get("peek_lane")
        self._compile_settle()

    def _compile_settle(self) -> None:
        lines = [
            f"    v[{out}] = ({expr}) if {out} not in f "
            f"else ({expr}) & f[{out}][0] | f[{out}][1]"
            if out in self.guarded else f"    v[{out}] = {expr}"
            for out, expr in self._exprs.items()
        ]
        settle = "\n".join(["def settle(v, f):", *(lines or ["    pass"]),
                            ""])
        exec(compile(settle, self._filename, "exec"), self.namespace)
        self.settle = self.namespace["settle"]
        self.source = self._rest + settle

    def guard(self, slots: Iterable[int]) -> None:
        """Guard the combinational-output slots among *slots*.

        Regenerates the settle if any of them is new.  Other slots need
        no guard: the settle never writes a flop output or a primary
        input, so a clamp there persists by itself.
        """
        new = {s for s in slots if s in self._exprs} - self.guarded
        if new:
            self.guarded |= new
            self._compile_settle()

    def set_mask(self, mask: int) -> None:
        """Set the all-lanes mask ``M`` of a wide engine."""
        if self.peek_lane is None:
            raise NetlistError("set_mask() needs a lane-parallel engine")
        self.namespace["M"] = mask


def compile_engine(circuit: Circuit, order: list[Cell],
                   flops: list[Cell], slot: dict[int, int],
                   wide: bool = False) -> _CompiledEngine:
    """Generate and compile the straight-line evaluator for *circuit*.

    With ``wide=True`` the lane-parallel variant is generated: cell
    expressions come from :func:`_cell_expr_wide` over the namespace
    global ``M`` (initially 1, i.e. scalar mode), and a ``peek_lane``
    extractor is added.  ``peek`` itself stays the scalar extractor —
    it is only meaningful while ``M == 1``.  Both variants generate one
    ``settle(v, f)``, guarded at no slot until
    :meth:`_CompiledEngine.guard` adds some.
    """
    cell_expr = _cell_expr_wide if wide else _cell_expr
    exprs = {
        slot[cell.pins[cell.ctype.outputs[0]].uid]: cell_expr(
            cell.ctype.name, [slot[n.uid] for n in cell.input_nets()])
        for cell in order
    }
    if flops:
        lhs = ", ".join(f"v[{slot[f.pins['q'].uid]}]" for f in flops)
        rhs = ", ".join(f"v[{slot[f.pins['d'].uid]}]" for f in flops)
        commit_lines = [f"    {lhs} = {rhs}"]
    else:
        commit_lines = ["    pass"]
    peek_items = []
    lane_items = []
    for name, nets in circuit.output_buses.items():
        bits = [
            f"v[{slot[net.uid]}]" if k == 0 else f"v[{slot[net.uid]}] << {k}"
            for k, net in enumerate(nets)
        ]
        peek_items.append(f"{name!r}: {' | '.join(bits) or '0'}")
        lane_bits = [
            f"(v[{slot[net.uid]}] >> lane & 1)" if k == 0
            else f"(v[{slot[net.uid]}] >> lane & 1) << {k}"
            for k, net in enumerate(nets)
        ]
        lane_items.append(f"{name!r}: {' | '.join(lane_bits) or '0'}")
    lines = [
        *(["M = 1", ""] if wide else []),
        "def commit(v):",
        *commit_lines,
        "",
        "def peek(v):",
        "    return {" + ", ".join(peek_items) + "}",
        "",
    ]
    if wide:
        lines += [
            "def peek_lane(v, lane):",
            "    return {" + ", ".join(lane_items) + "}",
            "",
        ]
    tag = "bitparallel" if wide else "compiled"
    return _CompiledEngine(exprs, "\n".join(lines),
                           f"<{tag}:{circuit.name}>")


class GateSimulator:
    """Cycle-based two-valued gate simulator.

    Parameters
    ----------
    circuit:
        A linked (no black boxes), validated circuit.
    backend:
        ``"event"`` for the interpreted event-driven engine (the
        reference), ``"compiled"`` for the code-generated straight-line
        evaluator (the fast path), or ``"bitparallel"`` for the
        lane-parallel generated evaluator (scalar until
        :meth:`begin_lanes` widens it; see the module docstring).

    Net values live in a flat list (``self._values``) indexed by a dense
    per-circuit *slot*; ``self._slot`` maps net uid to slot.  All
    backends share this store, so the fault-injection hooks
    (:mod:`repro.fault.inject`) work identically under each.
    """

    #: Maximum simultaneous lanes of the ``bitparallel`` backend.  64
    #: keeps every packed slot within one machine word of CPython's
    #: big-int representation, the sweet spot for the bitwise ops the
    #: generated code is made of.
    LANE_CAPACITY = 64

    def __init__(self, circuit: Circuit, backend: str = "event") -> None:
        if backend not in BACKENDS:
            raise NetlistError(
                f"unknown simulation backend {backend!r} "
                f"(expected one of {BACKENDS})"
            )
        circuit.validate()
        self.circuit = circuit
        self.backend = backend
        self._order = circuit.topological_comb_order()
        self._flops = circuit.flops()
        self._n_cells = len(self._order)
        #: Hooks called (no arguments) after every committed step; the
        #: cycle-based counterpart of the kernel's ``cycle_hooks``, used
        #: by :class:`repro.obs.vcd.GateTrace`.
        self.step_hooks: list = []
        # Work counters (see stats()); initialized before the first
        # settle below so construction work is counted too.
        self._n_steps = 0
        self._n_settles = 0
        self._n_cell_evals = 0
        self._n_wakeups = 0
        self._n_fast_commits = 0
        # Slots are allocated for *live* nets only (cell pins, bus
        # members, constants): the optimizer drops unconnected nets, but
        # simulators also run unoptimized circuits, where technology
        # mapping leaves many behind, and the value list is copied by
        # every checkpoint.
        used: set[int] = set(circuit.primary_input_nets())
        for cell in circuit.cells:
            for net in cell.pins.values():
                used.add(net.uid)
        for nets in circuit.output_buses.values():
            for net in nets:
                used.add(net.uid)
        self._slot: dict[int, int] = {}
        for net in circuit.nets:
            if net.uid in used:
                self._slot[net.uid] = len(self._slot)
        slot = self._slot
        self._values: list[int] = [0] * len(slot)
        self._const_uids: set[int] = set()
        for value, net in circuit.constant_nets().items():
            self._values[slot[net.uid]] = value
            self._const_uids.add(net.uid)
        # Pre-resolved slots for the interpreted engine: input slots and
        # the output slot per cell, fan-out cells per slot, topo level.
        self._cell_ins: dict[int, list[int]] = {}
        self._cell_out: dict[int, int] = {}
        self._fanout: dict[int, list[Cell]] = {}
        self._level: dict[int, int] = {}
        for level, cell in enumerate(self._order):
            self._level[cell.uid] = level
            self._cell_ins[cell.uid] = [
                slot[n.uid] for n in cell.input_nets()
            ]
            self._cell_out[cell.uid] = \
                slot[cell.pins[cell.ctype.outputs[0]].uid]
            for net in cell.input_nets():
                self._fanout.setdefault(slot[net.uid], []).append(cell)
        self._in_slots = {
            name: [slot[n.uid] for n in nets]
            for name, nets in circuit.input_buses.items()
        }
        self._out_slots = {
            name: [slot[n.uid] for n in nets]
            for name, nets in circuit.output_buses.items()
        }
        self._flop_d = [slot[f.pins["d"].uid] for f in self._flops]
        self._flop_q = [slot[f.pins["q"].uid] for f in self._flops]
        self._inputs: dict[str, int] = {name: 0 for name in circuit.input_buses}
        self.cycle = 0
        #: Active lane count / all-lanes mask (bitparallel backend; the
        #: scalar backends stay at 1 so shared code paths cost nothing).
        self._lanes = 1
        self._lane_mask = 1
        #: slot -> (keep, value) clamps every settle applies to its
        #: guarded slots; empty unless the fault subsystem fills it.
        self._clamps: dict[int, tuple[int, int]] = {}
        self._compiled = (
            compile_engine(circuit, self._order, self._flops, slot,
                           wide=backend == "bitparallel")
            if backend in ("compiled", "bitparallel") else None
        )
        #: Compiled backend only: combinational values are stale after a
        #: flop commit and re-settled on demand (next step, peek, or
        #: state access) — one generated call per steady-state cycle.
        self._stale = False
        self._settle_all()

    @property
    def compiled_source(self) -> str | None:
        """The generated evaluator source (``None`` on the event backend)."""
        return self._compiled.source if self._compiled is not None else None

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _settle_all(self) -> None:
        self._n_settles += 1
        if self._compiled is not None:
            self._compiled.settle(self._values, self._clamps)
        else:
            self._n_cell_evals += self._n_cells
            for cell in self._order:
                self._eval(cell)
        self._stale = False

    def _ensure_settled(self) -> None:
        if self._stale:
            self._settle_all()

    def _eval(self, cell: Cell) -> bool:
        values = self._values
        ins = [values[s] for s in self._cell_ins[cell.uid]]
        out = self._cell_out[cell.uid]
        new = _eval_cell(cell.ctype.name, ins)
        if values[out] == new:
            return False
        values[out] = new
        return True

    def _propagate(self, dirty_slots: list[int]) -> None:
        """Event-driven settle: re-evaluate fan-out of changed slots."""
        pending: list[tuple[int, int]] = []
        queued: set[int] = set()
        _by_uid: dict[int, Cell] = {}

        def enqueue(net_slot: int) -> None:
            for cell in self._fanout.get(net_slot, ()):
                if cell.uid not in queued:
                    queued.add(cell.uid)
                    heapq.heappush(pending, (self._level[cell.uid], cell.uid))
                    _by_uid[cell.uid] = cell

        for net_slot in dirty_slots:
            enqueue(net_slot)
        evals = 0
        while pending:
            _, cell_uid = heapq.heappop(pending)
            cell = _by_uid[cell_uid]
            queued.discard(cell_uid)
            evals += 1
            if self._eval(cell):
                enqueue(self._cell_out[cell_uid])
        self._n_wakeups += evals
        self._n_cell_evals += evals

    def drive(self, **buses: int) -> list[int]:
        """Set input buses; returns the list of changed net slots.

        Values are masked to the bus width before being stored (matching
        :meth:`repro.rtl.simulate.RtlSimulator.drive`); negative values
        are rejected — drive the two's-complement raw pattern instead.
        """
        dirty: list[int] = []
        values = self._values
        for name, value in buses.items():
            slots = self._in_slots.get(name)
            if slots is None:
                raise NetlistError(f"no input bus {name!r}")
            value = int(value)
            if value < 0:
                raise NetlistError(
                    f"input bus {name!r} driven with negative value "
                    f"{value}; drive the raw two's-complement pattern"
                )
            value &= (1 << len(slots)) - 1
            self._inputs[name] = value
            mask = self._lane_mask  # broadcast 1-bits across all lanes
            for k, net_slot in enumerate(slots):
                bit_value = (value >> k) & 1 and mask
                if values[net_slot] != bit_value:
                    values[net_slot] = bit_value
                    dirty.append(net_slot)
        return dirty

    def peek_outputs(self) -> dict[str, int]:
        """Current output bus values."""
        if self._lanes != 1:
            raise NetlistError(
                "outputs are lane-packed during lane-parallel simulation; "
                "use peek_lane_outputs(lane)"
            )
        self._ensure_settled()
        if self._compiled is not None:
            return self._compiled.peek(self._values)
        values = self._values
        result = {}
        for name, slots in self._out_slots.items():
            value = 0
            for k, net_slot in enumerate(slots):
                value |= values[net_slot] << k
            result[name] = value
        return result

    # ------------------------------------------------------------------
    # state checkpointing (used by the fault-campaign engine)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        """A deep, settled copy of the simulator state (scalar mode)."""
        if self._lanes != 1:
            raise NetlistError(
                "cannot checkpoint lane-packed state; checkpoints are "
                "taken from scalar (single-lane) simulation"
            )
        self._ensure_settled()
        return (list(self._values), self.cycle, dict(self._inputs))

    def restore_state(self, snap: tuple) -> None:
        """Rewind to a :meth:`snapshot_state` checkpoint (scalar mode)."""
        if self._lanes != 1:
            self._lanes = 1
            self._lane_mask = 1
            self._compiled.set_mask(1)
        values, cycle, inputs = snap
        self._values = list(values)
        self.cycle = cycle
        self._inputs = dict(inputs)
        self._stale = False

    # ------------------------------------------------------------------
    # lane-parallel simulation (bitparallel backend)
    # ------------------------------------------------------------------
    def begin_lanes(self, n: int) -> None:
        """Widen to *n* independent lanes, each a copy of this state.

        Every slot's scalar 0/1 value is broadcast across the lanes;
        from here the lanes evolve independently under per-lane forcing
        masks (:class:`repro.fault.inject.FaultableGateSimulator`).
        Ends with :meth:`end_lanes` or :meth:`restore_state`.
        """
        if self.backend != "bitparallel":
            raise NetlistError(
                "lane-parallel simulation needs backend='bitparallel' "
                f"(this simulator uses {self.backend!r})"
            )
        if self._lanes != 1:
            raise NetlistError("already in lane-parallel mode")
        if not 1 <= n <= self.LANE_CAPACITY:
            raise NetlistError(
                f"lane count {n} outside [1, {self.LANE_CAPACITY}]"
            )
        self._ensure_settled()
        mask = (1 << n) - 1
        self._lanes = n
        self._lane_mask = mask
        self._compiled.set_mask(mask)
        self._values = [value and mask for value in self._values]

    def end_lanes(self) -> None:
        """Collapse back to scalar mode, keeping lane 0's state."""
        if self._lanes == 1:
            return
        self._lanes = 1
        self._lane_mask = 1
        self._compiled.set_mask(1)
        self._values = [value & 1 for value in self._values]

    def peek_lane_outputs(self, lane: int) -> dict[str, int]:
        """One lane's output bus values during lane-parallel simulation."""
        if self.backend != "bitparallel":
            raise NetlistError(
                "peek_lane_outputs() needs backend='bitparallel'"
            )
        if not 0 <= lane < self._lanes:
            raise NetlistError(
                f"lane {lane} outside the {self._lanes} active lane(s)"
            )
        self._ensure_settled()
        return self._compiled.peek_lane(self._values, lane)

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self, **buses: int) -> dict[str, int]:
        """Advance one clock cycle; returns the sampled outputs."""
        if self._lanes != 1:
            raise NetlistError(
                "step() is scalar; lane-parallel simulation advances via "
                "the fault subsystem's step_lanes()/commit_lanes()"
            )
        if self._compiled is not None:
            outputs = self._step_compiled(buses)
        else:
            outputs = self._step_event(buses)
        self._n_steps += 1
        for hook in self.step_hooks:
            hook()
        return outputs

    def _step_event(self, buses: Mapping[str, int]) -> dict[str, int]:
        dirty = self.drive(**buses)
        if dirty:
            self._propagate(dirty)
        outputs = self.peek_outputs()
        values = self._values
        # Sample all flop D pins, then commit Q simultaneously.
        sampled = [values[d] for d in self._flop_d]
        changed: list[int] = []
        for q, d_value in zip(self._flop_q, sampled):
            if values[q] != d_value:
                values[q] = d_value
                changed.append(q)
        if changed:
            self._propagate(changed)
        self.cycle += 1
        return outputs

    def _step_compiled(self, buses: Mapping[str, int]) -> dict[str, int]:
        self.drive(**buses)
        engine = self._compiled
        values = self._values
        engine.settle(values, self._clamps)
        self._n_settles += 1
        outputs = engine.peek(values)
        engine.commit(values)
        self._n_fast_commits += 1
        # Combinational nets now lag the committed state; the next
        # settle (next step or on-demand) brings them forward.
        self._stale = True
        self.cycle += 1
        return outputs

    def run(self, stimulus: Iterable[Mapping[str, int]],
            max_cycles: int | None = None) -> list[dict[str, int]]:
        """Step once per stimulus entry; returns each cycle's outputs.

        With *max_cycles*, raise :class:`NetlistError` once that many
        cycles have been stepped — a guard against pathological (e.g.
        endless) stimulus generators.
        """
        outputs: list[dict[str, int]] = []
        for entry in stimulus:
            if max_cycles is not None and len(outputs) >= max_cycles:
                raise NetlistError(
                    f"run() exceeded its cycle budget of {max_cycles} "
                    f"cycles on {self.circuit.name!r}; the stimulus "
                    "generator did not terminate in time"
                )
            outputs.append(self.step(**dict(entry)))
        return outputs

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def flop_values(self) -> dict[str, int]:
        """Committed flop output values by (disambiguated) net name."""
        values = self._values
        result: dict[str, int] = {}
        seen: dict[str, int] = {}
        for flop in self._flops:
            net = flop.pins["q"]
            count = seen.get(net.name, 0)
            seen[net.name] = count + 1
            name = net.name if count == 0 else f"{net.name}#{count}"
            result[name] = values[self._slot[net.uid]]
        return result

    def stats(self) -> dict[str, int | str]:
        """Uniform work counters (see DESIGN.md §8).

        ``steps``          committed clock cycles;
        ``cells``          combinational cells in the circuit;
        ``settle_passes``  full combinational settles (construction,
                           compiled steps, lazy re-settles);
        ``cell_evals``     *interpreted* per-cell dispatches — full
                           interpreted settles count every cell,
                           event-driven propagation counts only the
                           cells actually woken.  The compiled backend
                           performs none: its settles run as generated
                           straight-line code, so its work is
                           ``settle_passes × cells`` without the
                           per-cell dispatch this counter measures;
        ``event_wakeups``  cells popped from the event queue (event
                           backend only; a subset of ``cell_evals``);
        ``fast_commits``   code-generated flop commits (compiled only).
        """
        return {
            "backend": self.backend,
            "steps": self._n_steps,
            "cells": self._n_cells,
            "settle_passes": self._n_settles,
            "cell_evals": self._n_cell_evals,
            "event_wakeups": self._n_wakeups,
            "fast_commits": self._n_fast_commits,
        }

    def reset_stats(self) -> None:
        """Zero the work counters (simulation state is untouched)."""
        self._n_steps = 0
        self._n_settles = 0
        self._n_cell_evals = 0
        self._n_wakeups = 0
        self._n_fast_commits = 0

    def __repr__(self) -> str:
        return (f"GateSimulator({self.circuit.name!r}, "
                f"backend={self.backend!r}, cycle={self.cycle})")
