"""Netlist optimization.

A small logic optimizer run by both flows after technology mapping:

* **constant propagation** — gates with constant inputs collapse;
* **identity simplification** — double inverters, same-input gates,
  degenerate multiplexers;
* **common-subexpression elimination** — structurally identical cells merge
  (commutative inputs sorted);
* **mux-chain collapse** — pass-through multiplexer chains become one
  multiplexer plus an OR/AND select tree;
* **dead-logic removal** — cones not reaching an output (or black-box
  input) disappear.

The rules run on one worklist over a fanout index (net → reading cells).
A cell is revisited only when something a rule reads changes: its own
inputs or type, the type of a cell driving it, the inputs of a
multiplexer only it reads, or the fanout of a net it reads falling to
one load.  So one :func:`optimize` call
runs to the fixed point, and calling it again changes nothing.
Structurally identical cells meet in a persistent hash-cons table, a
cell dies when the last reader of its output goes away, and a fan-in
sweep from the outputs (:meth:`~repro.netlist.arena.GateArena.fanin_cells`)
removes what reference counts cannot — flip-flop loops no output
observes.  Only connected nets stay in the result's ``nets``.

The worklist runs on a :class:`~repro.netlist.arena.GateArena`, where a
net is an int and a cell an index, so the ~90 % of mapped cells the
rules delete never exist as objects: :func:`optimize` takes the arena
the mapper made (and the linker extended) and returns a new
:class:`Circuit` of the survivors.

Because both flows share the optimizer, the paper's "area almost
equivalent" result (R1) and the zero-overhead class-resolution check (R3)
compare optimized-against-optimized.
"""

from __future__ import annotations

from repro.netlist.arena import GateArena
from repro.netlist.cells import AND2, INV, OR2, CellType
from repro.netlist.circuit import Circuit

#: Commutative two-input cell types (inputs may be sorted for CSE).
_COMMUTATIVE = {"AND2", "OR2", "XOR2", "XNOR2", "NAND2", "NOR2"}

#: Cell types no rule rewrites or merges.
_FIXED = {"TIE0", "TIE1", "DFF"}

#: The constant ties and their values.
_TIES = {"TIE0": 0, "TIE1": 1}

#: A commutative cell with input ``a`` and a constant ``0``/``1`` becomes
#: (for each constant) a constant, ``"a"`` or its inverse ``"~a"`` ...
_WITH_CONST = {
    "AND2": (0, "a"), "OR2": ("a", 1), "XOR2": ("a", "~a"),
    "XNOR2": ("~a", "a"), "NAND2": (1, "~a"), "NOR2": ("~a", 0),
}
#: ... and with ``a`` on both inputs it becomes this.
_SAME_INPUTS = {
    "AND2": "a", "OR2": "a", "XOR2": 0, "XNOR2": 1, "NAND2": "~a",
    "NOR2": "~a",
}


class _Worklist:
    """The state of one :func:`optimize` call, on a :class:`GateArena`."""

    def __init__(self, arena: GateArena) -> None:
        self.arena = arena
        # The arena's per-cell and per-net lists, which only grow.
        self.ctype, self.ins = arena.ctype, arena.ins
        self.out, self.driver = arena.out, arena.driver
        #: Net → {reading cell: number of its input pins on the net}, in
        #: insertion order so every walk over readers is deterministic.
        self.readers: dict[int, dict[int, int]] = {}
        #: Net → the (bus list, index) slots holding it in output and
        #: black-box input buses: references no cell pin accounts for.
        self.roots: dict[int, list[tuple[list[int], int]]] = {}
        #: Hash-cons table (type, input nets) → the one live cell with
        #: that structure, and each registered cell's key.
        self.table: dict[tuple, int] = {}
        self.keys: dict[int, tuple] = {}
        self.dead: set[int] = set()
        for bus in self._root_buses():
            for index, net in enumerate(bus):
                self.roots.setdefault(net, []).append((bus, index))
        for cell in self._partition():
            self._bury(cell)
        readers, ins = self.readers, self.ins
        for cell in arena.cells:
            for net in ins[cell]:  # _connect, inline
                loads = readers.get(net)
                if loads is None:
                    readers[net] = {cell: 1}
                else:
                    loads[cell] = loads.get(cell, 0) + 1
        ctype = self.ctype
        #: The worklist, popped last-in first-out: the initial cells come
        #: off in netlist order, and the cells an edit enqueues are
        #: visited before the next of them, so every change propagates
        #: depth-first.  On the ExpoCU that reaches a smaller fixed point
        #: than first-in first-out order (5 777 vs 5 962 cells).
        self.queue: list[int] = [cell for cell in reversed(arena.cells)
                                 if ctype[cell].name not in _FIXED]
        self.queued: set[int] = set(self.queue)

    def _root_buses(self) -> list[list[int]]:
        arena = self.arena
        buses = [*arena.output_buses.values()]
        for box in arena.blackboxes:
            buses.extend(box.input_buses.values())
        return buses

    def _partition(self) -> list[int]:
        """Keep the cells in the roots' fan-in cone; return the others."""
        arena = self.arena
        cone = arena.fanin_cells(
            [net for bus in self._root_buses() for net in bus])
        dead = self.dead
        doomed = [cell for cell in arena.cells
                  if cell not in cone and cell not in dead]
        arena.cells = [cell for cell in arena.cells if cell in cone]
        return doomed

    def _const_of(self, net: int) -> int | None:
        """0/1 if *net* is a constant tie, else None."""
        driver = self.driver[net]
        if driver < 0:
            return None
        return _TIES.get(self.ctype[driver].name)

    # ------------------------------------------------------------------
    # the fanout index
    # ------------------------------------------------------------------
    def _connect(self, cell: int, net: int) -> None:
        readers = self.readers.setdefault(net, {})
        readers[cell] = readers.get(cell, 0) + 1

    def _drop(self, cell: int, net: int) -> int | None:
        """Drop one of *cell*'s pins from *net*.

        Returns *net*'s driver when the net is left unused; enqueues the
        last reader when the fanout falls to one load, since that reader
        may now absorb the driver (see :meth:`_mux_chain`).
        """
        readers = self.readers[net]
        count = readers.pop(cell) - 1
        if count:
            readers[cell] = count
        if not readers:
            driver = self.driver[net]
            if net in self.roots or driver < 0:
                return None
            return driver
        if len(readers) == 1:
            reader, count = next(iter(readers.items()))
            if count == 1:
                self._enqueue(reader)
        return None

    def _single_load(self, net: int) -> bool:
        readers = self.readers.get(net, {})
        return len(readers) == 1 and next(iter(readers.values())) == 1

    def _enqueue(self, cell: int) -> None:
        if (cell not in self.queued
                and self.ctype[cell].name not in _FIXED):
            self.queued.add(cell)
            self.queue.append(cell)

    def _unhash(self, cell: int) -> None:
        key = self.keys.pop(cell, None)
        if key is not None:
            del self.table[key]

    # ------------------------------------------------------------------
    # edits
    # ------------------------------------------------------------------
    def _bury(self, cell: int) -> None:
        """Mark *cell* dead and undrive its output."""
        self.dead.add(cell)
        out = self.out[cell]
        self.driver[out] = -1
        if self.ctype[cell].name in _TIES:
            const = self.arena._const
            for value in [v for v, net in const.items() if net == out]:
                del const[value]

    def _kill(self, cell: int) -> None:
        """Remove *cell*, then every driver left without a reader."""
        ins, dead, keys = self.ins, self.dead, self.keys
        bury, drop = self._bury, self._drop
        stack = [cell]
        while stack:
            cell = stack.pop()
            if cell in dead:
                continue
            bury(cell)
            if cell in keys:  # _unhash, inline
                del self.table[keys.pop(cell)]
            for net in ins[cell]:
                driver = drop(cell, net)
                if driver is not None:
                    stack.append(driver)

    def _replace(self, old: int, new: int) -> None:
        """Move every reader of *old* onto *new*; *old*'s driver dies."""
        ins, ctype, readers = self.ins, self.ctype, self.readers
        keys, enqueue = self.keys, self._enqueue
        moved = readers.pop(old, {})
        target = readers.setdefault(new, {})
        for cell, count in moved.items():
            if cell in keys:  # _unhash, inline
                del self.table[keys.pop(cell)]
            ins[cell] = tuple([new if net == old else net
                               for net in ins[cell]])
            target[cell] = target.get(cell, 0) + count
            enqueue(cell)
            if ctype[cell].name == "MUX2":
                # Its only load may match its new pins in _mux_chain.
                loads = readers.get(self.out[cell], {})
                if len(loads) == 1:
                    enqueue(next(iter(loads)))
        for slot in self.roots.pop(old, ()):
            bus, index = slot
            bus[index] = new
            self.roots.setdefault(new, []).append(slot)
        driver = self.driver[old]
        if driver >= 0:
            self._kill(driver)

    def _repin(self, cell: int, ctype: CellType,
               ins: tuple[int, ...]) -> None:
        """Give *cell* a new type and inputs; revisit it and its readers."""
        self._unhash(cell)
        old = self.ins[cell]
        self.ctype[cell] = ctype
        self.ins[cell] = ins
        for net in ins:  # connect first: shared nets stay alive
            self._connect(cell, net)
        for net in old:
            driver = self._drop(cell, net)
            if driver is not None:
                self._kill(driver)
        self._enqueue(cell)
        for reader in self.readers.get(self.out[cell], {}):
            self._enqueue(reader)

    def _add(self, ctype: CellType, name: str, net_name: str,
             *ins: int) -> int:
        """A new *ctype* cell reading *ins*; returns its output net."""
        arena = self.arena
        out = arena.new_net(net_name)
        cell = arena.new_cell(ctype, ins, out, name)
        for net in ins:
            self._connect(cell, net)
        self._enqueue(cell)
        return out

    def _to_net(self, cell: int, net: int) -> bool:
        self._replace(self.out[cell], net)
        return True

    def _to_const(self, cell: int, value: int) -> bool:
        return self._to_net(cell, self.arena.const_net(value))

    def _to_inv(self, cell: int, net: int) -> bool:
        self._repin(cell, INV, (net,))
        return True

    def _become(self, cell: int, result: int | str, a: int) -> bool:
        """Rewrite *cell* as *result*: ``0``/``1``, ``"a"`` or ``"~a"``."""
        if result == "a":
            return self._to_net(cell, a)
        if result == "~a":
            return self._to_inv(cell, a)
        return self._to_const(cell, result)

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------
    def _simplify(self, cell: int) -> bool:
        """Constant propagation and identities; True if *cell* changed."""
        name = self.ctype[cell].name
        ins = self.ins[cell]
        const_of = self._const_of
        if name in ("INV", "BUF"):
            a = ins[0]
            if name == "BUF":
                return self._to_net(cell, a)
            const = const_of(a)
            if const is not None:
                return self._to_const(cell, 1 - const)
            # Double inverter: INV(INV(x)) -> x.
            driver = self.driver[a]
            if driver >= 0 and self.ctype[driver].name == "INV":
                return self._to_net(cell, self.ins[driver][0])
            return False

        if name == "MUX2":
            d0, d1, sel = ins
            s_const = const_of(sel)
            if s_const is not None:
                return self._to_net(cell, d1 if s_const else d0)
            if d0 == d1:
                return self._to_net(cell, d0)
            c0, c1 = const_of(d0), const_of(d1)
            if c0 == 0 and c1 == 1:
                return self._to_net(cell, sel)
            if c0 == 1 and c1 == 0:
                return self._to_inv(cell, sel)
            return False

        if name in _COMMUTATIVE:
            a, b = ins
            ca, cb = const_of(a), const_of(b)
            if ca is not None and cb is None:
                a, b, ca, cb = b, a, cb, ca  # constant on the right
                self.ins[cell] = (a, b)
            if cb is not None:
                return self._become(cell, _WITH_CONST[name][cb], a)
            if a == b:
                return self._become(cell, _SAME_INPUTS[name], a)
        return False

    def _cse(self, cell: int) -> bool:
        """Merge *cell* into a live twin; True if it was merged away."""
        if cell in self.keys:
            return False
        name = self.ctype[cell].name
        ins = self.ins[cell]
        if name in _COMMUTATIVE and ins[0] > ins[1]:
            ins = (ins[1], ins[0])
        key = (name, ins)
        twin = self.table.get(key)
        if twin is None:
            self.table[key] = cell
            self.keys[cell] = key
            return False
        self._replace(self.out[cell], self.out[twin])
        return True

    def _mux_chain(self, cell: int) -> bool:
        """Collapse a pass-through multiplexer chain one link at a time.

        ``y1 = s1 ? x : (s2 ? x : z)``  →  ``y1 = (s1|s2) ? x : z`` and the
        dual with the shared net on the 0-arm.  FSM write folding and
        object-field insertion produce long chains of muxes that mostly
        pass the old value; this rewrite turns each chain into one mux
        plus an OR/AND tree, cutting both area and logic depth.  An inner
        mux is only bypassed when this mux is its only load, so it dies
        unless an output reads it too.
        """
        d0, d1, sel = self.ins[cell]
        for arm, inner_net, shared in (("d0", d0, d1), ("d1", d1, d0)):
            inner = self.driver[inner_net]
            if inner < 0:
                continue
            if self.ctype[inner].name != "MUX2" or inner == cell:
                continue
            if not self._single_load(inner_net):
                continue
            i_d0, i_d1, i_sel = self.ins[inner]
            new_d0, new_d1 = d0, d1
            base = self.arena.cell_name(cell)
            if arm == "d0" and i_d0 == shared:
                # y = s ? x : (si ? z : x)  ->  y = (s | ~si) ? x : z
                ninv = self._add(INV, f"{base}_inv", f"{base}_ni", i_sel)
                new_s = self._add(OR2, f"{base}_c", f"{base}_or",
                                  sel, ninv)
                new_d0 = i_d1
            elif arm == "d0" and i_d1 == shared:
                # y = s ? x : (si ? x : z)  ->  y = (s | si) ? x : z
                new_s = self._add(OR2, f"{base}_c", f"{base}_or",
                                  sel, i_sel)
                new_d0 = i_d0
            elif arm == "d1" and i_d0 == shared:
                # y = s ? (si ? z : x) : x  ->  y = (s & si) ? z : x
                new_s = self._add(AND2, f"{base}_c", f"{base}_and",
                                  sel, i_sel)
                new_d1 = i_d1
            elif arm == "d1" and i_d1 == shared:
                # y = s ? (si ? x : z) : x  ->  y = (s & ~si) ? z : x
                ninv = self._add(INV, f"{base}_inv", f"{base}_ni", i_sel)
                new_s = self._add(AND2, f"{base}_c", f"{base}_and",
                                  sel, ninv)
                new_d1 = i_d0
            else:
                continue
            self._repin(cell, self.ctype[cell], (new_d0, new_d1, new_s))
            return True
        return False

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def _sweep(self) -> bool:
        """Kill the live cells outside the roots' fan-in cone."""
        doomed = self._partition()
        for cell in doomed:
            self._kill(cell)
        return bool(doomed)

    def _drain(self) -> None:
        queue, queued, dead = self.queue, self.queued, self.dead
        ctype = self.ctype
        while queue:
            cell = queue.pop()
            queued.discard(cell)
            if cell in dead:
                continue
            if self._simplify(cell) or self._cse(cell):
                continue
            if ctype[cell].name == "MUX2":
                self._mux_chain(cell)

    def run(self) -> None:
        self._drain()
        while self._sweep():
            self._drain()
        arena = self.arena
        connected = {net for net, readers in self.readers.items() if readers}
        connected.update(self.out[cell] for cell in arena.cells)
        buses = [*arena.input_buses.values(), *arena.output_buses.values()]
        for box in arena.blackboxes:
            buses.extend(box.input_buses.values())
            buses.extend(box.output_buses.values())
        connected.update(net for bus in buses for net in bus)
        arena.nets = [net for net in arena.nets if net in connected]


def optimize(arena: GateArena) -> Circuit:
    """Optimize *arena* to a fixed point and return its survivors.

    The arena is rewritten in place: afterwards its ``cells`` and
    ``nets`` list what survives, so optimizing it again changes nothing.
    The returned :class:`Circuit` is new, built from those cells and nets.
    """
    _Worklist(arena).run()
    return arena.to_circuit()
