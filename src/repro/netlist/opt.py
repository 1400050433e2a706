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
cell dies when the last reader of its output goes away, and a
``fanin_cone`` sweep from the outputs removes what reference counts
cannot — flip-flop loops no output observes.  Only connected nets stay
in ``circuit.nets``.

Because both flows share the optimizer, the paper's "area almost
equivalent" result (R1) and the zero-overhead class-resolution check (R3)
compare optimized-against-optimized.
"""

from __future__ import annotations

from repro.netlist.cells import AND2, INV, OR2
from repro.netlist.circuit import Cell, Circuit, Net

#: Commutative two-input cell types (inputs may be sorted for CSE).
_COMMUTATIVE = {"AND2", "OR2", "XOR2", "XNOR2", "NAND2", "NOR2"}

#: Cell types no rule rewrites or merges.
_FIXED = {"TIE0", "TIE1", "DFF"}

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


def _const_of(net: Net) -> int | None:
    """0/1 if *net* is a constant tie, else None."""
    if net.driver is None:
        return None
    name = net.driver[0].ctype.name
    if name == "TIE0":
        return 0
    if name == "TIE1":
        return 1
    return None


class _Worklist:
    """The state of one :func:`optimize` call."""

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        #: Net uid → {reading cell: number of its input pins on the net},
        #: in insertion order so every walk over readers is deterministic.
        self.readers: dict[int, dict[Cell, int]] = {}
        #: Net uid → the (bus list, index) slots holding it in output and
        #: black-box input buses: references no cell pin accounts for.
        self.roots: dict[int, list[tuple[list[Net], int]]] = {}
        #: Hash-cons table (type, input uids) → the one live cell with
        #: that structure, and each registered cell's key.
        self.table: dict[tuple, Cell] = {}
        self.keys: dict[int, tuple] = {}
        self.dead: set[int] = set()
        #: The worklist, popped last-in first-out: the initial cells come
        #: off in circuit order, and the cells an edit enqueues are
        #: visited before the next of them, so every change propagates
        #: depth-first.  On the ExpoCU that reaches a smaller fixed point
        #: than first-in first-out order (5 777 vs 5 962 cells).
        self.queue: list[Cell] = []
        self.queued: set[int] = set()
        for bus in self._root_buses():
            for index, net in enumerate(bus):
                self.roots.setdefault(net.uid, []).append((bus, index))
        for cell in self._partition():
            self._bury(cell)
        for cell in circuit.cells:
            for pin in cell.ctype.inputs:
                self._connect(cell, cell.pins[pin])
        for cell in reversed(circuit.cells):
            self._enqueue(cell)

    def _root_buses(self) -> list[list[Net]]:
        circuit = self.circuit
        buses = [*circuit.output_buses.values()]
        for box in circuit.blackboxes:
            buses.extend(box.input_buses.values())
        return buses

    def _partition(self) -> list[Cell]:
        """Keep the cells in the roots' fan-in cone; return the others."""
        circuit = self.circuit
        _, cone = circuit.fanin_cone(
            [net for bus in self._root_buses() for net in bus])
        dead = self.dead
        doomed = [cell for cell in circuit.cells
                  if cell.uid not in cone and cell.uid not in dead]
        circuit.cells = [cell for cell in circuit.cells if cell.uid in cone]
        return doomed

    # ------------------------------------------------------------------
    # the fanout index
    # ------------------------------------------------------------------
    def _connect(self, cell: Cell, net: Net) -> None:
        readers = self.readers.setdefault(net.uid, {})
        readers[cell] = readers.get(cell, 0) + 1

    def _drop(self, cell: Cell, net: Net) -> Cell | None:
        """Drop one of *cell*'s pins from *net*.

        Returns *net*'s driver when the net is left unused; enqueues the
        last reader when the fanout falls to one load, since that reader
        may now absorb the driver (see :meth:`_mux_chain`).
        """
        readers = self.readers[net.uid]
        count = readers.pop(cell) - 1
        if count:
            readers[cell] = count
        if not readers:
            if net.uid in self.roots or net.driver is None:
                return None
            return net.driver[0]
        if len(readers) == 1:
            reader, count = next(iter(readers.items()))
            if count == 1:
                self._enqueue(reader)
        return None

    def _single_load(self, net: Net) -> bool:
        readers = self.readers.get(net.uid, {})
        return len(readers) == 1 and next(iter(readers.values())) == 1

    def _enqueue(self, cell: Cell) -> None:
        if cell.uid not in self.queued and cell.ctype.name not in _FIXED:
            self.queued.add(cell.uid)
            self.queue.append(cell)

    def _unhash(self, cell: Cell) -> None:
        key = self.keys.pop(cell.uid, None)
        if key is not None:
            del self.table[key]

    # ------------------------------------------------------------------
    # edits
    # ------------------------------------------------------------------
    def _bury(self, cell: Cell) -> None:
        """Mark *cell* dead and undrive its output."""
        self.dead.add(cell.uid)
        out = cell.pins[cell.ctype.outputs[0]]
        out.driver = None
        if cell.ctype.name in ("TIE0", "TIE1"):
            const = self.circuit._const
            for value in [v for v, net in const.items() if net is out]:
                del const[value]

    def _kill(self, cell: Cell) -> None:
        """Remove *cell*, then every driver left without a reader."""
        stack = [cell]
        while stack:
            cell = stack.pop()
            if cell.uid in self.dead:
                continue
            self._bury(cell)
            self._unhash(cell)
            for pin in cell.ctype.inputs:
                driver = self._drop(cell, cell.pins[pin])
                if driver is not None:
                    stack.append(driver)

    def _replace(self, old: Net, new: Net) -> None:
        """Move every reader of *old* onto *new*; *old*'s driver dies."""
        moved = self.readers.pop(old.uid, {})
        target = self.readers.setdefault(new.uid, {})
        for cell, count in moved.items():
            self._unhash(cell)
            for pin in cell.ctype.inputs:
                if cell.pins[pin] is old:
                    cell.pins[pin] = new
            target[cell] = target.get(cell, 0) + count
            self._enqueue(cell)
            if cell.ctype.name == "MUX2":
                # Its only load may match its new pins in _mux_chain.
                loads = self.readers.get(cell.pins["y"].uid, {})
                if len(loads) == 1:
                    self._enqueue(next(iter(loads)))
        for slot in self.roots.pop(old.uid, ()):
            bus, index = slot
            bus[index] = new
            self.roots.setdefault(new.uid, []).append(slot)
        if old.driver is not None:
            self._kill(old.driver[0])

    def _repin(self, cell: Cell, ctype, pins: dict[str, Net]) -> None:
        """Give *cell* a new type and pins; revisit it and its readers."""
        self._unhash(cell)
        old = [cell.pins[pin] for pin in cell.ctype.inputs]
        cell.ctype = ctype
        cell.pins = pins
        for pin in ctype.inputs:  # connect first: shared nets stay alive
            self._connect(cell, pins[pin])
        for net in old:
            driver = self._drop(cell, net)
            if driver is not None:
                self._kill(driver)
        self._enqueue(cell)
        for reader in self.readers.get(pins["y"].uid, {}):
            self._enqueue(reader)

    def _add(self, ctype, name: str, net_name: str, **ins: Net) -> Net:
        """A new *ctype* cell reading *ins*; returns its output net."""
        out = self.circuit.new_net(net_name)
        cell = self.circuit.add_cell(name, ctype, y=out, **ins)
        for net in ins.values():
            self._connect(cell, net)
        self._enqueue(cell)
        return out

    def _to_net(self, cell: Cell, net: Net) -> bool:
        self._replace(cell.pins["y"], net)
        return True

    def _to_const(self, cell: Cell, value: int) -> bool:
        return self._to_net(cell, self.circuit.const_net(value))

    def _to_inv(self, cell: Cell, net: Net) -> bool:
        self._repin(cell, INV, {"a": net, "y": cell.pins["y"]})
        return True

    def _become(self, cell: Cell, result: int | str, a: Net) -> bool:
        """Rewrite *cell* as *result*: ``0``/``1``, ``"a"`` or ``"~a"``."""
        if result == "a":
            return self._to_net(cell, a)
        if result == "~a":
            return self._to_inv(cell, a)
        return self._to_const(cell, result)

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------
    def _simplify(self, cell: Cell) -> bool:
        """Constant propagation and identities; True if *cell* changed."""
        name = cell.ctype.name
        pins = cell.pins
        if name in ("INV", "BUF"):
            a = pins["a"]
            if name == "BUF":
                return self._to_net(cell, a)
            const = _const_of(a)
            if const is not None:
                return self._to_const(cell, 1 - const)
            # Double inverter: INV(INV(x)) -> x.
            if a.driver is not None and a.driver[0].ctype.name == "INV":
                return self._to_net(cell, a.driver[0].pins["a"])
            return False

        if name == "MUX2":
            d0, d1, sel = pins["d0"], pins["d1"], pins["s"]
            s_const = _const_of(sel)
            if s_const is not None:
                return self._to_net(cell, d1 if s_const else d0)
            if d0 is d1:
                return self._to_net(cell, d0)
            c0, c1 = _const_of(d0), _const_of(d1)
            if c0 == 0 and c1 == 1:
                return self._to_net(cell, sel)
            if c0 == 1 and c1 == 0:
                return self._to_inv(cell, sel)
            return False

        if name in _COMMUTATIVE:
            a, b = pins["i0"], pins["i1"]
            ca, cb = _const_of(a), _const_of(b)
            if ca is not None and cb is None:
                a, b, ca, cb = b, a, cb, ca  # constant on the right
                pins["i0"], pins["i1"] = a, b
            if cb is not None:
                return self._become(cell, _WITH_CONST[name][cb], a)
            if a is b:
                return self._become(cell, _SAME_INPUTS[name], a)
        return False

    def _cse(self, cell: Cell) -> bool:
        """Merge *cell* into a live twin; True if it was merged away."""
        if cell.uid in self.keys:
            return False
        ctype = cell.ctype
        ins = tuple(cell.pins[pin].uid for pin in ctype.inputs)
        if ctype.name in _COMMUTATIVE and ins[0] > ins[1]:
            ins = (ins[1], ins[0])
        key = (ctype.name, ins)
        twin = self.table.get(key)
        if twin is None:
            self.table[key] = cell
            self.keys[cell.uid] = key
            return False
        self._replace(cell.pins["y"], twin.pins["y"])
        return True

    def _mux_chain(self, cell: Cell) -> bool:
        """Collapse a pass-through multiplexer chain one link at a time.

        ``y1 = s1 ? x : (s2 ? x : z)``  →  ``y1 = (s1|s2) ? x : z`` and the
        dual with the shared net on the 0-arm.  FSM write folding and
        object-field insertion produce long chains of muxes that mostly
        pass the old value; this rewrite turns each chain into one mux
        plus an OR/AND tree, cutting both area and logic depth.  An inner
        mux is only bypassed when this mux is its only load, so it dies
        unless an output reads it too.
        """
        pins = cell.pins
        d0, d1, sel = pins["d0"], pins["d1"], pins["s"]
        for arm, shared in (("d0", d1), ("d1", d0)):
            inner_net = pins[arm]
            if inner_net.driver is None:
                continue
            inner = inner_net.driver[0]
            if inner.ctype.name != "MUX2" or inner is cell:
                continue
            if not self._single_load(inner_net):
                continue
            i_d0, i_d1 = inner.pins["d0"], inner.pins["d1"]
            i_sel = inner.pins["s"]
            new = dict(pins)
            base = cell.name
            if arm == "d0" and i_d0 is shared:
                # y = s ? x : (si ? z : x)  ->  y = (s | ~si) ? x : z
                ninv = self._add(INV, f"{base}_inv", f"{base}_ni", a=i_sel)
                new["s"] = self._add(OR2, f"{base}_c", f"{base}_or",
                                     i0=sel, i1=ninv)
                new["d0"] = i_d1
            elif arm == "d0" and i_d1 is shared:
                # y = s ? x : (si ? x : z)  ->  y = (s | si) ? x : z
                new["s"] = self._add(OR2, f"{base}_c", f"{base}_or",
                                     i0=sel, i1=i_sel)
                new["d0"] = i_d0
            elif arm == "d1" and i_d0 is shared:
                # y = s ? (si ? z : x) : x  ->  y = (s & si) ? z : x
                new["s"] = self._add(AND2, f"{base}_c", f"{base}_and",
                                     i0=sel, i1=i_sel)
                new["d1"] = i_d1
            elif arm == "d1" and i_d1 is shared:
                # y = s ? (si ? x : z) : x  ->  y = (s & ~si) ? z : x
                ninv = self._add(INV, f"{base}_inv", f"{base}_ni", a=i_sel)
                new["s"] = self._add(AND2, f"{base}_c", f"{base}_and",
                                     i0=sel, i1=ninv)
                new["d1"] = i_d0
            else:
                continue
            self._repin(cell, cell.ctype, new)
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
        while queue:
            cell = queue.pop()
            queued.discard(cell.uid)
            if cell.uid in dead:
                continue
            if self._simplify(cell) or self._cse(cell):
                continue
            if cell.ctype.name == "MUX2":
                self._mux_chain(cell)

    def run(self) -> None:
        self._drain()
        while self._sweep():
            self._drain()
        circuit = self.circuit
        connected = {uid for uid, readers in self.readers.items() if readers}
        connected.update(cell.pins[cell.ctype.outputs[0]].uid
                         for cell in circuit.cells)
        buses = [*circuit.input_buses.values(),
                 *circuit.output_buses.values()]
        for box in circuit.blackboxes:
            buses.extend(box.input_buses.values())
            buses.extend(box.output_buses.values())
        connected.update(net.uid for bus in buses for net in bus)
        circuit.nets = [net for net in circuit.nets if net.uid in connected]


def optimize(circuit: Circuit) -> Circuit:
    """Optimize *circuit* in place to a fixed point; returns it."""
    _Worklist(circuit).run()
    return circuit
