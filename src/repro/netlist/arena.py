"""Integer gate arena: the one netlist mapping, linking and optimizing share.

Technology mapping makes about ten times the cells optimization keeps
(60 162 → 5 777 on the OSSS ExpoCU).  Built as :class:`Cell` and
:class:`Net` objects, the doomed ones cost more to allocate and to walk
in the cyclic garbage collector than every rewrite rule together
(DESIGN.md §15).  A :class:`GateArena` holds the same netlist as flat
lists: a net is an int, a cell an index into parallel per-cell lists
(type, input nets, output net, name parts), so mapping, linking and
optimizing allocate almost nothing the collector tracks.  Names are kept
as parts and formatted only for the cells and nets a :class:`Circuit` is
built from (:meth:`GateArena.to_circuit`).

There is one way into gates: the mapper emits an arena
(:func:`~repro.netlist.techmap.map_module`), the linker splices IP into
it (:func:`~repro.netlist.linker.link`), and
:func:`~repro.netlist.opt.optimize` rewrites it and returns a new
:class:`Circuit` of the survivors; :meth:`GateArena.to_circuit` gives
the netlist as it stands.  The construction calls are :class:`Circuit`'s
(``new_net``, ``new_bus``, ``const_net``, ``add_cell``, ``mark_input``,
``mark_output``) with ints where a circuit takes nets, plus
``add_blackbox`` for IP instances, so a netlist is built by hand on an
arena as it would be on a circuit.  Every cell's pins are in library
order, inputs then output, as :func:`~repro.store.deserialize_circuit`
builds them, so a netlist renders one structural Verilog whether it was
just optimized or loaded from the store.
"""

from __future__ import annotations

from typing import Iterable

from repro.netlist.cells import LIBRARY, TIE0, TIE1, CellType
from repro.netlist.circuit import BlackBox, Cell, Circuit, Net, NetlistError


class GateArena:
    """A flat netlist of integer nets and cells (see the module doc)."""

    def __init__(self, name: str) -> None:
        self.name = name
        # Per cell: its type, input nets in pin order, output net, and
        # name parts (see cell_name).
        self.ctype: list[CellType] = []
        self.ins: list[tuple[int, ...]] = []
        self.out: list[int] = []
        self.cell_pre: list[str] = []
        self.cell_hint: list[str | None] = []
        self.cell_seq: list[int] = []
        # Per net: its driving cell (-1 for none) and name parts.
        self.driver: list[int] = []
        self.net_pre: list[str] = []
        self.net_hint: list[str | None] = []
        self.net_seq: list[int] = []
        #: The netlist's cells and nets in order, as ids; what a
        #: :class:`Circuit` holds in ``cells`` and ``nets``.
        self.cells: list[int] = []
        self.nets: list[int] = []
        self.input_buses: dict[str, list[int]] = {}
        self.output_buses: dict[str, list[int]] = {}
        #: Black boxes whose buses hold net ids.
        self.blackboxes: list[BlackBox] = []
        self._const: dict[int, int] = {}

    # ------------------------------------------------------------------
    # names: "{pre}/{hint}#{seq}" for cells and "{pre}/{hint}#n{seq}" for
    # nets, or just *pre* when *hint* is None
    # ------------------------------------------------------------------
    def cell_name(self, cell: int) -> str:
        hint = self.cell_hint[cell]
        if hint is None:
            return self.cell_pre[cell]
        return f"{self.cell_pre[cell]}/{hint}#{self.cell_seq[cell]}"

    def net_name(self, net: int) -> str:
        hint = self.net_hint[net]
        if hint is None:
            return self.net_pre[net]
        return f"{self.net_pre[net]}/{hint}#n{self.net_seq[net]}"

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _add_net(self, name: str, hint: str | None, seq: int) -> int:
        net = len(self.driver)
        self.driver.append(-1)
        self.net_pre.append(name)
        self.net_hint.append(hint)
        self.net_seq.append(seq)
        return net

    def new_net(self, name: str) -> int:
        """A fresh net named *name*."""
        net = self._add_net(name, None, 0)
        self.nets.append(net)
        return net

    def new_bus(self, name: str, width: int) -> list[int]:
        """*width* fresh nets named ``name[k]``."""
        return [self.new_net(f"{name}[{k}]") for k in range(width)]

    def new_cell(self, ctype: CellType, ins: tuple[int, ...], out: int,
                 name: str, hint: str | None = None, seq: int = 0) -> int:
        """A *ctype* cell reading *ins* (pin order) and driving *out*,
        named *name* (or ``name/hint#<seq>``).  Does not check *out*."""
        cell = len(self.ctype)
        self.ctype.append(ctype)
        self.ins.append(ins)
        self.out.append(out)
        self.cell_pre.append(name)
        self.cell_hint.append(hint)
        self.cell_seq.append(seq)
        self.driver[out] = cell
        self.cells.append(cell)
        return cell

    def gate(self, ctype: CellType, ins: tuple[int, ...], prefix: str,
             hint: str, seq: int) -> int:
        """The mapper's gate: net ``prefix/hint#n<seq>`` driven by cell
        ``prefix/hint#<seq+1>``.  Returns the net."""
        # new_net and new_cell, inline: the mapper makes ~80k of these.
        net, cell = len(self.driver), len(self.ctype)
        self.driver.append(cell)
        self.net_pre.append(prefix)
        self.net_hint.append(hint)
        self.net_seq.append(seq)
        self.nets.append(net)
        self.ctype.append(ctype)
        self.ins.append(ins)
        self.out.append(net)
        self.cell_pre.append(prefix)
        self.cell_hint.append(hint)
        self.cell_seq.append(seq + 1)
        self.cells.append(cell)
        return net

    def add_cell(self, name: str, ctype: CellType | str, **pins: int) -> int:
        """Instantiate a cell, as :meth:`Circuit.add_cell` does."""
        if isinstance(ctype, str):
            ctype = LIBRARY[ctype]
        missing = [p for p in (*ctype.inputs, *ctype.outputs) if p not in pins]
        if missing:
            raise NetlistError(f"cell {name}: unconnected pins {missing}")
        out = pins[ctype.outputs[0]]
        if self.driver[out] >= 0:
            raise NetlistError(
                f"net {self.net_name(out)!r} has multiple drivers")
        return self.new_cell(ctype, tuple(pins[p] for p in ctype.inputs),
                             out, name)

    def const_net(self, value: int) -> int:
        """The shared constant-0 or constant-1 net."""
        value = int(bool(value))
        net = self._const.get(value)
        if net is None:
            net = self.new_net(f"const{value}")
            self.new_cell(TIE1 if value else TIE0, (), net, f"tie{value}")
            self._const[value] = net
        return net

    def mark_input(self, name: str, nets: list[int]) -> None:
        """Declare *nets* as the primary input bus *name* (LSB first)."""
        for net in nets:
            if self.driver[net] >= 0:
                raise NetlistError(
                    f"input net {self.net_name(net)!r} already has a driver")
        self.input_buses[name] = list(nets)

    def mark_output(self, name: str, nets: list[int]) -> None:
        """Declare *nets* as the primary output bus *name* (LSB first)."""
        self.output_buses[name] = list(nets)

    def add_blackbox(self, name: str, ip_name: str,
                     input_buses: dict[str, list[int]],
                     output_buses: dict[str, list[int]]) -> BlackBox:
        """Record an IP instance to be resolved by the linker."""
        for nets in output_buses.values():
            for net in nets:
                if self.driver[net] >= 0:
                    raise NetlistError(
                        f"blackbox output net {self.net_name(net)!r} "
                        "already driven")
        box = BlackBox(name, ip_name, input_buses, output_buses)
        self.blackboxes.append(box)
        return box

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def fanin_cells(self, seeds: Iterable[int]) -> set[int]:
        """The cells in the transitive fan-in of *seeds*, crossing flops:
        :meth:`Circuit.fanin_cone`'s cell set."""
        driver, ins = self.driver, self.ins
        seen = bytearray(len(driver))
        cells: set[int] = set()
        stack = list(seeds)
        while stack:
            net = stack.pop()
            if seen[net]:
                continue
            seen[net] = 1
            cell = driver[net]
            if cell >= 0 and cell not in cells:
                cells.add(cell)
                stack.extend(ins[cell])
        return cells

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------
    def to_circuit(self) -> Circuit:
        """A new :class:`Circuit` of :attr:`cells` and :attr:`nets`, every
        cell's pins in library order."""
        circuit = Circuit(self.name)
        net_obj: list[Net | None] = [None] * len(self.driver)

        def obj_of(net: int) -> Net:
            obj = net_obj[net]
            if obj is None:
                obj = net_obj[net] = Net(self.net_name(net))
            return obj

        circuit.nets = [obj_of(net) for net in self.nets]
        ctypes, ins, out = self.ctype, self.ins, self.out
        cells = circuit.cells
        for cell in self.cells:
            ctype = ctypes[cell]
            pin = ctype.outputs[0]
            pins = dict(zip(ctype.inputs, map(obj_of, ins[cell])))
            y = pins[pin] = obj_of(out[cell])
            obj = Cell(self.cell_name(cell), ctype, pins)
            y.driver = (obj, pin)
            cells.append(obj)

        def buses(named: dict[str, list[int]]) -> dict[str, list[Net]]:
            return {name: [obj_of(net) for net in ids]
                    for name, ids in named.items()}

        circuit.input_buses = buses(self.input_buses)
        circuit.output_buses = buses(self.output_buses)
        circuit.blackboxes = [
            BlackBox(box.name, box.ip_name, buses(box.input_buses),
                     buses(box.output_buses))
            for box in self.blackboxes]
        circuit._const = {value: obj_of(net)
                          for value, net in self._const.items()}
        return circuit
