"""Gate-level netlist graph.

A :class:`Circuit` is a flat netlist: nets, standard cells from
:mod:`repro.netlist.cells`, named input/output *buses* (ordered nets,
LSB-first) and any black-box instances for separately synthesized IP
(the paper's Fig. 6 "VHDL IP modules" path) still unresolved.  Cell
names carry a ``path/`` prefix so the per-module area report (Fig. 12)
can attribute cells to design units after flattening.  Mapping, linking
(:mod:`repro.netlist.linker`) and optimization work on a
:class:`~repro.netlist.arena.GateArena`, which builds circuits; every
cell lists its pins in library order.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from repro.netlist.cells import CellType, DFF, LIBRARY, TIE0, TIE1


class NetlistError(ValueError):
    """Raised for malformed netlists (multiple drivers, dangling pins...)."""


class Net:
    """A single-bit wire."""

    __slots__ = ("name", "uid", "driver")
    _ids = itertools.count()

    def __init__(self, name: str) -> None:
        self.name = name
        self.uid = next(Net._ids)
        #: The (cell, output_pin) driving this net; None for primary inputs.
        self.driver: tuple["Cell", str] | None = None

    def __repr__(self) -> str:
        return f"Net({self.name!r})"


class Cell:
    """An instantiated library cell."""

    __slots__ = ("name", "ctype", "pins", "uid")
    _ids = itertools.count()

    def __init__(self, name: str, ctype: CellType,
                 pins: dict[str, Net]) -> None:
        self.name = name
        self.ctype = ctype
        self.pins = pins
        self.uid = next(Cell._ids)

    def input_nets(self) -> list[Net]:
        """Nets on the cell's input pins, in pin order."""
        return [self.pins[pin] for pin in self.ctype.inputs]

    def output_nets(self) -> list[Net]:
        """Nets on the cell's output pins, in pin order."""
        return [self.pins[pin] for pin in self.ctype.outputs]

    def __repr__(self) -> str:
        return f"Cell({self.name!r}:{self.ctype.name})"


class BlackBox:
    """A placeholder for separately synthesized IP (netlist-level link)."""

    __slots__ = ("name", "ip_name", "input_buses", "output_buses", "uid")
    _ids = itertools.count()

    def __init__(
        self,
        name: str,
        ip_name: str,
        input_buses: dict[str, list[Net]],
        output_buses: dict[str, list[Net]],
    ) -> None:
        self.name = name
        self.ip_name = ip_name
        self.input_buses = input_buses
        self.output_buses = output_buses
        self.uid = next(BlackBox._ids)

    def __repr__(self) -> str:
        return f"BlackBox({self.name!r}:{self.ip_name})"


class Circuit:
    """A flat gate-level netlist with named buses."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.nets: list[Net] = []
        self.cells: list[Cell] = []
        self.blackboxes: list[BlackBox] = []
        self.input_buses: dict[str, list[Net]] = {}
        self.output_buses: dict[str, list[Net]] = {}
        self._const: dict[int, Net] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def new_net(self, name: str) -> Net:
        """Create a fresh net."""
        net = Net(name)
        self.nets.append(net)
        return net

    def new_bus(self, name: str, width: int) -> list[Net]:
        """Create *width* fresh nets named ``name[k]``."""
        return [self.new_net(f"{name}[{k}]") for k in range(width)]

    def add_cell(self, name: str, ctype: "CellType | str",
                 **pins: Net) -> Cell:
        """Instantiate a cell; keyword arguments map pin name to net.

        The cell lists its pins in library order, whatever order they
        were given in.
        """
        if isinstance(ctype, str):
            ctype = LIBRARY[ctype]
        order = (*ctype.inputs, *ctype.outputs)
        missing = [p for p in order if p not in pins]
        if missing:
            raise NetlistError(f"cell {name}: unconnected pins {missing}")
        cell = Cell(name, ctype, {p: pins[p] for p in order})
        for pin in ctype.outputs:
            net = pins[pin]
            if net.driver is not None:
                raise NetlistError(f"net {net.name!r} has multiple drivers")
            net.driver = (cell, pin)
        self.cells.append(cell)
        return cell

    def const_net(self, value: int) -> Net:
        """The shared constant-0 or constant-1 net."""
        value = int(bool(value))
        if value not in self._const:
            net = self.new_net(f"const{value}")
            self.add_cell(f"tie{value}", TIE1 if value else TIE0, y=net)
            self._const[value] = net
        return self._const[value]

    def mark_input(self, name: str, nets: list[Net]) -> None:
        """Declare *nets* as the primary input bus *name* (LSB first)."""
        for net in nets:
            if net.driver is not None:
                raise NetlistError(
                    f"input net {net.name!r} already has a driver"
                )
        self.input_buses[name] = list(nets)

    def mark_output(self, name: str, nets: list[Net]) -> None:
        """Declare *nets* as the primary output bus *name* (LSB first)."""
        self.output_buses[name] = list(nets)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def constant_nets(self) -> dict[int, Net]:
        """The shared constant nets, as ``{value: net}`` (a copy).

        The circuit has at most one constant-0 and one constant-1 net
        (see :meth:`const_net`); they are shared by every cell that
        consumes a constant, which is why simulators must never write
        them.  Mutating the returned dict does not affect the circuit.
        """
        return dict(self._const)

    def flops(self) -> list[Cell]:
        """All sequential cells."""
        return [c for c in self.cells if c.ctype.sequential]

    def comb_cells(self) -> list[Cell]:
        """All combinational cells."""
        return [c for c in self.cells if not c.ctype.sequential]

    def cell_count(self, type_name: str | None = None) -> int:
        """Number of cells, optionally of one library type."""
        if type_name is None:
            return len(self.cells)
        return sum(1 for c in self.cells if c.ctype.name == type_name)

    def fanout_map(self) -> dict[int, list[tuple[Cell, str]]]:
        """Net uid → list of (cell, input_pin) loads."""
        loads: dict[int, list[tuple[Cell, str]]] = {}
        for cell in self.cells:
            for pin in cell.ctype.inputs:
                loads.setdefault(cell.pins[pin].uid, []).append((cell, pin))
        return loads

    def primary_input_nets(self) -> set[int]:
        """Uids of all primary-input nets."""
        return {
            net.uid for nets in self.input_buses.values() for net in nets
        }

    def fanin_cone(self, seeds: Iterable[Net]) -> tuple[set[int], set[int]]:
        """Transitive fan-in of *seeds*: ``(net_uids, cell_uids)``.

        Walks drivers backward from the seed nets, crossing combinational
        cells and flip-flops alike (a flop's D cone is part of its Q's
        fan-in), so the result is the set of nets and cells that can
        structurally influence the seeds over any number of cycles.  The
        observability analysis in :mod:`repro.analyze.netlist` is
        defined in terms of this cone; the optimizer's dead-logic sweep
        takes the same cone on its arena
        (:meth:`~repro.netlist.arena.GateArena.fanin_cells`).
        """
        net_uids: set[int] = set()
        cell_uids: set[int] = set()
        worklist = list(seeds)
        while worklist:
            net = worklist.pop()
            if net.uid in net_uids:
                continue
            net_uids.add(net.uid)
            if net.driver is not None:
                cell, _ = net.driver
                if cell.uid not in cell_uids:
                    cell_uids.add(cell.uid)
                    worklist.extend(cell.input_nets())
        return net_uids, cell_uids

    def validate(self) -> None:
        """Every non-input net consumed by a cell must be driven."""
        if self.blackboxes:
            raise NetlistError(
                f"{self.name}: unresolved black boxes "
                f"{[b.name for b in self.blackboxes]}; run the linker"
            )
        inputs = self.primary_input_nets()
        for cell in self.cells:
            for pin in cell.ctype.inputs:
                net = cell.pins[pin]
                if net.driver is None and net.uid not in inputs:
                    raise NetlistError(
                        f"net {net.name!r} feeding {cell.name}.{pin} is "
                        "undriven"
                    )
        for name, nets in self.output_buses.items():
            for net in nets:
                if net.driver is None and net.uid not in inputs:
                    raise NetlistError(
                        f"output {name}: net {net.name!r} is undriven"
                    )

    def topological_comb_order(self) -> list[Cell]:
        """Combinational cells in evaluation order (loops are errors)."""
        order: list[Cell] = []
        ready: set[int] = self.primary_input_nets()
        for cell in self.flops():
            for net in cell.output_nets():
                ready.add(net.uid)
        for net in self._const.values():
            ready.add(net.uid)
        remaining = [c for c in self.comb_cells()
                     if not c.ctype.name.startswith("TIE")]
        progress = True
        while remaining and progress:
            progress = False
            still = []
            for cell in remaining:
                if all(n.uid in ready for n in cell.input_nets()):
                    order.append(cell)
                    for net in cell.output_nets():
                        ready.add(net.uid)
                    progress = True
                else:
                    still.append(cell)
            remaining = still
        if remaining:
            names = [c.name for c in remaining[:5]]
            raise NetlistError(
                f"combinational loop or undriven logic involving {names}"
            )
        return order

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, cells={len(self.cells)}, "
            f"nets={len(self.nets)}, flops={len(self.flops())})"
        )
