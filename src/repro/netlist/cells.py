"""Standard-cell library.

A small synthetic CMOS-like library.  Areas are in *gate equivalents*
(NAND2 = 1.0) and pin-to-pin delays in nanoseconds — representative ratios
for a ~180 nm process contemporary with the paper.  Absolute numbers are
synthetic by design (DESIGN.md §6): every reproduced experiment compares the
two flows *through the same library*, so only ratios carry meaning.
"""

from __future__ import annotations


class CellType:
    """A library cell: pin names, area and pin-to-pin delays.

    Parameters
    ----------
    name:
        Library name, e.g. ``"NAND2"``.
    inputs / outputs:
        Ordered pin names.
    area:
        Area in gate equivalents.
    delay:
        Mapping ``(input_pin, output_pin) -> ns``; missing pairs fall back
        to the worst delay of the cell.
    sequential:
        True for flip-flops; their ``d`` pin ends a timing path and their
        ``q`` pin starts one.
    clk_to_q / setup:
        Sequential timing parameters (ns), used by the STA.
    """

    __slots__ = (
        "name", "inputs", "outputs", "area", "delay", "sequential",
        "clk_to_q", "setup",
    )

    def __init__(
        self,
        name: str,
        inputs: tuple[str, ...],
        outputs: tuple[str, ...],
        area: float,
        delay: dict[tuple[str, str], float] | None = None,
        sequential: bool = False,
        clk_to_q: float = 0.0,
        setup: float = 0.0,
    ) -> None:
        self.name = name
        self.inputs = inputs
        self.outputs = outputs
        self.area = area
        self.delay = delay or {}
        self.sequential = sequential
        self.clk_to_q = clk_to_q
        self.setup = setup

    def pin_delay(self, input_pin: str, output_pin: str) -> float:
        """Propagation delay from *input_pin* to *output_pin*."""
        if (input_pin, output_pin) in self.delay:
            return self.delay[(input_pin, output_pin)]
        if self.delay:
            return max(self.delay.values())
        return 0.0

    def __repr__(self) -> str:
        return f"CellType({self.name})"


def _combinational(name: str, n_inputs: int, area: float,
                   delay: float) -> CellType:
    pins = tuple(f"i{k}" for k in range(n_inputs)) if n_inputs > 1 else ("a",)
    delays = {(pin, "y"): delay for pin in pins}
    return CellType(name, pins, ("y",), area, delays)


#: Inverter.
INV = _combinational("INV", 1, 0.67, 0.05)
#: Non-inverting buffer.
BUF = _combinational("BUF", 1, 1.00, 0.08)
#: 2-input NAND (the area unit).
NAND2 = _combinational("NAND2", 2, 1.00, 0.07)
#: 2-input NOR.
NOR2 = _combinational("NOR2", 2, 1.00, 0.09)
#: 2-input AND.
AND2 = _combinational("AND2", 2, 1.33, 0.10)
#: 2-input OR.
OR2 = _combinational("OR2", 2, 1.33, 0.10)
#: 2-input XOR.
XOR2 = _combinational("XOR2", 2, 2.00, 0.14)
#: 2-input XNOR.
XNOR2 = _combinational("XNOR2", 2, 2.00, 0.14)

#: 2:1 multiplexer — ``y = s ? d1 : d0``.  The paper's §8 polymorphism and
#: state-machine logic resolve to trees of these.
MUX2 = CellType(
    "MUX2",
    ("d0", "d1", "s"),
    ("y",),
    2.33,
    {("d0", "y"): 0.12, ("d1", "y"): 0.12, ("s", "y"): 0.15},
)

#: D flip-flop; synchronous reset is mapped as logic in front of ``d``.
DFF = CellType(
    "DFF",
    ("d",),
    ("q",),
    4.67,
    {},
    sequential=True,
    clk_to_q=0.20,
    setup=0.15,
)

#: Constant drivers (zero area; they disappear in optimization).
TIE0 = CellType("TIE0", (), ("y",), 0.0, {})
TIE1 = CellType("TIE1", (), ("y",), 0.0, {})

#: The default library keyed by name.
LIBRARY: dict[str, CellType] = {
    cell.name: cell
    for cell in (INV, BUF, NAND2, NOR2, AND2, OR2, XOR2, XNOR2, MUX2, DFF,
                 TIE0, TIE1)
}
