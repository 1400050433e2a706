"""SCOAP testability measures over a gate-level circuit.

Classical Sandia Controllability/Observability Analysis (Goldstein 1979),
adapted to the cell library in :mod:`repro.netlist.cells`:

* **CC0/CC1** — combinational 0-/1-controllability: how many net
  assignments it takes to drive a net to 0 or 1 from the primary inputs
  (primary inputs cost 1, every cell traversal adds 1).
* **CO** — observability: how many assignments it takes to propagate a
  value change on a net to a primary output (outputs cost 0; side
  inputs of the propagation path must be driven to non-controlling
  values, which charges their controllability).

Flip-flops add one traversal (``CC(q) = CC(d) + 1``, ``CO(d) = CO(q) +
1``) and may close cycles, so both directions iterate to a fixed point:
scores start at :data:`INF` and only ever decrease, which makes the
iteration monotone and terminating.  A score that stays :data:`INF` is
a structural impossibility — the net can never be driven to that value
(controllability) or never be observed (observability) — which is what
the :mod:`repro.analyze.netlist.lints` pass reports.
"""

from __future__ import annotations

from repro.netlist.circuit import Cell, Circuit

#: Unreachable score: the net cannot be controlled/observed at all.
INF = float("inf")


class TestabilityReport:
    """Per-net SCOAP scores for one circuit.

    Scores are keyed by net uid; :data:`INF` marks structural
    impossibility.  ``T(sa0) = CC1 + CO`` and ``T(sa1) = CC0 + CO`` are
    the classical per-fault testability estimates (higher = harder to
    test; :data:`INF` = untestable).
    """

    __slots__ = ("design", "cc0", "cc1", "co")

    def __init__(self, design: str, cc0: dict[int, float],
                 cc1: dict[int, float], co: dict[int, float]) -> None:
        self.design = design
        self.cc0 = cc0
        self.cc1 = cc1
        self.co = co

    def sa_score(self, uid: int, value: int) -> float:
        """Testability of stuck-at-*value* on net *uid* (lower = easier).

        Testing stuck-at-v requires driving the net to the opposite
        value and observing it, so ``T(sa0) = CC1 + CO`` and
        ``T(sa1) = CC0 + CO``.
        """
        control = self.cc0[uid] if value else self.cc1[uid]
        return control + self.co[uid]

    def __repr__(self) -> str:
        return (f"TestabilityReport({self.design!r}, "
                f"nets={len(self.co)})")


def _cell_controllability(cell: Cell, cc0: dict[int, float],
                          cc1: dict[int, float]) -> tuple[float, float]:
    """(CC0, CC1) of *cell*'s output from its input scores."""
    name = cell.ctype.name
    if name == "TIE0":
        return 1.0, INF
    if name == "TIE1":
        return INF, 1.0
    if name == "DFF":
        d = cell.pins["d"].uid
        return cc0[d] + 1, cc1[d] + 1
    if name == "BUF":
        a = cell.pins["a"].uid
        return cc0[a] + 1, cc1[a] + 1
    if name == "INV":
        a = cell.pins["a"].uid
        return cc1[a] + 1, cc0[a] + 1
    if name == "MUX2":
        d0, d1 = cell.pins["d0"].uid, cell.pins["d1"].uid
        s = cell.pins["s"].uid
        return (min(cc0[s] + cc0[d0], cc1[s] + cc0[d1]) + 1,
                min(cc0[s] + cc1[d0], cc1[s] + cc1[d1]) + 1)
    a, b = cell.pins["i0"].uid, cell.pins["i1"].uid
    if name == "AND2":
        return min(cc0[a], cc0[b]) + 1, cc1[a] + cc1[b] + 1
    if name == "NAND2":
        return cc1[a] + cc1[b] + 1, min(cc0[a], cc0[b]) + 1
    if name == "OR2":
        return cc0[a] + cc0[b] + 1, min(cc1[a], cc1[b]) + 1
    if name == "NOR2":
        return min(cc1[a], cc1[b]) + 1, cc0[a] + cc0[b] + 1
    if name == "XOR2":
        return (min(cc0[a] + cc0[b], cc1[a] + cc1[b]) + 1,
                min(cc1[a] + cc0[b], cc0[a] + cc1[b]) + 1)
    if name == "XNOR2":
        return (min(cc1[a] + cc0[b], cc0[a] + cc1[b]) + 1,
                min(cc0[a] + cc0[b], cc1[a] + cc1[b]) + 1)
    raise ValueError(f"no controllability rule for cell type {name!r}")


def _branch_observability(cell: Cell, pin: str, co_out: float,
                          cc0: dict[int, float],
                          cc1: dict[int, float]) -> float:
    """CO contribution of driving *pin* of *cell* (output CO known)."""
    name = cell.ctype.name
    if name == "DFF" or name in ("BUF", "INV"):
        return co_out + 1
    if name == "MUX2":
        d0, d1 = cell.pins["d0"].uid, cell.pins["d1"].uid
        s = cell.pins["s"].uid
        if pin == "d0":
            return co_out + cc0[s] + 1
        if pin == "d1":
            return co_out + cc1[s] + 1
        # Select: the two data inputs must differ.
        return co_out + min(cc0[d0] + cc1[d1], cc1[d0] + cc0[d1]) + 1
    other = cell.pins["i1" if pin == "i0" else "i0"].uid
    if name in ("AND2", "NAND2"):
        return co_out + cc1[other] + 1
    if name in ("OR2", "NOR2"):
        return co_out + cc0[other] + 1
    if name in ("XOR2", "XNOR2"):
        return co_out + min(cc0[other], cc1[other]) + 1
    raise ValueError(f"no observability rule for cell type {name!r}")


def scoap_analysis(circuit: Circuit) -> TestabilityReport:
    """Compute CC0/CC1/CO for every net of *circuit*.

    Forward controllability and backward observability both sweep the
    combinational cells in (reverse) topological order with the flops
    relaxed between sweeps, iterating to a fixed point so sequential
    loops settle.  Unconnected nets (no driver, no loads), which only an
    unoptimized circuit lists, simply keep their :data:`INF` scores.
    """
    cc0: dict[int, float] = {net.uid: INF for net in circuit.nets}
    cc1: dict[int, float] = {net.uid: INF for net in circuit.nets}
    for nets in circuit.input_buses.values():
        for net in nets:
            cc0[net.uid] = 1.0
            cc1[net.uid] = 1.0
    order = circuit.topological_comb_order()
    ties = [c for c in circuit.cells if c.ctype.name in ("TIE0", "TIE1")]
    flops = circuit.flops()
    forward = ties + order + flops
    for _ in range(len(flops) + 2):
        changed = False
        for cell in forward:
            out = cell.pins[cell.ctype.outputs[0]].uid
            new0, new1 = _cell_controllability(cell, cc0, cc1)
            if new0 < cc0[out]:
                cc0[out] = new0
                changed = True
            if new1 < cc1[out]:
                cc1[out] = new1
                changed = True
        if not changed:
            break

    co: dict[int, float] = {net.uid: INF for net in circuit.nets}
    for nets in circuit.output_buses.values():
        for net in nets:
            co[net.uid] = 0.0
    backward = list(reversed(order)) + flops
    for _ in range(len(flops) + 2):
        changed = False
        for cell in backward:
            out = cell.pins[cell.ctype.outputs[0]].uid
            co_out = co[out]
            if co_out == INF:
                continue
            for pin in cell.ctype.inputs:
                branch = _branch_observability(cell, pin, co_out, cc0, cc1)
                uid = cell.pins[pin].uid
                if branch < co[uid]:
                    co[uid] = branch
                    changed = True
        if not changed:
            break
    return TestabilityReport(circuit.name, cc0, cc1, co)
