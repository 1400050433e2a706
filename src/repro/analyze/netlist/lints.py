"""Observability/testability lints over an optimized netlist.

Findings surface through the analyzer's :class:`DiagnosticCollector`
with stable ``OSS5xx`` codes so ``repro lint``/``repro analyze`` emit
them through the shared text/JSON/SARIF renderers:

========  ==========================================================
OSS501    a cell's output reaches no primary output (unobservable
          logic — its faults can never be detected)
OSS502    a stuck-at fault site whose required test value is
          unreachable (controllability :data:`~.scoap.INF`)
OSS503    a cell whose output stuck-at faults are all untestable —
          a redundant-logic candidate
========  ==========================================================

Lints walk *connected* nets only (cell pins and bus members).  The
optimizer keeps only those in ``circuit.nets``; a circuit that skipped
it may still list unconnected nets, which carry no logic and are
skipped.
"""

from __future__ import annotations

from repro.analyze.diagnostics import DiagnosticCollector
from repro.analyze.netlist.scoap import INF, TestabilityReport
from repro.netlist.circuit import Circuit


def netlist_lints(circuit: Circuit, report: TestabilityReport,
                  collector: DiagnosticCollector) -> None:
    """Emit OSS501/OSS502/OSS503 findings for *circuit* into *collector*."""
    seeds = [net for nets in circuit.output_buses.values() for net in nets]
    cone_nets, cone_cells = circuit.fanin_cone(seeds)
    const_uids = {net.uid for net in circuit.constant_nets().values()}
    where = circuit.name

    for cell in circuit.cells:
        if cell.ctype.name.startswith("TIE"):
            continue
        out = cell.pins[cell.ctype.outputs[0]]
        if cell.uid not in cone_cells:
            collector.emit(
                "OSS501",
                f"cell '{cell.name}' ({cell.ctype.name}) drives net "
                f"'{out.name}' which reaches no primary output",
                where=where,
            )
            continue
        sa0 = report.sa_score(out.uid, 0)
        sa1 = report.sa_score(out.uid, 1)
        if sa0 == INF and sa1 == INF:
            collector.emit(
                "OSS503",
                f"cell '{cell.name}' ({cell.ctype.name}) is a "
                f"redundant-logic candidate: neither stuck-at fault on "
                f"net '{out.name}' is testable",
                where=where,
            )

    # Per-fault untestability on connected, in-cone, non-constant nets.
    reported: set[int] = set()
    connected = [
        net
        for cell in circuit.cells
        for net in (*cell.input_nets(), *cell.output_nets())
    ] + seeds
    for net in connected:
        uid = net.uid
        if uid in reported or uid not in cone_nets or uid in const_uids:
            continue
        reported.add(uid)
        if report.cc1[uid] == INF:
            collector.emit(
                "OSS502",
                f"stuck-at-0 on net '{net.name}' is untestable: the net "
                f"can never be driven to 1",
                where=where,
            )
        if report.cc0[uid] == INF:
            collector.emit(
                "OSS502",
                f"stuck-at-1 on net '{net.name}' is untestable: the net "
                f"can never be driven to 0",
                where=where,
            )
