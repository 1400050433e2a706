"""The ``summary`` stage: one flow's row of headline numbers.

Each flow ends in one stored row (``flow``, ``area_ge``, ``cells``,
``flops``, ``fmax_mhz``, ``fmax_routed_mhz``, ``critical_ns``), keyed on
the digests of the optimized netlist and its two timing reports plus
the flow name, so a warm build reads the row and nothing else.  The
stage's key, compute and load check live in this one file, which its
code version names (with the modules the numbers are read through): an
edit to the flow plumbing in :mod:`repro.eval.flows` leaves every
stored row warm.
"""

from __future__ import annotations

from typing import Any

from repro.netlist.area import total_area
from repro.netlist.circuit import Circuit
from repro.netlist.sta import TimingReport
from repro.store import StageOutcome, StageRunner, StoreError

#: The columns of a flow's summary row, in order.
_SUMMARY_FIELDS = ("flow", "area_ge", "cells", "flops", "fmax_mhz",
                   "fmax_routed_mhz", "critical_ns")


def _summary_row(name: str, circuit: Circuit, timing: TimingReport,
                 timing_routed: TimingReport) -> dict[str, Any]:
    return {
        "flow": name,
        "area_ge": round(total_area(circuit), 1),
        "cells": len(circuit.cells),
        "flops": len(circuit.flops()),
        "fmax_mhz": round(timing.fmax_mhz, 1),
        "fmax_routed_mhz": round(timing_routed.fmax_mhz, 1),
        "critical_ns": round(timing_routed.critical_path_ns, 3),
    }


def _load_summary(doc: Any) -> dict[str, Any]:
    if not isinstance(doc, dict) or tuple(doc) != _SUMMARY_FIELDS:
        raise StoreError("expected a flow summary row")
    return doc


def summary_stage(name: str, opt: StageOutcome, sta: StageOutcome,
                  sta_routed: StageOutcome,
                  runner: StageRunner) -> StageOutcome:
    """The memoized ``summary`` row of flow *name*, from the ``opt``,
    ``sta`` and ``sta_routed`` outcomes; loads them only on a miss."""
    return runner.run(
        "summary", (opt.digest, sta.digest, sta_routed.digest, name),
        compute=lambda: _summary_row(name, opt.value(), sta.value(),
                                     sta_routed.value()),
        dump=lambda row: row, load=_load_summary,
    )
