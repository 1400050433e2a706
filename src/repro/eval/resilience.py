"""Hardening-effectiveness evaluation (fault-injection extension).

The paper's automotive context makes robustness a first-class metric
next to area and frequency; this module turns the fault subsystem
(:mod:`repro.fault`) into a paper-style comparison table: the same
seeded campaign against the ExpoCU netlist, unhardened and with each
hardening recipe, so the masked/sdc/detected/hang shift is directly
readable.
"""

from __future__ import annotations

from typing import Any

from repro.fault import expocu_campaign


def hardening_comparison(faults: int = 20,
                         seed: int = 1) -> list[dict[str, Any]]:
    """One row per hardening mode, same faults everywhere.

    The fault list is regenerated per mode from the same seed; targets
    are drawn from each variant's own netlist (hardened state is larger),
    so rows compare *strategies under equal pressure*, not fault-by-fault
    trajectories.  Rows render with :func:`repro.eval.report.format_table`.
    """
    rows = []
    for mode in ("none", "tmr", "parity", "tmr+parity"):
        result = expocu_campaign(flow="netlist", faults=faults, seed=seed,
                                 hardening=mode)
        row = result.summary_rows()[0]
        row["sdc+hang"] = row["sdc"] + row["hang"]
        rows.append(row)
    return rows
