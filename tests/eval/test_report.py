"""Direct unit tests for the reporting and effort-metric helpers.

Complements ``test_eval.py`` (which exercises these through full flow
runs) with protocol-level stubs, so formatting and ratio arithmetic are
pinned down without synthesizing anything.
"""

from repro.eval.effort import (
    EffortMetrics,
    i2c_effort_comparison,
    measure_source,
)
from repro.eval.report import (
    flow_comparison,
    format_table,
    module_inventory,
)
from repro.eval.sweep import SweepPoint


class TestFormatTable:
    def test_alignment_and_rule(self):
        text = format_table([{"a": 1, "bee": "xy"}, {"a": 100, "bee": "z"}])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "bee"]
        assert set(lines[1]) <= {"-", " "}
        # All rows padded to equal width per column.
        assert lines[2].startswith("1  ")
        assert lines[3].startswith("100")

    def test_explicit_column_selection_and_order(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = format_table(rows, columns=["c", "a"])
        assert text.splitlines()[0].split() == ["c", "a"]
        assert "2" not in text.splitlines()[2]

    def test_missing_keys_render_empty(self):
        # Columns come from the first row; later rows may omit keys.
        text = format_table([{"a": 1, "b": 5}, {"a": 2}])
        lines = text.splitlines()
        assert "5" in lines[2]
        assert lines[3].rstrip() == "2"

    def test_empty_rows(self):
        assert format_table([]) == "(no rows)"


class _Timing:
    def __init__(self, fmax, critical):
        self.fmax_mhz = fmax
        self.critical_path_ns = critical


class _Circuit:
    def __init__(self, n_flops):
        self._n = n_flops

    def flops(self):
        return [object()] * self._n


class _FakeFlow:
    """Just enough of the FlowResult protocol for the report helpers."""

    def __init__(self, name, area, cells, flops, fmax, fmax_routed,
                 critical):
        self.name = name
        self.area = area
        self.cells = cells
        self.circuit = _Circuit(flops)
        self.timing = _Timing(fmax, critical)
        self.timing_routed = _Timing(fmax_routed, critical)
        self.fmax_mhz = fmax_routed

    def summary(self):
        return {
            "flow": self.name,
            "area_ge": round(self.area, 1),
            "cells": self.cells,
            "flops": len(self.circuit.flops()),
            "fmax_mhz": round(self.timing.fmax_mhz, 1),
            "fmax_routed_mhz": round(self.fmax_mhz, 1),
            "critical_ns": round(self.timing_routed.critical_path_ns, 3),
        }


class _FakeAreaReport:
    def __init__(self):
        self.by_module = {"top/a": 60.0, "top/b": 40.0}
        self.total = 100.0


class TestFlowComparison:
    def test_ratio_row(self):
        osss = _FakeFlow("osss", 150.0, 30, 8, 100.0, 90.0, 11.0)
        vhdl = _FakeFlow("vhdl", 100.0, 20, 4, 50.0, 45.0, 22.0)
        text = flow_comparison(osss, vhdl)
        lines = text.splitlines()
        assert len(lines) == 5  # header + rule + two flows + ratio
        ratio = lines[-1]
        assert ratio.startswith("osss / vhdl")
        assert "1.5" in ratio  # area and cells ratio
        assert "2.0" in ratio  # flops and fmax ratio
        assert "0.5" in ratio  # critical-path ratio

    def test_zero_flop_vhdl_does_not_divide_by_zero(self):
        osss = _FakeFlow("osss", 10.0, 5, 3, 10.0, 10.0, 1.0)
        vhdl = _FakeFlow("vhdl", 10.0, 5, 0, 10.0, 10.0, 1.0)
        text = flow_comparison(osss, vhdl)
        assert "3.0" in text.splitlines()[-1]


class TestModuleInventory:
    def test_shares_and_total_row(self):
        flow = _FakeFlow("osss", 100.0, 10, 2, 10.0, 10.0, 1.0)
        flow.area_report = lambda depth=2: _FakeAreaReport()
        text = module_inventory(flow)
        lines = text.splitlines()
        assert "top/a" in lines[2] and "60.0" in lines[2]
        assert lines[-1].startswith("TOTAL")
        assert "100.0" in lines[-1]


class TestSweepPointRow:
    def test_row_merges_params_and_summary(self):
        flow = _FakeFlow("osss", 42.0, 7, 2, 10.0, 9.0, 3.0)
        point = SweepPoint({"width": 8}, flow)
        row = point.row()
        assert row["width"] == 8
        assert row["area_ge"] == 42.0
        assert row["cells"] == 7


class TestEffortMetrics:
    def test_score_weighting(self):
        metrics = EffortMetrics("x", sloc=10, decisions=2,
                                state_carriers=3, explicit_assignments=4)
        assert metrics.effort_score == 10 + 6 + 6 + 6
        record = metrics.as_dict()
        assert record["style"] == "x"
        assert record["score"] == 28.0

    def test_measure_source_counts_constructs(self):
        def sample():
            """Docstring lines are not SLOC."""
            x = 0
            if x:          # decision 1
                x = 1
            while x:       # decision 2
                x -= 1
            y = mux(x, 1, 0)      # decision 3    # noqa: F821
            register("r")         # state carrier # noqa: F821
            next("n")             # explicit assignment
            return y

        metrics = measure_source("sample", sample)
        assert metrics.decisions == 3
        assert metrics.state_carriers == 1
        assert metrics.explicit_assignments == 1
        assert metrics.sloc >= 8

    def test_i2c_comparison_shape_and_ordering(self):
        styles = i2c_effort_comparison()
        assert set(styles) == {"osss", "systemc_procedural", "vhdl_rtl"}
        # The paper's R8 ordering: behavioral OSSS costs the least.
        assert (styles["osss"].effort_score
                < styles["systemc_procedural"].effort_score)
