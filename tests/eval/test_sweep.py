"""Tests for the parameter-sweep harness."""

from repro.eval.sweep import grid, monotonic, sweep
from repro.expocu import HistogramUnit
from repro.hdl import Clock, NS, Signal
from repro.synth import SynthesisError
from repro.types import Bit
from repro.types.spec import bit


def hist_factory(count_bits):
    return HistogramUnit[count_bits](
        "h", Clock("clk", 10 * NS), Signal("rst", bit(), Bit(1))
    )


class TestGrid:
    def test_single_axis(self):
        assert grid(a=[1, 2]) == [{"a": 1}, {"a": 2}]

    def test_cartesian_product(self):
        points = grid(a=[1, 2], b=["x", "y"])
        assert len(points) == 4
        assert {"a": 2, "b": "x"} in points

    def test_empty(self):
        assert grid() == [{}]

    def test_empty_axis_list_empties_the_grid(self):
        assert grid(a=[], b=["x", "y"]) == []


class TestMonotonic:
    def test_weak_and_strict(self):
        rows = [{"x": 1, "y": 5}, {"x": 2, "y": 5}, {"x": 3, "y": 9}]
        assert monotonic(rows, "x", "y")
        assert not monotonic(rows, "x", "y", strict=True)

    def test_unordered_input(self):
        rows = [{"x": 3, "y": 9}, {"x": 1, "y": 1}, {"x": 2, "y": 4}]
        assert monotonic(rows, "x", "y", strict=True)


class TestSweep:
    def test_sweep_runs_flow_per_point(self):
        points = sweep(hist_factory, grid(count_bits=[8, 12]))
        assert len(points) == 2
        assert points[0].params == {"count_bits": 8}
        assert points[1].result.area > points[0].result.area
        row = points[0].row()
        assert {"count_bits", "area_ge", "cells", "flops",
                "fmax_mhz"} <= set(row)
        assert all(point.ok for point in points)

    def test_empty_point_list_is_an_empty_sweep(self):
        assert sweep(hist_factory, grid(count_bits=[])) == []

    def test_single_point_space(self):
        points = sweep(hist_factory, grid(count_bits=[8]))
        assert len(points) == 1
        assert points[0].ok
        assert points[0].params == {"count_bits": 8}

    def test_mid_sweep_failure_recorded_and_sweep_continues(self):
        def flaky_factory(count_bits):
            if count_bits == 10:
                raise SynthesisError("10-bit histograms unsupported")
            return hist_factory(count_bits)

        points = sweep(flaky_factory, grid(count_bits=[8, 10, 12]))
        # All three points are present, in order; only the middle failed.
        assert [p.params["count_bits"] for p in points] == [8, 10, 12]
        assert [p.ok for p in points] == [True, False, True]
        failed = points[1]
        assert failed.result is None
        assert isinstance(failed.error, SynthesisError)
        row = failed.row()
        assert row["count_bits"] == 10
        assert row["error"].startswith("SynthesisError:")
        # The surviving points still carry full flow results.
        assert points[2].result.area > points[0].result.area
