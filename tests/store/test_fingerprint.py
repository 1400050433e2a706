"""Canonical fingerprints: stability within a process, sensitivity to change.

(Cross-process / ``PYTHONHASHSEED`` independence is covered by the
subprocess test in ``tests/synth/test_determinism.py``.)
"""

import pytest

from repro.hdl import Clock, Input, Module, NS, Output, Signal
from repro.serve.jobs import default_design
from repro.store import (
    StoreError,
    fingerprint_design,
    fingerprint_rtl,
    stage_key,
    stage_version,
)
from repro.types import Bit
from repro.types.spec import bit, unsigned


class Probe(Module):
    x = Input(unsigned(8))
    q = Output(unsigned(8))

    def __init__(self, name, clk, rst):
        super().__init__(name)
        self.cthread(self.run, clock=clk, reset=rst)

    def run(self):
        self.q.write(0)
        yield
        while True:
            self.q.write(self.x.read())
            yield


def make_probe(name="probe", period=10 * NS, rst_init=1):
    return Probe(name, Clock("clk", period),
                 Signal("rst", bit(), Bit(rst_init)))


class TestDesignFingerprint:
    def test_stable_across_instances(self):
        assert fingerprint_design(make_probe()) == \
            fingerprint_design(make_probe())

    def test_expocu_stable_across_instances(self):
        assert fingerprint_design(default_design()) == \
            fingerprint_design(default_design())

    def test_changes_with_instance_name(self):
        assert fingerprint_design(make_probe("a")) != \
            fingerprint_design(make_probe("b"))

    def test_changes_with_clock_period(self):
        assert fingerprint_design(make_probe(period=10 * NS)) != \
            fingerprint_design(make_probe(period=20 * NS))

    def test_changes_with_signal_initial_value(self):
        assert fingerprint_design(make_probe(rst_init=1)) != \
            fingerprint_design(make_probe(rst_init=0))

    def test_changes_with_template_arguments(self):
        from repro.expocu import ExpoCU

        def build(side):
            return ExpoCU[side, side]("expocu", Clock("clk", 15 * NS),
                                      Signal("rst", bit(), Bit(1)))

        assert fingerprint_design(build(8)) != fingerprint_design(build(16))

    def test_rejects_non_module(self):
        with pytest.raises(StoreError):
            fingerprint_design("not a module")


class TestRtlFingerprint:
    def test_matches_only_same_structure(self):
        from repro.rtl.ir import RtlModule

        def build(width):
            m = RtlModule("m")
            a = m.add_input("a", unsigned(width))
            m.add_output("y", a.read())
            return m

        assert fingerprint_rtl(build(8)) == fingerprint_rtl(build(8))
        assert fingerprint_rtl(build(8)) != fingerprint_rtl(build(9))


class TestStageKeys:
    def test_stage_version_is_stable(self):
        assert stage_version("opt") == stage_version("opt")
        assert len(stage_version("opt")) == 64

    def test_stage_versions_differ_between_stages(self):
        assert stage_version("opt") != stage_version("sta")

    def test_unknown_stage_rejected(self):
        with pytest.raises(StoreError, match="unknown flow stage"):
            stage_version("not_a_stage")

    def test_key_depends_on_inputs(self):
        assert stage_key("opt", "a") != stage_key("opt", "b")
        assert stage_key("opt", "a") == stage_key("opt", "a")

    def test_key_depends_on_stage(self):
        assert stage_key("sta", "a") != stage_key("pnr", "a")

    def test_key_separates_part_boundaries(self):
        # ("ab", "c") and ("a", "bc") must not collide.
        assert stage_key("opt", "ab", "c") != stage_key("opt", "a", "bc")
