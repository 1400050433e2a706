"""The serve job model: spec validation, fingerprints, rendering."""

import json

import pytest

from repro.cli import build_parser
from repro.dse.evaluate import POINT_ERRORS
from repro.exec import DeadlineExceeded, TaskCancelled
from repro.serve.jobs import (
    JOB_KINDS,
    JOB_PARAMS,
    JobError,
    make_spec,
    render_result,
    run_job,
)


class TestMakeSpec:
    def test_defaults_mirror_the_one_shot_cli(self):
        assert make_spec("build").params == {"flow": "both"}
        assert make_spec("analyze").params == {}
        assert make_spec("inject").params == {
            "flow": "rtl", "faults": 50, "seed": 1, "hardening": "none",
            "backend": "event", "collapse": False,
        }
        dse = make_spec("dse").params
        assert dse["space"] == "tiny" and dse["side"] == 4
        assert dse["strategy"] == "factorial" and dse["fraction"] == 1
        assert dse["faults"] == 24 and dse["campaign_seed"] == 2004
        assert dse["backend"] == "bitparallel"

    @pytest.mark.parametrize("kind", ["build", "inject", "dse"])
    def test_cli_parser_defaults_are_the_default_spec(self, kind):
        args = build_parser().parse_args([kind])
        parsed = {name: getattr(args, name) for name in JOB_PARAMS[kind]}
        assert parsed == make_spec(kind).params

    def test_every_kind_has_a_schema(self):
        assert set(JOB_KINDS) == {"build", "analyze", "inject", "dse"}
        assert set(JOB_PARAMS) == set(JOB_KINDS)

    def test_unknown_kind_rejected(self):
        with pytest.raises(JobError, match="unknown job kind"):
            make_spec("compile")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(JobError, match="unknown parameter"):
            make_spec("build", {"flows": "osss"})

    def test_bad_choice_rejected(self):
        with pytest.raises(JobError, match="build.flow must be one of"):
            make_spec("build", {"flow": "verilog"})

    def test_bad_integer_rejected(self):
        with pytest.raises(JobError, match="inject.faults must be"):
            make_spec("inject", {"faults": "many"})
        with pytest.raises(JobError, match="inject.faults must be"):
            make_spec("inject", {"faults": True})  # bool is not an int

    def test_bad_boolean_rejected(self):
        with pytest.raises(JobError, match="inject.collapse must be"):
            make_spec("inject", {"collapse": 1})

    @pytest.mark.parametrize("params, match", [
        ({"hardening": "tmr"}, "inject.hardening operates on the netlist"),
        ({"backend": "bitparallel"}, "inject.backend selects the gate"),
    ])
    def test_rtl_inject_rejects_netlist_options(self, params, match):
        with pytest.raises(JobError, match=match):
            make_spec("inject", {"flow": "rtl", **params})
        make_spec("inject", {"flow": "netlist", **params})


class TestFingerprint:
    def test_stable_across_param_order_and_defaults(self):
        explicit = make_spec("inject", {"seed": 1, "flow": "rtl"})
        defaulted = make_spec("inject", {})
        assert explicit.fingerprint() == defaulted.fingerprint()

    def test_sensitive_to_params_and_kind(self):
        base = make_spec("inject").fingerprint()
        assert make_spec("inject", {"seed": 2}).fingerprint() != base
        assert make_spec("build").fingerprint() != base

    def test_as_dict_round_trips_through_make_spec(self):
        spec = make_spec("dse", {"faults": 8})
        clone = make_spec(**spec.as_dict())
        assert clone.fingerprint() == spec.fingerprint()


class TestRendering:
    def test_render_is_the_cli_json_convention(self):
        payload = {"flows": [{"flow": "osss"}]}
        assert render_result("build", payload) == \
            json.dumps(payload, indent=2) + "\n"

    def test_cancellation_is_not_a_recoverable_point_error(self):
        # A cancelled or timed-out dse job must unwind the whole
        # exploration, not be recorded as one failed design point and
        # carry on.  These are what the in-process guard raises.
        assert not issubclass(TaskCancelled, POINT_ERRORS)
        assert not issubclass(DeadlineExceeded, POINT_ERRORS)


class TestRunJob:
    def test_build_job_is_deterministic_and_store_backed(self, tmp_path):
        from repro.store import ArtifactStore

        store = ArtifactStore(tmp_path / "cache")
        spec = make_spec("build", {"flow": "osss"})
        cold = run_job(spec, store=store)
        assert [f["flow"] for f in cold["flows"]] == ["osss"]
        assert store.counter_totals()["miss"] > 0
        warm = run_job(spec, store=store)
        assert render_result("build", warm) == render_result("build", cold)
        assert store.counter_totals()["hit"] > 0

    def test_guard_sees_every_stage(self, tmp_path):
        stages = []
        run_job(make_spec("build", {"flow": "osss"}), guard=stages.append)
        assert "synthesize" in stages and "opt" in stages

    def test_guard_abort_raises_out_of_the_job(self):
        class Abort(RuntimeError):
            pass

        def guard(stage):
            if stage == "opt":
                raise Abort(stage)

        with pytest.raises(Abort):
            run_job(make_spec("build", {"flow": "osss"}), guard=guard)
