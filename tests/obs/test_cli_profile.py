"""CLI profiling: the ``--profile`` option.

Includes the acceptance check that a ``repro flows --profile`` trace
explains at least 95% of each flow's wall time through stage spans, and
that the option leaves stdout untouched: the span summary goes to
stderr, so JSON output stays parseable and byte-identical.
"""

import json

import pytest

from repro.cli import main
from repro.obs import validate_trace

FLOW_STAGES = {"analyze", "synthesize", "lint", "opt", "sta", "pnr",
               "sta_routed", "summary"}


def load(path) -> dict:
    doc = json.loads(path.read_text())
    return validate_trace(doc)


class TestFlowsProfile:
    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("prof") / "flows.json"
        assert main(["flows", "--profile", str(path)]) == 0
        return load(path)

    def test_schema_and_roots(self, trace):
        assert trace["schema"] == "repro-trace/v1"
        names = [s["name"] for s in trace["spans"]]
        assert names == ["flow:osss", "flow:vhdl"]

    def test_stage_spans_cover_95_percent(self, trace):
        for flow in trace["spans"]:
            assert {c["name"] for c in flow["children"]} <= FLOW_STAGES
            covered = sum(c["dur_s"] for c in flow["children"])
            assert covered >= 0.95 * flow["dur_s"], (
                f"{flow['name']}: stage spans cover only "
                f"{covered / flow['dur_s']:.1%} of the flow wall time"
            )

    def test_flow_meta_carries_results(self, trace):
        for flow in trace["spans"]:
            assert flow["meta"]["cells"] > 0
            assert flow["meta"]["area_ge"] > 0


class TestProfileCommand:
    def test_synth_profile_summary_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "synth.json"
        assert main(["synth", "--profile", str(path)]) == 0
        captured = capsys.readouterr()
        assert "total:" in captured.err and "total:" not in captured.out
        assert "synthesize" in captured.err
        assert f"profile trace written to {path}" in captured.err
        doc = load(path)
        assert doc["name"] == "synth"
        assert doc["spans"][0]["name"] == "synthesize"

    def test_synth_profile_flag(self, tmp_path, capsys):
        path = tmp_path / "synth.json"
        assert main(["synth", "--profile", str(path)]) == 0
        doc = load(path)
        names = [s["name"] for s in doc["spans"]]
        assert "synthesize" in names and "lint" in names


class TestInjectProfile:
    def test_inject_profile_flag(self, tmp_path, capsys):
        trace_path = tmp_path / "inject.json"
        report_path = tmp_path / "report.json"
        assert main(["inject", "--faults", "2",
                     "--profile", str(trace_path),
                     "--output", str(report_path)]) == 0
        doc = load(trace_path)
        names = [s["name"] for s in doc["spans"]]
        assert names == ["build_injector", "campaign"]
        campaign = doc["spans"][1]
        children = {c["name"] for c in campaign["children"]}
        assert {"golden", "replay"} <= children
        replay = next(c for c in campaign["children"]
                      if c["name"] == "replay")
        # One child span per injected fault, annotated with its outcome.
        assert len(replay["children"]) == 2
        assert all(c["meta"]["outcome"] in
                   ("masked", "sdc", "detected", "hang")
                   for c in replay["children"])
        assert campaign["meta"]["sim_stats"]["backend"] == "rtl"


class TestProfileKeepsStdout:
    @pytest.mark.parametrize("argv", [
        ["build", "--no-cache", "--flow", "vhdl", "--json"],
        ["inject", "--faults", "0", "--format", "json"],
    ], ids=["build", "inject"])
    def test_stdout_is_byte_identical_json(self, argv, tmp_path,
                                           monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main([*argv, "--profile", "t.json"]) == 0
        profiled = capsys.readouterr()
        assert profiled.out == plain
        json.loads(profiled.out)
        assert "profile trace written to t.json" in profiled.err
        assert load(tmp_path / "t.json")["name"] == argv[0]
