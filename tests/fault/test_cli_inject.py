"""The ``repro inject`` command: formats, outputs, determinism."""

import json

import pytest

from repro.cli import main


class TestFormats:
    def test_text_format_prints_summary(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # keep the default report out of repo
        code = main(["inject", "--flow", "rtl", "--faults", "0",
                     "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "golden run: selfcheck=masked" in out
        assert "outcome" in out or "masked" in out

    def test_json_format_parses(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        code = main(["inject", "--flow", "rtl", "--faults", "0",
                     "--seed", "1", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-fault-campaign/v1"
        assert payload["flow"] == "rtl"
        assert payload["golden"]["selfcheck"] == "masked"
        assert payload["golden"]["done"] is True
        assert all(n == 0 for n in payload["outcomes"].values())
        assert payload["faults"] == []

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["inject", "--flow", "rtl", "--faults", "0",
                     "--seed", "1", "--output", str(target)])
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["schema"] == "repro-fault-campaign/v1"

    def test_default_report_lands_in_benchmarks_results(
            self, tmp_path, monkeypatch, capsys):
        (tmp_path / "benchmarks" / "results").mkdir(parents=True)
        monkeypatch.chdir(tmp_path)
        assert main(["inject", "--flow", "rtl", "--faults", "0",
                     "--seed", "1"]) == 0
        report = (tmp_path / "benchmarks" / "results"
                  / "fault_rtl_none_seed1.json")
        assert report.exists()
        assert json.loads(report.read_text())["seed"] == 1


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("repro: error: ") and err.count("\n") == 1
    return err


class TestUsageErrors:
    def test_rtl_flow_rejects_hardening(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["inject", "--flow", "rtl", "--hardening", "tmr",
                     "--faults", "0"]) == 2
        assert "hardening operates on the netlist flow" in \
            _one_line_error(capsys)

    def test_unknown_hardening_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["inject", "--hardening", "ecc"])

    def test_rtl_flow_rejects_compiled_backend(self, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["inject", "--flow", "rtl", "--backend", "compiled",
                     "--faults", "0"]) == 2
        assert "backend selects the gate evaluator of the netlist flow" in \
            _one_line_error(capsys)

    def test_unknown_backend_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["inject", "--backend", "turbo"])


@pytest.mark.slow
class TestParallelJobs:
    def test_jobs_report_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "seq.json", tmp_path / "par.json"]
        for path, jobs in zip(paths, ("1", "2")):
            code = main(["inject", "--flow", "rtl", "--faults", "6",
                         "--seed", "1", "--jobs", jobs,
                         "--output", str(path)])
            assert code == 0
        assert paths[0].read_text() == paths[1].read_text()

    def test_compiled_backend_report_tagged(self, tmp_path, monkeypatch,
                                            capsys):
        (tmp_path / "benchmarks" / "results").mkdir(parents=True)
        monkeypatch.chdir(tmp_path)
        assert main(["inject", "--flow", "netlist", "--faults", "2",
                     "--seed", "1", "--backend", "compiled"]) == 0
        report = (tmp_path / "benchmarks" / "results"
                  / "fault_netlist_none_seed1_compiled.json")
        assert report.exists()
        payload = json.loads(report.read_text())
        assert payload["flow"] == "netlist"
        assert sum(payload["outcomes"].values()) == 2


@pytest.mark.slow
class TestCollapse:
    def test_collapse_report_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "plain.json", tmp_path / "collapsed.json"]
        for path, extra in zip(paths, ([], ["--collapse"])):
            code = main(["inject", "--flow", "netlist", "--faults", "8",
                         "--seed", "1", "--backend", "compiled",
                         "--output", str(path)] + extra)
            assert code == 0
        assert paths[0].read_text() == paths[1].read_text()
        assert "collapse: simulated" in capsys.readouterr().out


class TestResilienceCli:
    def test_quarantined_faults_exit_code_3(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.chdir(tmp_path)
        # A 100µs deadline no Python-level replay can meet: every fault
        # quarantines, which must surface as the distinct exit code.
        code = main(["inject", "--flow", "rtl", "--faults", "2",
                     "--seed", "1", "--fault-timeout", "0.0001",
                     "--max-retries", "0"])
        out = capsys.readouterr().out
        assert code == 3
        assert "quarantined:" in out
        assert "resilience:" in out

    @pytest.mark.slow
    def test_journal_resume_round_trip(self, tmp_path, capsys):
        journal = tmp_path / "campaign.jsonl"
        first, resumed = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["inject", "--flow", "rtl", "--faults", "4",
                     "--seed", "1", "--journal", str(journal),
                     "--output", str(first)]) == 0
        assert main(["inject", "--flow", "rtl", "--faults", "4",
                     "--seed", "1", "--journal", str(journal), "--resume",
                     "--output", str(resumed)]) == 0
        assert first.read_text() == resumed.read_text()
        assert "journal_hits=" in capsys.readouterr().out

    @pytest.mark.slow
    def test_resume_derives_journal_from_cache_dir(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        report = tmp_path / "report.json"
        assert main(["inject", "--flow", "rtl", "--faults", "2",
                     "--seed", "1", "--resume", "--cache-dir", str(cache),
                     "--output", str(report)]) == 0
        assert (cache / "journals" / "fault_rtl_none_seed1.jsonl").exists()


@pytest.mark.slow
class TestDeterminism:
    def test_same_seed_same_report(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = main(["inject", "--flow", "rtl", "--faults", "5",
                         "--seed", "1", "--format", "json",
                         "--output", str(path)])
            assert code == 0
        first, second = (p.read_text() for p in paths)
        assert first == second
        payload = json.loads(first)
        assert len(payload["faults"]) == 5
        assert sum(payload["outcomes"].values()) == 5
