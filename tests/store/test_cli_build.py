"""The ``repro build`` / ``repro cache`` commands and CLI error handling."""

import json

import pytest

from repro.cli import main
from repro.store import STORE_SCHEMA


def build(tmp_path, *extra):
    return main(["build", "--flow", "osss",
                 "--cache-dir", str(tmp_path / "cache"), "--json", *extra])


class TestBuildCommand:
    def test_cold_then_warm_json_is_byte_identical(self, tmp_path, capsys):
        assert build(tmp_path) == 0
        cold = capsys.readouterr()
        assert "miss" in cold.err
        assert build(tmp_path) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "0 miss(es)" in warm.err
        doc = json.loads(warm.out)
        assert [f["flow"] for f in doc["flows"]] == ["osss"]

    def test_no_cache_matches_cached_output(self, tmp_path, capsys):
        assert build(tmp_path) == 0
        cached = capsys.readouterr()
        assert build(tmp_path, "--no-cache") == 0
        plain = capsys.readouterr()
        assert plain.out == cached.out
        assert "cache:" not in plain.err

    def test_cold_flag_clears_before_building(self, tmp_path, capsys):
        assert build(tmp_path) == 0
        capsys.readouterr()
        assert build(tmp_path, "--cold") == 0
        err = capsys.readouterr().err
        assert "0 hit(s)" in err

    def test_text_mode_prints_table(self, tmp_path, capsys):
        assert main(["build", "--flow", "osss",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "fmax" in out and "osss" in out


class TestCacheCommand:
    @pytest.fixture
    def warmed(self, tmp_path, capsys):
        build(tmp_path)
        capsys.readouterr()
        return str(tmp_path / "cache")

    def test_stats(self, warmed, capsys):
        assert main(["cache", "--cache-dir", warmed, "stats"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 8
        assert stats["objects"] > 0 and stats["bytes"] > 0

    def test_verify_ok_then_corruption_fails(self, warmed, capsys, tmp_path):
        assert main(["cache", "--cache-dir", warmed, "verify"]) == 0
        capsys.readouterr()
        from repro.store import ArtifactStore

        store = ArtifactStore(warmed)
        next(store._iter_objects()).write_bytes(b"junk")
        assert main(["cache", "--cache-dir", warmed, "verify"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["corrupt_objects"] == 1 and not report["ok"]
        assert main(["cache", "--cache-dir", warmed, "verify",
                     "--repair"]) == 1
        capsys.readouterr()
        assert main(["cache", "--cache-dir", warmed, "verify"]) == 0

    def test_gc_reports_removals(self, warmed, capsys):
        from repro.store import ArtifactStore

        ArtifactStore(warmed).put_object({"orphan": True})
        assert main(["cache", "--cache-dir", warmed, "gc"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["removed_objects"] == 1


class TestVersionAndErrors:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_synthesis_error_becomes_exit_code_2(self, monkeypatch, capsys,
                                                 tmp_path):
        import repro.serve.jobs
        from repro.synth import SynthesisError

        def explode():
            raise SynthesisError("shared object without guarded methods")

        monkeypatch.setattr(repro.serve.jobs, "default_design", explode)
        rc = main(["build", "--flow", "osss",
                   "--cache-dir", str(tmp_path / "c")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: shared object")
        assert "Traceback" not in err

    def test_netlist_error_becomes_exit_code_2(self, monkeypatch, capsys,
                                               tmp_path):
        import repro.eval
        from repro.netlist import NetlistError

        def explode(*args, **kwargs):
            raise NetlistError("unresolved black box ip_mult16")

        monkeypatch.setattr(repro.eval, "run_osss_flow", explode)
        rc = main(["build", "--flow", "osss",
                   "--cache-dir", str(tmp_path / "c")])
        assert rc == 2
        assert "repro: error: unresolved black box" in capsys.readouterr().err

    def test_store_error_becomes_exit_code_2(self, tmp_path, capsys):
        root = tmp_path / "cache"
        root.mkdir()
        (root / "store.json").write_text('{"schema": "repro-store/v99"}')
        rc = main(["build", "--flow", "osss", "--cache-dir", str(root)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err and STORE_SCHEMA in err
