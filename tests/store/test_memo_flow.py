"""Memoized flows: cold → warm equivalence, invalidation, resilience.

The acceptance properties of the design library, end to end:

* warm runs hit every stage and produce **byte-identical** summaries to
  cold and cache-disabled runs;
* changing the design misses (no false hits);
* a corrupted cache degrades to recompute — never a wrong artifact;
* concurrent writers into one store directory are safe.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.eval.flows import run_osss_flow, run_vhdl_flow
from repro.eval.sweep import sweep
from repro.obs import Tracer
from repro.serve.jobs import make_spec, run_job
from repro.store import (
    ArtifactStore,
    StoreError,
    canonical_json,
    stage_key,
    stage_version,
)
from tests.store.test_fingerprint import make_probe
from tests.store.test_warm_reads import NETLIST, watch_loads

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

OSSS_STAGES = ("analyze", "synthesize", "lint", "opt", "sta", "pnr",
               "sta_routed", "summary")
VHDL_STAGES = ("lint", "opt", "sta", "pnr", "sta_routed", "summary")


def reopen(store):
    """Same directory, fresh counters — a new process, effectively."""
    return ArtifactStore(store.root)


class TestOsssMemoization:
    def test_cold_misses_then_warm_hits_every_stage(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        cold = run_osss_flow(make_probe(), store=store)
        for stage in OSSS_STAGES:
            assert store.counters["miss"][stage] == 1, stage
            assert store.counters["store"][stage] == 1, stage
        assert sum(store.counters["hit"].values()) == 0

        store = reopen(store)
        warm = run_osss_flow(make_probe(), store=store)
        for stage in OSSS_STAGES:
            assert store.counters["hit"][stage] == 1, stage
        assert sum(store.counters["miss"].values()) == 0
        assert canonical_json(warm.summary()) == canonical_json(cold.summary())

    def test_warm_matches_cache_disabled_run(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        run_osss_flow(make_probe(), store=store)
        warm = run_osss_flow(make_probe(), store=reopen(store))
        plain = run_osss_flow(make_probe())
        assert canonical_json(warm.summary()) == \
            canonical_json(plain.summary())
        assert warm.diagnostics == plain.diagnostics

    def test_changed_design_misses(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        run_osss_flow(make_probe(period=10), store=store)
        store = reopen(store)
        run_osss_flow(make_probe(period=20), store=store)
        assert store.counters["miss"]["synthesize"] == 1
        assert store.counters["hit"]["synthesize"] == 0

    def test_corrupted_cache_degrades_to_recompute(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        cold = run_osss_flow(make_probe(), store=store)
        # Smash every object; pointers stay, so every stage still "hits".
        for path in store._iter_objects():
            path.write_bytes(b"this is not the artifact")
        store = reopen(store)
        warm = run_osss_flow(make_probe(), store=store)
        assert canonical_json(warm.summary()) == canonical_json(cold.summary())
        assert sum(store.counters["corrupt"].values()) > 0
        # The recompute healed the store: next run is a clean warm hit.
        store = reopen(store)
        run_osss_flow(make_probe(), store=store)
        assert sum(store.counters["corrupt"].values()) == 0
        for stage in OSSS_STAGES:
            assert store.counters["hit"][stage] == 1, stage


class TestVhdlMemoization:
    def test_cold_then_warm_including_link(self, tmp_path):
        from repro.baseline import expocu_rtl

        store = ArtifactStore(tmp_path / "cache")
        cold = run_vhdl_flow(expocu_rtl(), store=store)
        for stage in VHDL_STAGES:
            assert store.counters["miss"][stage] == 1, stage
        store = reopen(store)
        warm = run_vhdl_flow(expocu_rtl(), store=store)
        for stage in VHDL_STAGES:
            assert store.counters["hit"][stage] == 1, stage
        assert sum(store.counters["miss"].values()) == 0
        assert canonical_json(warm.summary()) == canonical_json(cold.summary())


def _opt_children(tracer):
    """``{flow root: names of the spans inside its opt span}``."""
    return {root.name: [span.name
                        for opt in root.children if opt.name == "opt"
                        for span in opt.children]
            for root in tracer.roots}


def _span_names(spans):
    for span in spans:
        yield span.name
        yield from _span_names(span.children)


class TestOneGateStage:
    """Each flow stores one netlist, the optimized one: mapping and
    linking run inside the ``opt`` stage."""

    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        store = ArtifactStore(tmp_path_factory.mktemp("gate") / "cache")
        tracer = Tracer("build")
        run_job(make_spec("build", {"flow": "both"}), store=store,
                tracer=tracer)
        return store, tracer

    def test_cold_build_stores_only_the_optimized_netlists(self, cold):
        store, _ = cold
        stats = store.stats()
        assert stats["stages"] == {
            "analyze": 1, "lint": 2, "opt": 2, "pnr": 2, "sta": 2,
            "sta_routed": 2, "summary": 2, "synthesize": 1}
        assert stats["entries"] == 14
        assert not {"techmap", "link"} & {
            path.name for path in store.stages_dir.iterdir()}
        netlists = []
        for path in store._iter_objects():
            doc = store.get_object(path.stem)
            if isinstance(doc, dict) and doc.get("schema") == NETLIST:
                netlists.append(path.stem)
        opt = [store.probe(stage, pointer.stem)
               for stage, pointer in store._iter_pointers()
               if stage == "opt"]
        assert sorted(netlists) == sorted(opt) and len(opt) == 2

    def test_map_and_link_are_spans_inside_opt(self, cold):
        _, tracer = cold
        assert _opt_children(tracer) == {
            "flow:osss": ["techmap"], "flow:vhdl": ["techmap", "link"]}
        for root in tracer.roots:
            assert not {"techmap", "link"} & {
                span.name for span in root.children}

    def test_warm_build_maps_nothing(self, cold):
        store, _ = cold
        tracer = Tracer("build")
        store = reopen(store)
        run_job(make_spec("build", {"flow": "both"}), store=store,
                tracer=tracer)
        assert sum(store.counters["miss"].values()) == 0
        assert store.counters["hit"]["opt"] == 2
        assert not {"techmap", "link"} & set(_span_names(tracer.roots))

    @pytest.mark.parametrize("source", [
        "netlist/techmap.py", "netlist/linker.py", "netlist/opt.py",
        "netlist/arena.py",
    ])
    def test_opt_key_covers_map_link_and_optimize(self, source_copy,
                                                  source):
        before = stage_key("opt", "rtl")
        path = source_copy / source
        path.write_text(path.read_text() + "\n# edited\n")
        stage_version.cache_clear()
        assert stage_key("opt", "rtl") != before

    @pytest.mark.parametrize("stage", ["techmap", "link"])
    def test_map_and_link_are_no_stages(self, stage):
        with pytest.raises(StoreError, match="unknown flow stage"):
            stage_version(stage)


class TestSweepReuse:
    def test_sweep_replays_entries_warmed_by_earlier_runs(self, tmp_path,
                                                          monkeypatch):
        store = ArtifactStore(tmp_path / "cache")
        run_osss_flow(make_probe(period=10), store=store)

        store = reopen(store)
        points = sweep(lambda period: make_probe(period=period),
                       [{"period": 10}, {"period": 20}], store=store)
        assert len(points) == 2
        # period=10 was warmed by the flow run above; period=20 is new.
        assert store.counters["hit"]["synthesize"] == 1
        assert store.counters["miss"]["synthesize"] == 1

        store = reopen(store)
        loaded = watch_loads(monkeypatch)
        again = sweep(lambda period: make_probe(period=period),
                      [{"period": 10}, {"period": 20}], store=store)
        assert sum(store.counters["miss"].values()) == 0
        assert [p.row() for p in again] == [p.row() for p in points]
        # A warm point's row is its stored summary row: no netlist loads.
        assert "repro-netlist/v1" not in loaded


_WRITER = textwrap.dedent("""\
    import json, sys
    from repro.eval.flows import run_osss_flow
    from repro.store import ArtifactStore
    from tests.store.test_fingerprint import make_probe

    store = ArtifactStore(sys.argv[1])
    result = run_osss_flow(make_probe(), store=store)
    print(json.dumps(result.summary(), sort_keys=True))
""")


class TestConcurrentWriters:
    def test_parallel_builds_into_one_store_are_safe(self, tmp_path):
        script = tmp_path / "writer.py"
        script.write_text(_WRITER)
        cache = tmp_path / "cache"
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([REPO_SRC, str(Path(REPO_SRC).parent)]),
        )
        procs = [
            subprocess.Popen(
                [sys.executable, str(script), str(cache)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        outputs = []
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            outputs.append(json.loads(out))
        assert outputs[0] == outputs[1]

        store = ArtifactStore(cache)
        assert store.verify()["ok"]
        # And the racy cold start left a fully warm cache behind.
        run_osss_flow(make_probe(), store=store)
        assert sum(store.counters["miss"].values()) == 0
