"""What a warm run reads from the store, and how its integrity is kept.

A warm build reads its stored summary rows plus the analyzer and lint
findings; a warm analysis reads its stored testability document.
Neither loads a netlist, timing report or placement.  A damaged object
that nothing loads is therefore found by ``ArtifactStore.verify``, and
``verify(repair=True)`` plus the next build heal it.
"""

import pytest

from repro.eval.flows import (
    netlist_analysis_document,
    run_netlist_analysis,
    run_osss_flow,
)
from repro.serve.jobs import make_spec, render_result, run_job
from repro.store import (
    ArtifactStore,
    canonical_json,
    serialize_testability,
    stage_version,
)
from tests.store.test_fingerprint import make_probe

NETLIST = "repro-netlist/v1"


def watch_loads(monkeypatch) -> list:
    """Record every object loaded from now on, as its ``schema`` tag
    (``None`` for an untagged document such as a summary row)."""
    schemas = []
    get_object = ArtifactStore.get_object

    def recorded(self, digest):
        doc = get_object(self, digest)
        schemas.append(doc.get("schema") if isinstance(doc, dict) else None)
        return doc

    monkeypatch.setattr(ArtifactStore, "get_object", recorded)
    return schemas


def replace_object(store, stage, doc):
    """Point the (only) pointer of *stage* at a stored copy of *doc*."""
    [(_, pointer)] = [entry for entry in store._iter_pointers()
                      if entry[0] == stage]
    store.put_stage(stage, pointer.stem, store.put_object(doc))


def object_path(store, stage):
    """The object file the (only) pointer of *stage* names."""
    [(_, pointer)] = [entry for entry in store._iter_pointers()
                      if entry[0] == stage]
    return store._object_path(store.probe(stage, pointer.stem))


class TestWarmJobReads:
    """The read counts of warm ``build`` and ``analyze`` jobs."""

    @pytest.fixture(scope="class")
    def warmed(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("warm") / "cache"
        store = ArtifactStore(root)
        cold = {}
        for kind, params in (("build", {"flow": "both"}),
                             ("build", {"flow": "osss"}), ("analyze", {})):
            spec = make_spec(kind, params)
            cold[spec.fingerprint()] = render_result(
                kind, run_job(spec, store=store))
        return root, cold

    @pytest.mark.parametrize("kind, params, reads", [
        ("build", {"flow": "both"}, 5),  # analyzer, 2 lint, 2 summary rows
        ("build", {"flow": "osss"}, 3),  # analyzer, lint, summary row
        ("analyze", {}, 1),              # the testability document
    ])
    def test_reads(self, warmed, monkeypatch, kind, params, reads):
        root, cold = warmed
        store = ArtifactStore(root)
        spec = make_spec(kind, params)
        schemas = watch_loads(monkeypatch)
        text = render_result(kind, run_job(spec, store=store))
        assert text == cold[spec.fingerprint()]
        assert sum(store.counters["miss"].values()) == 0
        assert len(schemas) == reads, schemas
        assert NETLIST not in schemas


class TestLazyFlowResult:
    def test_artifacts_load_on_first_access(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "cache")
        cold = run_osss_flow(make_probe(), store=store)
        schemas = watch_loads(monkeypatch)
        warm = run_osss_flow(make_probe(), store=ArtifactStore(store.root))
        assert warm.summary() == cold.summary()
        assert len(schemas) == 3
        for attr, schema in (("circuit", NETLIST),
                             ("timing", "repro-timing/v1"),
                             ("placement", "repro-placement/v1"),
                             ("timing_routed", "repro-timing/v1"),
                             ("rtl", "repro-rtl/v1")):
            getattr(warm, attr)
            assert schemas[-1] == schema, attr
        # Each artifact loads once.
        assert warm.cells == cold.cells and warm.area == cold.area
        assert len(schemas) == 8

    def test_warm_analysis_document_loads_no_netlist(self, tmp_path,
                                                     monkeypatch):
        store = ArtifactStore(tmp_path / "cache")
        cold = netlist_analysis_document(make_probe(), store=store)
        schemas = watch_loads(monkeypatch)
        warm = netlist_analysis_document(make_probe(),
                                         store=ArtifactStore(store.root))
        assert canonical_json(warm) == canonical_json(cold)
        assert schemas == ["repro-testability/v1"]

    def test_foreign_testability_document_recomputes(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        cold = netlist_analysis_document(make_probe(), store=store)
        # A well-formed object whose content is not a testability report.
        replace_object(store, "testability", {"schema": "something/v0"})
        store = ArtifactStore(store.root)
        warm = netlist_analysis_document(make_probe(), store=store)
        assert canonical_json(warm) == canonical_json(cold)
        assert store.counters["corrupt"]["testability"] == 1

    def test_misshapen_testability_document_recomputes(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        cold = netlist_analysis_document(make_probe(), store=store)
        # The right schema tag on a document without its score table.
        replace_object(store, "testability",
                       {**cold, "scores": "not a table"})
        store = ArtifactStore(store.root)
        warm = netlist_analysis_document(make_probe(), store=store)
        assert canonical_json(warm) == canonical_json(cold)
        assert store.counters["corrupt"]["testability"] == 1

    def test_document_the_netlist_rejects_recomputes(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        cold_circuit, cold = run_netlist_analysis(make_probe(), store=store)
        cold_doc = serialize_testability(cold, cold_circuit)
        # Well-shaped, but it scores a net the netlist does not have.
        replace_object(store, "testability",
                       {**cold_doc, "scores": [[999999, 1, 1, 1]]})
        store = ArtifactStore(store.root)
        warm_circuit, warm = run_netlist_analysis(make_probe(), store=store)
        assert canonical_json(serialize_testability(warm, warm_circuit)) \
            == canonical_json(cold_doc)
        assert store.counters["corrupt"]["testability"] == 1
        # The stage healed the store, so the document path reads it back.
        store = ArtifactStore(store.root)
        healed = netlist_analysis_document(make_probe(), store=store)
        assert canonical_json(healed) == canonical_json(cold_doc)
        assert sum(store.counters["corrupt"].values()) == 0


class TestCorruptLoadIsACancellationPoint:
    def test_guard_runs_before_a_corrupt_hit_recomputes(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        run_osss_flow(make_probe(), store=store)
        for path in store.objects_dir.rglob("*.json"):
            path.write_bytes(b"smashed")

        class Cancelled(Exception):
            pass

        calls = []

        def guard(stage):
            calls.append(stage)
            # The first "opt" call is the stage's own; the second comes
            # when the summary row's recompute loads the smashed netlist.
            if calls.count("opt") == 2:
                raise Cancelled(stage)

        store = ArtifactStore(store.root)
        with pytest.raises(Cancelled):
            run_osss_flow(make_probe(), store=store, guard=guard)
        assert calls.index("opt") < calls.index("summary")
        assert store.counters["store"]["opt"] == 0
        assert store.counters["store"]["summary"] == 0


class TestOneCorruptNetlist:
    def test_verify_finds_it_and_repair_heals_it(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        cold = run_osss_flow(make_probe(), store=store)
        object_path(store, "opt").write_bytes(b"this is not the netlist")

        # A warm build never loads the optimized netlist...
        store = ArtifactStore(store.root)
        warm = run_osss_flow(make_probe(), store=store)
        assert canonical_json(warm.summary()) == \
            canonical_json(cold.summary())
        assert sum(store.counters["corrupt"].values()) == 0
        # ...so verify is the check that finds it.
        assert store.verify()["corrupt_objects"] == 1

        store.verify(repair=True)
        store = ArtifactStore(store.root)
        healed = run_osss_flow(make_probe(), store=store)
        assert canonical_json(healed.summary()) == \
            canonical_json(cold.summary())
        assert {stage: n for stage, n in store.counters["miss"].items()
                if n} == {"opt": 1}
        assert {stage: n for stage, n in store.counters["store"].items()
                if n} == {"opt": 1}
        assert store.verify()["ok"]


class TestSummaryStage:
    @pytest.mark.parametrize("source", [
        "netlist/area.py", "netlist/cells.py", "netlist/sta.py",
        "eval/summary.py",
    ])
    def test_code_version_covers_the_row_sources(self, source_copy,
                                                 source):
        before = stage_version("summary")
        path = source_copy / source
        path.write_text(path.read_text() + "\n# edited\n")
        stage_version.cache_clear()
        assert stage_version("summary") != before

    def test_editing_the_flow_plumbing_keeps_the_rows_warm(self,
                                                           source_copy):
        # The row's key and compute live in eval/summary.py, not in the
        # flow runners.
        before = stage_version("summary")
        path = source_copy / "eval/flows.py"
        path.write_text(path.read_text() + "\n# edited\n")
        stage_version.cache_clear()
        assert stage_version("summary") == before
