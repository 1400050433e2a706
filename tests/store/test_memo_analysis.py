"""The memoized ``testability`` stage and its serializer.

Mirrors ``test_memo_flow``: cold misses then warm hits, byte-identical
reports either way, plus the two serializer properties every artifact
format in the store upholds (exact round-trip, corrupt-document
rejection).
"""

import pytest

from repro.analyze import analyze_circuit
from repro.eval.flows import run_netlist_analysis
from repro.store import (
    ArtifactStore,
    StoreError,
    TESTABILITY_SCHEMA,
    canonical_json,
    deserialize_testability,
    serialize_testability,
    stage_version,
)
from tests.analyze.netlist.test_lints import seeded_circuit
from tests.netlist.test_sim_oracle import random_circuit
from tests.store.test_fingerprint import make_probe

ANALYSIS_STAGES = ("synthesize", "opt", "testability")


class TestMemoizedAnalysis:
    def test_cold_misses_then_warm_hits_every_stage(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        cold_circuit, cold = run_netlist_analysis(make_probe(), store=store)
        for stage in ANALYSIS_STAGES:
            assert store.counters["miss"][stage] == 1, stage
            assert store.counters["store"][stage] == 1, stage
        assert sum(store.counters["hit"].values()) == 0

        store = ArtifactStore(store.root)
        warm_circuit, warm = run_netlist_analysis(make_probe(), store=store)
        for stage in ANALYSIS_STAGES:
            assert store.counters["hit"][stage] == 1, stage
        assert sum(store.counters["miss"].values()) == 0
        assert canonical_json(serialize_testability(warm, warm_circuit)) \
            == canonical_json(serialize_testability(cold, cold_circuit))

    def test_warm_matches_cache_disabled_run(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        run_netlist_analysis(make_probe(), store=store)
        warm_circuit, warm = run_netlist_analysis(
            make_probe(), store=ArtifactStore(store.root)
        )
        plain_circuit, plain = run_netlist_analysis(make_probe())
        assert canonical_json(serialize_testability(warm, warm_circuit)) \
            == canonical_json(serialize_testability(plain, plain_circuit))
        assert [d.as_dict() for d in warm.diagnostics] \
            == [d.as_dict() for d in plain.diagnostics]
        assert warm.summary() == plain.summary()

    def test_shares_prefix_stages_with_build_flow(self, tmp_path):
        from repro.eval.flows import run_osss_flow

        store = ArtifactStore(tmp_path / "cache")
        run_osss_flow(make_probe(), store=store)
        store = ArtifactStore(store.root)
        run_netlist_analysis(make_probe(), store=store)
        # Everything but the analysis itself was left warm by the build.
        for stage in ("synthesize", "opt"):
            assert store.counters["hit"][stage] == 1, stage
        assert store.counters["miss"]["testability"] == 1

    def test_testability_stage_has_a_version(self):
        assert stage_version("testability")
        assert stage_version("testability") != stage_version("opt")


class TestTestabilityRoundTrip:
    @pytest.mark.parametrize("seed", range(4))
    def test_document_is_exact(self, seed):
        circuit = random_circuit(seed)
        doc = serialize_testability(analyze_circuit(circuit), circuit)
        again = serialize_testability(
            deserialize_testability(doc, circuit), circuit
        )
        assert canonical_json(doc) == canonical_json(again)

    def test_restores_scores_classes_and_diagnostics(self):
        circuit = seeded_circuit()
        original = analyze_circuit(circuit)
        restored = deserialize_testability(
            serialize_testability(original, circuit), circuit
        )
        assert restored.design == original.design
        assert restored.testability.co == original.testability.co
        assert restored.testability.cc0 == original.testability.cc0
        # Roots are representation detail; the member sets must match.
        assert sorted(restored.collapse.equivalence.classes().values()) \
            == sorted(original.collapse.equivalence.classes().values())
        assert [d.as_dict() for d in restored.diagnostics] \
            == [d.as_dict() for d in original.diagnostics]
        assert restored.summary() == original.summary()

    def test_rejects_wrong_schema(self):
        circuit = seeded_circuit()
        doc = serialize_testability(analyze_circuit(circuit), circuit)
        doc["schema"] = "something/v0"
        with pytest.raises(StoreError, match=TESTABILITY_SCHEMA):
            deserialize_testability(doc, circuit)

    def test_rejects_mangled_document(self):
        circuit = seeded_circuit()
        doc = serialize_testability(analyze_circuit(circuit), circuit)
        doc["scores"] = [[999999, 1, 1, 1]]
        with pytest.raises(StoreError):
            deserialize_testability(doc, circuit)

    def test_rejects_foreign_nets(self):
        circuit = seeded_circuit()
        analysis = analyze_circuit(circuit)
        with pytest.raises(StoreError, match="outside the circuit"):
            serialize_testability(analysis, random_circuit(0))
