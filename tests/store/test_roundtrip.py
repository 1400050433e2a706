"""Round-trip property tests: deserialized artifacts behave identically.

Two properties per serializer:

* **exactness** — ``serialize(deserialize(doc)) == doc`` byte-for-byte
  (the document is a canonical form, so the store can content-address it);
* **behaviour** — the deserialized artifact simulates identically to the
  original (reusing the random-circuit harness from
  ``tests/netlist/test_sim_oracle.py``).
"""

import random

import pytest

from repro.netlist import GateSimulator
from repro.rtl.simulate import RtlSimulator
from repro.store import (
    StoreError,
    canonical_json,
    deserialize_circuit,
    deserialize_rtl,
    serialize_circuit,
    serialize_rtl,
)
from tests.netlist.test_sim_oracle import _stimulus, random_circuit


class TestCircuitRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_document_is_exact(self, seed):
        circuit = random_circuit(seed)
        doc = serialize_circuit(circuit)
        again = serialize_circuit(deserialize_circuit(doc))
        assert canonical_json(doc) == canonical_json(again)

    @pytest.mark.parametrize("seed", range(8))
    def test_simulation_equivalence(self, seed):
        circuit = random_circuit(seed)
        restored = deserialize_circuit(serialize_circuit(circuit))
        original = GateSimulator(circuit)
        copy = GateSimulator(restored)
        for entry in _stimulus(seed, 4, cycles=30):
            assert original.step(**entry) == copy.step(**entry)
            assert original.peek_outputs() == copy.peek_outputs()

    def test_preserves_structure_counts(self):
        circuit = random_circuit(3)
        restored = deserialize_circuit(serialize_circuit(circuit))
        assert len(restored.nets) == len(circuit.nets)
        assert len(restored.cells) == len(circuit.cells)
        assert [c.ctype.name for c in restored.cells] == \
            [c.ctype.name for c in circuit.cells]
        assert sorted(restored.constant_nets()) == \
            sorted(circuit.constant_nets())

    def test_rejects_unknown_cell_type(self):
        doc = serialize_circuit(random_circuit(0))
        doc["cells"][0][1] = "FROB3"
        with pytest.raises(StoreError, match="FROB3"):
            deserialize_circuit(doc)

    def test_rejects_multiple_drivers(self):
        circuit = random_circuit(0)
        doc = serialize_circuit(circuit)
        comb = [c for c in doc["cells"] if not c[1].startswith(("DFF", "TIE"))]
        # Point two cells' outputs at the same net.
        comb[1][2][-1] = comb[0][2][-1]
        with pytest.raises(StoreError, match="multiple drivers"):
            deserialize_circuit(doc)

    def test_rejects_wrong_schema(self):
        with pytest.raises(StoreError, match="repro-netlist/v1"):
            deserialize_circuit({"schema": "repro-rtl/v1"})

    def test_rejects_mangled_document(self):
        doc = serialize_circuit(random_circuit(1))
        doc["cells"] = "oops"
        with pytest.raises(StoreError):
            deserialize_circuit(doc)


@pytest.fixture(scope="module")
def expocu_rtl_pair():
    """The synthesized ExpoCU RTL and its round-tripped twin."""
    from repro.serve.jobs import default_design
    from repro.synth import synthesize

    rtl = synthesize(default_design(), observe_children=False)
    doc = serialize_rtl(rtl)
    return rtl, deserialize_rtl(doc), doc


class TestExpoCuRtlRoundTrip:
    def test_document_is_exact(self, expocu_rtl_pair):
        _rtl, restored, doc = expocu_rtl_pair
        assert canonical_json(serialize_rtl(restored)) == canonical_json(doc)

    def test_preserves_stats_and_sharing(self, expocu_rtl_pair):
        rtl, restored, _doc = expocu_rtl_pair
        # stats() counts distinct nodes by identity, so equality proves
        # the node table preserved DAG sharing instead of expanding it.
        assert restored.stats() == rtl.stats()
        assert list(restored.inputs) == list(rtl.inputs)
        assert list(restored.outputs) == list(rtl.outputs)

    def test_simulation_equivalence(self, expocu_rtl_pair):
        rtl, restored, _doc = expocu_rtl_pair
        original = RtlSimulator(rtl)
        copy = RtlSimulator(restored)
        rng = random.Random(7)
        specs = {name: c.spec for name, c in rtl.inputs.items()}
        for _cycle in range(60):
            stimulus = {
                name: rng.randrange(1 << spec.width)
                for name, spec in specs.items()
            }
            assert original.step(**stimulus) == copy.step(**stimulus)

    def test_techmap_of_restored_rtl_is_byte_identical(self, expocu_rtl_pair):
        from repro.netlist import map_module

        rtl, restored, _doc = expocu_rtl_pair
        assert canonical_json(serialize_circuit(
            map_module(restored).to_circuit())) == \
            canonical_json(serialize_circuit(map_module(rtl).to_circuit()))


class TestBaselineRtlRoundTrip:
    def test_blackbox_rtl_and_circuit_roundtrip(self):
        from repro.baseline import expocu_rtl
        from repro.netlist import map_module

        rtl = expocu_rtl()
        restored = deserialize_rtl(serialize_rtl(rtl))
        pre = map_module(rtl).to_circuit()
        pre2 = map_module(restored).to_circuit()
        assert [b.ip_name for b in pre2.blackboxes] == \
            [b.ip_name for b in pre.blackboxes]
        doc = serialize_circuit(pre)
        assert canonical_json(serialize_circuit(pre2)) == canonical_json(doc)
        # The unlinked (black-box) circuit itself round-trips exactly.
        assert canonical_json(
            serialize_circuit(deserialize_circuit(doc))
        ) == canonical_json(doc)

    def test_rtl_rejects_wrong_schema(self):
        with pytest.raises(StoreError, match="repro-rtl/v1"):
            deserialize_rtl({"schema": "repro-netlist/v1"})
