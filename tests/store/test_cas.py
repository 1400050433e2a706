"""The on-disk content-addressed store: atomicity, corruption, maintenance."""

import json

import pytest

from repro.store import STORE_SCHEMA, ArtifactStore, StoreError, digest_doc
from repro.store.common import canonical_chunks, canonical_json


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


class TestObjects:
    def test_put_get_roundtrip(self, store):
        doc = {"b": [1, 2], "a": {"nested": True}}
        digest = store.put_object(doc)
        assert store.get_object(digest) == doc

    def test_put_is_idempotent(self, store):
        d1 = store.put_object([1, 2, 3])
        d2 = store.put_object([1, 2, 3])
        assert d1 == d2
        assert store.stats()["objects"] == 1

    def test_distinct_content_distinct_address(self, store):
        assert store.put_object([1]) != store.put_object([2])

    def test_unserializable_object_raises(self, store):
        with pytest.raises(StoreError):
            store.put_object({"bad": object()})

    def test_unserializable_object_leaves_no_temp_file(self, store):
        with pytest.raises(StoreError):
            store.put_object({"nets": list(range(2000)) + [object()]})
        assert list(store.objects_dir.rglob("*")) == []

    def test_streamed_bytes_are_canonical(self, store):
        doc = {"name": "n\u00e9t", "nets": [f"n{k}" for k in range(3000)],
               "cells": [[f"c{k}", "AND2", [k, k + 1, k + 2]]
                         for k in range(1500)],
               "const": [], "nested": {"1": [1.5, None, True]}}
        digest = store.put_object(doc)
        assert digest == digest_doc(doc)
        data = store._object_path(digest).read_bytes()
        assert data == canonical_json(doc).encode("utf-8")

    @pytest.mark.parametrize("doc", [
        {"big": list(range(1025)), "small": [1, 2], "s": "x"},
        list(range(5000)),
        [[k, str(k)] for k in range(513)],
        {1: "non-string key", "a": list(range(600))},
        {},
        [],
        "scalar",
    ], ids=["dict", "long-list", "nested-list", "int-key", "empty-dict",
            "empty-list", "scalar"])
    def test_chunks_join_to_canonical_json(self, doc):
        assert "".join(canonical_chunks(doc)) == canonical_json(doc)

    def test_long_lists_are_split(self):
        doc = {"nets": [f"net{k}" for k in range(100_000)]}
        longest = max(len(chunk) for chunk in canonical_chunks(doc))
        assert longest * 50 < len(canonical_json(doc))

    def test_missing_object_is_none(self, store):
        assert store.get_object("0" * 64) is None

    def test_corrupt_object_detected_and_dropped(self, store):
        digest = store.put_object({"v": 1})
        path = store._object_path(digest)
        path.write_bytes(b'{"v":2}')  # valid JSON, wrong content
        assert store.get_object(digest) is None
        assert not path.exists(), "damaged blob must be removed"

    def test_truncated_object_detected(self, store):
        digest = store.put_object({"value": list(range(100))})
        path = store._object_path(digest)
        path.write_bytes(path.read_bytes()[:10])
        assert store.get_object(digest) is None


class TestStagePointers:
    def test_store_and_load(self, store):
        digest = store.store("opt", "k" * 64, {"cells": 5})
        assert store.probe("opt", "k" * 64) == digest
        assert store.load("opt", "k" * 64) == {"cells": 5}

    def test_probe_unknown_key(self, store):
        assert store.probe("opt", "nope") is None

    def test_probe_does_not_touch_object(self, store):
        digest = store.store("opt", "key1", {"big": True})
        store._object_path(digest).unlink()
        # The pointer still resolves — only load() notices the hole.
        assert store.probe("opt", "key1") == digest
        assert store.load("opt", "key1") is None

    def test_corrupt_pointer_dropped(self, store):
        store.store("opt", "key1", {"v": 1})
        pointer = store._pointer_path("opt", "key1")
        pointer.write_bytes(b"not json{")
        assert store.probe("opt", "key1") is None
        assert not pointer.exists()
        assert store.counters["corrupt"]["opt"] == 1

    def test_pointer_with_wrong_schema_dropped(self, store):
        store.store("opt", "key1", {"v": 1})
        pointer = store._pointer_path("opt", "key1")
        pointer.write_text(json.dumps({"schema": "other/v2", "object": "x"}))
        assert store.probe("opt", "key1") is None

    def test_load_of_corrupt_object_drops_pointer_too(self, store):
        digest = store.store("opt", "key1", {"v": 1})
        store._object_path(digest).write_bytes(b"garbage")
        assert store.load("opt", "key1") is None
        assert store.probe("opt", "key1") is None
        assert store.counters["corrupt"]["opt"] >= 1


class TestSchemaMarker:
    def test_marker_written_on_init(self, tmp_path):
        ArtifactStore(tmp_path / "c")
        marker = json.loads((tmp_path / "c" / "store.json").read_text())
        assert marker == {"schema": STORE_SCHEMA}

    def test_reopen_same_schema_ok(self, tmp_path):
        ArtifactStore(tmp_path / "c").store("opt", "k", {"v": 1})
        assert ArtifactStore(tmp_path / "c").load("opt", "k") == {"v": 1}

    def test_foreign_schema_rejected(self, tmp_path):
        root = tmp_path / "c"
        root.mkdir()
        (root / "store.json").write_text('{"schema": "repro-store/v99"}')
        with pytest.raises(StoreError, match="repro-store/v99"):
            ArtifactStore(root)


class TestMaintenance:
    def test_stats(self, store):
        store.store("opt", "k1", {"v": 1})
        store.store("opt", "k2", {"v": 2})
        store.store("sta", "k1", {"v": 1})  # shares the {"v": 1} object
        stats = store.stats()
        assert stats["stages"] == {"opt": 2, "sta": 1}
        assert stats["entries"] == 3
        assert stats["objects"] == 2
        assert stats["bytes"] > 0

    def test_gc_noop_on_healthy_store(self, store):
        store.store("opt", "k1", {"v": 1})
        assert store.gc() == {"removed_entries": 0, "removed_objects": 0}
        assert store.load("opt", "k1") == {"v": 1}

    def test_gc_drops_dangling_pointer(self, store):
        digest = store.store("opt", "k1", {"v": 1})
        store._object_path(digest).unlink()
        report = store.gc()
        assert report["removed_entries"] == 1
        assert store.probe("opt", "k1") is None

    def test_gc_drops_unreferenced_object(self, store):
        store.put_object({"orphan": True})
        report = store.gc()
        assert report["removed_objects"] == 1
        assert store.stats()["objects"] == 0

    def test_gc_max_age_expires_old_entries(self, store):
        import os

        digest = store.store("opt", "old", {"v": 1})
        pointer = store._pointer_path("opt", "old")
        os.utime(pointer, (1, 1))  # 1970: ancient
        store.store("opt", "new", {"v": 2})
        report = store.gc(max_age_s=3600)
        assert report["removed_entries"] == 1
        assert store.probe("opt", "old") is None
        assert store.load("opt", "new") == {"v": 2}

    def test_verify_healthy(self, store):
        store.store("opt", "k1", {"v": 1})
        report = store.verify()
        assert report["ok"]
        assert report["objects"] == 1 and report["entries"] == 1

    def test_verify_reports_corruption_without_repair(self, store):
        digest = store.store("opt", "k1", {"v": 1})
        path = store._object_path(digest)
        path.write_bytes(b"junk")
        report = store.verify()
        assert not report["ok"]
        assert report["corrupt_objects"] == 1
        assert path.exists(), "verify without --repair must not delete"

    def test_verify_repair_removes_damage(self, store):
        digest = store.store("opt", "k1", {"v": 1})
        store._object_path(digest).write_bytes(b"junk")
        report = store.verify(repair=True)
        assert report["corrupt_objects"] == 1
        assert not store._object_path(digest).exists()
        # Objects are checked before pointers, so the same pass already
        # drops the pointer left dangling by the object removal.
        assert report["dangling_entries"] == 1
        assert store.verify()["ok"]

    def test_verify_keeps_a_damaged_pointer_until_repair(self, store):
        store.store("analyze", "k1", {"v": 1})
        pointer = store._pointer_path("analyze", "k1")
        pointer.write_bytes(b"{smashed")
        for _ in range(2):
            report = store.verify()
            assert report["dangling_entries"] == 1 and not report["ok"]
            assert pointer.read_bytes() == b"{smashed"
        assert store.verify(repair=True)["dangling_entries"] == 1
        assert not pointer.exists()
        assert store.verify()["ok"]

    def test_clear_empties_store(self, store):
        store.store("opt", "k1", {"v": 1})
        store.store("sta", "k2", {"v": 2})
        store.clear()
        stats = store.stats()
        assert stats["entries"] == 0 and stats["objects"] == 0
        # The store stays usable after clearing.
        store.store("opt", "k1", {"v": 3})
        assert store.load("opt", "k1") == {"v": 3}

    def test_no_temp_files_left_behind(self, store):
        for k in range(5):
            store.store("opt", f"k{k}", {"v": k})
        leftovers = [p for p in store.root.rglob(".tmp-*")]
        assert leftovers == []
