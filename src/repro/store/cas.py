"""On-disk content-addressed artifact store.

Layout under the store root::

    store.json                  # {"schema": "repro-store/v1"}
    .lock                       # flock target for cross-process safety
    objects/<aa>/<sha256>.json  # canonical JSON blobs, named by content
    stages/<stage>/<key>.json   # stage-key -> object digest pointers

Objects are *self-verifying*: the filename is the SHA-256 of the file
content, so corruption (truncation, bit rot, partial writes that
somehow survived) is detected on read by rehashing, and the damaged
file is dropped so the caller recomputes.  Pointer files carry the
digest they reference plus the store schema; an unparsable or
mismatched pointer is likewise dropped, never followed.

Concurrency: all writes go through a temp file on the same file system
(objects are streamed into one under ``objects/`` while being hashed)
followed by ``os.replace`` (atomic on POSIX), so readers never observe
a half-written file.  Writers additionally hold a *shared* ``flock`` on
``.lock`` while maintenance operations (:meth:`gc`, :meth:`clear`)
take it *exclusive* — two processes filling the same cache can run
freely in parallel, but gc never deletes an object out from under a
writer who is about to point at it.  Because identical content yields
identical bytes at identical paths, concurrent writers racing on the
same artifact are harmless whichever ``os.replace`` lands last.

The store never raises on a damaged *read* — damage degrades to a miss
and a ``corrupt`` counter tick.  A store root created by a different
(newer) schema raises :class:`StoreError` rather than guessing.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.store.common import (
    STORE_SCHEMA,
    StoreError,
    canonical_chunks,
    canonical_json,
    digest_bytes,
)

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None


#: How long a store operation waits for the advisory lock by default.
DEFAULT_LOCK_TIMEOUT_S = 30.0

_LOCK_RETRY_S = 0.01


class _Lock:
    """Advisory flock on the store's ``.lock`` file (no-op without fcntl).

    Acquisition is bounded: instead of blocking indefinitely behind a
    wedged holder (a client that died with the exclusive lock, an NFS
    hiccup), the lock is retried non-blocking until *timeout_s* runs
    out, then a :class:`StoreError` names the lock file so the caller —
    in particular the long-lived ``repro serve`` daemon — fails one
    request instead of hanging every worker forever.
    """

    def __init__(self, path: Path, exclusive: bool,
                 timeout_s: float | None = DEFAULT_LOCK_TIMEOUT_S) -> None:
        self.path = path
        self.exclusive = exclusive
        self.timeout_s = timeout_s
        self._fd: int | None = None

    def __enter__(self) -> "_Lock":
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            return self
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        flags = fcntl.LOCK_EX if self.exclusive else fcntl.LOCK_SH
        if self.timeout_s is None:
            fcntl.flock(fd, flags)
            self._fd = fd
            return self
        deadline = time.monotonic() + self.timeout_s
        while True:
            try:
                fcntl.flock(fd, flags | fcntl.LOCK_NB)
                self._fd = fd
                return self
            except OSError:
                if time.monotonic() >= deadline:
                    os.close(fd)
                    kind = "exclusive" if self.exclusive else "shared"
                    raise StoreError(
                        f"timed out after {self.timeout_s:.1f}s waiting "
                        f"for the {kind} store lock at {self.path}; "
                        "another process may be holding it wedged"
                    ) from None
                time.sleep(_LOCK_RETRY_S)

    def __exit__(self, *exc: Any) -> None:
        if self._fd is not None:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
            self._fd = None


class ArtifactStore:
    """A content-addressed design library rooted at *root*.

    Creating the instance initialises the directory layout and schema
    marker if absent; opening a root written by an unknown schema
    raises :class:`StoreError`.

    *lock_timeout_s* bounds every wait on the advisory ``.lock``: a
    holder wedged past it surfaces as a :class:`StoreError` instead of
    blocking the caller forever (``None`` restores unbounded waits).

    One instance may be shared by many threads: object/pointer I/O is
    already safe (atomic writes, advisory locks) and the in-memory
    ``counters`` increment under an internal lock, so concurrent flow
    stages — the ``repro serve`` scheduler runs many jobs against one
    store — never lose hits or misses to racing read-modify-writes.
    """

    def __init__(self, root: str | Path,
                 lock_timeout_s: float | None = DEFAULT_LOCK_TIMEOUT_S,
                 ) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.stages_dir = self.root / "stages"
        self.journals_dir = self.root / "journals"
        self.lock_timeout_s = lock_timeout_s
        self._lock_path = self.root / ".lock"
        self._marker = self.root / "store.json"
        self.counters: dict[str, Counter] = {
            "hit": Counter(), "miss": Counter(),
            "store": Counter(), "corrupt": Counter(),
        }
        self._counter_lock = threading.Lock()
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self.stages_dir.mkdir(parents=True, exist_ok=True)
        if self._marker.exists():
            try:
                marker = json.loads(self._marker.read_text())
                schema = marker.get("schema")
            except (OSError, ValueError):
                schema = None
            if schema != STORE_SCHEMA:
                raise StoreError(
                    f"store at {self.root} has schema {schema!r}, "
                    f"this build expects {STORE_SCHEMA!r}"
                )
        else:
            self._atomic_write(
                self._marker,
                canonical_json({"schema": STORE_SCHEMA}).encode(),
            )

    # ------------------------------------------------------------------
    # low-level plumbing
    # ------------------------------------------------------------------
    @classmethod
    def _write_temp(cls, directory: Path, chunks: Iterable[bytes]) -> str:
        """Write *chunks* to a fresh temp file in *directory*; its path."""
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                for chunk in chunks:
                    handle.write(chunk)
        except BaseException:
            cls._discard(Path(tmp))
            raise
        return tmp

    @classmethod
    def _publish(cls, tmp: str, path: Path) -> None:
        """Atomically move the finished temp file *tmp* to *path*."""
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            os.replace(tmp, path)
        except BaseException:
            cls._discard(Path(tmp))
            raise

    @classmethod
    def _atomic_write(cls, path: Path, data: bytes) -> None:
        cls._publish(cls._write_temp(path.parent, [data]), path)

    def _object_path(self, digest: str) -> Path:
        return self.objects_dir / digest[:2] / f"{digest}.json"

    def journal_path(self, name: str) -> Path:
        """Where a campaign journal named *name* lives.

        Journals are append-only in-progress state, not artifacts: they
        sit beside the CAS (never inside ``objects/``/``stages/``) so
        :meth:`gc`, :meth:`verify` and :meth:`clear` leave them alone
        while ``--resume`` can find them by campaign tag.
        """
        self.journals_dir.mkdir(parents=True, exist_ok=True)
        return self.journals_dir / f"{name}.jsonl"

    def _pointer_path(self, stage: str, key: str) -> Path:
        return self.stages_dir / stage / f"{key}.json"

    def _count(self, event: str, stage: str) -> None:
        with self._counter_lock:
            self.counters[event][stage] += 1

    def counter_totals(self) -> dict[str, int]:
        """Per-event totals over all stages, read atomically."""
        with self._counter_lock:
            return {event: sum(counter.values())
                    for event, counter in self.counters.items()}

    def _flock(self, exclusive: bool) -> _Lock:
        return _Lock(self._lock_path, exclusive, self.lock_timeout_s)

    # ------------------------------------------------------------------
    # objects
    # ------------------------------------------------------------------
    def put_object(self, doc: Any) -> str:
        """Store *doc* by content; returns its digest.  Idempotent.

        The canonical bytes go to the hash and a temp file in bounded
        chunks (:func:`~repro.store.common.canonical_chunks`), so a large
        artifact is never held as one string or one bytes copy.
        """
        sha = hashlib.sha256()

        def encoded() -> Iterator[bytes]:
            for chunk in canonical_chunks(doc):
                data = chunk.encode("utf-8")
                sha.update(data)
                yield data

        with self._flock(exclusive=False):
            tmp = self._write_temp(self.objects_dir, encoded())
            digest = sha.hexdigest()
            path = self._object_path(digest)
            if path.exists():
                self._discard(Path(tmp))
            else:
                self._publish(tmp, path)
        return digest

    def get_object(self, digest: str) -> Any | None:
        """Load an object by digest, verifying its content hash.

        Returns ``None`` (after removing the damaged file) if the blob
        is missing, unreadable, or fails verification — a corrupted
        entry degrades to a recompute, never to a wrong artifact.
        """
        path = self._object_path(digest)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        if digest_bytes(data) != digest:
            self._discard(path)
            return None
        try:
            return json.loads(data)
        except ValueError:
            self._discard(path)
            return None

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # stage pointers
    # ------------------------------------------------------------------
    def probe(self, stage: str, key: str) -> str | None:
        """The object digest cached for (*stage*, *key*), if any.

        Only reads the pointer — the object itself is not touched, so
        probing is cheap even for multi-megabyte artifacts.  A damaged
        pointer is dropped and reported as a miss.
        """
        path = self._pointer_path(stage, key)
        try:
            pointer = json.loads(path.read_bytes())
        except OSError:
            return None
        except ValueError:
            self._discard(path)
            self._count("corrupt", stage)
            return None
        if (not isinstance(pointer, dict)
                or pointer.get("schema") != STORE_SCHEMA
                or not isinstance(pointer.get("object"), str)):
            self._discard(path)
            self._count("corrupt", stage)
            return None
        return pointer["object"]

    def put_stage(self, stage: str, key: str, digest: str) -> None:
        """Point (*stage*, *key*) at an already-stored object."""
        pointer = canonical_json(
            {"schema": STORE_SCHEMA, "stage": stage, "object": digest}
        ).encode("utf-8")
        with self._flock(exclusive=False):
            self._atomic_write(self._pointer_path(stage, key), pointer)

    def store(self, stage: str, key: str, doc: Any) -> str:
        """Store an artifact and its stage pointer; returns the digest."""
        digest = self.put_object(doc)
        self.put_stage(stage, key, digest)
        self._count("store", stage)
        return digest

    def load(self, stage: str, key: str) -> Any | None:
        """Pointer probe + verified object load in one step."""
        digest = self.probe(stage, key)
        if digest is None:
            return None
        doc = self.get_object(digest)
        if doc is None:
            self._discard(self._pointer_path(stage, key))
            self._count("corrupt", stage)
        return doc

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _iter_pointers(self):
        for stage_dir in sorted(self.stages_dir.iterdir()):
            if stage_dir.is_dir():
                for path in sorted(stage_dir.glob("*.json")):
                    yield stage_dir.name, path

    def _iter_objects(self):
        for shard in sorted(self.objects_dir.iterdir()):
            if shard.is_dir():
                for path in sorted(shard.glob("*.json")):
                    yield path

    def stats(self) -> dict:
        """Entry/object counts and on-disk size of the store."""
        stages: dict[str, int] = {}
        for stage, _path in self._iter_pointers():
            stages[stage] = stages.get(stage, 0) + 1
        objects = list(self._iter_objects())
        return {
            "root": str(self.root),
            "stages": dict(sorted(stages.items())),
            "entries": sum(stages.values()),
            "objects": len(objects),
            "bytes": sum(path.stat().st_size for path in objects),
        }

    def gc(self, max_age_s: float | None = None) -> dict:
        """Drop dangling pointers and unreferenced objects.

        With *max_age_s*, stage pointers untouched for longer are
        expired first; objects no pointer references are then deleted.
        Runs under the exclusive lock so concurrent writers are safe.
        """
        removed_pointers = 0
        removed_objects = 0
        with self._flock(exclusive=True):
            now = time.time()
            live: set[str] = set()
            for stage, path in self._iter_pointers():
                digest = self.probe(stage, path.stem)
                if digest is None:
                    removed_pointers += 1  # probe dropped a corrupt pointer
                    continue
                if ((max_age_s is not None
                        and now - path.stat().st_mtime > max_age_s)
                        or not self._object_path(digest).exists()):
                    self._discard(path)
                    removed_pointers += 1
                else:
                    live.add(digest)
            for path in self._iter_objects():
                if path.stem not in live:
                    self._discard(path)
                    removed_objects += 1
        return {"removed_entries": removed_pointers,
                "removed_objects": removed_objects}

    def verify(self, repair: bool = False) -> dict:
        """Rehash every object and resolve every pointer.

        Returns counts of checked/corrupt objects and checked/dangling
        pointers.  With ``repair=True`` damaged objects and dangling
        pointers are removed (so the next build recomputes them);
        otherwise they are only reported.
        """
        objects = corrupt = 0
        for path in self._iter_objects():
            objects += 1
            data = path.read_bytes()
            if digest_bytes(data) != path.stem:
                corrupt += 1
                if repair:
                    self._discard(path)
        pointers = dangling = 0
        for stage, path in self._iter_pointers():
            pointers += 1
            digest = self.probe(stage, path.stem)
            bad = digest is None or not self._object_path(digest).exists()
            if digest is None:
                dangling += 1  # probe already dropped the corrupt pointer
            elif bad:
                dangling += 1
                if repair:
                    self._discard(path)
        return {"objects": objects, "corrupt_objects": corrupt,
                "entries": pointers, "dangling_entries": dangling,
                "ok": corrupt == 0 and dangling == 0}

    def clear(self) -> None:
        """Remove every object and pointer (the ``--cold`` path)."""
        with self._flock(exclusive=True):
            for _stage, path in self._iter_pointers():
                self._discard(path)
            for path in self._iter_objects():
                self._discard(path)

    def __repr__(self) -> str:
        return f"ArtifactStore({str(self.root)!r})"
