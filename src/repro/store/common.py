"""Shared plumbing of the design library: canonical JSON and digests.

Every artifact the store persists — serialized RTL, netlists, flow
reports — is rendered through :func:`canonical_json` before hashing or
writing, so that byte identity is meaningful: the same design produces
the same bytes in every process, regardless of ``PYTHONHASHSEED`` (keys
are emitted in a fixed, structural order by the serializers; canonical
rendering only pins separators and unicode escaping).  Content addresses
are SHA-256 over those canonical bytes.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterator

#: Versioned identifier of the on-disk store layout.
STORE_SCHEMA = "repro-store/v1"

#: List items rendered per piece by :func:`canonical_chunks`.
_CHUNK_ITEMS = 512


class StoreError(ValueError):
    """Raised for malformed store state or unserializable artifacts.

    The memoization layer treats a :class:`StoreError` surfaced while
    *reading* as a cache miss (graceful recompute); a :class:`StoreError`
    while *writing* is a real error and propagates.
    """


def canonical_json(doc: Any) -> str:
    """Render *doc* as compact, canonical JSON (stable separators)."""
    try:
        return json.dumps(doc, separators=(",", ":"), ensure_ascii=True,
                          allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise StoreError(f"artifact is not JSON-serializable: {exc}") from exc


def canonical_chunks(doc: Any) -> Iterator[str]:
    """:func:`canonical_json` of *doc*, rendered in bounded pieces.

    A top-level dict is rendered field by field and a long list — the
    document itself or a field's value — in batches of items, so a
    multi-megabyte artifact never exists as one string.  The pieces join
    to exactly ``canonical_json(doc)``.
    """
    if isinstance(doc, dict) and all(isinstance(key, str) for key in doc):
        yield "{"
        for index, (key, value) in enumerate(doc.items()):
            yield ("," if index else "") + canonical_json(key) + ":"
            yield from _list_chunks(value)
        yield "}"
    else:
        yield from _list_chunks(doc)


def _list_chunks(value: Any) -> Iterator[str]:
    if not isinstance(value, (list, tuple)) or len(value) <= _CHUNK_ITEMS:
        yield canonical_json(value)
        return
    yield "["
    for start in range(0, len(value), _CHUNK_ITEMS):
        batch = canonical_json(value[start:start + _CHUNK_ITEMS])[1:-1]
        yield ("," if start else "") + batch
    yield "]"


def digest_bytes(data: bytes) -> str:
    """SHA-256 hex digest of raw bytes (the store's content address)."""
    return hashlib.sha256(data).hexdigest()


def digest_doc(doc: Any) -> str:
    """SHA-256 hex digest of the canonical JSON rendering of *doc*."""
    return digest_bytes(canonical_json(doc).encode("utf-8"))
