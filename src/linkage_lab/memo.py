"""Process-level memo table for derived data.

Append-only and content-addressed: keys are (operation, content-key)
pairs where the content key is a canonical serialization hash of the
mathematical inputs.  Storing the same key twice must store equal
values, so hits are indistinguishable from recomputation.
"""

from __future__ import annotations

import hashlib

_TABLE: dict = {}


def content_hash(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\x00")
    return h.hexdigest()


def get(op: str, key: str):
    return _TABLE.get((op, key))


def put(op: str, key: str, value):
    _TABLE.setdefault((op, key), value)
    return _TABLE[(op, key)]


def clear():
    _TABLE.clear()

