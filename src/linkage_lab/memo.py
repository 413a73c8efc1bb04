"""Process-level memo table for derived data.

Every memoized computation goes through `cached`.  The key rule: a key
covers every input the computation reads, budgets included, so a value
depends on its key alone and a hit is indistinguishable from
recomputation.  Keys are content hashes of the inputs; the Hilbert
numerator recursion and the resolution cursor key by their hashable
inputs themselves.

Entries are never replaced, but two kinds change in place.  The state of
a resolution (op "resolution", keyed by the minimal presentation and the
budgets) is a cursor: extending it appends maps and replaces the
candidates of its last step, and a state loaded from the disk store is
first rebuilt from d_1.  A Groebner basis (op "span-gb")
finishes its tail reduction in place on the first read of tails or
representations, as it already re-encodes its terms in place when a
query needs wider keys; either way it answers every query as before.
`clear()` empties every cache in the package.
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


def get(op: str, key):
    return _TABLE.get((op, key))


def cached(op: str, key, compute, *args):
    """The value stored under (op, key), else compute(*args), stored.

    Looks up through the module-level `get`, so a wrapper bound there
    sees every lookup.
    """
    hit = get(op, key)
    if hit is not None:
        return hit
    return _TABLE.setdefault((op, key), compute(*args))


def clear():
    _TABLE.clear()
