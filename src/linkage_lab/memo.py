"""Process-level memo table for derived data.

Every memoized computation goes through `cached(op, compute, *args)`,
and the arguments are the key: the value is stored under (op, args), and
`compute` is a module-level function whose parameters are the whole key.
So a key covers every input the computation reads, by construction (the
dead-name test sees a key part that is never read), and a hit is
indistinguishable from recomputation.  The two caps of `config` are the
exception: they are constants and in no key, so a caller that changes
them, a test say, empties the table first; so does a test that rebinds a
function a computation calls, and again when it restores it.  Keys are
hashable and compare by structure, so a hit costs one dict lookup:
presentations by ring, twists and entries (their hash computed once and
kept), rings by `key()`, polynomials by ring and terms, a list of
columns as a tuple of per-column (row, entry) items in the column's own
order, ints, strings, bools, and tuples of these (an ideal as a tuple of
its generators).  No key prints a presentation: its content key is derived only where a name
must be the same in every process (the resolution store's file names
and the isomorphism search's random combinations).

Entries are never replaced, but two kinds change in place.  The state of
a resolution (op "resolution", keyed by the minimal presentation) is a
cursor: extending it appends maps and replaces the candidates of its
last step, and a state loaded from the disk store is first rebuilt from
d_1.  A Groebner basis (op "span-gb")
finishes its tail reduction in place on the first read of tails or
representations, as it already re-encodes its terms in place when a
query needs wider keys; either way it answers every query as before.
`clear()` empties every cache in the package.
"""

from __future__ import annotations

_TABLE: dict = {}


def content_hash(*parts: str) -> str:
    # Only process-stable names hash content, so a run with no store and
    # no isomorphism search never loads hashlib.
    import hashlib

    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\x00")
    return h.hexdigest()


def get(op: str, key):
    return _TABLE.get((op, key))


def cached(op: str, compute, *args):
    """The value stored under (op, args), else compute(*args), stored.

    Looks up through the module-level `get`, so a wrapper bound there
    sees every lookup.
    """
    hit = get(op, args)
    if hit is not None:
        return hit
    return _TABLE.setdefault((op, args), compute(*args))


def clear():
    _TABLE.clear()
