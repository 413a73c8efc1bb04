"""Minimal graded free resolutions.

F_0 <- F_1 <- ... built step by step: d_1 is the minimalized
presentation, d_{i+1} a minimal generating set of the syzygies of the
columns of d_i.  Over the ambient polynomial ring this terminates within
n steps; over a proper quotient it usually does not, so construction is
lazy up to a requested length and records completion when a syzygy step
comes back empty (then pd = number of maps and the last syzygy module is
free).

One Groebner run per step.  The syzygies of d_1 come from
column_syzygies; they are the candidates of step 2.  Step i >= 2 is one
minimal run (modules.minimal_step) over its candidates: the kept ones
are the columns of d_i, and, when a further step is wanted, the same run
is tracked and harvests the syzygies of d_i, the candidates of step
i + 1.  The last requested step runs plain, and the state keeps its
candidates; a later extension re-runs that step tracked, checks that it
keeps the same columns, and harvests.  Tracked or plain, a run keeps the
same columns, and a harvest depends on the run's candidates alone, so
every map is a function of the module: neither the lengths asked for
before nor a disk-store load changes it.

In process, a resolution's state is the one memo entry that grows in
place, a cursor keyed, like every memo entry, by all it reads: the
minimal presentation and the budgets.  Extending it appends maps and
replaces the candidates of its last step.  With a store installed,
results also persist in a content-addressed cache keyed by the minimal
presentation (which includes the ring), the budgets and the step, so a
store is per budget:

- the map entry of step i >= 2 holds the twists of F_i and the columns
  of d_i; each polynomial entry is a list of terms [exponents,
  numerator, denominator], so a load builds the polynomials directly,
  with the field's own coefficient type, and never parses text;
- the completion entry holds the number of maps of a resolution that
  ended.

No entry depends on the length asked for, so a scan writes each step
once and a shorter request is a pure load.  A loaded entry is checked,
not trusted: its shape, and that every entry of every column is
homogeneous of degree twist(F_i)[column] - twist(F_{i-1})[row] against
the twists loaded before it.  A corrupt, malformed or inhomogeneous
entry is a miss: a warning names it on stderr, it is discarded, and the
step is recomputed and written again.

The store holds no candidates, so a state whose last maps came from it
(more than one map and no candidates) is extended by rebuilding it from
d_1 in memory, every step tracked.  Each rebuilt map is compared with
the stored one; on the first that differs, a warning names its entry,
and it and every later entry are discarded and written again, so a
stored map that is well formed but wrong does not outlive the
extension.  Entries written in an older layout sit under other keys and
are never read.

A resolution served by the memo or the store raises the BudgetError a
cold one would, and no check is replayed.  A cold computation of length
L runs the harvest of step 1, the tracked runs of steps 2 ... L-1 and
the plain run of step L, checking the rank of each F_i after its run.
A state built under the same budgets to length at least L has passed
those same steps, each run tracked or plain, with the same rank checks;
and a plain minimal run never forms a higher pair degree than the
tracked run over the same candidates (see groebner), so the plain run
of step L stays within any degree budget its tracked run met.
"""

from __future__ import annotations

import sys

from . import memo
from .config import DEFAULT_BUDGETS
from .errors import BudgetError, ConsistencyError
from .groebner import column_degree
from .modules import (
    ModulePresentation,
    column_syzygies,
    free_module,
    minimal_step,
    minimalize,
    zero_module,
)
from .polynomials import Poly

_STORE = None


def set_resolution_store(store):
    """Install a persistent cache with .load(key) / .save(key, record)."""
    global _STORE
    _STORE = store


def _index(i: int) -> int:
    if i < 0:
        raise ValueError(f"resolution index {i} is negative")
    return i


class Resolution:
    """twists[i] are the degrees of F_i; maps[i] is d_{i+1} (columns in F_i).

    Every accessor taking an index i raises ValueError for i < 0."""

    def __init__(self, module: ModulePresentation, twists, maps, complete: bool):
        self.module = module
        self.ring = module.ring
        self.twists = [tuple(t) for t in twists]
        # snapshot: the backing memo state may be extended by later calls
        self.maps = [list(cols) for cols in maps]
        self.complete = complete

    def length(self) -> int:
        return len(self.maps)

    def projective_dimension(self):
        """Exact pd when complete, else None."""
        if not self.complete:
            return None
        pd = len(self.maps)
        while pd > 0 and not self.twists[pd]:
            pd -= 1
        return pd

    def rank(self, i: int) -> int:
        if _index(i) < len(self.twists):
            return len(self.twists[i])
        return 0

    def twists_at(self, i: int):
        if _index(i) < len(self.twists):
            return self.twists[i]
        if self.complete:
            return ()
        raise ValueError(f"resolution only computed to length {self.length()}")

    def betti_row(self, i: int) -> dict:
        out: dict = {}
        for d in self.twists_at(i):
            out[d] = out.get(d, 0) + 1
        return out

    def syzygy_module(self, i: int) -> ModulePresentation:
        """The i-th syzygy as a presentation (gens F_i, relations d_{i+1})."""
        if _index(i) == 0:
            return minimalize(self.module)
        if i < len(self.maps):
            return ModulePresentation(
                self.ring, self.twists[i], self.twists[i + 1], list(self.maps[i])
            )
        if self.complete:
            if i == len(self.maps) and i < len(self.twists):
                return free_module(self.ring, self.twists[i])
            return zero_module(self.ring)
        raise ValueError(f"resolution only computed to length {self.length()}")


def _key(kind: str, key, step: int = 0) -> str:
    """The store key of an entry of the resolution filed under `key`,
    (minimal presentation, budgets): named by the presentation's content
    key, which is the same in every process and is derived only here, so
    a run with no store attached never prints a presentation."""
    Mmin, budgets = key
    return memo.content_hash("resolution-" + kind, Mmin.content_key(),
                             repr(budgets), str(step))


def _entry(columns, degrees) -> dict:
    """Columns with their degrees, in integer terms."""
    return {
        "twists": list(degrees),
        "columns": [[[row, [[mono, c.numerator, c.denominator]
                            for mono, c in p.terms.items()]]
                     for row, p in col.items()] for col in columns],
    }


def _decoded(ring, entry, lower):
    """(degrees, columns) of an entry whose columns live in the free
    module with twists `lower`.  Raises ValueError, TypeError, KeyError
    or ZeroDivisionError on any flaw: a shape other than _entry's, a
    non-integer, an entry not homogeneous of the column's degree minus
    the row's twist, a zero coefficient, a repeated monomial or row."""
    S = ring.poly_ring
    n, read, ctype = S.nvars, S.field.from_fraction, type(S.field.zero())
    degrees, cols = entry["twists"], entry["columns"]
    if type(degrees) is not list or type(cols) is not list \
            or len(degrees) != len(cols):
        raise ValueError("twists and columns do not match")
    out = []
    for degree, col in zip(degrees, cols):
        if type(degree) is not int or not col:
            raise ValueError("a twist is not an integer or a column is empty")
        column = {}
        for row, terms in col:
            if type(row) is not int or not 0 <= row < len(lower) or not terms:
                raise ValueError(f"bad row {row!r}")
            want = degree - lower[row]
            poly = {}
            for exps, num, den in terms:
                mono = tuple(exps)
                d = sum(mono)
                if d != want or type(d) is not int or len(mono) != n \
                        or min(mono) < 0:
                    raise ValueError(f"a term of degree {d!r} where the "
                                     f"twists give {want}")
                c = read(num, den)
                if not c or type(c) is not ctype:
                    raise ValueError(f"coefficient {num!r}/{den!r}")
                poly[mono] = c
            if len(poly) != len(terms):
                raise ValueError("a repeated monomial")
            column[row] = Poly(S, poly)
        if len(column) != len(col):
            raise ValueError("a repeated row")
        out.append(column)
    return tuple(degrees), out


def _completion(entry) -> int:
    """The number of maps of a completion entry."""
    if type(entry["maps"]) is not int:
        raise ValueError(f"maps {entry['maps']!r} is not an integer")
    return entry["maps"]


def _loaded(key: str, what: str, decode):
    """decode(entry) for the entry under `key`, or None when it is
    missing or flawed; a flawed one is named in a warning and discarded,
    so the recomputation writes it again."""
    entry = _STORE.load(key) if _STORE is not None else None
    if entry is None:
        return None
    try:
        return decode(entry)
    except (ValueError, TypeError, KeyError, ZeroDivisionError) as e:
        print(f"warning: discarding invalid cache entry {key} ({what}): {e}",
              file=sys.stderr)
        _STORE.discard(key)
        return None


def _load_maps(ring, key, state, length: int) -> None:
    """Append the stored maps that follow the state's, up to `length`;
    the state is complete when the store says it ends where they do."""
    maps, twists = state["maps"], state["twists"]
    while len(maps) < length:
        step = len(maps) + 1
        got = _loaded(_key("map", key, step), f"d_{step}",
                      lambda entry: _decoded(ring, entry, twists[-1]))
        if got is None:
            if _loaded(_key("complete", key), "completion",
                       _completion) == len(maps):
                state["complete"] = True
            return
        twists.append(got[0])
        maps.append(got[1])
        state["candidates"] = None


def _harvest(ring, state, budgets) -> list:
    """The candidates of the step after the state's last one: the
    syzygies of d_1, or the harvest of the last step re-run tracked."""
    maps, twists, candidates = state["maps"], state["twists"], state["candidates"]
    if candidates is None:  # the last map is d_1
        return column_syzygies(ring, maps[-1], twists[-2],
                               max_degree=budgets.max_degree)
    kept, following = minimal_step(ring, candidates, twists[-2], harvest=True,
                                   max_degree=budgets.max_degree)
    if [candidates[j] for j in kept] != maps[-1]:
        raise ConsistencyError(
            "a resolution step kept other columns on its re-run")
    return following


def _start(Mmin: ModulePresentation, budgets) -> dict:
    """The state of a resolution before its first extension: d_1."""
    if Mmin.n_rels() == 0:
        return {"twists": [Mmin.gen_twists], "maps": [], "complete": True,
                "candidates": None, "budgets": budgets}
    return {"twists": [Mmin.gen_twists, Mmin.rel_twists],
            "maps": [list(Mmin.columns)], "complete": False,
            "candidates": None, "budgets": budgets}


def _is_stored(key, stored: dict, step: int, rebuilt, length: int) -> bool:
    """Whether the rebuilt d_step (None when the resolution ends before
    it) is the stored map of that step.  On the first mismatch a warning
    names the entry, and it and the entries of every later step up to
    `length` are discarded, so the rebuild writes them again."""
    if step not in stored:
        return False
    if stored.pop(step) == rebuilt:
        return True
    name = _key("map", key, step)
    print(f"warning: discarding cache entry {name} (d_{step}): the rebuild "
          f"from d_1 computes another map", file=sys.stderr)
    stored.clear()
    if _STORE is not None:
        for later in range(step, length + 1):
            _STORE.discard(_key("map", key, later))
    return False


def _extend(ring, key, state, length: int) -> None:
    """Compute the state's steps up to `length` maps, or to completion,
    under its budgets; `key` files them in the store.

    A state whose last maps came from the store is first cut back to d_1
    and rebuilt, each step checked against its stored map."""
    maps, twists = state["maps"], state["twists"]
    if state["complete"] or len(maps) >= length:
        return
    budgets = state["budgets"]
    stored = {}
    if len(maps) > 1 and state["candidates"] is None:
        stored = {step: maps[step - 1] for step in range(2, len(maps) + 1)}
        del maps[1:], twists[2:]
    candidates = _harvest(ring, state, budgets)
    while len(maps) < length:
        step = len(maps) + 1
        if not candidates:
            _is_stored(key, stored, step, None, length)
            state["complete"] = True
            if _STORE is not None:
                _STORE.save(_key("complete", key), {"maps": len(maps)})
            return
        kept, following = minimal_step(
            ring, candidates, twists[-1], harvest=step < length,
            max_degree=budgets.max_degree,
        )
        if len(kept) > budgets.max_rank:
            raise BudgetError("resolution rank", budgets.max_rank)
        new_cols = [candidates[j] for j in kept]
        maps.append(new_cols)
        state["candidates"] = candidates
        twists.append(tuple(column_degree(c, twists[-1]) for c in new_cols))
        if not _is_stored(key, stored, step, new_cols, length) \
                and _STORE is not None:
            _STORE.save(_key("map", key, step), _entry(new_cols, twists[-1]))
        candidates = following


def minimal_free_resolution(M: ModulePresentation, length: int, *,
                            budgets=None) -> Resolution:
    """Resolution with at least `length` maps, or complete with fewer."""
    budgets = budgets or DEFAULT_BUDGETS
    Mmin = minimalize(M)
    ring = Mmin.ring
    # the one memo entry that grows in place: see the module docstring
    state = memo.cached("resolution", _start, Mmin, budgets)
    key = (Mmin, budgets)
    if _STORE is not None and not state["complete"] and len(state["maps"]) < length:
        _load_maps(ring, key, state, length)
    _extend(ring, key, state, length)
    return Resolution(Mmin, state["twists"], state["maps"], state["complete"])


def betti(M: ModulePresentation, i: int) -> dict:
    """Graded Betti numbers beta_{i,j} as {j: count}."""
    res = minimal_free_resolution(M, i)
    return res.betti_row(i)
