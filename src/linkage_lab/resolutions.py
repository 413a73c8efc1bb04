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
minimal presentation.  The caps it runs under (`config.MAX_DEGREE` on
every Groebner run, `config.MAX_RANK` on every F_i) are constants, so
no key names them in process.  Extending the state appends maps and
replaces the candidates of its last step.  With a store installed,
results also persist in a content-addressed cache keyed by the minimal
presentation (which includes the ring), the two caps and the step, so a
store written under other caps is never read:

- the map entry of step i >= 2 holds the twists of F_i, a table of the
  distinct monomials of d_i (exponent lists), a table of its distinct
  coefficients [numerator, denominator], and the columns of d_i, each a
  list of terms [row, monomial index, coefficient index]; a load builds
  the polynomials directly, with the field's own coefficient type, and
  never parses text;
- the completion entry holds the number of maps of a resolution that
  ended.

No entry depends on the length asked for, so a scan writes each step
once and a shorter request is a pure load.  A loaded entry is checked,
not trusted: its shape, that every number is an int, each monomial and
coefficient of its tables once (n exponents, none negative; a nonzero
element of the field), and that every term is homogeneous of degree
twist(F_i)[column] - twist(F_{i-1})[row] against the twists loaded
before it, with no row or monomial repeated.  A corrupt, malformed or
inhomogeneous entry is a miss: a warning names it on stderr, it is
discarded, and the step is recomputed and written again.

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
A state built to length at least L, under the same caps, has passed
those same steps, each run tracked or plain, with the same rank checks;
and a plain minimal run never forms a higher pair degree than the
tracked run over the same candidates (see groebner), so the plain run
of step L stays within the degree cap its tracked run met.
"""

from __future__ import annotations

import sys

from . import config, memo
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


# the tag of each kind of entry in its key; a map's names its layout,
# so an entry written in an older layout is never read
_TAGS = {"map": "resolution-map-dict", "complete": "resolution-complete"}


def _key(kind: str, Mmin: ModulePresentation, step: int = 0) -> str:
    """The store key of an entry of the resolution of the minimal
    presentation `Mmin` under the caps: named by the presentation's
    content key, which is the same in every process and is derived only
    here, so a run with no store attached never prints a presentation."""
    return memo.content_hash(_TAGS[kind], Mmin.content_key(),
                             repr((config.MAX_DEGREE, config.MAX_RANK)),
                             str(step))


def _entry(columns, degrees) -> dict:
    """Columns with their degrees, dictionary-coded in integers: a table
    of the distinct monomials, a table of the distinct coefficients as
    [numerator, denominator], and each column as its terms [row,
    monomial index, coefficient index], row by row, each polynomial's
    terms in their order."""
    monos, coeffs = {}, {}
    columns = [[[row, monos.setdefault(mono, len(monos)),
                 coeffs.setdefault(c, len(coeffs))]
                for row, p in col.items() for mono, c in p.terms.items()]
               for col in columns]
    return {
        "twists": list(degrees),
        "monomials": list(monos),
        "coefficients": [[c.numerator, c.denominator] for c in coeffs],
        "columns": columns,
    }


def _decoded(ring, entry, lower):
    """(degrees, columns) of an entry whose columns live in the free
    module with twists `lower`.  Raises ValueError, TypeError, KeyError
    or ZeroDivisionError on any flaw: a shape other than _entry's, a
    number that is not an int, a monomial of another length or with a
    negative exponent, a coefficient that is zero or not in the field,
    an index outside its table, a term whose monomial's degree is not
    the column's twist minus the row's, a repeated monomial or row.
    Each table item is checked once; a term costs its index checks and
    one comparison of degrees."""
    S = ring.poly_ring
    n, read, ctype = S.nvars, S.field.from_fraction, type(S.field.zero())
    degrees, monos, coeffs, cols = (entry["twists"], entry["monomials"],
                                    entry["coefficients"], entry["columns"])
    if type(degrees) is not list or type(monos) is not list \
            or type(coeffs) is not list or type(cols) is not list \
            or len(degrees) != len(cols):
        raise ValueError("the tables or twists and columns do not match")
    table, mono_degrees = [], []
    for exps in monos:
        if type(exps) is not list or len(exps) != n \
                or any(type(e) is not int or e < 0 for e in exps):
            raise ValueError(f"monomial {exps!r}")
        table.append(tuple(exps))
        mono_degrees.append(sum(exps))
    values = []
    for num, den in coeffs:
        c = read(num, den) if type(num) is int and type(den) is int else None
        if not c or type(c) is not ctype:
            raise ValueError(f"coefficient {num!r}/{den!r}")
        values.append(c)
    n_monos, n_coeffs, n_rows = len(table), len(values), len(lower)
    out = []
    for degree, col in zip(degrees, cols):
        if type(degree) is not int or not col:
            raise ValueError("a twist is not an integer or a column is empty")
        column, row = {}, None
        for r, m, c in col:
            if type(r) is not int or type(m) is not int or type(c) is not int \
                    or not 0 <= m < n_monos or not 0 <= c < n_coeffs:
                raise ValueError(f"term {[r, m, c]!r}")
            if r != row:
                if not 0 <= r < n_rows or r in column:
                    raise ValueError(f"bad or repeated row {r!r}")
                row, want, terms = r, degree - lower[r], {}
                column[r] = Poly(S, terms)
            mono = table[m]
            if mono_degrees[m] != want or mono in terms:
                raise ValueError(f"a repeated monomial, or one of degree "
                                 f"{mono_degrees[m]} where the twists give "
                                 f"{want}")
            terms[mono] = values[c]
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


def _load_maps(Mmin: ModulePresentation, state, length: int) -> None:
    """Append the stored maps of the resolution of `Mmin` that follow the
    state's, up to `length`; the state is complete when the store says it
    ends where they do."""
    maps, twists = state["maps"], state["twists"]
    while len(maps) < length:
        step = len(maps) + 1
        got = _loaded(_key("map", Mmin, step), f"d_{step}",
                      lambda entry: _decoded(Mmin.ring, entry, twists[-1]))
        if got is None:
            if _loaded(_key("complete", Mmin), "completion",
                       _completion) == len(maps):
                state["complete"] = True
            return
        twists.append(got[0])
        maps.append(got[1])
        state["candidates"] = None


def _harvest(ring, state) -> list:
    """The candidates of the step after the state's last one: the
    syzygies of d_1, or the harvest of the last step re-run tracked."""
    maps, twists, candidates = state["maps"], state["twists"], state["candidates"]
    if candidates is None:  # the last map is d_1
        return column_syzygies(ring, maps[-1], twists[-2])
    kept, following = minimal_step(ring, candidates, twists[-2], harvest=True)
    if [candidates[j] for j in kept] != maps[-1]:
        raise ConsistencyError(
            "a resolution step kept other columns on its re-run")
    return following


def _start(Mmin: ModulePresentation) -> dict:
    """The state of a resolution before its first extension: d_1."""
    if Mmin.n_rels() == 0:
        return {"twists": [Mmin.gen_twists], "maps": [], "complete": True,
                "candidates": None}
    return {"twists": [Mmin.gen_twists, Mmin.rel_twists],
            "maps": [list(Mmin.columns)], "complete": False,
            "candidates": None}


def _is_stored(Mmin: ModulePresentation, stored: dict, step: int, rebuilt,
               length: int) -> bool:
    """Whether the rebuilt d_step (None when the resolution ends before
    it) is the stored map of that step.  On the first mismatch a warning
    names the entry, and it and the entries of every later step up to
    `length` are discarded, so the rebuild writes them again."""
    if step not in stored:
        return False
    if stored.pop(step) == rebuilt:
        return True
    name = _key("map", Mmin, step)
    print(f"warning: discarding cache entry {name} (d_{step}): the rebuild "
          f"from d_1 computes another map", file=sys.stderr)
    stored.clear()
    if _STORE is not None:
        for later in range(step, length + 1):
            _STORE.discard(_key("map", Mmin, later))
    return False


def _extend(Mmin: ModulePresentation, state, length: int) -> None:
    """Compute the steps of the state of `Mmin` up to `length` maps, or
    to completion, under the caps, and file them in the store.

    A state whose last maps came from the store is first cut back to d_1
    and rebuilt, each step checked against its stored map."""
    maps, twists = state["maps"], state["twists"]
    if state["complete"] or len(maps) >= length:
        return
    stored = {}
    if len(maps) > 1 and state["candidates"] is None:
        stored = {step: maps[step - 1] for step in range(2, len(maps) + 1)}
        del maps[1:], twists[2:]
    ring = Mmin.ring
    candidates = _harvest(ring, state)
    while len(maps) < length:
        step = len(maps) + 1
        if not candidates:
            _is_stored(Mmin, stored, step, None, length)
            state["complete"] = True
            if _STORE is not None:
                _STORE.save(_key("complete", Mmin), {"maps": len(maps)})
            return
        kept, following = minimal_step(ring, candidates, twists[-1],
                                       harvest=step < length)
        if len(kept) > config.MAX_RANK:
            raise BudgetError("resolution rank", config.MAX_RANK)
        new_cols = [candidates[j] for j in kept]
        maps.append(new_cols)
        state["candidates"] = candidates
        twists.append(tuple(column_degree(c, twists[-1]) for c in new_cols))
        if not _is_stored(Mmin, stored, step, new_cols, length) \
                and _STORE is not None:
            _STORE.save(_key("map", Mmin, step), _entry(new_cols, twists[-1]))
        candidates = following


def minimal_free_resolution(M: ModulePresentation, length: int) -> Resolution:
    """Resolution with at least `length` maps, or complete with fewer."""
    Mmin = minimalize(M)
    # the one memo entry that grows in place: see the module docstring
    state = memo.cached("resolution", _start, Mmin)
    if _STORE is not None and not state["complete"] and len(state["maps"]) < length:
        _load_maps(Mmin, state, length)
    _extend(Mmin, state, length)
    return Resolution(Mmin, state["twists"], state["maps"], state["complete"])


def betti(M: ModulePresentation, i: int) -> dict:
    """Graded Betti numbers beta_{i,j} as {j: count}."""
    res = minimal_free_resolution(M, i)
    return res.betti_row(i)
