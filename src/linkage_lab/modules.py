"""Finitely generated graded modules, presented by matrices over R = S/I.

A ModulePresentation is coker(F_1 -> F_0) with twisted free modules
F_0 = sum R(-gen_twists[i]) and F_1 = sum R(-rel_twists[j]); columns map
relations to combinations of generators, and every nonzero entry (i, j)
must be homogeneous of degree rel_twists[j] - gen_twists[i].

All heavy lifting happens in the ambient polynomial ring: membership,
syzygies and normal forms work modulo I*F, the span of f*e_i for f in
the reduced basis of I.  Every kernel run gets the ring as its
`quotient` and admits I*F itself, after any further columns a caller only
quotients by, which enter as fixed columns: syzygies and lifts over R
are computed over the caller's columns alone, as the projections of the
ambient ones of all the inputs.
"""

from __future__ import annotations

from . import config, memo
from .errors import ConsistencyError, HomogeneityError, InapplicableError
from .groebner import ModuleGB, column_degree
from .hilbert import HilbertSeries, monomial_quotient_numerator
from .rings import GradedRing


class ModulePresentation:
    """Equal presentations have the same ring, twists and entries; zero
    entries are dropped on construction, so an explicit zero is an
    absent one.  The hash is computed on first use and kept."""

    __slots__ = ("ring", "gen_twists", "rel_twists", "columns", "_key",
                 "_hash")

    def __init__(self, ring: GradedRing, gen_twists, rel_twists, columns):
        self.ring = ring
        self.gen_twists = tuple(gen_twists)
        self.rel_twists = tuple(rel_twists)
        cols = []
        if len(columns) != len(self.rel_twists):
            raise ValueError("column count disagrees with rel_twists")
        for j, col in enumerate(columns):
            clean = {}
            for i, p in col.items():
                if p.is_zero():
                    continue
                if not (0 <= i < len(self.gen_twists)):
                    raise ValueError(f"row {i} out of range in column {j}")
                if not p.is_homogeneous():
                    raise HomogeneityError(
                        f"entry ({i},{j}) = {p} is not homogeneous"
                    )
                want = self.rel_twists[j] - self.gen_twists[i]
                if p.degree() != want:
                    raise HomogeneityError(
                        f"entry ({i},{j}) = {p} has degree {p.degree()}, expected {want}"
                    )
                clean[i] = p
            cols.append(clean)
        self.columns = tuple(cols)
        self._key = None
        self._hash = None

    # identity ---------------------------------------------------------

    def serialize(self) -> str:
        parts = [self.ring.key(), repr(list(self.gen_twists)), repr(list(self.rel_twists))]
        for col in self.columns:
            parts.append(";".join(f"{i}:{col[i]}" for i in sorted(col)))
        return "\n".join(parts)

    def content_key(self) -> str:
        """A name for the presentation that is the same in every process
        (it names store entries and draws the isomorphism search's
        random combinations)."""
        if self._key is None:
            self._key = memo.content_hash(self.serialize())
        return self._key

    def __eq__(self, other):
        return (isinstance(other, ModulePresentation)
                and other.gen_twists == self.gen_twists
                and other.rel_twists == self.rel_twists
                and other.ring == self.ring
                and other.columns == self.columns)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.gen_twists, self.rel_twists,
                               tuple(frozenset(c.items())
                                     for c in self.columns)))
        return self._hash

    def __repr__(self):
        return (
            f"ModulePresentation({self.ring}, gens={list(self.gen_twists)}, "
            f"rels={list(self.rel_twists)})"
        )

    # basic data ---------------------------------------------------------

    def n_gens(self) -> int:
        return len(self.gen_twists)

    def n_rels(self) -> int:
        return len(self.rel_twists)

    def hilbert_series(self) -> HilbertSeries:
        return memo.cached("hs", _hilbert_series, self)

    def is_zero(self) -> bool:
        if not self.gen_twists:
            return True
        return self.hilbert_series().is_zero()

    def over_ambient(self) -> "ModulePresentation":
        """The same module viewed over the ambient polynomial ring."""
        amb = self.ring.ambient()
        if amb is self.ring:
            return self
        cols = list(self.columns)
        rel_twists = list(self.rel_twists)
        for c in self.ring.aug_columns(self.gen_twists):
            (i, f), = c.items()
            cols.append(c)
            rel_twists.append(self.gen_twists[i] + f.degree())
        return ModulePresentation(amb, self.gen_twists, rel_twists, cols)


# -- constructors ---------------------------------------------------------


def free_module(ring: GradedRing, twists) -> ModulePresentation:
    return ModulePresentation(ring, twists, [], [])


def zero_module(ring: GradedRing) -> ModulePresentation:
    return ModulePresentation(ring, [], [], [])


def cyclic_module(ring: GradedRing, ideal_gens) -> ModulePresentation:
    """R/(ideal_gens), generators parsed if given as strings."""
    polys = []
    for p in ideal_gens:
        if isinstance(p, str):
            p = ring.poly_ring.parse(p)
        if p.is_zero():
            continue
        polys.append(p)
    for p in polys:
        if not p.is_homogeneous():
            raise HomogeneityError(f"ideal generator {p} is not homogeneous")
    return ModulePresentation(
        ring, [0], [p.degree() for p in polys], [{0: p} for p in polys]
    )


def from_matrix(ring: GradedRing, gen_twists, rows) -> ModulePresentation:
    """Presentation from a dense row-major matrix; relation degrees inferred."""
    parsed = [
        [ring.poly_ring.parse(e) if isinstance(e, str) else e for e in row]
        for row in rows
    ]
    if len(parsed) != len(gen_twists):
        raise ValueError("row count disagrees with gen_twists")
    ncols = max((len(r) for r in parsed), default=0)
    rel_twists = []
    columns = []
    for j in range(ncols):
        deg = None
        col = {}
        for i, row in enumerate(parsed):
            if j < len(row) and not row[j].is_zero():
                p = row[j]
                if not p.is_homogeneous():
                    raise HomogeneityError(f"entry ({i},{j}) = {p} is not homogeneous")
                d = p.degree() + gen_twists[i]
                if deg is None:
                    deg = d
                elif deg != d:
                    raise HomogeneityError(
                        f"column {j} mixes relation degrees {deg} and {d}"
                    )
                col[i] = p
        if deg is None:
            raise ValueError(f"column {j} is zero; relation degree cannot be inferred")
        rel_twists.append(deg)
        columns.append(col)
    return ModulePresentation(ring, gen_twists, rel_twists, columns)


def twist_module(M: ModulePresentation, a: int) -> ModulePresentation:
    """M(a): generator degrees drop by a, series scales by t^(-a)."""
    return ModulePresentation(
        M.ring,
        [g - a for g in M.gen_twists],
        [r - a for r in M.rel_twists],
        list(M.columns),
    )


def direct_sum(M: ModulePresentation, N: ModulePresentation) -> ModulePresentation:
    if M.ring != N.ring:
        raise ValueError("direct sum over different rings")
    p = M.n_gens()
    cols = [dict(c) for c in M.columns]
    cols += [{i + p: q for i, q in c.items()} for c in N.columns]
    return ModulePresentation(
        M.ring,
        list(M.gen_twists) + list(N.gen_twists),
        list(M.rel_twists) + list(N.rel_twists),
        cols,
    )


# -- span machinery ---------------------------------------------------------


def span_gb(ring: GradedRing, columns, ambient_twists) -> ModuleGB:
    """Groebner basis of span(columns) + I*F, memoized."""
    return memo.cached("span-gb", _span_gb, ring, _items(columns),
                       tuple(ambient_twists))


def _items(columns) -> tuple:
    """Columns as a memo key: each one's (row, entry) items, in its order."""
    return tuple(tuple(col.items()) for col in columns)


def _span_gb(ring, columns, ambient_twists):
    return ModuleGB(
        ring.poly_ring, [dict(c) for c in columns], ambient_twists,
        quotient=ring, max_degree=config.MAX_DEGREE,
    )


def _hilbert_series(M: ModulePresentation) -> HilbertSeries:
    return quotient_series(M.ring, M.columns, M.gen_twists)


def quotient_series(ring: GradedRing, columns,
                    ambient_twists) -> HilbertSeries:
    """Hilbert series of F / (span(columns) + I*F)."""
    gb = span_gb(ring, columns, ambient_twists)
    return _lead_series(ring, gb, ambient_twists)


def cokernel_series(ring: GradedRing, columns,
                    ambient_twists) -> HilbertSeries:
    """`quotient_series` by one plain run kept out of the memo, for a
    caller that needs the series alone and never queries the basis."""
    gb = ModuleGB(ring.poly_ring, list(columns), ambient_twists,
                  quotient=ring, max_degree=config.MAX_DEGREE)
    return _lead_series(ring, gb, ambient_twists)


def _lead_series(ring: GradedRing, gb: ModuleGB,
                 ambient_twists) -> HilbertSeries:
    """Hilbert series of F / span(gb) from the leading terms of the basis."""
    per_pos: dict = {}
    for pos, mono in gb.leading_terms():
        per_pos.setdefault(pos, []).append(mono)
    n = ring.nvars
    out = HilbertSeries.zero(n)
    for pos, a in enumerate(ambient_twists):
        num = monomial_quotient_numerator(n, per_pos.get(pos, []))
        out = out + HilbertSeries(n, num).shift(a)
    return out


def lift_over_columns(ring: GradedRing, targets, columns,
                      ambient_twists) -> list:
    """Per target, coefficients over columns (mod I) with target - sum
    coeffs*columns in I*F, or None: every target lifts from one tracked
    run, kept out of the memo."""
    gb = ModuleGB(ring.poly_ring, list(columns), ambient_twists, track=True,
                  quotient=ring, max_degree=config.MAX_DEGREE)
    lifts = [gb.lift(col) for col in targets]
    return [None if c is None else _reduced_entries(ring, c) for c in lifts]


def _reduced_entries(ring: GradedRing, col: dict) -> dict:
    """col with its entries reduced mod I, zero entries dropped."""
    out = {}
    for t, q in col.items():
        q = ring.nf(q)
        if not q.is_zero():
            out[t] = q
    return out


def column_syzygies(ring: GradedRing, columns, ambient_twists, *,
                    extra=(), through=None) -> list:
    """Generators of {h : sum_t h[t] * columns[t] in span(extra) + I*F}.

    These are the syzygies over R of the columns modulo span(extra): the
    kernel tracks `columns` only, with `extra` and I*F untracked.
    Entries are reduced mod I and zero generators dropped.
    Column degrees [column_degree(c)] are the twists of the ambient free
    module the result lives in.  When every column is zero, the result
    is the unit vectors.  With through=d only the generators of degree
    <= d are computed (a run limited to d, see `ModuleGB`), and the unit
    vectors of zero columns.
    """
    if not any(columns):
        one = ring.poly_ring.one()
        return [{t: one} for t in range(len(columns))]
    gb = ModuleGB(ring.poly_ring, list(columns), ambient_twists, track=True,
                  fixed=list(extra), quotient=ring,
                  max_degree=config.MAX_DEGREE, through=through)
    return _harvested(ring, gb)


def _harvested(ring: GradedRing, gb: ModuleGB) -> list:
    """The syzygies of a tracked run, entries reduced mod I, zeros dropped.

    A monomial I was reduced inside the run (`ModuleGB.syzygies_reduced`);
    an ideal with tails goes through `ring.nf`."""
    if gb.syzygies_reduced:
        return gb.syzygies
    syz = [_reduced_entries(ring, s) for s in gb.syzygies]
    return [s for s in syz if s]


def _minimal_gb(ring: GradedRing, columns, ambient_twists, *, track,
                extra=()) -> ModuleGB:
    """One minimal-admission run over `columns` with span(extra) + I*F
    fixed."""
    return ModuleGB(
        ring.poly_ring, list(columns), ambient_twists, track=track,
        fixed=list(extra), quotient=ring,
        max_degree=config.MAX_DEGREE, minimal=True,
    )


def mingens_columns(ring: GradedRing, columns, ambient_twists, *,
                    extra_lower=()) -> list:
    """Indices of a minimal generating subset of the column classes.

    Minimal generation of (span(columns) + U) / U with U = span(extra_lower)
    plus I*F: scanning in (degree, index) order, a column is kept iff it
    lies outside U + (the columns before it).  One plain minimal run.
    """
    return _minimal_gb(ring, columns, ambient_twists, track=False,
                       extra=extra_lower).kept


def minimal_step(ring: GradedRing, columns, ambient_twists, *, harvest):
    """(kept, syzygies): the indices mingens_columns keeps and, when
    `harvest` is set, generators over R of the syzygies of the kept
    columns modulo I*F, indexed by position in `kept` (else None).

    One minimal run, tracked only to harvest.  Entries are reduced mod I
    and zero generators dropped.
    """
    gb = _minimal_gb(ring, columns, ambient_twists, track=harvest)
    if not harvest:
        return gb.kept, None
    return gb.kept, _harvested(ring, gb)


def minimalize(M: ModulePresentation) -> ModulePresentation:
    """Minimal presentation: no degree-zero units, minimal relations.

    Unit entries are pruned by the Schur complement step, then surviving
    columns are cut to a minimal generating set of the relation module.
    """
    return memo.cached("minimalize", _minimalize, M)


def _minimalize(M: ModulePresentation) -> ModulePresentation:
    ring = M.ring
    field = ring.field
    cols = [_reduced_entries(ring, c) for c in M.columns]
    live_rows = list(range(M.n_gens()))
    live_cols = list(range(M.n_rels()))
    while True:
        pivot = None
        for j in live_cols:
            for i in sorted(cols[j]):
                if i in live_rows and cols[j][i].degree() == 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i, j = pivot
        c = cols[j][i].terms[(0,) * ring.nvars]
        inv = field.inv(c)
        for j2 in live_cols:
            if j2 == j:
                continue
            entry = cols[j2].get(i)
            if entry is None or entry.is_zero():
                continue
            factor = entry.scale(inv)
            newcol = dict(cols[j2])
            for r, q in cols[j].items():
                acc = newcol.get(r, ring.poly_ring.zero()) - factor * q
                acc = ring.nf(acc)
                if acc.is_zero():
                    newcol.pop(r, None)
                else:
                    newcol[r] = acc
            newcol.pop(i, None)
            cols[j2] = newcol
        live_rows.remove(i)
        live_cols.remove(j)
    row_map = {old: new for new, old in enumerate(live_rows)}
    gen_twists = [M.gen_twists[i] for i in live_rows]
    out_cols = []
    rel_twists = []
    for j in live_cols:
        col = {row_map[i]: p for i, p in cols[j].items() if i in row_map and not p.is_zero()}
        if col:
            out_cols.append(col)
            rel_twists.append(M.rel_twists[j])
    kept = mingens_columns(ring, out_cols, gen_twists)
    return ModulePresentation(
        ring, gen_twists, [rel_twists[j] for j in kept], [out_cols[j] for j in kept]
    )


def subquotient(ring: GradedRing, ambient_twists, gens, rels):
    """(span(gens) + span(rels)) / span(rels) as a minimal presentation.

    Returns (presentation, kept_gens) where kept_gens are the columns of
    the ambient free module realizing the presentation's generators;
    realizations survive because generators are minimalized before the
    relation search rather than after.
    """
    kept_idx = mingens_columns(ring, list(gens), ambient_twists,
                               extra_lower=list(rels))
    gens_kept = [gens[i] for i in kept_idx]
    if not gens_kept:
        return zero_module(ring), []
    gen_twists = [column_degree(c, ambient_twists) for c in gens_kept]
    rel_cols = column_syzygies(ring, gens_kept, ambient_twists,
                               extra=list(rels))
    kept_rels = mingens_columns(ring, rel_cols, gen_twists)
    rel_cols = [rel_cols[j] for j in kept_rels]
    rel_twists = [column_degree(c, gen_twists) for c in rel_cols]
    for j, col in enumerate(rel_cols):
        for i, p in col.items():
            if p.degree() == 0:
                raise ConsistencyError(
                    "unit relation entry on a minimal generator set"
                )
    pres = ModulePresentation(ring, gen_twists, rel_twists, rel_cols)
    return pres, gens_kept


def annihilates(M: ModulePresentation, f) -> bool:
    """Whether f (over the ambient S) kills M: f*e_j lies in span(columns)
    + I*F for every generator e_j.  Exact; reads the memoized basis that
    the Hilbert series of M builds."""
    gb = span_gb(M.ring, M.columns, M.gen_twists)
    return all(gb.contains({j: f}) for j in range(M.n_gens()))


def annihilator(M: ModulePresentation) -> list:
    """Generators (over the ambient S, containing I) of ann_R(M)."""
    return memo.cached("ann", _annihilator, M)


def _annihilator(M: ModulePresentation) -> list:
    ring = M.ring
    S = ring.poly_ring
    if M.n_gens() == 0:
        return [S.one()]
    # the harvest is reduced mod I, so I's generators join each q_i
    ideal = list(ring.reduced_relations)
    current = None
    for i in range(M.n_gens()):
        syz = column_syzygies(ring, [{i: S.one()}], list(M.gen_twists),
                              extra=M.columns)
        q_i = [s[0] for s in syz] + ideal
        current = q_i if current is None else _trimmed(
            S, _intersect_ideals(ring.ambient(), current, q_i))
        if not current:
            break
    if current is None:
        current = [S.one()]
    gb = ModuleGB(S, [{0: p} for p in current], [0]) if current else None
    return [c[0] for c in gb.basis_columns()] if gb else []


def _trimmed(S, gens) -> list:
    """A minimal generating subset of the homogeneous ideal (gens): one
    plain minimal run, so the next intersection starts from fewer
    generators."""
    gb = ModuleGB(S, [{0: g} for g in gens], [0], minimal=True,
                  max_degree=config.MAX_DEGREE)
    return [gens[t] for t in gb.kept]


def _intersect_ideals(ring: GradedRing, gens_a, gens_b) -> list:
    """Generators of the intersection of the ideals (gens_a) and (gens_b)
    of `ring`: the syzygies of (1, 1) modulo both."""
    if not gens_a or not gens_b:
        return []
    one = ring.poly_ring.one()
    fixed = [{0: g} for g in gens_a] + [{1: h} for h in gens_b]
    syz = column_syzygies(ring, [{0: one, 1: one}], [0, 0], extra=fixed)
    return [s[0] for s in syz]


def change_ring(M: ModulePresentation, new_ring: GradedRing) -> ModulePresentation:
    """Reinterpret M over a further quotient of its ring.

    Valid only when every relation of new_ring annihilates M, checked
    one by one with `annihilates` (no annihilator ideal is built); then
    the same presentation matrix presents the same module.
    """
    ring = M.ring
    if new_ring.poly_ring.key() != ring.poly_ring.key():
        raise ValueError("change_ring needs the same ambient polynomial ring")
    for r in ring.reduced_relations:
        if not new_ring.contains_in_ideal(r):
            raise ValueError("target ring is not a quotient of the source ring")
    for r in new_ring.reduced_relations:
        if not annihilates(M, r):
            raise InapplicableError(
                f"relation {r} of the target ring does not annihilate the module"
            )
    cols = []
    rel_twists = []
    for j, col in enumerate(M.columns):
        nfcol = {}
        for i, p in col.items():
            q = new_ring.nf(p)
            if not q.is_zero():
                nfcol[i] = q
        if nfcol:
            cols.append(nfcol)
            rel_twists.append(M.rel_twists[j])
    return ModulePresentation(new_ring, list(M.gen_twists), rel_twists, cols)
