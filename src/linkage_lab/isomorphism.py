"""Graded isomorphism testing.

Both modules are minimalized and the verdict is memoized per pair (op
"isomorphic", keyed by the two minimal presentations, the seed and the
budgets).  The steps, in order:

1. exact invariants: generator and relation degree multisets of the
   minimal presentations, then Hilbert series; a difference is an exact
   NotIsomorphic certificate;
2. free modules: equal generator degrees are matched by sorting;
3. identical minimal presentations (equal content keys): the identity
   matrix is a surjective degree-zero map that is its own inverse, so it
   is both witnesses, with no search;
4. the space of degree-zero homomorphisms, solved by exact linear
   algebra, and one rank before any search: the constant part of any
   degree-zero map is a combination of those of the basis maps, so if
   together they have rank < the number of generators of B, no map is
   onto B/mB = k^(number of generators of B) (graded Nakayama) and the
   answer is an exact NotIsomorphic;
5. the search: hunt for a surjective map among the basis maps and
   random combinations of them.  By the same lemma a degree-zero map
   onto a minimal presentation B is onto iff the matrix of its constant
   entries has full rank, a rank computation over the field with no
   Groebner basis.  Surjectivity plus equal Hilbert series forces
   bijectivity degreewise, so a hit yields both witness matrices.  When
   the search finds none, the answer is Unknown, never a guess.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import memo
from .config import DEFAULT_BUDGETS
from .errors import ConsistencyError
from .modules import (
    ModulePresentation,
    lift_over_columns,
    minimalize,
    span_gb,
)


@dataclass(frozen=True)
class IsoVerdict:
    kind: str  # "isomorphic" | "not_isomorphic" | "unknown"
    certificate: str = ""
    forward: tuple = ()
    backward: tuple = ()

    def is_isomorphic(self) -> bool:
        return self.kind == "isomorphic"

    def resolved(self) -> bool:
        return self.kind in ("isomorphic", "not_isomorphic")

    def witness(self):
        return (self.forward, self.backward) if self.kind == "isomorphic" else None


def _degree_multiset(twists):
    out: dict = {}
    for t in twists:
        out[t] = out.get(t, 0) + 1
    return out


def _echelon(rows, f) -> list:
    """Forward elimination of sparse rows (dicts over orderable keys):
    (pivot, row scaled so that row[pivot] = 1) pairs in order, each
    row's pivot the least key left after reducing it by the earlier."""
    pivots = []
    for row in rows:
        row = dict(row)
        for pos, prow in pivots:
            c = row.get(pos)
            if c is None:
                continue
            for i, v in prow.items():
                acc = f.sub(row.get(i, f.zero()), f.mul(c, v))
                if acc == f.zero():
                    row.pop(i, None)
                else:
                    row[i] = acc
        if row:
            pos = min(row)
            inv = f.inv(row[pos])
            pivots.append((pos, {i: f.mul(v, inv) for i, v in row.items()}))
    return pivots


def solve_nullspace(equations, unknowns, fieldobj):
    """Basis of {a : sum_u a_u * eq[u] = 0 for each equation dict}."""
    pivots = _echelon(equations, fieldobj)
    bound = {u for u, _ in pivots}
    basis = []
    for u_free in unknowns:
        if u_free in bound:
            continue
        sol = {u_free: fieldobj.one()}
        # back-substitute in reverse pivot order
        for pu, prow in reversed(pivots):
            acc = fieldobj.zero()
            for u, v in prow.items():
                if u != pu and u in sol:
                    acc = fieldobj.add(acc, fieldobj.mul(v, sol[u]))
            if acc != fieldobj.zero():
                sol[pu] = fieldobj.neg(acc)
        basis.append(sol)
    return basis


def hom_degree_zero_space(A: ModulePresentation, B: ModulePresentation):
    """Basis of Hom(A, B)_0 as matrices (columns over A-gens into B-cover).

    Both arguments must be minimal presentations over the same ring.
    """
    ring = A.ring
    fieldobj = ring.field
    unknowns = []
    for j, gj in enumerate(A.gen_twists):
        for i, gi in enumerate(B.gen_twists):
            d = gj - gi
            if d < 0:
                continue
            for mono in ring.standard_monomials(d):
                unknowns.append((i, j, mono))
    if not unknowns:
        return [], []
    target_gb = span_gb(ring, list(B.columns), B.gen_twists)
    equations: dict = {u: {} for u in unknowns}
    for jc, col in enumerate(A.columns):
        for (i, j, mono) in unknowns:
            entry = col.get(j)
            if entry is None or entry.is_zero():
                continue
            nf = target_gb.normal_form({i: entry.term_mul(mono, fieldobj.one())})
            row = equations[(i, j, mono)]
            for pos, poly in nf.items():
                for m, c in poly.terms.items():
                    row[(jc, (pos, m))] = c
    # reorganize into equations indexed by (relation column, term)
    eq_rows: dict = {}
    for u, contribs in equations.items():
        for rowkey, c in contribs.items():
            eq_rows.setdefault(rowkey, {})[u] = c
    basis = solve_nullspace(list(eq_rows.values()), unknowns, fieldobj)
    return basis, unknowns


def _solution_to_columns(ring, sol, n_A_gens):
    cols = []
    for j in range(n_A_gens):
        col: dict = {}
        for (i, jj, mono), c in sol.items():
            if jj != j:
                continue
            p = ring.poly_ring.monomial(mono, c)
            col[i] = col.get(i, ring.poly_ring.zero()) + p
        cols.append({i: p for i, p in col.items() if not p.is_zero()})
    return cols


def _constant_rows(ring, phi_cols):
    """The constant parts of a map's columns, as sparse rows."""
    const = (0,) * ring.nvars
    return [{i: p.terms[const] for i, p in col.items() if const in p.terms}
            for col in phi_cols]


def _is_surjective(ring, phi_cols, B: ModulePresentation) -> bool:
    """Whether a degree-zero map onto the minimal presentation B is onto.

    Graded Nakayama: it is iff the images span B/mB = k^(B.n_gens()),
    i.e. iff the constant entries of phi_cols have rank B.n_gens().
    """
    return len(_echelon(_constant_rows(ring, phi_cols), ring.field)) == B.n_gens()


def _compose(ring, psi_cols, phi_cols):
    """psi o phi as columns over the source generators."""
    out = []
    for col in phi_cols:
        acc: dict = {}
        for i, p in col.items():
            for r, q in psi_cols[i].items():
                acc[r] = acc.get(r, ring.poly_ring.zero()) + q * p
        out.append({r: v for r, v in acc.items() if not v.is_zero()})
    return out


def _is_identity_mod(ring, cols, M: ModulePresentation) -> bool:
    gb = span_gb(ring, list(M.columns), M.gen_twists)
    one = ring.poly_ring.one()
    for j, col in enumerate(cols):
        diff = dict(col)
        diff[j] = diff.get(j, ring.poly_ring.zero()) - one
        diff = {i: p for i, p in diff.items() if not p.is_zero()}
        if diff and not gb.contains(diff):
            return False
    return True


def is_isomorphic(M: ModulePresentation, N: ModulePresentation, *,
                  budgets=None, seed: int = 0) -> IsoVerdict:
    """Exact NotIsomorphic certificates; witnessed Isomorphic; else Unknown."""
    budgets = budgets or DEFAULT_BUDGETS
    if M.ring != N.ring:
        return IsoVerdict("not_isomorphic", "different rings")
    A, B = minimalize(M), minimalize(N)
    key = memo.content_hash(A.content_key(), B.content_key(), str(seed),
                            repr(budgets))
    return memo.cached("isomorphic", key, _is_isomorphic, A, B, budgets, seed)


def _is_isomorphic(A: ModulePresentation, B: ModulePresentation, budgets,
                   seed) -> IsoVerdict:
    ring = A.ring
    if A.n_gens() == 0 and B.n_gens() == 0:
        return IsoVerdict("isomorphic", "both zero")
    gm, gn = _degree_multiset(A.gen_twists), _degree_multiset(B.gen_twists)
    if gm != gn:
        return IsoVerdict(
            "not_isomorphic", f"generator degrees differ: {gm} vs {gn}"
        )
    rm, rn = _degree_multiset(A.rel_twists), _degree_multiset(B.rel_twists)
    if rm != rn:
        return IsoVerdict(
            "not_isomorphic", f"relation degrees differ: {rm} vs {rn}"
        )
    if A.hilbert_series() != B.hilbert_series():
        return IsoVerdict(
            "not_isomorphic",
            f"Hilbert series differ: {A.hilbert_series()} vs {B.hilbert_series()}",
        )
    if A.n_rels() == 0:
        # graded free modules with equal generator degrees: sort and match
        order_a = sorted(range(A.n_gens()), key=lambda i: (A.gen_twists[i], i))
        order_b = sorted(range(B.n_gens()), key=lambda i: (B.gen_twists[i], i))
        one = ring.poly_ring.one()
        fwd = [{} for _ in range(A.n_gens())]
        bwd = [{} for _ in range(B.n_gens())]
        for a_i, b_i in zip(order_a, order_b):
            fwd[a_i] = {b_i: one}
            bwd[b_i] = {a_i: one}
        return IsoVerdict("isomorphic", "free modules of equal degrees",
                          tuple(fwd), tuple(bwd))
    if A.content_key() == B.content_key():
        # the identity is a surjective degree-zero map and its own inverse
        one = ring.poly_ring.one()
        identity = tuple({j: one} for j in range(A.n_gens()))
        return IsoVerdict("isomorphic", "surjective degree-zero map with inverse",
                          identity, identity)
    basis, _unknowns = hom_degree_zero_space(A, B)
    if not basis:
        return IsoVerdict("not_isomorphic", "no nonzero degree-zero homomorphisms")
    fieldobj = ring.field
    # every degree-zero map's constant part is a combination of the basis
    # maps' ones: if those span less than B/mB, none is onto (Nakayama)
    rows = [row for sol in basis for row in _constant_rows(
        ring, _solution_to_columns(ring, sol, A.n_gens()))]
    rank = len(_echelon(rows, fieldobj))
    if rank < B.n_gens():
        return IsoVerdict(
            "not_isomorphic",
            f"no degree-zero map is onto: the constant parts of Hom_0 have "
            f"rank {rank} < {B.n_gens()} generators",
        )
    rng = random.Random((seed, A.content_key(), B.content_key()).__repr__())
    candidates = list(basis)
    for _ in range(budgets.iso_search_tries):
        combo: dict = {}
        for sol in basis:
            c = fieldobj.from_int(rng.randint(-2, 2))
            if c == fieldobj.zero():
                continue
            for u, v in sol.items():
                acc = fieldobj.add(combo.get(u, fieldobj.zero()), fieldobj.mul(c, v))
                if acc == fieldobj.zero():
                    combo.pop(u, None)
                else:
                    combo[u] = acc
        if combo:
            candidates.append(combo)
    for sol in candidates:
        phi_cols = _solution_to_columns(ring, sol, A.n_gens())
        if not _is_surjective(ring, phi_cols, B):
            continue
        # surjective + equal Hilbert series = isomorphism; build the inverse
        psi_cols = []
        one = ring.poly_ring.one()
        ok = True
        for i in range(B.n_gens()):
            lifted = lift_over_columns(
                ring, {i: one}, phi_cols, B.gen_twists, extra=list(B.columns)
            )
            if lifted is None:
                ok = False
                break
            psi_cols.append(lifted)
        if not ok:
            raise ConsistencyError("surjective map with unliftable generator")
        if not _is_identity_mod(ring, _compose(ring, psi_cols, phi_cols), A):
            raise ConsistencyError("left inverse failed identity check")
        if not _is_identity_mod(ring, _compose(ring, phi_cols, psi_cols), B):
            raise ConsistencyError("right inverse failed identity check")
        return IsoVerdict("isomorphic", "surjective degree-zero map with inverse",
                          tuple(phi_cols), tuple(psi_cols))
    return IsoVerdict(
        "unknown",
        f"no surjection among {len(candidates)} candidates "
        f"(search budget {budgets.iso_search_tries})",
    )
