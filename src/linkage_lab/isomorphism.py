"""Graded isomorphism testing.

Both modules are minimalized and the verdict is memoized per pair (op
"isomorphic", keyed by the two minimal presentations, the seed and the
budgets).  The steps, in order:

1. exact invariants: generator and relation degree multisets of the
   minimal presentations, then Hilbert series; a difference is an exact
   NotIsomorphic certificate;
2. free modules: equal generator degrees are matched by sorting;
3. identical minimal presentations (equal ring, twists and entries):
   the identity matrix is a surjective degree-zero map that is its own
   inverse, so it is both witnesses, with no search;
4. the degree-zero homomorphisms, read from the first step of the one
   routine that computes Hom (`homops._hom_cycles`): its cycles phi_t,
   of degrees tau_t, generate Hom(A, B) inside Hom(F_0, B), so the maps
   mono * phi_t for tau_t <= 0 and the standard monomials mono of degree
   -tau_t span Hom(A, B)_0; those that are zero in Hom(A, B) (every
   column in B's relations) are dropped, and none left is an exact
   NotIsomorphic.  Like the Auslander-class test, the search stops at
   the cycles: it reads no minimal presentation of Hom.  One rank comes before any search: the constant part
   of any degree-zero map is a combination of those of the spanning maps
   (the constant parts of a spanning set span what those of a basis
   span), so if together they have rank < the number of generators of B,
   no map is onto B/mB = k^(number of generators of B) (graded Nakayama)
   and the answer is an exact NotIsomorphic;
5. the search: hunt for a surjective map among the spanning maps and
   seeded random combinations of them.  By the same lemma a degree-zero
   map onto a minimal presentation B is onto iff the matrix of its
   constant entries has full rank, a rank computation over the field
   with no Groebner basis.  Surjectivity plus equal Hilbert series forces
   bijectivity degreewise, so a hit yields both witness matrices.  When
   the search finds none, the answer is Unknown, never a guess.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import memo
from .config import DEFAULT_BUDGETS
from .errors import ConsistencyError
from .homops import _hom_cycles
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


def degree_zero_maps(A: ModulePresentation, B: ModulePresentation,
                     budgets) -> list:
    """A spanning set of Hom(A, B)_0 for minimal A and B (step 4 above):
    maps as columns over A's generators into B's cover, none of them
    zero in Hom(A, B), and none at all exactly when Hom(A, B)_0 = 0."""
    ring = A.ring
    q = B.n_gens()
    twists, cycles, _ = _hom_cycles(A, B, 0, budgets)
    gb = span_gb(ring, list(B.columns), B.gen_twists)
    maps = []
    for c in cycles:
        i, p = next(iter(c.items()))
        tau = p.degree() + twists[i]
        if tau > 0:
            continue
        for mono in ring.standard_monomials(-tau):
            m = ring.poly_ring.monomial(mono)
            phi = [{r: e for r in range(q)
                    if (p := c.get(j * q + r)) is not None
                    and not (e := ring.nf(m * p)).is_zero()}
                   for j in range(A.n_gens())]
            if any(col and not gb.contains(col) for col in phi):
                maps.append(phi)
    return maps


def _combine(ring, maps, coeffs):
    """sum_k coeffs[k] * maps[k] for integer coefficients, as columns."""
    out = []
    for j in range(len(maps[0])):
        acc: dict = {}
        for phi, c in zip(maps, coeffs):
            c = ring.field.from_int(c)
            for i, p in phi[j].items():
                acc[i] = acc.get(i, ring.poly_ring.zero()) + p.scale(c)
        out.append({i: p for i, p in acc.items() if not p.is_zero()})
    return out


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
    return memo.cached("isomorphic", _is_isomorphic, A, B, budgets, seed)


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
    if A == B:
        # the identity is a surjective degree-zero map and its own inverse
        one = ring.poly_ring.one()
        identity = tuple({j: one} for j in range(A.n_gens()))
        return IsoVerdict("isomorphic", "surjective degree-zero map with inverse",
                          identity, identity)
    maps = degree_zero_maps(A, B, budgets)
    if not maps:
        return IsoVerdict("not_isomorphic", "no nonzero degree-zero homomorphisms")
    # every degree-zero map's constant part is a combination of the spanning
    # maps' ones: if those span less than B/mB, none is onto (Nakayama)
    rows = [row for phi in maps for row in _constant_rows(ring, phi)]
    rank = len(_echelon(rows, ring.field))
    if rank < B.n_gens():
        return IsoVerdict(
            "not_isomorphic",
            f"no degree-zero map is onto: the constant parts of Hom_0 have "
            f"rank {rank} < {B.n_gens()} generators",
        )
    rng = random.Random((seed, A.content_key(), B.content_key()).__repr__())
    candidates = list(maps)
    for _ in range(budgets.iso_search_tries):
        combo = _combine(ring, maps, [rng.randint(-2, 2) for _ in maps])
        if any(combo):
            candidates.append(combo)
    for phi_cols in candidates:
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
