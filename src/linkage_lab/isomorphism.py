"""Graded isomorphism testing.

Both modules are minimalized and the verdict is memoized per pair (op
"isomorphic", keyed by the two minimal presentations):
it is a function of the two modules.  The steps, in order:

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
   NotIsomorphic.  Only the cycles of degree <= 0 are read, so the
   Groebner run behind them stops at degree 0 (`through=0`): it yields
   exactly the full run's cycles of degree <= 0, in the same order.
   Like the Auslander-class test, the search stops at the cycles: it
   reads no minimal presentation of Hom.  Two ranks come
   before any search: the constant part of any degree-zero map is a
   combination of those of the spanning maps, and it must be bijective
   (graded Nakayama; A and B have equally many generators), so constant
   images of rank < the number of generators of B, or a kernel common
   to all constant parts, is an exact NotIsomorphic;
5. the search: hunt for a surjective map among the spanning maps and
   then `SEARCH_TRIES` combinations of them with coefficients in
   {-2..2}, drawn from a generator that the two content keys determine.
   By the same lemma a map is onto iff its constant entries have full
   rank, and a combination's are the same combination of the maps' own,
   so only the first hit is built.  Surjectivity plus equal Hilbert
   series forces bijectivity degreewise, so a hit yields both witness
   matrices.  When the search finds none, the answer is Unknown, never
   a guess.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import memo
from .errors import ConsistencyError
from .homops import _hom_cycles
from .modules import (
    ModulePresentation,
    lift_over_columns,
    minimalize,
    span_gb,
)

# How many random combinations of the spanning maps the search tries.
SEARCH_TRIES = 24


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


def degree_zero_maps(A: ModulePresentation, B: ModulePresentation) -> list:
    """A spanning set of Hom(A, B)_0 for minimal A and B (step 4 above):
    maps as columns over A's generators into B's cover, none of them
    zero in Hom(A, B), and none at all exactly when Hom(A, B)_0 = 0."""
    ring = A.ring
    q = B.n_gens()
    twists, cycles, _ = _hom_cycles(A, B, 0, through=0)
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


def _combined_rows(f, rows, coeffs):
    """The constant rows of sum_k coeffs[k] * maps[k], from rows[k], the
    constant rows of maps[k]."""
    out = []
    for j in range(len(rows[0])):
        acc: dict = {}
        for r, c in zip(rows, coeffs):
            c = f.from_int(c)
            for i, v in r[j].items():
                acc[i] = f.add(acc.get(i, f.zero()), f.mul(c, v))
        out.append({i: v for i, v in acc.items() if v != f.zero()})
    return out


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


def is_isomorphic(M: ModulePresentation, N: ModulePresentation) -> IsoVerdict:
    """Exact NotIsomorphic certificates; witnessed Isomorphic; else Unknown."""
    if M.ring != N.ring:
        return IsoVerdict("not_isomorphic", "different rings")
    A, B = minimalize(M), minimalize(N)
    return memo.cached("isomorphic", _is_isomorphic, A, B)


def _is_isomorphic(A: ModulePresentation, B: ModulePresentation) -> IsoVerdict:
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
    maps = degree_zero_maps(A, B)
    if not maps:
        return IsoVerdict("not_isomorphic", "no nonzero degree-zero homomorphisms")
    # every degree-zero map's constant part is a combination of the spanning
    # maps' ones: if their images span less than B/mB, or a nonzero vector
    # is in the kernel of all of them, none is bijective mod m (Nakayama)
    f, q = ring.field, B.n_gens()
    rows = [_constant_rows(ring, phi) for phi in maps]
    rank = len(_echelon([col for r in rows for col in r], f))
    if rank < q:
        return IsoVerdict(
            "not_isomorphic",
            f"no degree-zero map is onto: the constant parts of Hom_0 have "
            f"rank {rank} < {q} generators",
        )
    stacked = [{j: col[i] for j, col in enumerate(r) if i in col}
               for r in rows for i in range(q)]
    kernel = A.n_gens() - len(_echelon(stacked, f))
    if kernel:
        return IsoVerdict(
            "not_isomorphic",
            f"every degree-zero map is singular mod m: the constant parts "
            f"of Hom_0 share a kernel of dimension {kernel}",
        )
    phi_cols = next((phi for phi, r in zip(maps, rows)
                     if len(_echelon(r, f)) == q), None)
    if phi_cols is None:
        rng = random.Random(repr((A.content_key(), B.content_key())))
        for _ in range(SEARCH_TRIES):
            coeffs = [rng.randint(-2, 2) for _ in maps]
            if len(_echelon(_combined_rows(f, rows, coeffs), f)) == q:
                phi_cols = _combine(ring, maps, coeffs)
                break
        else:
            return IsoVerdict("unknown", f"no surjection among "
                              f"{len(maps) + SEARCH_TRIES} candidates")
    # surjective + equal Hilbert series = isomorphism; build the inverse.
    # phi is a degree-zero map between minimal covers with invertible
    # constant part, so its matrix is block triangular by generator degree
    # with invertible diagonal blocks: phi is invertible over R, and every
    # e_i lifts over its columns in F_B itself, with no relation of B
    one = ring.poly_ring.one()
    psi_cols = lift_over_columns(ring, [{i: one} for i in range(q)],
                                 phi_cols, B.gen_twists)
    if None in psi_cols:
        raise ConsistencyError("surjective map with unliftable generator")
    if not _is_identity_mod(ring, _compose(ring, psi_cols, phi_cols), A):
        raise ConsistencyError("left inverse failed identity check")
    if not _is_identity_mod(ring, _compose(ring, phi_cols, psi_cols), B):
        raise ConsistencyError("right inverse failed identity check")
    return IsoVerdict("isomorphic", "surjective degree-zero map with inverse",
                      tuple(phi_cols), tuple(psi_cols))
