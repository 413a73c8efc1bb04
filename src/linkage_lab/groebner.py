"""Groebner bases for submodules of graded free modules over k[x_1..x_n].

Vectors are flattened sparse dicts {(position, monomial): coeff}.  The
module order is TOP(grevlex): compare monomials by grevlex, break ties by
position with lower index greater.  Columns of matrices are sparse dicts
{row: Poly}.

Two modes:

* plain: reduced Groebner basis for normal forms and membership.  The
  coprime-lead skip is applied only to rank-1 inputs (its proof does not
  survive in modules); the lcm chain criterion is applied everywhere.
* tracked: every basis element carries a representation over the original
  input columns, every same-position pair is processed (no skips), and
  each S-pair that reduces to zero donates its representation as a
  syzygy.  Inputs enter the basis unreduced, which makes the harvested
  set generate the full syzygy module of the inputs.

All inputs are assumed homogeneous with respect to the given twists;
pair degrees then increase monotonically and max_degree is an honest cap.
"""

from __future__ import annotations

import heapq

from .errors import BudgetError
from .monomials import (
    grevlex_key,
    mono_coprime,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_one,
)
from .polynomials import Poly, PolyRing


def term_key(term):
    pos, mono = term
    return (grevlex_key(mono), -pos)


def flat_from_column(col: dict) -> dict:
    """{row: Poly} -> {(row, mono): coeff}, dropping zero entries."""
    out = {}
    for pos, poly in col.items():
        for m, c in poly.terms.items():
            out[(pos, m)] = c
    return out


def column_from_flat(ring: PolyRing, vec: dict) -> dict:
    cols: dict = {}
    for (pos, m), c in vec.items():
        cols.setdefault(pos, {})[m] = c
    return {pos: Poly(ring, terms) for pos, terms in sorted(cols.items())}


def column_degree(col: dict, twists) -> int | None:
    """Twisted degree of a homogeneous column; None for zero."""
    for pos, poly in col.items():
        if not poly.is_zero():
            return poly.degree() + twists[pos]
    return None


def _submul(field, target: dict, src: dict, mono, coeff):
    """target -= coeff * x^mono * src, in place."""
    zero = field.zero()
    for (pos, m), c in src.items():
        key = (pos, mono_mul(m, mono))
        acc = field.sub(target.get(key, zero), field.mul(coeff, c))
        if acc == zero:
            target.pop(key, None)
        else:
            target[key] = acc


class _Elem:
    __slots__ = ("vec", "rep", "lead", "lc")

    def __init__(self, vec, rep):
        self.vec = vec
        self.rep = rep
        self.lead = max(vec, key=term_key)
        self.lc = vec[self.lead]


class ModuleGB:
    """Groebner basis of the column span inside a twisted free module.

    twists[i] is the degree of the i-th free generator.  With track=True
    the instance also exposes .syzygies (flat vectors over column indices,
    a generating set of the syzygy module of the input columns) and
    .lift() for expressing members over the inputs.
    """

    def __init__(self, ring: PolyRing, columns, twists, *, track=False,
                 max_degree=None):
        self.ring = ring
        self.twists = tuple(twists)
        self.track = track
        self.max_degree = max_degree
        self.syzygies: list = []
        self._elems: list[_Elem] = []
        self._by_pos: dict = {}
        self._rank_one = len(self.twists) <= 1
        self._input_columns = list(columns)
        self._run([flat_from_column(c) for c in columns])

    # construction ---------------------------------------------------

    def _add_elem(self, vec, rep):
        e = _Elem(vec, rep)
        idx = len(self._elems)
        self._elems.append(e)
        self._by_pos.setdefault(e.lead[0], []).append(idx)
        return idx

    def _pair_degree(self, i, j):
        gi, gj = self._elems[i], self._elems[j]
        lcm = mono_lcm(gi.lead[1], gj.lead[1])
        return mono_deg(lcm) + self.twists[gi.lead[0]]

    def _run(self, vecs):
        field = self.ring.field
        pairs: list = []
        for t, vec in enumerate(vecs):
            if not vec:
                if self.track:
                    self.syzygies.append({(t, mono_one(self.ring.nvars)): field.one()})
                continue
            rep = {(t, mono_one(self.ring.nvars)): field.one()} if self.track else None
            idx = self._add_elem(vec, rep)
            self._push_pairs(pairs, idx)
        while pairs:
            deg, i, j = heapq.heappop(pairs)
            if self.max_degree is not None and deg > self.max_degree:
                raise BudgetError("groebner pair degree", self.max_degree)
            if not self.track and self._chain_skip(i, j):
                continue
            gi, gj = self._elems[i], self._elems[j]
            if not self.track and self._rank_one and mono_coprime(gi.lead[1], gj.lead[1]):
                continue
            lcm = mono_lcm(gi.lead[1], gj.lead[1])
            qi, qj = mono_div(lcm, gi.lead[1]), mono_div(lcm, gj.lead[1])
            vec: dict = {}
            _submul(field, vec, gi.vec, qi, field.neg(gj.lc))
            _submul(field, vec, gj.vec, qj, gi.lc)
            rep = None
            if self.track:
                rep = {}
                _submul(field, rep, gi.rep, qi, field.neg(gj.lc))
                _submul(field, rep, gj.rep, qj, gi.lc)
            nf, rep = self._reduce(vec, rep)
            if nf:
                idx = self._add_elem(nf, rep)
                self._push_pairs(pairs, idx)
            elif self.track and rep:
                self.syzygies.append(rep)
        self._interreduce()

    def _push_pairs(self, pairs, idx):
        pos = self._elems[idx].lead[0]
        for other in self._by_pos.get(pos, []):
            if other != idx:
                heapq.heappush(pairs, (self._pair_degree(other, idx), other, idx))

    def _chain_skip(self, i, j):
        gi, gj = self._elems[i], self._elems[j]
        pos = gi.lead[0]
        lcm = mono_lcm(gi.lead[1], gj.lead[1])
        for k in self._by_pos.get(pos, []):
            if k in (i, j):
                continue
            mk = self._elems[k].lead[1]
            if mono_divides(mk, lcm):
                if mono_lcm(mk, gi.lead[1]) != lcm and mono_lcm(mk, gj.lead[1]) != lcm:
                    return True
        return False

    def _reduce(self, vec, rep, skip=None):
        """Full normal form; updates rep alongside when tracking."""
        field = self.ring.field
        work = dict(vec)
        out: dict = {}
        while work:
            term = max(work, key=term_key)
            coeff = work[term]
            red = self._find_reducer(term, skip)
            if red is None:
                out[term] = coeff
                del work[term]
                continue
            q = mono_div(term[1], red.lead[1])
            factor = field.div(coeff, red.lc)
            _submul(field, work, red.vec, q, factor)
            work.pop(term, None)
            if rep is not None and red.rep is not None:
                _submul(field, rep, red.rep, q, factor)
        return out, rep

    def _find_reducer(self, term, skip):
        pos, mono = term
        for idx in self._by_pos.get(pos, []):
            if idx == skip:
                continue
            e = self._elems[idx]
            if mono_divides(e.lead[1], mono):
                return e
        return None

    def _interreduce(self):
        """Canonical reduced basis: minimal leads, reduced tails, monic."""
        field = self.ring.field
        order = sorted(range(len(self._elems)),
                       key=lambda i: term_key(self._elems[i].lead))
        keep = []
        for i in order:
            li = self._elems[i].lead
            redundant = False
            for j in keep:
                lj = self._elems[j].lead
                if lj[0] == li[0] and mono_divides(lj[1], li[1]):
                    redundant = True
                    break
            if not redundant:
                keep.append(i)
        kept = [self._elems[i] for i in keep]
        self._elems = kept
        self._by_pos = {}
        for idx, e in enumerate(kept):
            self._by_pos.setdefault(e.lead[0], []).append(idx)
        for idx, e in enumerate(kept):
            nf, rep = self._reduce(e.vec, e.rep, skip=idx)
            inv = field.inv(nf[max(nf, key=term_key)])
            e.vec = {t: field.mul(c, inv) for t, c in nf.items()}
            if rep is not None:
                e.rep = {t: field.mul(c, inv) for t, c in rep.items()}
            e.lead = max(e.vec, key=term_key)
            e.lc = e.vec[e.lead]

    # queries ---------------------------------------------------------

    def basis_columns(self):
        return [column_from_flat(self.ring, e.vec) for e in self._elems]

    def leading_terms(self):
        return [e.lead for e in self._elems]

    def normal_form_flat(self, vec: dict) -> dict:
        nf, _ = self._reduce(vec, None)
        return nf

    def normal_form(self, col: dict) -> dict:
        return column_from_flat(self.ring, self.normal_form_flat(flat_from_column(col)))

    def contains(self, col: dict) -> bool:
        return not self.normal_form_flat(flat_from_column(col))

    def lift_flat(self, vec: dict):
        """Representation of vec over the input columns, or None.

        Requires track=True.  Invariant: vec == sum_t lift[t] * input[t].
        """
        if not self.track:
            raise ValueError("lift requires a tracked basis")
        field = self.ring.field
        rep: dict = {}
        nf, rep = self._reduce(dict(vec), rep)
        if nf:
            return None
        return {t: field.neg(c) for t, c in rep.items()}

    def lift(self, col: dict):
        flat = self.lift_flat(flat_from_column(col))
        if flat is None:
            return None
        return column_from_flat(self.ring, flat)


def groebner_basis(ring, columns, twists, *, max_degree=None):
    """Canonical reduced Groebner basis, as sparse columns."""
    return ModuleGB(ring, columns, twists, max_degree=max_degree).basis_columns()


def syzygy_columns(ring, columns, twists, *, max_degree=None):
    """Generators of the syzygy module of the given columns.

    Returned as sparse columns over the column indices; entry degrees are
    homogeneous for the twist list [column_degree(c) for c in columns].
    """
    gb = ModuleGB(ring, columns, twists, track=True, max_degree=max_degree)
    return [column_from_flat(ring, s) for s in gb.syzygies]
