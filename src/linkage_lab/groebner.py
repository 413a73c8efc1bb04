"""Groebner bases for submodules of graded free modules over k[x_1..x_n].

Vectors cross the module boundary as flattened sparse dicts
{(position, monomial): coeff}.  The module order is TOP(grevlex): compare
monomials by grevlex, break ties by position with lower index greater.
Columns of matrices are sparse dicts {row: Poly}.

Two modes:

* plain: reduced Groebner basis for normal forms and membership.  The
  coprime-lead skip is applied only to rank-1 inputs (its proof does not
  survive in modules); the lcm chain criterion is applied everywhere.
* tracked: every basis element carries a representation over the tracked
  input columns, no criterion skips a pair, and each S-pair that reduces
  to zero donates its representation as a syzygy.  Inputs enter the basis
  unreduced, which makes the harvested set generate the full syzygy module
  of the inputs.  Fixed input columns join the span after the tracked
  ones with an empty representation; representation arithmetic is linear
  with coefficients taken from the vectors, so every representation is
  the projection onto the tracked columns of the one a run tracking every
  input would carry, and a syzygy whose projection is 0 is never built.

In both modes an element is inert when it has no tail and an empty or
absent representation, e.g. a monomial of I*F.  A pair of two inert
elements has S-vector 0 and representation 0, so it is never queued.

All inputs are assumed homogeneous with respect to the given twists;
pair degrees then increase monotonically and max_degree is an honest cap:
forming any pair above it, queued or not, raises BudgetError.

Inside the kernel a term (pos, mono) is a plain int, its term key (see
_TermKeys): integer order is the module order, and multiplying a term by
x^q adds the key of q.  Reduction pops the largest live term from a heap
of keys (Monagan-Pearce, CASC 2007) and pushes only the terms each
subtraction creates.  Divisibility of a term by a leading term is one
guard-bit test on packed exponents.  The keys stay exact while every
monomial degree is below the key width's limit.  Before an S-pair, the
interreduction, or a query, the kernel bounds the largest degree the step
can create (the lcm's degree, or the input's, plus the largest excess of
a representation's degree over its element's lead) and re-encodes its
basis at a wider width when the bound reaches the limit.

Coefficient arithmetic is specialised per field and never goes through
the Field object in the inner loops: GF(p) uses ints with one `% p` per
term; QQ keeps a coefficient an int while it is integral and a Fraction
only otherwise.  Every coefficient leaving the kernel is a field element
again (a Fraction over QQ), equal to what field arithmetic gives.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import mul

from .errors import BudgetError
from .fields import PrimeField
from .monomials import mono_coprime, mono_deg, mono_lcm, mono_one
from .polynomials import Poly, PolyRing


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


class _TermKeys:
    """Integer keys of terms (pos, mono) for one kernel instance.

    A monomial a in n variables packs its partial sums s_k = a_1 + .. + a_k
    into n fields of `fbits` bits, the degree s_n on top; comparing s_n,
    then s_{n-1} = deg - a_n, and so on, is grevlex.  The position sits in
    the low `pbits` bits as pmask - pos, so equal monomials rank the lower
    position higher.  Every field value must stay below `limit`; the top
    bit of each field is spare and serves as the guard bit of the packed
    exponent form `exps` used for divisibility.  The width is chosen so
    that `limit` exceeds twice the `degree` asked for, and is at least 32.
    """

    __slots__ = ("nvars", "fbits", "pbits", "pmask", "limit", "dshift",
                 "weights", "lowmask", "guard")

    def __init__(self, nvars: int, degree: int, positions: int):
        fbits = max(6, degree.bit_length() + 2)
        self.nvars = nvars
        self.fbits = fbits
        self.pbits = max(positions, 1).bit_length()
        self.pmask = (1 << self.pbits) - 1
        self.limit = 1 << (fbits - 1)
        self.dshift = self.pbits + fbits * max(nvars - 1, 0)
        # x_i contributes 1 to the fields s_i .. s_n
        self.weights = [sum(1 << (fbits * k) for k in range(i, nvars)) << self.pbits
                        for i in range(nvars)]
        self.lowmask = (1 << (fbits * max(nvars - 1, 0))) - 1
        self.guard = sum(1 << (fbits * k + fbits - 1) for k in range(nvars))

    def covers(self, degree: int, pos: int) -> bool:
        return degree < self.limit and pos <= self.pmask

    def key(self, term) -> int:
        pos, mono = term
        return sum(map(mul, mono, self.weights)) + self.pmask - pos

    def term(self, key: int):
        """The (pos, mono) a key encodes."""
        pos = self.pmask - (key & self.pmask)
        rest = key >> self.pbits
        mono, prev, fmask = [], 0, (1 << self.fbits) - 1
        for _ in range(self.nvars - 1):
            s = rest & fmask
            mono.append(s - prev)
            prev = s
            rest >>= self.fbits
        if self.nvars:
            mono.append(rest - prev)
        return pos, tuple(mono)

    def exps(self, key: int) -> int:
        """Packed exponents a_1 + a_2 B + .. of a key's monomial, B = 2**fbits."""
        s = key >> self.pbits
        return s - ((s & self.lowmask) << self.fbits)

    def degree(self, key: int) -> int:
        return key >> self.dshift


def _demote(v):
    """An integral Fraction as an int; anything else unchanged."""
    if type(v) is Fraction and v.denominator == 1:
        return v.numerator
    return v


class _QQ:
    """Kernel arithmetic over QQ: ints while integral, Fractions otherwise."""

    entering = staticmethod(_demote)
    leaving = Fraction

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        if a == 1 or a == -1:
            return a
        return _demote(1 / Fraction(a))

    @staticmethod
    def div(a, b):
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            return q if not r else Fraction(a, b)
        return _demote(a / b)

    @staticmethod
    def scale(vec, a):
        return {k: _demote(c * a) for k, c in vec.items()}

    @staticmethod
    def submul(target, src, shift, coeff, heap=None):
        """target -= coeff * x^shift * src, in place; new keys go on heap."""
        get = target.get
        for k, c in src.items():
            k += shift
            old = get(k)
            if old is None:
                v = -(coeff * c)
                if heap is not None:
                    heappush(heap, -k)
            else:
                v = old - coeff * c
                if not v:
                    del target[k]
                    continue
            if type(v) is not int and v.denominator == 1:
                v = v.numerator
            target[k] = v


class _GF:
    """Kernel arithmetic over GF(p): ints in [0, p), one `% p` per term."""

    entering = leaving = None  # field elements already are kernel values

    def __init__(self, p: int):
        self.p = p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * pow(b, -1, self.p) % self.p

    def scale(self, vec, a):
        p = self.p
        return {k: c * a % p for k, c in vec.items()}

    def submul(self, target, src, shift, coeff, heap=None):
        """target -= coeff * x^shift * src, in place; new keys go on heap."""
        p = self.p
        neg = p - coeff
        get = target.get
        for k, c in src.items():
            k += shift
            old = get(k)
            if old is None:
                target[k] = neg * c % p
                if heap is not None:
                    heappush(heap, -k)
            else:
                v = (old + neg * c) % p
                if v:
                    target[k] = v
                else:
                    del target[k]


class _Elem:
    """A basis element: leading key and coefficient, tail, representation."""

    __slots__ = ("lead", "lc", "tail", "rep", "pos", "exps")

    def __init__(self, keys: _TermKeys, vec: dict, rep):
        self.set_vec(keys, vec)
        self.rep = rep

    def set_vec(self, keys: _TermKeys, vec: dict):
        lead = max(vec)
        tail = dict(vec)
        self.lc = tail.pop(lead)
        self.lead = lead
        self.tail = tail
        self.pos = keys.pmask - (lead & keys.pmask)
        self.exps = keys.exps(lead)

    def vec(self) -> dict:
        out = {self.lead: self.lc}
        out.update(self.tail)
        return out


class ModuleGB:
    """Groebner basis of the column span inside a twisted free module.

    twists[i] is the degree of the i-th free generator.  The span is that
    of `columns` followed by `fixed`.  With track=True the instance also
    exposes .syzygies and .lift(), both over the indices of `columns`
    alone: .syzygies generates the projection onto those coordinates of
    the syzygy module of all inputs (only nonzero projections are kept),
    and .lift() expresses members modulo span(fixed).
    """

    def __init__(self, ring: PolyRing, columns, twists, *, track=False,
                 fixed=(), max_degree=None):
        self.ring = ring
        self.twists = tuple(twists)
        self.track = track
        self.max_degree = max_degree
        self.syzygies: list = []
        self._elems: list[_Elem] = []
        self._by_pos: dict = {}
        self._rank_one = len(self.twists) <= 1
        columns = list(columns)
        self._tracked = len(columns)
        self._input_columns = columns + list(fixed)
        field = ring.field
        self._ar = _GF(field.p) if isinstance(field, PrimeField) else _QQ()
        self._field_one = field.one()
        # max over elements of (rep degree - lead degree), at least 0
        self._excess = 0
        self._keys = _TermKeys(ring.nvars, 0,
                               max(len(self.twists), self._tracked))
        self._run(flat_from_column(c) for c in self._input_columns)

    # term keys ---------------------------------------------------------

    @property
    def term_key(self):
        """Int sort key of (pos, mono) terms, exact for every term this
        basis has produced or been given: integer order is TOP(grevlex)."""
        return self._keys.key

    def _ensure(self, degree: int, pos: int = 0):
        """Widen the term keys so that `degree` and `pos` are exact."""
        old = self._keys
        if old.covers(degree, pos):
            return
        new = _TermKeys(self.ring.nvars, max(degree, old.limit),
                        max(pos + 1, old.pmask))

        def recode(d):
            return {new.key(old.term(k)): c for k, c in d.items()}

        for e in self._elems:
            e.set_vec(new, recode(e.vec()))
            if e.rep is not None:
                e.rep = recode(e.rep)
        self._keys = new

    def _encode(self, vec: dict, extra_degree: int = 0) -> dict:
        """Flat {(pos, mono): coeff} -> kernel dict, with room for terms of
        degree up to the input's plus extra_degree.

        A key's top field exceeds the degree of its monomial only when a
        lower field overflowed, which needs a degree of at least `limit`;
        so one look at the largest key tells whether the width sufficed.
        """
        if not vec:
            return {}
        keys = self._keys
        top = max(vec)[0]
        if top <= keys.pmask:
            w, pmask, enter = keys.weights, keys.pmask, self._ar.entering
            if enter is None:
                out = {sum(map(mul, m, w)) + pmask - p: c for (p, m), c in vec.items()}
            else:
                out = {sum(map(mul, m, w)) + pmask - p: enter(c)
                       for (p, m), c in vec.items()}
            if keys.degree(max(out)) + extra_degree < keys.limit:
                return out
        self._ensure(max(mono_deg(m) for (_p, m) in vec) + extra_degree, top)
        return self._encode(vec, extra_degree)

    def _decode(self, vec: dict) -> dict:
        term, leaving = self._keys.term, self._ar.leaving
        if leaving is None:
            return {term(k): c for k, c in vec.items()}
        return {term(k): leaving(c) for k, c in vec.items()}

    def _column(self, vec: dict) -> dict:
        """Kernel dict -> {row: Poly}, as column_from_flat(_decode(vec))."""
        term, leaving = self._keys.term, self._ar.leaving
        cols: dict = {}
        for k, c in vec.items():
            pos, m = term(k)
            cols.setdefault(pos, {})[m] = c if leaving is None else leaving(c)
        return {pos: Poly(self.ring, terms) for pos, terms in sorted(cols.items())}

    # construction ---------------------------------------------------

    def _note_rep(self, e: _Elem):
        """Raise the excess to cover e's representation."""
        if e.rep:
            keys = self._keys
            self._excess = max(self._excess,
                               keys.degree(max(e.rep)) - keys.degree(e.lead))

    def _run(self, vecs):
        ar = self._ar
        one = mono_one(self.ring.nvars)
        pairs: list = []
        monos: list = []  # lead monomials, parallel to self._elems
        # per position: indices of the live (not inert) and inert elements,
        # and the largest lead degree among the inert ones
        live: dict = {}
        inert: dict = {}
        inert_top: dict = {}

        def add(vec, rep):
            e = _Elem(self._keys, vec, rep)
            self._note_rep(e)
            idx, pos = len(self._elems), e.pos
            self._elems.append(e)
            self._by_pos.setdefault(pos, []).append(idx)
            mono = self._keys.term(e.lead)[1]
            monos.append(mono)
            twist = self.twists[pos]
            self._push_pairs(pairs, idx, mono, twist, live.get(pos, ()), monos)
            if e.tail or e.rep:
                self._push_pairs(pairs, idx, mono, twist, inert.get(pos, ()), monos)
                live.setdefault(pos, []).append(idx)
                return
            # pairs of two inert elements are not queued, but each counts
            # against the budget; deg lcm <= the sum of the lead degrees
            cap, deg, top = self.max_degree, mono_deg(mono), inert_top.get(pos)
            if cap is not None and top is not None and deg + top + twist > cap:
                for other in inert[pos]:
                    if sum(map(max, monos[other], mono)) + twist > cap:
                        raise BudgetError("groebner pair degree", cap)
            inert.setdefault(pos, []).append(idx)
            inert_top[pos] = deg if top is None else max(deg, top)

        ntracked = self._tracked if self.track else 0
        for t, vec in enumerate(vecs):
            if not vec:
                if t < ntracked:
                    self.syzygies.append({(t, one): self._field_one})
                continue
            vec = self._encode(vec)
            rep = None
            if self.track:
                rep = {self._keys.key((t, one)): 1} if t < ntracked else {}
            add(vec, rep)
        while pairs:
            _deg, i, j = heappop(pairs)
            gi, gj = self._elems[i], self._elems[j]
            lcm = mono_lcm(monos[i], monos[j])
            # every term this pair creates has degree <= deg(lcm) + excess
            self._ensure(mono_deg(lcm) + self._excess)
            if not self.track and (
                    self._chain_skip(i, j, lcm, monos)
                    or self._rank_one and mono_coprime(monos[i], monos[j])):
                continue
            top = self._keys.key((gi.pos, lcm))
            qi, qj = top - gi.lead, top - gj.lead
            ci, cj = ar.neg(gj.lc), gi.lc
            vec: dict = {}
            ar.submul(vec, gi.tail, qi, ci)
            ar.submul(vec, gj.tail, qj, cj)
            rep = None
            if self.track:
                rep = {}
                ar.submul(rep, gi.rep, qi, ci)
                ar.submul(rep, gj.rep, qj, cj)
            nf, rep = self._reduce(vec, rep)
            if nf:
                add(nf, rep)
            elif self.track and rep:
                self.syzygies.append(self._decode(rep))
        self._interreduce()

    def _push_pairs(self, pairs, idx, mono, twist, others, monos):
        """Queue (other, idx) pairs by degree: deg lcm of leads + twist.

        A pair above max_degree raises BudgetError as soon as it is formed.
        """
        cap = self.max_degree
        for other in others:
            degree = sum(map(max, monos[other], mono)) + twist
            if cap is not None and degree > cap:
                raise BudgetError("groebner pair degree", cap)
            heappush(pairs, (degree, other, idx))

    def _chain_skip(self, i, j, lcm, monos):
        keys = self._keys
        guard = keys.guard
        pos = self._elems[i].pos
        # packed exponents of lcm with every guard bit set
        target = keys.exps(keys.key((pos, lcm))) | guard
        for k in self._by_pos[pos]:
            if k == i or k == j:
                continue
            if (target - self._elems[k].exps) & guard == guard:
                mk = monos[k]
                if mono_lcm(mk, monos[i]) != lcm and mono_lcm(mk, monos[j]) != lcm:
                    return True
        return False

    def _reduce(self, vec, rep, skip=None):
        """Full normal form; updates rep alongside when tracking.

        Terms are taken largest first off a heap of negated keys.  A key
        can sit on the heap more than once or after it cancelled; it is
        live only while it is in `work`, and a reduction step only
        creates keys smaller than the one it removes.
        """
        ar = self._ar
        submul, div = ar.submul, ar.div
        keys = self._keys
        pmask, pbits, fbits = keys.pmask, keys.pbits, keys.fbits
        lowmask, guard = keys.lowmask, keys.guard
        elems, by_pos = self._elems, self._by_pos
        work = dict(vec)
        heap = [-k for k in work]
        heapify(heap)
        out: dict = {}
        while heap:
            k = -heappop(heap)
            coeff = work.get(k)
            if coeff is None:
                continue
            red = None
            cands = by_pos.get(pmask - (k & pmask))
            if cands:
                s = k >> pbits
                target = (s - ((s & lowmask) << fbits)) | guard
                for idx in cands:
                    e = elems[idx]
                    if (target - e.exps) & guard == guard and idx != skip:
                        red = e
                        break
            del work[k]
            if red is None:
                out[k] = coeff
                continue
            shift = k - red.lead
            factor = div(coeff, red.lc)
            submul(work, red.tail, shift, factor, heap)
            if rep is not None and red.rep is not None:
                submul(rep, red.rep, shift, factor)
        return out, rep

    def _interreduce(self):
        """Canonical reduced basis: minimal leads, reduced tails, monic."""
        ar = self._ar
        elems = self._elems
        order = sorted(range(len(elems)), key=lambda i: elems[i].lead)
        guard = self._keys.guard
        keep = []
        kept_exps: dict = {}  # pos -> packed exponents of kept leads
        for i in order:
            ei = elems[i]
            target = ei.exps | guard
            same = kept_exps.setdefault(ei.pos, [])
            if not any((target - x) & guard == guard for x in same):
                same.append(ei.exps)
                keep.append(i)
        kept = [elems[i] for i in keep]
        self._elems = kept
        self._by_pos = {}
        for idx, e in enumerate(kept):
            self._by_pos.setdefault(e.pos, []).append(idx)
        if kept:
            self._ensure(max(self._keys.degree(e.lead) for e in kept) + self._excess)
        for idx, e in enumerate(kept):
            nf, rep = self._reduce(e.vec(), e.rep, skip=idx)
            inv = ar.inv(nf[max(nf)])
            e.set_vec(self._keys, ar.scale(nf, inv))
            if rep is not None:
                e.rep = ar.scale(rep, inv)
                self._note_rep(e)

    # queries ---------------------------------------------------------

    def basis_columns(self):
        return [self._column(e.vec()) for e in self._elems]

    def leading_terms(self):
        return [self._keys.term(e.lead) for e in self._elems]

    def normal_form_flat(self, vec: dict) -> dict:
        nf, _ = self._reduce(self._encode(vec), None)
        return self._decode(nf)

    def normal_form(self, col: dict) -> dict:
        nf, _ = self._reduce(self._encode(flat_from_column(col)), None)
        return self._column(nf)

    def independent(self, vecs) -> list:
        """Indices i such that the normal form of vecs[i] (flat) is not a
        k-linear combination of the normal forms of vecs[:i].

        Gaussian elimination on kernel dicts: each kept normal form is
        reduced by the earlier pivots and stored monic under its largest
        key.  The keys are widened for all vecs up front, so every pivot
        key stays valid.
        """
        ar = self._ar
        terms = [t for v in vecs for t in v]
        if terms:
            self._ensure(max(mono_deg(m) for _p, m in terms),
                         max(p for p, _m in terms))
        pivots: dict = {}
        kept = []
        for i, vec in enumerate(vecs):
            nf, _ = self._reduce(self._encode(vec), None)
            while nf:
                top = max(nf)
                piv = pivots.get(top)
                if piv is None:
                    pivots[top] = ar.scale(nf, ar.inv(nf[top]))
                    kept.append(i)
                    break
                ar.submul(nf, piv, 0, nf[top])
        return kept

    def contains(self, col: dict) -> bool:
        nf, _ = self._reduce(self._encode(flat_from_column(col)), None)
        return not nf

    def lift_flat(self, vec: dict):
        """Representation of vec over the tracked columns, or None.

        Requires track=True.  Invariant: vec - sum_t lift[t] * columns[t]
        lies in the span of the fixed columns.
        """
        if not self.track:
            raise ValueError("lift requires a tracked basis")
        nf, rep = self._reduce(self._encode(vec, self._excess), {})
        if nf:
            return None
        neg = self._ar.neg
        return self._decode({k: neg(c) for k, c in rep.items()})

    def lift(self, col: dict):
        flat = self.lift_flat(flat_from_column(col))
        if flat is None:
            return None
        return column_from_flat(self.ring, flat)


def groebner_basis(ring, columns, twists, *, max_degree=None):
    """Canonical reduced Groebner basis, as sparse columns."""
    return ModuleGB(ring, columns, twists, max_degree=max_degree).basis_columns()


def syzygy_columns(ring, columns, twists, *, fixed=(), max_degree=None):
    """Generators of {h : sum_t h[t] * columns[t] in span(fixed)}.

    Returned as sparse columns over the indices of `columns`; entry
    degrees are homogeneous for the twist list
    [column_degree(c) for c in columns].
    """
    gb = ModuleGB(ring, columns, twists, track=True, fixed=fixed,
                  max_degree=max_degree)
    return [column_from_flat(ring, s) for s in gb.syzygies]
