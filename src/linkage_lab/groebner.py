"""Groebner bases for submodules of graded free modules over k[x_1..x_n].

Vectors cross the module boundary as columns, sparse dicts {row: Poly}:
inputs, queries, bases, normal forms, lifts and syzygies alike.  The
module order is TOP(grevlex): compare monomials by grevlex, break ties by
position with lower index greater.

Two modes:

* plain: reduced Groebner basis for normal forms and membership.  The
  lcm chain criterion is applied everywhere, the product criterion (below)
  to every pair of a rank-1 run and to the pairs with a monomial of I*F.
* tracked: every basis element carries a representation over the tracked
  input columns, and each S-pair that reduces to zero donates its
  representation as a syzygy.  No criterion skips a pair, except the
  product criterion for I*F in a minimal run (below).  Inputs enter the
  basis unreduced, which makes the harvested set generate the full
  syzygy module of the inputs.  Fixed input columns join the span after
  the tracked ones with an empty representation; representation
  arithmetic is linear with coefficients taken from the vectors, so every
  representation is the projection onto the tracked columns of the one a
  run tracking every input would carry, and a syzygy whose projection is
  0 is never built.

Either mode can admit its columns minimally (minimal=True; La Scala and
Stillman, JSC 26, 1998).  The fixed columns enter first; the others are
candidates.  A candidate of degree d waits until every pair of degree
<= d has been reduced, and candidates enter in (degree, index) order.
The basis then is a d-truncated Groebner basis of the fixed columns and
the candidates kept so far (a reduced entry's pairs all have degree > d),
so a candidate's normal form is zero exactly when it lies in that span.
Such a candidate is dropped; otherwise its normal form joins the basis
and its index goes to .kept, which is therefore the minimal generating
subset that the greedy (degree, index) scan picks.  No interreduction
runs: the basis only serves the run.  A plain minimal run stops at its
last admission.  A tracked one runs every pair, and its representations
and harvested syzygies are over the positions of .kept.  Why the harvest
generates all syzygies of the kept columns modulo span(fixed): by
Schreyer's theorem the syzygies of the final basis are generated by its
pair syzygies, whose representations are the harvest, and a syzygy of
the inputs is a combination of those plus the differences e_t - (the
representation of input t's expression over the basis).  Input t entered
as g = f_t - sum c_j g_j with representation e_t - sum c_j rep(g_j), so
its expression g + sum c_j g_j has representation e_t, and every
difference vanishes: the same holds for inputs entered unreduced.

A non-minimal run ends with a minimal basis: it keeps, in lead order,
the elements whose leads no other kept lead divides.  Their tails are
reduced, and the elements made monic, only on the first read of tails or
representations (basis_columns, lift), once and in place.
Leading terms, membership and normal forms need no reduced tails: the
leads of a minimal basis are those of the reduced one, and the remainder
of full reduction by any Groebner basis is the same (Cox, Little and
O'Shea, Ideals, Varieties, and Algorithms, ch. 2 sec. 6, Prop. 1; under
a TOP order the module case is the same).  A tail-less element is only
made monic: its lead is minimal, so it is its own normal form.

A run over a quotient ring R = S/I takes R as `quotient`.  Right after
the fixed columns it admits f*e_p for every position p and every f in
the reduced basis of I, positions outer: the elements, order and indices
that the columns f*e_p appended to `fixed` would give, untracked like
them.  One loop per position appends the copies and does for each what
admitting a column does: it queues the pairs with the live elements of
the position, and a tailed f*e_p also those with the inert ones, while a
monomial f*e_p forms its pairs with the inert fixed columns by the exact
scan below.  Each f is keyed once per run, at position 0, and moving a
key to position p subtracts p, so a monomial f enters as an inert
element with no column built, encoded or decoded.  The leads of I,
which of its generators are monomials and pair_top (below) do not
depend on the run; R computes them once.

In both modes an element is inert when it has no tail and an empty or
absent representation, e.g. a monomial of I*F.  A pair of two inert
elements has S-vector 0 and representation 0, so it is never queued,
but it is formed (see below).  The pairs among the monomials of I at
position p are formed at once: their highest degree is pair_top +
twists[p], where pair_top is the largest lcm degree of two monomial
generators of I.  A new inert element's pairs
with the other inert elements of its position are formed by an exact
scan of their lcm degrees, run only when the sum of the lead degrees
could raise .top_degree.

The product criterion (Buchberger, 1979) forms a pair but does not queue
it.  In a plain rank-1 run it covers every pair of coprime leads.  In
modules it covers an element g with lead c*m*e_p and a monomial f*e_p of
I*F with gcd(m, f) = 1.  Their S-vector is (f/c)*tail(g), and the run
admitted f*e_q at every position q, so every term of it is a multiple of
an inert element: it has a standard representation, and the pair adds
nothing to a Groebner basis.  So a plain run skips it, and its outputs
do not change: the reduced basis, .kept, and .top_degree, since the leads
each degree adds are fixed by the span and the top is the largest lcm
degree among them.  A tracked minimal run with no fixed columns over a
monomial I skips it too.  There I*F comes first in every position's
_by_pos, so the S-vector reduces to zero by inert elements alone, and its
representation (f/c)*rep(g) lies in I*F, which the harvest drops.
Elsewhere a tracked run queues the pair, because a fixed column or a live
element can reduce first and leave a representation outside I, and over
an I with tails the harvest keeps the multiples of f.

All inputs are assumed homogeneous with respect to the given twists;
pair degrees then increase monotonically and max_degree is an honest cap:
forming any pair above it, queued or not, raises BudgetError.  A run
records the highest pair degree it formed (.top_degree, None before the
first pair).  A plain minimal run never forms a higher pair than the
tracked run over the same columns: it ends with its last admission, and
up to there the two reach the same top, since through the degree of
the last candidate both hold truncated Groebner bases of the same span,
whose leading terms are the minimal generators of its initial module
degree by degree, and every two elements at one position form a pair.
So the plain run's .top_degree is at most the tracked run's, and a
degree budget the tracked run stays within, the plain run does too.

A tracked, non-minimal run can be limited to degree d (through=d): the
graded Buchberger truncation of Kreuzer and Robbiano, Computational
Commutative Algebra 2, sec. 4.5 (Macaulay2's DegreeLimit).  A pair of
degree above d is neither queued nor formed, so .top_degree <= d, and
max_degree raises only for a pair at or below d.  Pairs are popped in
increasing degree, and an element born of a pair of degree e forms only
pairs of degree >= e, so through d the limited run adds the same
elements, pops the same pairs and reduces them alike, in the same order,
as the full run.  Its .syzygies are therefore exact through d: the full
run's harvest of degree <= d, in the same order.  A zero tracked column
has no degree the kernel can read, so its unit syzygy is kept whatever
the column's degree.  The run answers nothing else: its basis is a
Groebner basis only through d, and every query raises.

Inside the kernel a term (pos, mono) is a plain int, its term key (see
_TermKeys): integer order is the module order, and multiplying a term by
x^q adds the key of q.  A column is packed into keys on the way in and
unpacked into a column on the way out, through per-width tables of the
monomials met; no other module sees a key.  Reduction pops the largest
live term from a heap of keys (Monagan-Pearce, CASC 2007) and pushes
only the terms each subtraction creates.  Divisibility of a term by a
leading term is one guard-bit test on packed exponents.  The keys stay
exact while every monomial degree is below the key width's limit.
Before an S-pair, the tail reduction, or a query, the kernel bounds the
largest degree the step can create (the lcm's degree, or the input's,
plus the largest excess of a representation's degree over its element's
lead) and re-encodes its basis at a wider width when the bound reaches
the limit.

Coefficient arithmetic is specialised per field and never goes through
the Field object in the inner loops: GF(p) uses ints with one `% p` per
term; QQ keeps a coefficient an int while it is integral and a Fraction
only otherwise.  Every coefficient leaving the kernel is a field element
again (a Fraction over QQ), equal to what field arithmetic gives.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import inf
from operator import mul

from .errors import BudgetError
from .fields import PrimeField
from .monomials import mono_coprime, mono_deg, mono_lcm, mono_one
from .polynomials import Poly, PolyRing


def column_degree(col: dict, twists) -> int | None:
    """Twisted degree of a homogeneous column; None for zero."""
    for pos, poly in col.items():
        for m in poly.terms:
            return mono_deg(m) + twists[pos]
    return None


class _Parts(dict):
    """monomial -> key part under `weights`, filled on first use."""

    __slots__ = ("weights",)

    def __missing__(self, mono):
        part = self[mono] = sum(map(mul, mono, self.weights))
        return part


class _Monos(dict):
    """key part -> monomial: the partial sums in fields of `fbits` bits
    above `pbits` bits, undone; filled on first use."""

    __slots__ = ("nvars", "fbits", "pbits")

    def __missing__(self, part):
        fbits, fmask = self.fbits, (1 << self.fbits) - 1
        rest = part >> self.pbits
        mono, prev = [], 0
        for _ in range(self.nvars - 1):
            s = rest & fmask
            mono.append(s - prev)
            prev = s
            rest >>= fbits
        if self.nvars:
            mono.append(rest - prev)
        mono = self[part] = tuple(mono)
        return mono


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

    A key is the part of its monomial plus pmask - pos; the part has its
    low `pbits` bits zero, so key - (key & pmask) recovers it.  Two tables,
    filled on first use, spare the arithmetic for a monomial met again:
    `parts` maps a monomial to its part and `monos` a part to its
    monomial.  Both belong to this width alone: a wider instance starts
    with empty tables.
    """

    __slots__ = ("nvars", "fbits", "pbits", "pmask", "limit", "dshift",
                 "weights", "lowmask", "guard", "parts", "monos")

    def __init__(self, nvars: int, degree: int, positions: int):
        fbits = max(6, degree.bit_length() + 2)
        self.nvars = nvars
        self.fbits = fbits
        self.pbits = max(positions, 1).bit_length()
        self.pmask = (1 << self.pbits) - 1
        self.limit = 1 << (fbits - 1)
        self.dshift = self.pbits + fbits * max(nvars - 1, 0)
        # x_i contributes 1 to the fields s_i .. s_n: the weight is
        # B**i + .. + B**(n-1) = (B**n - B**i) / (B - 1), B = 2**fbits
        top, base = 1 << (fbits * nvars), (1 << fbits) - 1
        self.weights = [(top - (1 << (fbits * i))) // base << self.pbits
                        for i in range(nvars)]
        self.lowmask = (1 << (fbits * max(nvars - 1, 0))) - 1
        # the top bit of every field: 2**(fbits-1) * (1 + B + .. + B**(n-1))
        self.guard = (top - 1) // base << (fbits - 1)
        self.parts = parts = _Parts()
        parts.weights = self.weights
        self.monos = monos = _Monos()
        monos.nvars, monos.fbits, monos.pbits = nvars, fbits, self.pbits

    def covers(self, degree: int, pos: int) -> bool:
        return degree < self.limit and pos <= self.pmask

    def key(self, term) -> int:
        pos, mono = term
        return self.parts[mono] + self.pmask - pos

    def term(self, key: int):
        """The (pos, mono) a key encodes."""
        low = key & self.pmask
        return self.pmask - low, self.monos[key - low]

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

    def moved(self, pos: int, rep) -> "_Elem":
        """This element, keyed at position 0, moved to position pos: each
        key drops by pos, and the packed exponents stay."""
        e = _Elem.__new__(_Elem)
        e.lead, e.lc, e.pos, e.exps = self.lead - pos, self.lc, pos, self.exps
        e.tail = {k - pos: c for k, c in self.tail.items()}
        e.rep = rep
        return e

    def vec(self) -> dict:
        out = {self.lead: self.lc}
        out.update(self.tail)
        return out


class ModuleGB:
    """Groebner basis of the column span inside a twisted free module.

    twists[i] is the degree of the i-th free generator.  The span is that
    of `columns` followed by `fixed` and then I*F, the products f*e_p of
    the reduced basis of the ideal I of `quotient` (a GradedRing over
    `ring`; none when it is None) with the free generators.  With
    track=True the instance also exposes .syzygies and .lift(), both
    columns over the indices of `columns` alone: .syzygies generates the
    projection onto those coordinates of the syzygy module of all inputs
    (only nonzero projections are kept), and .lift() expresses members
    modulo span(fixed) + I*F.  Over a monomial I (every element of I*F
    inert) each harvested representation drops the keys whose packed
    exponents a lead of I divides: .syzygies then holds normal forms mod
    I, and a syzygy that is 0 there is dropped.  .syzygies_reduced says
    whether the harvest is reduced mod I: True when I is monomial or 0.

    With minimal=True `columns` are candidates: .kept lists, in (degree,
    index) order, those outside span(fixed) + I*F and the earlier ones,
    and .syzygies is over the positions of .kept, rows ascending.  Such
    an instance answers nothing else; its basis is not reduced, and not
    complete unless tracked.

    With through=d (track=True, minimal=False) the run stops at degree d:
    .syzygies is the full run's harvest of degree <= d (see the module
    doc), and every query raises.
    """

    def __init__(self, ring: PolyRing, columns, twists, *, track=False,
                 fixed=(), quotient=None, max_degree=None, minimal=False,
                 through=None):
        if through is not None and (not track or minimal):
            raise ValueError("a degree limit needs a tracked, non-minimal run")
        self.ring = ring
        self.twists = tuple(twists)
        self.track = track
        self.max_degree = max_degree
        self.through = through
        self._limit = inf if through is None else through
        self.top_degree = None
        self.syzygies: list = []
        self.kept: list = []
        self._elems: list[_Elem] = []
        self._by_pos: dict = {}
        columns = list(columns)
        self._tracked = len(columns)
        self._input_columns = columns + list(fixed)
        q = None if quotient is None or quotient.is_polynomial else quotient
        self._quotient = q
        self.syzygies_reduced = q is None or q._monomial
        # where the product criterion drops a coprime pair (module doc):
        # any pair of a plain rank-one run, and a pair with a monomial of
        # I*F in a plain run or a tracked minimal one with no fixed
        # columns over a monomial I
        self._coprime_any = not track and len(self.twists) <= 1
        self._coprime_ideal = not track or (
            minimal and not fixed and q is not None and q._monomial)
        # the monomials whose multiples a harvest drops, and their packed
        # exponents under the term keys they were last packed with
        self._harvest_leads = q._leads if q is not None and track \
            and q._monomial else []
        self._harvest_exps = (None, [])
        # set once the basis is minimal; its tails wait for the first read
        self._tails_pending = False
        field = ring.field
        self._ar = _GF(field.p) if isinstance(field, PrimeField) else _QQ()
        # max over elements of (rep degree - lead degree), at least 0
        self._excess = 0
        self._keys = _TermKeys(ring.nvars, 0,
                               max(len(self.twists), self._tracked))
        self._run(minimal)

    # term keys ---------------------------------------------------------

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

    def _encode(self, col: dict, extra_degree: int = 0) -> dict:
        """Column {pos: Poly} -> kernel dict, with room for terms of degree
        up to the column's plus extra_degree.

        A key's top field exceeds the degree of its monomial only when a
        lower field overflowed, which needs a degree of at least `limit`;
        so one look at the largest key tells whether the width sufficed.
        """
        keys = self._keys
        top = max(col, default=-1)
        if top <= keys.pmask:
            parts, pmask, enter = keys.parts, keys.pmask, self._ar.entering
            if enter is None:
                out = {parts[m] + pmask - pos: c
                       for pos, poly in col.items() for m, c in poly.terms.items()}
            else:
                out = {parts[m] + pmask - pos: enter(c)
                       for pos, poly in col.items() for m, c in poly.terms.items()}
            if not out or keys.degree(max(out)) + extra_degree < keys.limit:
                return out
        self._ensure(max(poly.degree() or 0 for poly in col.values())
                     + extra_degree, top)
        return self._encode(col, extra_degree)

    def _column(self, vec: dict) -> dict:
        """Kernel dict -> column {row: Poly}, rows ascending."""
        monos, pmask = self._keys.monos, self._keys.pmask
        leaving = self._ar.leaving
        cols: dict = {}
        for k, c in vec.items():
            low = k & pmask
            cols.setdefault(pmask - low, {})[monos[k - low]] = \
                c if leaving is None else leaving(c)
        return {pos: Poly(self.ring, terms) for pos, terms in sorted(cols.items())}

    # construction ---------------------------------------------------

    def _note_rep(self, e: _Elem):
        """Raise the excess to cover e's representation."""
        if e.rep:
            keys = self._keys
            self._excess = max(self._excess,
                               keys.degree(max(e.rep)) - keys.degree(e.lead))

    def _run(self, minimal):
        ar = self._ar
        one = mono_one(self.ring.nvars)
        columns = self._input_columns
        pairs: list = []
        monos: list = []  # lead monomials, parallel to self._elems
        # per position: indices of the live (not inert) elements, of the
        # inert ones outside I*F and of the monomials of I*F, and the
        # largest lead degree among the last two
        live: dict = {}
        inert: dict = {}
        ideal: dict = {}
        inert_top: dict = {}
        push = self._push_pairs
        coprime_any, coprime_ideal = self._coprime_any, self._coprime_ideal

        def add(e, mono):
            """Append e (lead monomial mono) and queue or form its pairs.
            An inert e forms its pairs with the inert elements before it
            by an exact scan."""
            self._note_rep(e)
            idx, pos = len(self._elems), e.pos
            self._elems.append(e)
            self._by_pos.setdefault(pos, []).append(idx)
            monos.append(mono)
            twist = self.twists[pos]
            push(pairs, idx, mono, twist, live.get(pos, ()), monos, coprime_any)
            if e.tail or e.rep:
                if pos in inert:
                    push(pairs, idx, mono, twist, inert[pos], monos, coprime_any)
                push(pairs, idx, mono, twist, ideal.get(pos, ()), monos,
                     coprime_ideal)
                live.setdefault(pos, []).append(idx)
                return
            deg, top = mono_deg(mono), inert_top.get(pos)
            self._form_inert(mono, twist, top, monos, inert.get(pos, ()),
                             ideal.get(pos, ()))
            inert.setdefault(pos, []).append(idx)
            inert_top[pos] = deg if top is None else max(deg, top)

        def add_vec(vec, rep):
            e = _Elem(self._keys, vec, rep)
            add(e, self._keys.term(e.lead)[1])

        ntracked = self._tracked if self.track else 0
        # minimal admission: fixed columns enter now, and each nonzero
        # candidate waits, largest (degree, index) first, for its degree
        waiting = []
        if minimal:
            degrees = [column_degree(c, self.twists)
                       for c in columns[:self._tracked]]
            waiting = sorted(((d, t) for t, d in enumerate(degrees)
                              if d is not None), reverse=True)
        for t in range(self._tracked if minimal else 0, len(columns)):
            vec = self._encode(columns[t])
            if not vec:
                if t < ntracked:
                    self.syzygies.append({t: self.ring.one()})
                continue
            rep = None
            if self.track:
                rep = {self._keys.key((t, one)): 1} if t < ntracked else {}
            add_vec(vec, rep)
        self._admit_ideal(pairs, live, inert, ideal, inert_top, monos)
        # a plain minimal run ends with its last admission
        drain = self.track or not minimal
        while waiting or (pairs and drain):
            if waiting and (not pairs or pairs[0][0] > waiting[-1][0]):
                _deg, t = waiting.pop()
                vec = self._encode(columns[t], self._excess)
                rep = {self._keys.key((t, one)): 1} if self.track else None
                nf, rep = self._reduce(vec, rep)
                if nf:
                    self.kept.append(t)
                    add_vec(nf, rep)
                continue
            _deg, i, j = heappop(pairs)
            gi, gj = self._elems[i], self._elems[j]
            lcm = mono_lcm(monos[i], monos[j])
            # every term this pair creates has degree <= deg(lcm) + excess
            self._ensure(mono_deg(lcm) + self._excess)
            if not self.track and self._chain_skip(i, j, lcm, monos):
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
                add_vec(nf, rep)
            elif self.track and rep:
                if self._harvest_leads:
                    rep = self._outside_ideal(rep)
                if rep:
                    self.syzygies.append(self._column(rep))
        if minimal:
            where = {t: i for i, t in enumerate(self.kept)}
            self.syzygies = [{where[t]: s[t] for t in sorted(s, key=where.get)}
                             for s in self.syzygies]
        elif self.through is None:
            self._minimize()
            self._tails_pending = True

    def _admit_ideal(self, pairs, live, inert, ideal, inert_top, monos):
        """Admit I*F after the fixed columns (see the module doc): per
        position, one loop appends the copies and does `add`'s pair work."""
        q = self._quotient
        if q is None:
            return
        leads, monomial = q._leads, q._monomial_gens
        # widen first, so that no key of `base` goes stale
        self._ensure(max(map(mono_deg, leads)))
        keys = self._keys
        base = [_Elem(keys, self._encode({0: f}), None)
                for f in q.reduced_relations]
        gens = list(zip(base, leads, monomial))
        ideal_monos = [m for m, inert_f in zip(leads, monomial) if inert_f]
        ideal_top = max(map(mono_deg, ideal_monos), default=None)
        elems, track, push = self._elems, self.track, self._push_pairs
        coprime_any, coprime_ideal = self._coprime_any, self._coprime_ideal
        for p, twist in enumerate(self.twists):
            by_pos = self._by_pos.setdefault(p, [])
            live_p, ideal_p = live.setdefault(p, []), ideal.setdefault(p, [])
            fixed, fixed_top = inert.get(p, ()), inert_top.get(p)
            if q._pair_top is not None:
                if q._pair_top + twist <= self._limit:
                    self._form(q._pair_top + twist)
                else:
                    self._form_max(sum(map(max, a, b)) + twist
                                   for a, b in combinations(ideal_monos, 2))
            for e0, mono, inert_f in gens:
                idx = len(elems)
                elems.append(e0.moved(p, {} if track else None))
                by_pos.append(idx)
                monos.append(mono)
                push(pairs, idx, mono, twist, live_p, monos,
                     coprime_ideal if inert_f else coprime_any)
                if inert_f:
                    self._form_inert(mono, twist, fixed_top, monos, fixed)
                    ideal_p.append(idx)
                else:
                    push(pairs, idx, mono, twist, fixed, monos, coprime_any)
                    push(pairs, idx, mono, twist, ideal_p, monos, coprime_ideal)
                    live_p.append(idx)
            if ideal_top is not None:
                inert_top[p] = ideal_top if fixed_top is None \
                    else max(ideal_top, fixed_top)

    def _form_inert(self, mono, twist, others_top, monos, *groups):
        """Form the pairs of an inert element (lead monomial mono) with
        the inert elements in `groups` (lists of indices) of its position,
        whose largest lead degree is others_top.  Their S-vectors are 0,
        so none is queued; deg lcm <= the sum of the lead degrees, and
        only a sum above .top_degree calls for the exact lcm degrees."""
        if others_top is not None and (
                self.top_degree is None
                or mono_deg(mono) + others_top + twist > self.top_degree):
            self._form_max(sum(map(max, monos[other], mono)) + twist
                           for others in groups for other in others)

    def _push_pairs(self, pairs, idx, mono, twist, others, monos, coprime):
        """Queue (other, idx) pairs by degree: deg lcm of leads + twist.
        With coprime=True a pair of coprime leads is formed but not
        queued: the product criterion (module doc).  A limited run
        neither queues nor forms a pair above its limit; .top_degree never
        exceeds the limit, so only a pair above the top can."""
        top, limit = self.top_degree, self._limit
        for other in others:
            degree = sum(map(max, monos[other], mono)) + twist
            if top is None or degree > top:
                if degree > limit:
                    continue
                self._form(degree)
                top = degree
            if coprime and mono_coprime(monos[other], mono):
                continue
            heappush(pairs, (degree, other, idx))

    def _form_max(self, degrees):
        """Form the highest of these pair degrees that the run forms: all
        of them, or in a limited run those at or below the limit."""
        limit = self._limit
        top = max((d for d in degrees if d <= limit), default=None)
        if top is not None:
            self._form(top)

    def _form(self, degree):
        """Record a pair of this degree as formed: above max_degree it
        raises BudgetError, above .top_degree it is the new top."""
        if self.top_degree is None or degree > self.top_degree:
            if self.max_degree is not None and degree > self.max_degree:
                raise BudgetError("groebner pair degree", self.max_degree)
            self.top_degree = degree

    def _outside_ideal(self, rep: dict) -> dict:
        """rep without the keys whose monomial a lead of the (monomial)
        ideal divides: its normal form mod the ideal."""
        keys = self._keys
        if self._harvest_exps[0] is not keys:
            self._harvest_exps = (keys, [keys.exps(keys.key((0, m)))
                                         for m in self._harvest_leads])
        leads = self._harvest_exps[1]
        pbits, fbits = keys.pbits, keys.fbits
        lowmask, guard = keys.lowmask, keys.guard
        out = {}
        for k, c in rep.items():
            s = k >> pbits
            target = (s - ((s & lowmask) << fbits)) | guard
            for x in leads:
                if (target - x) & guard == guard:
                    break
            else:
                out[k] = c
        return out

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

    def _minimize(self):
        """Keep the elements whose leads no other kept lead divides, in
        lead order: the leads of the reduced basis."""
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

    def _reduce_tails(self):
        """Finish the canonical reduced basis in place: reduced tails,
        monic.  Runs once, on the first read of tails or representations;
        a tail-less element is only made monic, its lead being minimal."""
        if not self._tails_pending:
            return
        self._tails_pending = False
        ar, elems = self._ar, self._elems
        if elems:
            self._ensure(max(self._keys.degree(e.lead) for e in elems) + self._excess)
        for idx, e in enumerate(elems):
            vec, rep = e.vec(), e.rep
            if e.tail:
                vec, rep = self._reduce(vec, rep, skip=idx)
            inv = ar.inv(e.lc)
            e.set_vec(self._keys, ar.scale(vec, inv))
            if rep is not None:
                e.rep = ar.scale(rep, inv)
                self._note_rep(e)

    # queries ---------------------------------------------------------

    def _refuse_limited(self):
        """Refuse a query that a run limited in degree cannot answer."""
        if self.through is not None:
            raise ValueError(f"a run limited to degree {self.through} "
                             f"answers only .syzygies")

    def basis_columns(self):
        self._refuse_limited()
        self._reduce_tails()
        return [self._column(e.vec()) for e in self._elems]

    def leading_terms(self):
        self._refuse_limited()
        return [self._keys.term(e.lead) for e in self._elems]

    def normal_form(self, col: dict) -> dict:
        self._refuse_limited()
        nf, _ = self._reduce(self._encode(col), None)
        return self._column(nf)

    def contains(self, col: dict) -> bool:
        self._refuse_limited()
        nf, _ = self._reduce(self._encode(col), None)
        return not nf

    def lift(self, col: dict):
        """Representation of col over the tracked columns, or None.

        Requires track=True.  Invariant: col - sum_t lift[t] * columns[t]
        lies in the span of the fixed columns.
        """
        if not self.track:
            raise ValueError("lift requires a tracked basis")
        self._refuse_limited()
        self._reduce_tails()
        nf, rep = self._reduce(self._encode(col, self._excess), {})
        if nf:
            return None
        neg = self._ar.neg
        return self._column({k: neg(c) for k, c in rep.items()})
