"""Standard graded quotient rings R = k[x_1..x_n]/I.

The kernel only ever divides in the ambient polynomial ring S; a quotient
ring contributes f*e_i (f running over the reduced Groebner basis of I,
e_i over the free generators) to every module computation.  The module
layer hands the kernel the ring as its `quotient`, and the kernel admits
the products itself from `reduced_relations` and the data each ring
keeps of them once: their leads, which of them are monomials, and the
largest lcm degree of two monomial ones.  aug_columns builds them as
explicit columns; it serves `ModulePresentation.over_ambient`, which
needs them as relations of a presentation over S, and test references
that run the kernel with I*F as ordinary fixed columns.

Over a monomial ideal the reduced basis is the minimal monomial
generators, and the normal form of p drops the terms of p that one of
them divides; nf does that without the kernel.
"""

from __future__ import annotations

from itertools import combinations

from . import memo
from .errors import HomogeneityError
from .fields import Field
from .groebner import ModuleGB
from .hilbert import HilbertSeries, monomial_quotient_numerator
from .monomials import mono_divides, monomials_of_degree
from .polynomials import Poly, PolyRing


class GradedRing:
    """S/I with S standard graded and I a homogeneous ideal."""

    def __init__(self, poly_ring: PolyRing, relations):
        self.poly_ring = poly_ring
        self.field = poly_ring.field
        self.names = poly_ring.names
        self.nvars = poly_ring.nvars
        rels = []
        for p in poly_ring.as_polys(relations):
            if p.is_zero():
                continue
            if not p.is_homogeneous():
                raise HomogeneityError(f"ring relation {p} is not homogeneous")
            if p.degree() == 0:
                raise ValueError("ring relations generate the unit ideal")
            rels.append(p)
        self.relations = tuple(rels)
        self._gb = ModuleGB(poly_ring, [{0: p} for p in rels], [0])
        basis = self._gb.basis_columns()
        if any(c[0].degree() == 0 for c in basis):
            raise ValueError("ring relations generate the unit ideal")
        self.reduced_relations = tuple(c[0] for c in basis)
        self._leads = [mono for (_pos, mono) in self._gb.leading_terms()]
        self.is_polynomial = not self.reduced_relations
        # what every kernel run over this ring reads of I (ModuleGB's
        # `quotient`): which reduced generators are monomials, and the
        # largest lcm degree of two of them
        self._monomial_gens = tuple(len(f.terms) == 1
                                    for f in self.reduced_relations)
        self._monomial = all(self._monomial_gens)
        self._pair_top = max(
            (sum(map(max, a, b)) for a, b in combinations(
                [m for m, f in zip(self._leads, self._monomial_gens) if f], 2)),
            default=None)
        self._key = (
            self.poly_ring.key()
            + "/("
            + ", ".join(str(p) for p in self.reduced_relations)
            + ")"
        )
        self._ambient = None

    # identity ---------------------------------------------------------

    def key(self) -> str:
        return self._key

    def __eq__(self, other):
        return isinstance(other, GradedRing) and other._key == self._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return self._key

    # structure ----------------------------------------------------------

    def ambient(self) -> "GradedRing":
        """The polynomial ring S as a GradedRing (identity if already free)."""
        if self.is_polynomial:
            return self
        if self._ambient is None:
            self._ambient = GradedRing(self.poly_ring, [])
        return self._ambient

    def nf(self, p: Poly) -> Poly:
        if self.is_polynomial or p.is_zero():
            return p
        leads = self._leads
        if not any(mono_divides(lead, m) for m in p.terms for lead in leads):
            return p  # already reduced: the normal form is p itself
        if self._monomial:
            # a term that a lead divides reduces to 0, and no other moves
            return Poly(self.poly_ring, {
                m: c for m, c in p.terms.items()
                if not any(mono_divides(lead, m) for lead in leads)})
        out = self._gb.normal_form({0: p})
        return out.get(0, self.poly_ring.zero())

    def contains_in_ideal(self, p: Poly) -> bool:
        """Membership in I."""
        return self.nf(p).is_zero()

    def aug_columns(self, gen_twists) -> list:
        """Columns f*e_i for f in the reduced basis of I, i outer (the
        products a kernel run with quotient=self admits)."""
        out = []
        for i in range(len(gen_twists)):
            for f in self.reduced_relations:
                out.append({i: f})
        return out

    def standard_monomials(self, degree: int):
        """k-basis of R in one degree, grevlex-descending."""
        return [
            m
            for m in monomials_of_degree(self.nvars, degree)
            if not any(mono_divides(l, m) for l in self._leads)
        ]

    def hilbert_series(self) -> HilbertSeries:
        return memo.cached("ring-hs", _ring_series, self)

    def parse(self, text: str) -> Poly:
        """Parse and reduce mod I."""
        return self.nf(self.poly_ring.parse(text))

    def quotient_by(self, extra) -> "GradedRing":
        """R/(extra) as a quotient of the same ambient ring; `extra` holds
        strings or Polys, as the relations of `GradedRing` do."""
        return GradedRing(self.poly_ring, [*self.relations, *extra])


def _ring_series(R: GradedRing) -> HilbertSeries:
    return HilbertSeries(R.nvars,
                         monomial_quotient_numerator(R.nvars, R._leads))


def make_ring(field: Field, names, relations=()) -> GradedRing:
    """Public constructor: k[names]/(relations)."""
    return GradedRing(PolyRing(field, names), list(relations))
