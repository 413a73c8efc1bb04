"""Sparse multivariate polynomials over an exact field.

A Poly is a dict from exponent tuple to nonzero coefficient, tagged with
its ring.  All variables have degree 1 (standard grading).  Instances
are immutable by convention: no method mutates terms after construction.
"""

from __future__ import annotations

import re

from .fields import Field
from .monomials import (
    grevlex_key,
    mono_deg,
    mono_mul,
    mono_one,
    mono_str,
)


class PolyRing:
    """Polynomial ring k[x_1..x_n] with the standard grading."""

    def __init__(self, field: Field, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("repeated variable names")
        for nm in names:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", nm):
                raise ValueError(f"bad variable name {nm!r}")
        self.field = field
        self.names = names
        self.nvars = len(names)
        self._zero = Poly(self, {})
        self._one = Poly(self, {mono_one(self.nvars): field.one()})

    def zero(self) -> "Poly":
        return self._zero

    def one(self) -> "Poly":
        return self._one

    def var(self, i: int) -> "Poly":
        e = [0] * self.nvars
        e[i] = 1
        return Poly(self, {tuple(e): self.field.one()})

    def gens(self):
        return [self.var(i) for i in range(self.nvars)]

    def monomial(self, mono, coeff=None) -> "Poly":
        coeff = self.field.one() if coeff is None else coeff
        if coeff == self.field.zero():
            return self._zero
        return Poly(self, {tuple(mono): coeff})

    def from_int(self, n: int) -> "Poly":
        if n == 0:
            return self._zero
        return Poly(self, {mono_one(self.nvars): self.field.from_int(n)})

    def parse(self, text: str) -> "Poly":
        return parse_poly(self, text)

    def as_polys(self, items) -> list:
        """Each item as a Poly: a string parsed, a Poly as it is; neither
        is reduced by any ideal."""
        return [self.parse(p) if isinstance(p, str) else p for p in items]

    def key(self) -> str:
        return f"{self.field.name}[{','.join(self.names)}]"

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.names == self.names
        )

    def __hash__(self):
        return hash((self.field, self.names))

    def __repr__(self):
        return self.key()


class Poly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Top degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(mono_deg(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {mono_deg(m) for m in self.terms}
        return len(degs) <= 1

    def __add__(self, other):
        f = self.ring.field
        t = dict(self.terms)
        for m, c in other.terms.items():
            acc = f.add(t.get(m, f.zero()), c)
            if acc == f.zero():
                t.pop(m, None)
            else:
                t[m] = acc
        return Poly(self.ring, t)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.ring.field
        return Poly(self.ring, {m: f.neg(c) for m, c in self.terms.items()})

    def __mul__(self, other):
        f = self.ring.field
        t: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                acc = f.add(t.get(m, f.zero()), f.mul(c1, c2))
                if acc == f.zero():
                    t.pop(m, None)
                else:
                    t[m] = acc
        return Poly(self.ring, t)

    def scale(self, coeff):
        f = self.ring.field
        if coeff == f.zero():
            return self.ring.zero()
        return Poly(self.ring, {m: f.mul(c, coeff) for m, c in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        f = self.ring.field
        out = []
        for m, c in self.sorted_terms():
            cs = f.to_str(c)
            ms = mono_str(m, self.ring.names)
            if ms == "1":
                piece = cs
            elif cs == "1":
                piece = ms
            elif cs == "-1":
                piece = "-" + ms
            else:
                piece = f"{cs}*{ms}"
            if out and not piece.startswith("-"):
                out.append("+ " + piece)
            elif out:
                out.append("- " + piece[1:])
            else:
                out.append(piece)
        return " ".join(out)

    def __repr__(self):
        return f"Poly({self})"


_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()/]))"
)


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"bad character in polynomial at {text[pos:]!r}")
            break
        out.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return out


class _PolyParser:
    """Recursive descent: sum -> product -> power -> atom."""

    def __init__(self, ring: PolyRing, text: str):
        self.ring = ring
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None, len(self.text))

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expect_op(self, op):
        kind, val, at = self.take()
        if kind != "op" or val != op:
            raise ValueError(f"expected {op!r} at position {at} in {self.text!r}")

    def parse(self) -> Poly:
        p = self.sum()
        kind, val, at = self.peek()
        if kind is not None:
            raise ValueError(f"trailing {val!r} at position {at} in {self.text!r}")
        return p

    def sum(self) -> Poly:
        kind, val, _ = self.peek()
        neg = False
        if kind == "op" and val in "+-":
            self.take()
            neg = val == "-"
        p = self.product()
        if neg:
            p = -p
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                q = self.product()
                p = p - q if val == "-" else p + q
            else:
                return p

    def product(self) -> Poly:
        p = self.power()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                p = p * self.power()
            elif kind in ("int", "name") or (kind == "op" and val == "("):
                # implicit multiplication: 3x, x y, 2(x+y)
                p = p * self.power()
            else:
                return p

    def power(self) -> Poly:
        p = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, at = self.take()
            if kind != "int":
                raise ValueError(f"expected integer exponent at position {at}")
            e = int(val)
            out = self.ring.one()
            for _ in range(e):
                out = out * p
            return out
        return p

    def atom(self) -> Poly:
        kind, val, at = self.take()
        if kind == "int":
            num = int(val)
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.take()
                k3, v3, at3 = self.take()
                if k3 != "int":
                    raise ValueError(f"expected integer denominator at position {at3}")
                c = self.ring.field.from_fraction(num, int(v3))
                return Poly(self.ring, {mono_one(self.ring.nvars): c}) if c != self.ring.field.zero() else self.ring.zero()
            return self.ring.from_int(num)
        if kind == "name":
            if val not in self.ring.names:
                raise ValueError(f"unknown variable {val!r} at position {at}")
            return self.ring.var(self.ring.names.index(val))
        if kind == "op" and val == "(":
            p = self.sum()
            self.expect_op(")")
            return p
        if kind == "op" and val == "-":
            return -self.atom()
        raise ValueError(f"unexpected token {val!r} at position {at} in {self.text!r}")


def parse_poly(ring: PolyRing, text: str) -> Poly:
    return _PolyParser(ring, text).parse()

