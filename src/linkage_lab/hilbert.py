"""Hilbert series as exact rational functions N(t) / (1-t)^n.

The numerator is an integer Laurent polynomial (twists can push support
into negative degrees).  All series over one ambient ring share the same
denominator exponent n, so equality is numerator equality.  Printing and
the public "reduced" form cancel the (1-t)-power dividing the numerator.

The numerator of S/L for a monomial ideal L comes from the standard
pivot recursion  num(L) = num(L + (v)) + t * num(L : v)  driven by the
short exact sequence  0 -> (S/(L:v))(-1) -> S/L -> S/(L+(v)) -> 0.
Each numerator of the recursion is memoized under the op "hilbert-num",
its arguments (nvars, minimal generators) the key like every memo entry's,
so `memo.clear()` empties it with every other cache.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb

from . import memo
from .monomials import mono_deg, mono_divides


class HilbertSeries:
    __slots__ = ("nvars", "num")

    def __init__(self, nvars: int, num: dict):
        self.nvars = nvars
        self.num = {d: c for d, c in num.items() if c != 0}

    @classmethod
    def zero(cls, nvars: int) -> "HilbertSeries":
        return cls(nvars, {})

    @classmethod
    def free(cls, nvars: int, twists) -> "HilbertSeries":
        num: dict = {}
        for a in twists:
            num[a] = num.get(a, 0) + 1
        return cls(nvars, num)

    def __add__(self, other):
        self._check(other)
        num = dict(self.num)
        for d, c in other.num.items():
            num[d] = num.get(d, 0) + c
        return HilbertSeries(self.nvars, num)

    def __sub__(self, other):
        self._check(other)
        num = dict(self.num)
        for d, c in other.num.items():
            num[d] = num.get(d, 0) - c
        return HilbertSeries(self.nvars, num)

    def shift(self, a: int) -> "HilbertSeries":
        """Multiply by t^a."""
        return HilbertSeries(self.nvars, {d + a: c for d, c in self.num.items()})

    def scale(self, k: int) -> "HilbertSeries":
        return HilbertSeries(self.nvars, {d: k * c for d, c in self.num.items()})

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("mixed ambient variable counts")

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        return (
            isinstance(other, HilbertSeries)
            and other.nvars == self.nvars
            and other.num == self.num
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.num.items())))

    # analysis ---------------------------------------------------------

    def _coeff_list(self):
        if not self.num:
            return 0, []
        lo = min(self.num)
        hi = max(self.num)
        return lo, [self.num.get(d, 0) for d in range(lo, hi + 1)]

    def vanishing_order(self) -> int:
        """Largest v with (1-t)^v dividing the numerator (capped at nvars)."""
        return self.nvars - self.reduced()[1]

    def dimension(self) -> int:
        """Krull dimension of a module with this series; -1 for the zero module."""
        if not self.num:
            return -1
        return self.nvars - self.vanishing_order()

    def reduced(self):
        """(numerator dict, denominator exponent) with (1-t) factors canceled."""
        if not self.num:
            return {}, 0
        lo, coeffs = self._coeff_list()
        denom = self.nvars
        while denom > 0 and sum(coeffs) == 0:
            # synthetic division by (1 - t); the remainder is the coefficient sum
            coeffs = list(accumulate(coeffs[:-1])) or [0]
            denom -= 1
        num = {lo + i: c for i, c in enumerate(coeffs) if c != 0}
        return num, denom

    def value(self, degree: int) -> int:
        """Hilbert function value in one degree."""
        n = self.nvars
        total = 0
        for d, c in self.num.items():
            k = degree - d
            if k >= 0:
                total += c * comb(k + n - 1, n - 1) if n > 0 else (c if k == 0 else 0)
        return total

    def is_finite_length(self) -> bool:
        return self.is_zero() or self.vanishing_order() >= self.nvars

    def length(self) -> int:
        if not self.is_finite_length():
            raise ValueError("module has positive dimension")
        num, denom = self.reduced()
        assert denom == 0
        return sum(num.values())

    def __str__(self):
        num, denom = self.reduced()
        if not num:
            return "0"
        parts = []
        for d in sorted(num):
            c = num[d]
            if d == 0:
                piece = str(abs(c))
            else:
                t = "t" if d == 1 else f"t^{d}"
                piece = t if abs(c) == 1 else f"{abs(c)}*{t}"
            if not parts:
                parts.append(piece if c > 0 else "-" + piece)
            else:
                parts.append(("+ " if c > 0 else "- ") + piece)
        ns = " ".join(parts)
        if denom == 0:
            return ns
        ds = "(1-t)" if denom == 1 else f"(1-t)^{denom}"
        return f"({ns})/{ds}"

    def __repr__(self):
        return f"HilbertSeries({self})"


def _minimalize_monos(gens):
    gens = sorted(set(gens), key=lambda m: (mono_deg(m), m))
    keep = []
    for g in gens:
        if not any(mono_divides(h, g) for h in keep):
            keep.append(g)
    return tuple(keep)


def monomial_quotient_numerator(nvars: int, gens) -> dict:
    """Numerator of the Hilbert series of S / (monomial ideal)."""
    gens = _minimalize_monos(gens)
    return dict(_num_rec(nvars, gens))


def _num_rec(nvars: int, gens) -> dict:
    if not gens:
        return {0: 1}
    if any(mono_deg(g) == 0 for g in gens):
        return {}
    return memo.cached("hilbert-num", _num_pivot, nvars, gens)


def _num_pivot(nvars: int, gens) -> dict:
    if all(mono_deg(g) == 1 for g in gens):
        # independent variables: numerator is (1-t)^{#gens}
        out = {0: 1}
        for _ in gens:
            nxt: dict = {}
            for d, c in out.items():
                nxt[d] = nxt.get(d, 0) + c
                nxt[d + 1] = nxt.get(d + 1, 0) - c
            out = {d: c for d, c in nxt.items() if c != 0}
        return out
    # pivot: the variable hitting the most generators, from a non-linear one
    counts = [0] * nvars
    for g in gens:
        for i, e in enumerate(g):
            if e > 0:
                counts[i] += 1
    pivot = None
    best = -1
    for g in gens:
        if mono_deg(g) > 1:
            for i, e in enumerate(g):
                if e > 0 and counts[i] > best:
                    best = counts[i]
                    pivot = i
    plus = _minimalize_monos(
        [g for g in gens if g[pivot] == 0] + [tuple(1 if i == pivot else 0 for i in range(nvars))]
    )
    colon = _minimalize_monos(
        [tuple(e - 1 if i == pivot and e > 0 else e for i, e in enumerate(g)) for g in gens]
    )
    a = _num_rec(nvars, plus)
    b = _num_rec(nvars, colon)
    out = dict(a)
    for d, c in b.items():
        out[d + 1] = out.get(d + 1, 0) + c
    return {d: c for d, c in out.items() if c != 0}
