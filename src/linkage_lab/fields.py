"""Exact coefficient fields.

Everything downstream assumes exact arithmetic: rationals of arbitrary
precision or a prime field GF(p) with p < 2**31.  Floats never appear.
Field elements are opaque values (Fraction for QQ, int for GF(p)), and
outside the Groebner kernel all arithmetic goes through the field object
so callers never branch.  The kernel (groebner.py) runs its own per-field
inner loops -- ints mod p, and over QQ ints while integral -- and hands
back field elements again.
"""

from __future__ import annotations

from fractions import Fraction


class Field:
    name: str = "?"

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def from_fraction(self, num: int, den: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def to_str(self, a) -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.name


class RationalField(Field):
    name = "QQ"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n: int):
        return Fraction(n)

    def from_fraction(self, num: int, den: int):
        return Fraction(num) if den == 1 else Fraction(num, den)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def to_str(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField(Field):
    """GF(p), elements stored as ints in [0, p)."""

    def __init__(self, p: int):
        if p < 2 or p >= 2**31:
            raise ValueError("prime must satisfy 2 <= p < 2**31")
        for d in range(2, min(p, 1 << 16)):
            if d * d > p:
                break
            if p % d == 0:
                raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def from_int(self, n: int):
        return n % self.p

    def from_fraction(self, num: int, den: int):
        if den == 1:
            return num % self.p
        return self.mul(self.from_int(num), self.inv(self.from_int(den)))

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def to_str(self, a) -> str:
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_name(name: str) -> Field:
    """Parse 'QQ' or 'GF(p)' (as used by the DSL and cache keys)."""
    name = name.strip()
    if name == "QQ":
        return QQ
    if name.startswith("GF(") and name.endswith(")"):
        return PrimeField(int(name[3:-1]))
    raise ValueError(f"unknown field {name!r}")
