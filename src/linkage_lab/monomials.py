"""Monomials as exponent tuples, with the orders the kernel uses.

A monomial in n variables is a tuple of n nonnegative ints.  Orders are
realized as sort keys: bigger key means bigger monomial.  grevlex is the
ring order everywhere; lex only appears in canonical serialization.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from operator import add, le, mul

Monomial = tuple


def mono_one(n: int) -> Monomial:
    return (0,) * n


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(b: Monomial, a: Monomial) -> bool:
    return all(map(le, b, a))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_deg(a: Monomial) -> int:
    return sum(a)


def mono_coprime(a: Monomial, b: Monomial) -> bool:
    return not any(map(mul, a, b))


def grevlex_key(a: Monomial):
    """Degree first; ties by smallest trailing exponent winning."""
    return (sum(a), tuple(-e for e in reversed(a)))


def monomials_of_degree(n: int, d: int):
    """All degree-d monomials in n variables, grevlex-descending."""
    if n == 0:
        return [()] if d == 0 else []
    out = []
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    out.sort(key=grevlex_key, reverse=True)
    return out


def mono_str(a: Monomial, names) -> str:
    parts = []
    for e, nm in zip(a, names):
        if e == 1:
            parts.append(nm)
        elif e > 1:
            parts.append(f"{nm}^{e}")
    return "*".join(parts) if parts else "1"
