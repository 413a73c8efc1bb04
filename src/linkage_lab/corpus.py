"""Deterministic families of test modules over a graded quotient ring.

The corpus mixes shapes that exercise every code path of the linkage
criteria: free modules, the residue field, cyclic quotients by
variables, pairs, squares and linear forms, first syzygies, transposes,
linkage images, twists, and direct sums with free summands (the last
are the modules on which a broken stability test is detectable).
Entries are (name, presentation) pairs; names record how each module
was built.  Zero modules and exact duplicates are dropped, so the same
call always yields the same list in the same order.

Entries are generated lazily, one at a time: the base layer (free,
residue field, maximal ideal, cyclic quotients), then the derived layer
built from it.  `generate_corpus(R, k)` stops at the k-th distinct
entry, so a prefix of the base layer builds no syzygy, transpose or
linkage image; only a k past the end of the pool builds the whole pool,
which it extends by twists.  `corpus_pool` is the whole list.
"""

from __future__ import annotations

import itertools

from .fields import QQ
from .modules import (
    ModulePresentation,
    cyclic_module,
    direct_sum,
    free_module,
    minimalize,
    twist_module,
)
from .rings import GradedRing, make_ring


def classical_rings(field=QQ):
    """The three standing example rings, smallest first."""
    return [
        ("QQ[x,y]", make_ring(field, ["x", "y"])),
        ("QQ[x,y]/(xy)", make_ring(field, ["x", "y"], ["x*y"])),
        (
            "QQ[x,y,z]/(xy,xz,yz)",
            make_ring(field, ["x", "y", "z"], ["x*y", "x*z", "y*z"]),
        ),
    ]


def maximal_ideal(ring: GradedRing) -> ModulePresentation:
    """The irrelevant maximal ideal as a module: first syzygy of k."""
    from .homops import syzygy

    k = cyclic_module(ring, list(ring.names))
    return minimalize(syzygy(k, 1))


def _base_layer(ring: GradedRing):
    names = list(ring.names)
    yield "free[0]", free_module(ring, [0])
    yield "residue-field", cyclic_module(ring, names)
    yield "max-ideal", maximal_ideal(ring)
    for v in names:
        yield f"quot({v})", cyclic_module(ring, [v])
    for v, w in itertools.combinations(names, 2):
        yield f"quot({v},{w})", cyclic_module(ring, [v, w])
    for v in names:
        yield f"quot({v}^2)", cyclic_module(ring, [f"{v}*{v}"])
    for v, w in itertools.combinations(names, 2):
        yield f"quot({v}+{w})", cyclic_module(ring, [f"{v}+{w}"])
    if len(names) > 2:
        yield ("quot(" + "+".join(names) + ")",
               cyclic_module(ring, ["+".join(names)]))


def _derived_layer(ring: GradedRing, by_name):
    from .homops import lambda_module, syzygy, transpose

    m = by_name["max-ideal"]
    k = by_name["residue-field"]
    free = by_name["free[0]"]
    first_var = ring.names[0]
    quot_v = by_name[f"quot({first_var})"]

    for name in ("residue-field", f"quot({first_var})", "max-ideal"):
        yield f"syz1({name})", syzygy(by_name[name], 1)
    for name in (f"quot({first_var})", "max-ideal"):
        yield f"transpose({name})", transpose(by_name[name])
    for name in ("residue-field", f"quot({first_var})"):
        yield f"lambda({name})", lambda_module(by_name[name])
    yield "twist(max-ideal,1)", twist_module(m, 1)
    yield "twist(residue-field,-1)", twist_module(k, -1)
    yield "sum(free[0],max-ideal)", direct_sum(free, m)
    yield "sum(free[0],residue-field)", direct_sum(free, k)
    yield f"sum(quot({first_var}),free[0])", direct_sum(quot_v, free)
    yield "sum(max-ideal,max-ideal)", direct_sum(m, m)
    if len(ring.names) >= 2:
        second = ring.names[1]
        yield (f"sum(quot({first_var}),quot({second}))",
               direct_sum(quot_v, by_name[f"quot({second})"]))


def _stream(ring: GradedRing):
    """Every corpus module in generation order, built one at a time: the
    base layer, then the derived layer built from it."""
    base = {}
    for name, M in _base_layer(ring):
        base[name] = M
        yield name, M
    yield from _derived_layer(ring, base)


def _entries(ring: GradedRing):
    """The distinct nonzero minimal modules of the stream."""
    seen = set()
    for name, M in _stream(ring):
        Mmin = minimalize(M)
        if Mmin.is_zero():
            continue
        if Mmin in seen:
            continue
        seen.add(Mmin)
        yield name, Mmin


def corpus_pool(ring: GradedRing):
    """All distinct corpus entries for a ring, in generation order."""
    return list(_entries(ring))


def generate_corpus(ring: GradedRing, size: int):
    """First `size` corpus entries, built only up to the last one kept;
    past the pool's end the pool is extended by twisting."""
    if size < 0:
        raise ValueError(f"corpus size must be >= 0, got {size}")
    out = list(itertools.islice(_entries(ring), size))
    pool = tuple(out)
    shift = 1
    while len(out) < size:
        for name, M in pool:
            if len(out) >= size:
                break
            out.append((f"twist({name},{shift})", twist_module(M, shift)))
        shift += 1
    return out
