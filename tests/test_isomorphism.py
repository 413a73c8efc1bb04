"""Surjectivity of degree-zero maps by graded Nakayama.

`isomorphism._is_surjective` decides whether a degree-zero map onto a
minimal presentation B is onto from the rank of its constant entries.
The Groebner membership test it replaced is kept here as the oracle:
the map is onto iff every generator of B lies in the span of the image
columns and B's relations.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from linkage_lab import memo, modules
from linkage_lab.corpus import corpus_pool
from linkage_lab.fields import GF, QQ
from linkage_lab.isomorphism import (
    _is_surjective,
    _solution_to_columns,
    hom_degree_zero_space,
)
from linkage_lab.modules import free_module, span_gb
from linkage_lab.rings import make_ring

H = make_ring(QQ, ["x", "y"], ["x*y"])
T = make_ring(QQ, ["x", "y", "z"], ["y*z", "x*z", "x*y"])
N = make_ring(GF(32003), ["x", "y", "z", "w"],
              ["x*z", "x*w", "y*z", "y*w"])


def _groebner_surjective(ring, phi_cols, B):
    gb = span_gb(ring, phi_cols + list(B.columns), B.gen_twists)
    one = ring.poly_ring.one()
    return all(gb.contains({i: one}) for i in range(B.n_gens()))


@functools.lru_cache(maxsize=None)
def _hom_spaces():
    """(A, B, basis of Hom(A, B)_0) for corpus pairs with nonzero maps.

    Sources are the first corpus modules and the free cover of each
    target, so that both onto and not-onto maps occur.
    """
    out = []
    for ring in (H, T, N):
        pool = [M for _, M in corpus_pool(ring)[:5]]
        for B in pool:
            for A in pool + [free_module(ring, B.gen_twists)]:
                basis, _ = hom_degree_zero_space(A, B)
                if basis:
                    out.append((A, B, basis))
    return out


def _combine(field, basis, coeffs):
    combo: dict = {}
    for sol, c in zip(basis, coeffs):
        c = field.from_int(c)
        for u, v in sol.items():
            acc = field.add(combo.get(u, field.zero()), field.mul(c, v))
            if acc == field.zero():
                combo.pop(u, None)
            else:
                combo[u] = acc
    return combo


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_nakayama_agrees_with_groebner_membership(data):
    spaces = _hom_spaces()
    A, B, basis = spaces[data.draw(st.integers(0, len(spaces) - 1))]
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(basis),
                                max_size=len(basis)))
    ring = A.ring
    phi = _solution_to_columns(ring, _combine(ring.field, basis, coeffs),
                               A.n_gens())
    assert _is_surjective(ring, phi, B) == _groebner_surjective(ring, phi, B)


def test_basis_maps_cover_both_outcomes_without_a_groebner_basis(monkeypatch):
    spaces = _hom_spaces()
    assert {A.ring.field.name for A, _, _ in spaces} == {"QQ", "GF(32003)"}
    maps = []
    for A, B, basis in spaces:
        for coeffs in [[1] * len(basis)] + [
                [int(j == k) for j in range(len(basis))]
                for k in range(len(basis))]:
            phi = _solution_to_columns(
                A.ring, _combine(A.ring.field, basis, coeffs), A.n_gens())
            maps.append((A.ring, phi, B, _groebner_surjective(A.ring, phi, B)))
    assert {want for *_, want in maps} == {True, False}
    memo.clear()

    def no_kernel(*args, **kwargs):
        raise AssertionError("the Nakayama test built a Groebner basis")

    monkeypatch.setattr(modules, "ModuleGB", no_kernel)
    for ring, phi, B, want in maps:
        assert _is_surjective(ring, phi, B) == want
