"""Surjectivity of degree-zero maps by graded Nakayama, and the
identity certificate for identical minimal presentations.

The search decides whether a degree-zero map onto a minimal
presentation B is onto from the rank of its constant entries, and reads
a combination's constant entries from the spanning maps' own.  The
Groebner membership test it replaced is kept here as the oracle: the
map is onto iff every generator of B lies in the span of the image
columns and B's relations.

Two presentations of one module with equal minimal presentations are
isomorphic by the identity, with no search for a homomorphism.

The maps the search reads from the cycles of Hom(A, B) are checked to
span Hom(A, B)_0 against the degree-0 coefficient of the Hilbert series
of the full Hom(A, B).  Their cycles come from a Groebner run that stops
at degree 0; over whole corpus pools the maps are checked against the
reference kept here, which reads them from every cycle of the full run.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus_golden
from linkage_lab import isomorphism, memo, modules
from linkage_lab.corpus import corpus_pool, generate_corpus
from linkage_lab.fields import GF, QQ, field_from_name
from linkage_lab.homops import _hom_cycles, evaluation_map, hom_module
from linkage_lab.linkage import is_horizontally_linked
from linkage_lab.isomorphism import (
    _combine,
    _combined_rows,
    _compose,
    _constant_rows,
    _echelon,
    _is_identity_mod,
    degree_zero_maps,
    is_isomorphic,
)
from linkage_lab.modules import (
    ModulePresentation,
    cyclic_module,
    direct_sum,
    free_module,
    minimalize,
    span_gb,
    twist_module,
)
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
    """(A, B, spanning maps of Hom(A, B)_0) for corpus pairs with nonzero
    maps.

    Sources are the first corpus modules and the free cover of each
    target, so that both onto and not-onto maps occur.
    """
    out = []
    for ring in (H, T, N):
        pool = [minimalize(M) for _, M in corpus_pool(ring)[:5]]
        for B in pool:
            for A in pool + [free_module(ring, B.gen_twists)]:
                maps = degree_zero_maps(A, B)
                if maps:
                    out.append((A, B, maps))
    return out


def _is_onto(ring, phi_cols, B) -> bool:
    """The search's test: the constant entries of phi_cols have rank
    B.n_gens()."""
    rows = _constant_rows(ring, phi_cols)
    return len(_echelon(rows, ring.field)) == B.n_gens()


def _rank_mod_relations(B, maps):
    """dim_k of the span of maps, each reduced modulo B's relations."""
    ring = B.ring
    gb = span_gb(ring, list(B.columns), B.gen_twists)
    rows = []
    for phi in maps:
        row = {}
        for j, col in enumerate(phi):
            for pos, p in (gb.normal_form(col) if col else {}).items():
                row.update(((j, pos, m), c) for m, c in p.terms.items())
        rows.append(row)
    return len(_echelon([r for r in rows if r], ring.field))


def _reaches_the_search(A, B) -> bool:
    """Whether is_isomorphic(A, B) for minimal A != B with relations gets
    past the degree, Hilbert series and identity steps."""
    return (A.n_rels() > 0 and A.content_key() != B.content_key()
            and sorted(A.gen_twists) == sorted(B.gen_twists)
            and sorted(A.rel_twists) == sorted(B.rel_twists)
            and A.hilbert_series() == B.hilbert_series())


def test_spanning_maps_span_degree_zero_hom():
    """Over H, T and N, for corpus pairs, pairs whose source is a target
    raised one degree (so that Hom has generators of degree -1), and two
    pairs with equal invariants but other generator orders: the spanning
    maps, reduced modulo B's relations, have rank equal to the degree-0
    coefficient of HS(Hom(A, B)), there are none exactly when it is 0, and
    the search reports "no nonzero degree-zero homomorphisms" exactly
    then."""
    negative = searched = certified = 0
    for ring in (H, T, N):
        pool = [minimalize(M) for _, M in corpus_pool(ring)[:6]]
        kx, ky = cyclic_module(ring, ["x"]), cyclic_module(ring, ["y"])
        pairs = [(A, B) for B in pool
                 for A in pool + [minimalize(twist_module(B, -1))]]
        pairs += [tuple(map(minimalize, pair)) for pair in (
            (direct_sum(kx, twist_module(ky, -1)),
             direct_sum(twist_module(kx, -1), ky)),
            (direct_sum(free_module(ring, [0, 1]), kx),
             direct_sum(free_module(ring, [1, 0]), kx)))]
        for A, B in pairs:
            h0 = hom_module(A, B).hilbert_series().value(0)
            maps = degree_zero_maps(A, B)
            assert _rank_mod_relations(B, maps) == h0, (A, B)
            assert (maps == []) == (h0 == 0), (A, B)
            _, taus = evaluation_map(A, B)
            negative += h0 > 0 and min(taus) < 0
            if _reaches_the_search(A, B):
                searched += 1
                v = is_isomorphic(A, B)
                none = v.certificate == "no nonzero degree-zero homomorphisms"
                assert none == (h0 == 0), (A, B, v)
                certified += none
    assert negative >= 3 and searched > certified >= 3


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_nakayama_agrees_with_groebner_membership(data):
    spaces = _hom_spaces()
    A, B, maps = spaces[data.draw(st.integers(0, len(spaces) - 1))]
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(maps),
                                max_size=len(maps)))
    ring = A.ring
    phi = _combine(ring, maps, coeffs)
    assert _is_onto(ring, phi, B) == _groebner_surjective(ring, phi, B)
    rows = [_constant_rows(ring, m) for m in maps]
    assert (_combined_rows(ring.field, rows, coeffs)
            == _constant_rows(ring, phi))


def test_spanning_maps_cover_both_outcomes_without_a_groebner_basis(
        monkeypatch):
    spaces = _hom_spaces()
    assert {A.ring.field.name for A, _, _ in spaces} == {"QQ", "GF(32003)"}
    maps = []
    for A, B, span in spaces:
        for phi in [_combine(A.ring, span, [1] * len(span))] + span:
            maps.append((A.ring, phi, B, _groebner_surjective(A.ring, phi, B)))
    assert {want for *_, want in maps} == {True, False}
    memo.clear()

    def no_kernel(*args, **kwargs):
        raise AssertionError("the Nakayama test built a Groebner basis")

    monkeypatch.setattr(modules, "ModuleGB", no_kernel)
    for ring, phi, B, want in maps:
        assert _is_onto(ring, phi, B) == want


def _padded(M):
    """A non-minimal presentation of M: a generator killed by the unit
    relation in front, and x times M's first relation appended."""
    ring = M.ring
    P = direct_sum(cyclic_module(ring, ["1"]), M)
    if not M.columns:
        return P
    x = ring.poly_ring.var(0)
    extra = {i + 1: x * p for i, p in M.columns[0].items()}
    return ModulePresentation(ring, P.gen_twists,
                              P.rel_twists + (M.rel_twists[0] + 1,),
                              list(P.columns) + [extra])


def _is_degree_zero(ring, cols, A, B) -> bool:
    """Whether cols (over A's generators, into B's) is a degree-zero map."""
    return all(p.is_homogeneous()
               and p.degree() == A.gen_twists[j] - B.gen_twists[i]
               for j, col in enumerate(cols) for i, p in col.items())


def test_identical_minimal_presentations_skip_the_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the isomorphism search ran")

    monkeypatch.setattr(isomorphism, "degree_zero_maps", no_search)
    for ring in (H, T, N):
        n_identity = 0
        for _, M in corpus_pool(ring):
            P = _padded(M)
            assert P.content_key() != M.content_key()
            v = is_isomorphic(M, P)
            A = minimalize(M)
            assert v.is_isomorphic()
            if A.n_rels() == 0:
                assert v.certificate == "free modules of equal degrees"
                continue
            n_identity += 1
            assert v.certificate == "surjective degree-zero map with inverse"
            assert _is_identity_mod(ring, v.forward, A)
            assert _is_identity_mod(ring, v.backward, A)
        assert n_identity >= 8


def test_twisted_modules_stay_apart():
    for ring in (H, T, N):
        for _, M in corpus_pool(ring)[:8]:
            assert not is_isomorphic(M, twist_module(M, 1)).is_isomorphic()


def test_generators_in_another_order_get_a_degree_zero_witness():
    """R + R(-1) + R/(x) against R(-1) + R + R/(x): equal relation columns
    and equal degree multisets, but not one presentation, so the
    witnesses must come from the search and be of degree zero."""
    kx = cyclic_module(H, ["x"])
    A = minimalize(direct_sum(free_module(H, [0, 1]), kx))
    B = minimalize(direct_sum(free_module(H, [1, 0]), kx))
    assert A.columns == B.columns and A.content_key() != B.content_key()
    v = is_isomorphic(A, B)
    assert v.is_isomorphic()
    assert _is_degree_zero(H, v.forward, A, B)
    assert _is_degree_zero(H, v.backward, B, A)
    assert _is_identity_mod(H, _compose(H, v.backward, v.forward), A)


@pytest.fixture
def ranks(monkeypatch):
    """The row lists the isomorphism test ranks, in order."""
    calls = []

    def counting(rows, f):
        calls.append(rows)
        return _echelon(rows, f)

    monkeypatch.setattr(isomorphism, "_echelon", counting)
    return calls


def test_constant_parts_of_low_rank_prove_modules_apart(ranks):
    """R/(x) + R/(y)(-1) against R/(x)(-1) + R/(y) over H = QQ[x,y]/(xy):
    equal degree multisets and Hilbert series, but every degree-zero map
    sends the degree-0 generator R/(x) -> R/(y) to zero and the other
    one into the maximal ideal, so its constant part has rank < 2 and no
    map is onto (graded Nakayama): an exact not_isomorphic, decided by
    the first rank, before any candidate map is tried."""
    kx, ky = cyclic_module(H, ["x"]), cyclic_module(H, ["y"])
    A = direct_sum(kx, twist_module(ky, -1))
    B = direct_sum(twist_module(kx, -1), ky)
    assert A.hilbert_series() == B.hilbert_series()
    v = is_isomorphic(A, B)
    assert v.kind == "not_isomorphic"
    assert v.certificate == ("no degree-zero map is onto: the constant parts "
                             "of Hom_0 have rank 0 < 2 generators")
    assert len(ranks) == 1
    # a pair that does reach the search still tries its candidates
    C = minimalize(direct_sum(free_module(H, [0, 1]), kx))
    D = minimalize(direct_sum(free_module(H, [1, 0]), kx))
    assert is_isomorphic(C, D).is_isomorphic() and len(ranks) > 3


def test_constant_parts_with_a_common_kernel_prove_modules_apart(ranks):
    """S/(y) + S/(x) against S/(y) + S/(y) over S = QQ[x,y]: equal degree
    multisets and Hilbert series, and Hom_0 is spanned by "a1 -> b1,
    a2 -> 0" and "a1 -> b2, a2 -> 0", whose images span B/mB.  But both
    kill a2, so every degree-zero map is singular mod m: an exact
    not_isomorphic that names the kernel's dimension, decided by the
    second rank, before any candidate map is tried."""
    S = make_ring(QQ, ["x", "y"])
    ky, kx = cyclic_module(S, ["y"]), cyclic_module(S, ["x"])
    A, B = minimalize(direct_sum(ky, kx)), minimalize(direct_sum(ky, ky))
    assert A.hilbert_series() == B.hilbert_series()
    one = S.field.one()
    maps = degree_zero_maps(A, B)
    assert [_constant_rows(S, phi) for phi in maps] == [[{0: one}, {}],
                                                        [{1: one}, {}]]
    v = is_isomorphic(A, B)
    assert v.kind == "not_isomorphic"
    assert v.certificate == ("every degree-zero map is singular mod m: the "
                             "constant parts of Hom_0 share a kernel of "
                             "dimension 1")
    assert len(ranks) == 2


# -- the run that stops at degree 0 against the full run -----------------------


def _reference_maps(A, B) -> list:
    """degree_zero_maps as it was before its run stopped at degree 0: the
    same maps, read from every cycle of the full run of Hom(A, B)."""
    ring = A.ring
    q = B.n_gens()
    twists, cycles, _ = _hom_cycles(A, B, 0)
    gb = span_gb(ring, list(B.columns), B.gen_twists)
    maps = []
    for c in cycles:
        i, p = next(iter(c.items()))
        tau = p.degree() + twists[i]
        if tau > 0:
            continue
        for mono in ring.standard_monomials(-tau):
            m = ring.poly_ring.monomial(mono)
            phi = [{r: e for r in range(q)
                    if (p := c.get(j * q + r)) is not None
                    and not (e := ring.nf(m * p)).is_zero()}
                   for j in range(A.n_gens())]
            if any(col and not gb.contains(col) for col in phi):
                maps.append(phi)
    return maps


def _map_terms(maps) -> list:
    """Maps as their columns' entries and terms, in order."""
    return [[[(r, list(p.terms.items())) for r, p in col.items()]
             for col in phi] for phi in maps]


def test_degree_zero_maps_equal_the_full_run_reference_on_whole_pools(
        monkeypatch):
    """Every degree_zero_maps call that the horizontal-linkage test of
    each module of the whole pools H 19, T 28, N 40, P 46, Q 36 and U 17
    makes (M against lambda^2 M) returns the reference's maps, term by
    term and in order."""
    calls = []

    def recording(A, B):
        maps = degree_zero_maps(A, B)
        calls.append((A, B, maps))
        return maps

    monkeypatch.setattr(isomorphism, "degree_zero_maps", recording)
    per_pool = {}
    for name, size in (("H", 19), ("T", 28), ("N", 40), ("P", 46),
                       ("Q", 36), ("U", 17)):
        field, names, rels = corpus_golden.RINGS[name]
        ring = make_ring(field_from_name(field), names.split(", "),
                         rels.split(", "))
        before = len(calls)
        for _, M in generate_corpus(ring, size):
            is_horizontally_linked(M)
        per_pool[name] = len(calls) - before
    assert min(per_pool.values()) >= 2, per_pool
    assert any(maps for _, _, maps in calls)
    for A, B, maps in calls:
        assert _map_terms(maps) == _map_terms(_reference_maps(A, B)), (A, B)
