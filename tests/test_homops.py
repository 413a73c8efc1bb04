"""Homological operator tests: transpose, dual, Ext, Tor, tensor, hom,
syzygies, and the universal pushforward along a semidualizing module."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus_golden
from linkage_lab.corpus import corpus_pool, generate_corpus, maximal_ideal
from linkage_lab.errors import InapplicableError
from linkage_lab.fields import GF, QQ, field_from_name
from linkage_lab.hilbert import HilbertSeries
from linkage_lab.homops import (
    dual,
    evaluation_map,
    ext,
    ext_vanishes,
    fault_active,
    hom_module,
    hom_with_realizations,
    is_c_torsionless,
    is_nth_cosyzygy_witness,
    lambda_module,
    set_fault,
    syzygy,
    tensor,
    tor,
    transpose,
    transpose_wrt,
    universal_pushforward,
)
from linkage_lab.invariants import canonical_module
from linkage_lab.isomorphism import is_isomorphic
from linkage_lab.modules import (
    cyclic_module,
    direct_sum,
    free_module,
    minimalize,
    span_gb,
    twist_module,
)
from linkage_lab.resolutions import betti, minimal_free_resolution
from linkage_lab.rings import make_ring

S = make_ring(QQ, ["x", "y"])
H = make_ring(QQ, ["x", "y"], ["x*y"])
T = make_ring(QQ, ["x", "y", "z"], ["y*z", "x*z", "x*y"])
N = make_ring(GF(32003), ["x", "y", "z", "w"], ["x*z", "x*w", "y*z", "y*w"])


def test_dual_of_free_negates_twists():
    F = free_module(S, [0, -2, 3])
    D = dual(F)
    assert sorted(D.gen_twists) == sorted([0, 2, -3])
    assert D.n_rels() == 0


def test_transpose_of_residue_field_frozen():
    k = cyclic_module(S, ["x", "y"])
    TrK = transpose(k)
    assert TrK.gen_twists == (-1, -1)
    assert TrK.rel_twists == (0,)
    assert TrK.hilbert_series() == HilbertSeries(2, {-1: 2, 0: -1})


def test_double_transpose_removes_free_summands():
    m = maximal_ideal(H)
    M = direct_sum(m, free_module(H, [0, 1]))
    st2 = minimalize(transpose(transpose(M)))
    assert is_isomorphic(st2, m).is_isomorphic()


def test_transpose_is_minimal_without_fault():
    m = maximal_ideal(H)
    A = transpose(m)
    assert A == minimalize(A)


def test_fault_hook_skips_minimalization():
    # the raw dualized presentation keeps junk relations, and the free
    # summand of M stops being detected by the double transpose
    from linkage_lab.linkage import is_stable
    m = maximal_ideal(H)
    M = direct_sum(free_module(H, [0]), m)
    clean = transpose(M)
    assert not fault_active("skip-minimalize-transpose")
    assert is_stable(M) == (False, 1)
    set_fault("skip-minimalize-transpose", True)
    try:
        raw = transpose(M)
        assert raw.n_rels() > clean.n_rels()
        assert is_stable(M) == (True, 0)  # the fault hides the summand
    finally:
        set_fault("skip-minimalize-transpose", False)
    assert is_stable(M) == (False, 1)


def test_syzygy_exactness_via_series():
    # 0 -> Omega M -> F0 -> M -> 0 forces HS(Omega) = HS(F0) - HS(M)
    k = cyclic_module(T, ["x", "y", "z"])
    O1 = syzygy(k, 1)
    F0 = free_module(T, k.gen_twists)
    assert O1.hilbert_series() == F0.hilbert_series() - k.hilbert_series()


def test_syzygy_zero_is_identity():
    m = maximal_ideal(S)
    assert syzygy(m, 0) == minimalize(m)


def test_koszul_betti_numbers():
    # over k[x,y] the residue field resolves by the Koszul complex
    k = cyclic_module(S, ["x", "y"])
    assert betti(k, 0) == {0: 1}
    assert betti(k, 1) == {1: 2}
    assert betti(k, 2) == {2: 1}
    assert betti(k, 3) == {}


def test_ext_top_koszul_duality():
    # Ext^n(k, S) is k placed in degree -n
    k = cyclic_module(S, ["x", "y"])
    E = ext(k, free_module(S, [0]), 2)
    assert E.gen_twists == (-2,)
    assert is_isomorphic(E, twist_module(k, 2)).is_isomorphic()


def test_ext_vanishes_beyond_projective_dimension():
    k = cyclic_module(S, ["x", "y"])
    F = free_module(S, [0])
    assert ext(k, F, 3).is_zero()
    assert ext(k, F, 5).is_zero()


def test_tor_symmetry_in_series():
    m = maximal_ideal(H)
    k = cyclic_module(H, ["x", "y"])
    for i in range(3):
        left = tor(m, k, i)
        right = tor(k, m, i)
        assert left.hilbert_series() == right.hilbert_series()


def test_tensor_with_ring_is_identity():
    m = maximal_ideal(T)
    R1 = free_module(T, [0])
    assert is_isomorphic(minimalize(tensor(m, R1)), m).is_isomorphic()


def test_hom_from_ring_is_identity():
    m = maximal_ideal(T)
    R1 = free_module(T, [0])
    assert is_isomorphic(minimalize(hom_module(R1, m)), m).is_isomorphic()


def test_tensor_of_cyclics_is_cyclic_quotient():
    a = cyclic_module(S, ["x"])
    b = cyclic_module(S, ["y"])
    prod = minimalize(tensor(a, b))
    assert is_isomorphic(prod, cyclic_module(S, ["x", "y"])).is_isomorphic()


def test_lambda_swaps_hypersurface_factors():
    Rx = cyclic_module(H, ["x"])
    Ry = cyclic_module(H, ["y"])
    assert is_isomorphic(lambda_module(Rx), Ry).is_isomorphic()
    assert is_isomorphic(lambda_module(Ry), Rx).is_isomorphic()


def test_transpose_wrt_free_matches_transpose():
    m = maximal_ideal(H)
    wrt = transpose_wrt(m, free_module(H, [0]))
    assert is_isomorphic(wrt, transpose(m)).is_isomorphic()


def _combine(relation, columns):
    """sum_i relation[i] * columns[i], zero entries dropped."""
    out = {}
    for i, c in relation.items():
        for r, p in columns[i].items():
            out[r] = out[r] + c * p if r in out else c * p
    return {r: p for r, p in out.items() if not p.is_zero()}


@pytest.mark.parametrize("ring", [H, T, N], ids=["H", "T", "N"])
def test_hom_realizations_and_evaluation_maps_are_homomorphisms(ring):
    """Every Hom generator sends each relation of M into the relations
    of N (mod I), and the evaluation map into R(0) sends it to zero."""
    corpus = [M for _, M in generate_corpus(ring, 8)]
    unit = free_module(ring, [0])
    n_reals = 0
    for M in corpus:
        A = minimalize(M)
        cols, taus = evaluation_map(M, unit)
        assert len(cols) == A.n_gens()
        zero = span_gb(ring, [], [-t for t in taus])
        for rel in A.columns:
            assert zero.contains(_combine(rel, cols))
        for Nm in corpus:
            B = minimalize(Nm)
            q = B.n_gens()
            _, reals, _ = hom_with_realizations(M, Nm)
            n_reals += len(reals)
            rels = span_gb(ring, B.columns, B.gen_twists)
            for phi in reals:
                images = [{r: phi[i * q + r] for r in range(q)
                           if i * q + r in phi} for i in range(A.n_gens())]
                for rel in A.columns:
                    assert rels.contains(_combine(rel, images))
    assert n_reals


def test_pushforward_exactness_and_twists():
    # 0 -> M -> C^m -> N -> 0 over the hypersurface with C = R
    Rx = cyclic_module(H, ["x"])
    C = free_module(H, [0])
    pf = universal_pushforward(Rx, C)
    assert pf.m == 1
    assert pf.cokernel.gen_twists == (-1,)
    lhs = Rx.hilbert_series() + pf.cokernel.hilbert_series()
    rhs = HilbertSeries.zero(2)
    for t in pf.codomain_twists:
        rhs = rhs + C.hilbert_series().shift(-t)
    assert lhs == rhs


def test_pushforward_needs_ext_vanishing():
    # Hom(k, R) = 0 over the hypersurface (depth R = 1), so m = 0 and
    # k -> C^0 is not injective: Ext^1(Tr_C k, C) != 0, no embedding
    k = cyclic_module(H, ["x", "y"])
    with pytest.raises(InapplicableError):
        universal_pushforward(k, free_module(H, [0]))


def test_cosyzygy_witness_chain():
    Rx = cyclic_module(H, ["x"])
    C = free_module(H, [0])
    ok, step = is_nth_cosyzygy_witness(Rx, C, 3)
    assert ok and step == 3
    k = cyclic_module(H, ["x", "y"])
    ok, step = is_nth_cosyzygy_witness(k, C, 1)
    assert not ok and step == 1


def test_pushforward_respects_canonical_twists():
    # same exactness identity with the canonical module over three lines
    w = canonical_module(T)
    R1 = free_module(T, [0])
    pf = universal_pushforward(R1, w)
    lhs = R1.hilbert_series() + pf.cokernel.hilbert_series()
    rhs = HilbertSeries.zero(3)
    for t in pf.codomain_twists:
        rhs = rhs + w.hilbert_series().shift(-t)
    assert lhs == rhs


@pytest.mark.parametrize("name, size", [("H", 19), ("T", 28), ("P", 46),
                                        ("Q", 36), ("U", 17)])
def test_c_torsionless_matches_the_ext_route(name, size):
    """The evaluation-map test equals Ext^1(Tr_C X, C) = 0 on every
    module of the pool, for C = R(0) and C = omega_R."""
    field, names, rels = corpus_golden.RINGS[name]
    R = make_ring(field_from_name(field), names.split(", "), rels.split(", "))
    disagree = [
        (label, C_name)
        for label, X in generate_corpus(R, size)
        for C_name, C in (("R", free_module(R, [0])),
                          ("omega", canonical_module(R)))
        if is_c_torsionless(X, C) != ext_vanishes(transpose_wrt(X, C), C, 1)
    ]
    assert not disagree


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=5))
def test_resolution_differentials_compose_to_zero(idx):
    pool = corpus_pool(H)
    _, M = pool[idx % len(pool)]
    res = minimal_free_resolution(minimalize(M), 3)
    # consecutive Betti ranks bound the syzygy module sizes
    for i in range(1, 3):
        Om = res.syzygy_module(i)
        assert Om.n_gens() == res.rank(i)


@pytest.mark.parametrize("op, call", [
    ("hom", lambda M, N: hom_module(M, N)),
    ("tensor", lambda M, N: tensor(M, N)),
    ("ext", lambda M, N: ext(N, M, 1)),
    ("ext", lambda M, N: ext(M, N, 0)),
    ("tor", lambda M, N: tor(M, N, 1)),
    ("tor", lambda M, N: tor(M, N, 0)),
    ("transpose_wrt", lambda M, N: transpose_wrt(M, N)),
], ids=["hom", "tensor", "ext-1", "ext-0", "tor-1", "tor-0", "transpose_wrt"])
def test_operators_refuse_modules_over_different_rings(op, call):
    M = cyclic_module(S, ["x"])
    N = cyclic_module(H, ["y"])
    with pytest.raises(ValueError, match=f"^{op} over different rings$"):
        call(M, N)
