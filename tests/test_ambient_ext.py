"""Ext into the canonical module through the ambient polynomial ring.

Over a Cohen-Macaulay quotient R = S/I of codimension c in n variables,
Ext^i_R(M, omega_R(a)) = Ext^(i+c)_S(M, S)(a - n).  These tests hold the
ambient route against the direct computation over R, check that the
route stays off where its hypotheses fail, and that its twist
certificate catches a wrong shift.  The ambient profile holds the
Hilbert series of every Ext^j_S(M, S), read by rank-nullity from the
dual of M's resolution over S: they must equal the series of
Ext^j_S(M, S) computed at every j, `ext_vanishes` must answer as
`ext(...).is_zero()` does, and each of the profile's five checks (Euler
identity, window ends, vanishing below grade, local-duality dimension
bound, the series of a presented group) must fire on a perturbation
made for it.
"""

import pytest

from linkage_lab import homops, invariants, memo, modules
from linkage_lab.corpus import generate_corpus, maximal_ideal
from linkage_lab.errors import ConsistencyError
from linkage_lab.fields import GF, QQ
from linkage_lab.hilbert import HilbertSeries
from linkage_lab.homops import ext, ext_vanishes
from linkage_lab.invariants import (
    canonical_module,
    canonical_twist,
    ext_vanishing_top,
    ring_is_cm,
)
from linkage_lab.modules import (
    ModulePresentation,
    cyclic_module,
    direct_sum,
    free_module,
    minimalize,
    twist_module,
)
from linkage_lab.rings import make_ring
from linkage_lab.theorems import check, default_coefficient

H = make_ring(QQ, ["x", "y"], ["x*y"])
T = make_ring(QQ, ["x", "y", "z"], ["y*z", "x*z", "x*y"])
N = make_ring(GF(32003), ["x", "y", "z", "w"],
              ["x*z", "x*w", "y*z", "y*w"])
# T after y -> x+y, z -> x+y+z: the same graded ring, but a non-monomial
# ideal whose reduced basis has four generators
U = make_ring(QQ, ["x", "y", "z"],
              ["x^2+x*y", "x^2+x*y+x*z", "x^2+2*x*y+x*z+y^2+y*z"])


def _direct(M, C, i):
    return homops._ext_direct(minimalize(M), minimalize(C), i)


def _count_direct_calls(monkeypatch, ring):
    """Clear the memo and record i for every direct Ext over the ring."""
    calls = []
    direct = homops._ext_direct

    def counting(A, B, i):
        if A.ring == ring:
            calls.append(i)
        return direct(A, B, i)

    memo.clear()
    monkeypatch.setattr(homops, "_ext_direct", counting)
    return calls


def _assert_routes_agree(ring, C, top_index, modules):
    nonzero = 0
    for name, M in modules:
        for i in range(top_index + 1):
            amb = ext(M, C, i)
            assert amb.ring == ring
            assert amb.hilbert_series() == _direct(M, C, i).hilbert_series(), \
                (name, i)
            nonzero += not amb.is_zero()
    return nonzero


def test_routes_agree_on_three_lines_corpus():
    omega = canonical_module(T)
    assert canonical_twist(omega) == 0
    nonzero = _assert_routes_agree(T, omega, 4, generate_corpus(T, 8))
    assert nonzero == 8


def test_routes_agree_on_hypersurface_with_free_coefficient():
    R = free_module(H, [0])
    assert canonical_twist(R) is not None
    _assert_routes_agree(H, R, 4, generate_corpus(H, 8))


@pytest.mark.parametrize("a", [1, -1])
def test_routes_agree_with_twisted_canonical_module(a):
    C = twist_module(canonical_module(T), a)
    assert canonical_twist(C) == a
    _assert_routes_agree(T, C, 2, generate_corpus(T, 4))


def test_gorenstein_free_coefficient_takes_recorded_shift():
    omega = canonical_module(H)
    assert omega.n_rels() == 0 and omega.n_gens() == 1
    for g in (-2, 0, 3):
        assert canonical_twist(free_module(H, [g])) == omega.gen_twists[0] - g


def test_shortcut_stays_off_on_polynomial_and_non_cm_rings(monkeypatch):
    S = T.ambient()
    assert canonical_twist(free_module(S, [0])) is None
    assert not ring_is_cm(N)
    C = default_coefficient(N)
    assert canonical_twist(C) is None
    calls = _count_direct_calls(monkeypatch, N)
    k = cyclic_module(N, list(N.names))
    for i in range(3):
        ext(k, C, i)
    assert calls == [0, 1, 2]
    assert ext_vanishing_top(k, C) is None


def test_oracle_runs_for_low_indices_only(monkeypatch):
    omega = canonical_module(T)
    k = cyclic_module(T, list(T.names))
    calls = _count_direct_calls(monkeypatch, T)
    for i in range(4):
        ext(k, omega, i)
    assert calls == [0]


def test_wrong_shift_raises_consistency_error(monkeypatch):
    true_twist = invariants.canonical_twist

    def off_by_one(C):
        a = true_twist(C)
        return None if a is None else a + 1

    memo.clear()
    monkeypatch.setattr(invariants, "canonical_twist", off_by_one)
    k = cyclic_module(T, list(T.names))
    try:
        with pytest.raises(ConsistencyError):
            ext(k, canonical_module(T), 1)
    finally:
        memo.clear()


def _drop_first_generator(E):
    keep = [c for c in E.columns if 0 not in c]
    return ModulePresentation(
        E.ring, E.gen_twists[1:],
        [t for c, t in zip(E.columns, E.rel_twists) if 0 not in c],
        [{r - 1: p for r, p in c.items()} for c in keep])


@pytest.mark.parametrize("fault", ["shift", "drop-generator"])
@pytest.mark.parametrize("name, j", [("k", 3), ("m", 2)])
def test_perturbed_ambient_ext_fails_euler_identity(monkeypatch, fault,
                                                    name, j):
    # the one nonzero Ext^j_S(M, S) of k and of the maximal ideal over T;
    # the profile reads no presented group, so depth is still right, and
    # the group presented for Ext^(j - 2)(M, omega) fails its series check
    M = {"k": cyclic_module(T, list(T.names)), "m": maximal_ideal(T)}[name]
    true_ext = invariants.ext_to_ambient

    def perturbed(X, index, **kw):
        E = minimalize(true_ext(X, index, **kw))
        if X.ring != T or index != j:
            return E
        assert not E.is_zero()
        return twist_module(E, 1) if fault == "shift" \
            else _drop_first_generator(E)

    memo.clear()
    omega = canonical_module(T)
    monkeypatch.setattr(invariants, "ext_to_ambient", perturbed)
    try:
        assert invariants.depth(M) == 3 - j
        with pytest.raises(ConsistencyError, match="presented Ext"):
            ext(M, omega, j - 2)
    finally:
        memo.clear()


def test_twist_certificate_runs_once_per_coefficient_twist(monkeypatch):
    calls = []
    certify = homops._certify_twist

    def counting(B, a):
        calls.append(a)
        return certify(B, a)

    memo.clear()
    monkeypatch.setattr(homops, "_certify_twist", counting)
    omega = canonical_module(T)
    for M in (cyclic_module(T, list(T.names)), maximal_ideal(T)):
        for i in range(3):
            ext(M, omega, i)
    ext(maximal_ideal(T), twist_module(omega, 1), 0)
    assert calls == [0, 1]



def test_ambient_route_on_non_monomial_ideal_builds_no_annihilator(
        monkeypatch):
    # change_ring checks that I kills Ext_S(M, S) relation by relation,
    # so the route never needs the annihilator ideal
    def refuse(M):
        raise AssertionError("annihilator computed")

    monkeypatch.setattr(modules, "_annihilator", refuse)
    omega = canonical_module(U)
    k = cyclic_module(U, list(U.names))
    m = maximal_ideal(U)
    assert [str(ext(k, omega, i).hilbert_series())
            for i in range(3)] == ["0", "1", "0"]
    assert [str(ext(m, omega, i).hilbert_series())
            for i in range(3)] == ["(3)/(1-t)", "0", "0"]


def test_vanishing_top_is_dim_minus_depth():
    omega = canonical_module(T)
    k = cyclic_module(T, list(T.names))
    assert ext_vanishing_top(k, omega) == 1
    assert ext_vanishing_top(free_module(T, [0]), omega) == 0
    assert not ext(k, omega, 1).is_zero()
    assert ext(k, omega, 2).is_zero()


def test_ab_formula_on_residue_field_is_exact():
    k = cyclic_module(T, list(T.names))
    report = check("G3_AB_FORMULA",
                   {"M": k, "C": default_coefficient(T),
                    "label": "residue-field"})
    assert report.verdict == "Verified"
    assert all(h.label == "Exact" for h in report.hypothesis_status)
    assert not report.notes
    assert "budget" not in report.witness


def _window_cases():
    for label, ring, size in (("H", H, 8), ("T", T, 8), ("N", N, 8),
                              ("U", U, 2)):
        extra = [("zero", modules.zero_module(ring)),
                 ("free[0,2]", free_module(ring, [0, 2]))]
        for name, M in generate_corpus(ring, size) + extra:
            yield pytest.param(M, id=f"{label}-{name}")


@pytest.mark.parametrize("M", list(_window_cases()))
def test_profile_window_matches_every_index(M):
    # the profile's series against Ext^j_S(M, S) computed at every j, and
    # the group it presents on demand against the same computation
    series, js = invariants._ambient_profile(M)
    ref = [homops.ext_to_ambient(M, j) for j in range(M.ring.nvars + 1)]
    assert list(series) == [E.hilbert_series() for E in ref]
    assert js == tuple(j for j, E in enumerate(ref) if not E.is_zero())
    zero = modules.zero_module(M.ring.ambient())
    assert [invariants.ambient_ext(M, j) for j in range(len(ref))] == \
        [E if j in js else zero for j, E in enumerate(ref)]


def test_window_ends_are_checked(monkeypatch):
    # a resolution claiming pd one too high, with a zero free module and
    # map appended, puts a zero Ext^(pd + 1) at the end of the window:
    # the Euler identity holds and the end check fails
    true_resolution = invariants.minimal_free_resolution

    class OneTooLong:
        def __init__(self, res):
            self.ring = res.ring
            self.twists = res.twists + [()]
            self.maps = res.maps + [[]]
            self.pd = res.projective_dimension()

        def projective_dimension(self):
            return self.pd + 1

    monkeypatch.setattr(invariants, "minimal_free_resolution",
                        lambda *a, **kw: OneTooLong(true_resolution(*a, **kw)))
    with pytest.raises(ConsistencyError, match=r"Ext\^3_S\(M, S\) \(pd"):
        invariants.depth(maximal_ideal(T))


def test_euler_identity_checks_the_resolution_ranks(monkeypatch):
    # a resolution with a stray free summand S(-9) appended as F_(pd + 1)
    # has graded ranks whose alternating sum is not the dual of HS(M)
    true_resolution = invariants.minimal_free_resolution

    class StraySummand:
        def __init__(self, res):
            self.ring = res.ring
            self.twists = res.twists + [(9,)]
            self.maps = res.maps + [[]]
            self.pd = res.projective_dimension()

        def projective_dimension(self):
            return self.pd + 1

    monkeypatch.setattr(invariants, "minimal_free_resolution",
                        lambda *a, **kw: StraySummand(true_resolution(*a, **kw)))
    with pytest.raises(ConsistencyError, match="Euler characteristic"):
        invariants.depth(maximal_ideal(T))


def _perturb_cokernel(monkeypatch, step, extra):
    """Add `extra` to HS(coker delta_step) of the next profile built."""
    memo.clear()
    true_series = invariants.cokernel_series
    calls = []

    def perturbed(*a, **kw):
        calls.append(None)
        hs = true_series(*a, **kw)
        return hs + extra if len(calls) == step else hs

    monkeypatch.setattr(invariants, "cokernel_series", perturbed)


def test_series_below_grade_are_checked(monkeypatch):
    # k over T has grade 3: a length-one summand added to coker delta_3,
    # the one run, keeps the ranks, the window ends and the dimension
    # bounds, but is not what exactness below the grade forces
    _perturb_cokernel(monkeypatch, 1, HilbertSeries(3, {0: 1, 3: -1}))
    try:
        with pytest.raises(ConsistencyError, match="vanish below the grade 3"):
            invariants.depth(cyclic_module(T, list(T.names)))
    finally:
        memo.clear()


def test_local_duality_dimension_bound_is_checked(monkeypatch):
    # R + k over T: grade 2, pd 3, Ext^2 of dimension 1 and Ext^3 of
    # dimension 0; a one-dimensional summand added to coker delta_3 (the
    # second run) shows in both, and only Ext^2 keeps within n - j
    M = direct_sum(free_module(T, [0]), cyclic_module(T, list(T.names)))
    memo.clear()
    assert invariants.local_cohomology_degrees(M) == [0, 1]
    _perturb_cokernel(monkeypatch, 2, HilbertSeries(3, {0: 1, 1: -2, 2: 1}))
    try:
        with pytest.raises(ConsistencyError, match=r"Ext\^3_S\(M, S\) has "
                                                   r"dimension 1 > n - j = 0"):
            invariants.depth(M)
    finally:
        memo.clear()


def _other_field(R):
    return make_ring(GF(32003) if R.field == QQ else QQ, list(R.names),
                     [str(r) for r in R.reduced_relations])


# omega, the ring, and a coefficient module that is neither
_COEFFICIENTS = {"omega": canonical_module,
                 "R": lambda R: free_module(R, [0]),
                 "m": maximal_ideal}


@pytest.mark.parametrize("coefficient", list(_COEFFICIENTS))
@pytest.mark.parametrize("other_field", [False, True], ids=["own", "other"])
@pytest.mark.parametrize("name", ["H", "T", "N", "U"])
def test_ext_vanishes_agrees_with_ext(name, other_field, coefficient):
    R = {"H": H, "T": T, "N": N, "U": U}[name]
    R = _other_field(R) if other_field else R
    C = _COEFFICIENTS[coefficient](R)
    for _, M in generate_corpus(R, 8):
        for i in range(4):
            assert ext_vanishes(M, C, i) == ext(M, C, i).is_zero(), i
