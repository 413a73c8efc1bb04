"""Homological invariants: depth, dimension, local cohomology windows,
Serre-type depth conditions, relative G-dimension, Auslander class,
canonical and semidualizing modules, reduced grade."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus_golden

from linkage_lab import homops, invariants
from linkage_lab.corpus import (
    classical_rings,
    corpus_pool,
    generate_corpus,
    maximal_ideal,
)
from linkage_lab.errors import ConsistencyError
from linkage_lab.fields import GF, QQ, field_from_name
from linkage_lab.homops import (
    _hom_cohomology,
    _per_slot_relations,
    tensor,
    tensor_raw,
)
from linkage_lab.invariants import (
    INFINITY,
    CoefficientFacts,
    canonical_module,
    coefficient_facts,
    depth,
    gc_dim,
    grade_module,
    in_auslander_class,
    is_canonical_module,
    is_cm,
    is_mcm,
    is_semidualizing,
    krull_dim,
    local_cohomology_degrees,
    reduced_grade,
    ring_depth,
    ring_dim,
    ring_is_cm,
    ring_is_gorenstein,
    serre_tilde,
)
from linkage_lab.modules import (
    ModulePresentation,
    cyclic_module,
    direct_sum,
    free_module,
    minimalize,
    span_gb,
    twist_module,
    zero_module,
)
from linkage_lab.rings import make_ring

S = make_ring(QQ, ["x", "y"])
H = make_ring(QQ, ["x", "y"], ["x*y"])
T = make_ring(QQ, ["x", "y", "z"], ["y*z", "x*z", "x*y"])


def test_ring_invariants():
    assert (ring_dim(S), ring_depth(S)) == (2, 2)
    assert (ring_dim(H), ring_depth(H)) == (1, 1)
    assert (ring_dim(T), ring_depth(T)) == (1, 1)
    assert ring_is_cm(S) and ring_is_cm(H) and ring_is_cm(T)
    assert ring_is_gorenstein(S) and ring_is_gorenstein(H)
    assert not ring_is_gorenstein(T)  # type count 2 at the top


def test_depth_and_dim_frozen_values():
    k = cyclic_module(S, ["x", "y"])
    m = maximal_ideal(S)
    assert (depth(k), krull_dim(k)) == (0, 0)
    assert (depth(m), krull_dim(m)) == (1, 2)
    assert (depth(free_module(S, [0])), krull_dim(free_module(S, [0]))) == (2, 2)
    assert depth(zero_module(S)) == INFINITY


def test_depth_on_quotient_rings():
    assert depth(cyclic_module(H, ["x"])) == 1
    assert depth(cyclic_module(H, ["x", "y"])) == 0
    assert depth(maximal_ideal(T)) == 1
    assert krull_dim(cyclic_module(T, ["x"])) == 1


def test_local_cohomology_window_matches_depth_and_dim():
    m = maximal_ideal(S)
    lcd = local_cohomology_degrees(m)
    assert lcd == [1, 2]
    assert min(lcd) == depth(m) and max(lcd) == krull_dim(m)


def test_finite_length_detection():
    k = cyclic_module(T, ["x", "y", "z"])
    assert k.hilbert_series().is_finite_length()
    assert not free_module(T, [0]).hilbert_series().is_finite_length()


def test_cm_and_mcm():
    assert is_cm(free_module(S, [0])) and is_mcm(free_module(S, [0]))
    assert is_cm(cyclic_module(S, ["x", "y"]))  # finite length is CM
    assert not is_cm(maximal_ideal(S))  # depth 1 < dim 2
    assert is_mcm(maximal_ideal(H))
    assert not is_mcm(cyclic_module(H, ["x", "y"]))


def test_serre_tilde_exact_over_cm_rings():
    m = maximal_ideal(H)
    for n in (1, 2, 3):
        v = serre_tilde(m, n)
        assert v.holds() and v.exact()
    k = cyclic_module(H, ["x", "y"])
    v = serre_tilde(k, 1)
    assert not v.holds() and v.exact()


N = make_ring(GF(32003), ["x", "y", "z", "w"], ["x*z", "x*w", "y*z", "y*w"])
# (x) meets the line (y, z) in a point, and (x^2, xy) = (x) cap (x^2, y)
# has the embedded prime (x, y): neither ring is Cohen-Macaulay
PLANE_LINE = make_ring(GF(32003), ["x", "y", "z"], ["x*y", "x*z"])
EMBEDDED = make_ring(GF(32003), ["x", "y", "z"], ["x^2", "x*y"])


def test_serre_tilde_finds_the_non_monomial_prime_that_fails_it():
    """M = N/(x + y) fails S~_1 at p = (x + y, z, w): there w and z are
    killed, so R_p = S_p/(z, w) has depth 1 while M_p = R_p/(x + y) is a
    field.  No variable-subset prime contains x + y without x and y."""
    v = serre_tilde(cyclic_module(N, ["x + y"]), 1)
    assert v.exact() and not v.holds()
    assert v.witness == ("depth M_p = 0 < min(1, depth R_p = 1) at a "
                         "height-3 prime over (w, z, x + y)")
    assert serre_tilde(cyclic_module(N, ["x", "y"]), 3).kind == "true"


def test_serre_tilde_at_an_embedded_prime_saturates_the_stratum():
    """Over EMBEDDED, M = R/(y^2) = S/(x, y)^2 is supported on V(x, y)
    alone.  Its only height-2 point is the embedded prime (x, y), where
    depth R_p = 0, and m gives depth M = 1 = depth R: M satisfies S~_1.
    A height-2 prime where M_p != 0 and depth R_p = 1 would lie in
    V(x, y) off V(x^2, y), which is empty once saturated."""
    v = serre_tilde(cyclic_module(EMBEDDED, ["y^2"]), 1)
    assert v.kind == "true"


def _local_points(M):
    """Every (height, (depth, dim) of M, (depth, dim) of R) that a prime
    of R inside m realizes, asked one candidate at a time."""
    modules = (M, free_module(M.ring, [0]))
    options = []
    for X in modules:
        _, js = invariants._ambient_profile(X)
        options.append([None] + [(lo, hi) for lo in js for hi in js
                                 if lo <= hi])
    found = set()
    for h in range(M.ring.nvars + 1):
        for a in options[0]:
            for b in options[1]:
                want = tuple((INFINITY, -1) if c is None
                             else (h - c[1], h - c[0]) for c in (a, b))
                point = invariants.locus_point(
                    modules, lambda hh, d, dm: hh == h and tuple(
                        zip(d, dm)) == want)
                if point is not None:
                    found.add((h,) + want)
    return found


@pytest.mark.parametrize("ring, gens, points", [
    # N: the two planes at height 2, the points of one plane off the
    # other at height 3 (regular of dimension 1), and m (depth 1, dim 2)
    (N, [], {(2, (0, 0), (0, 0)), (3, (1, 1), (1, 1)),
             (4, (1, 2), (1, 2))}),
    # the plane (x) at height 1; the line (y, z) and the plane's primes
    # off it at height 2; m of depth 1
    (PLANE_LINE, [], {(1, (0, 0), (0, 0)), (2, (0, 0), (0, 0)),
                      (2, (1, 1), (1, 1)), (3, (1, 2), (1, 2))}),
    # S/(x, y)^2: outside the support at (x) and at the height-2 primes
    # other than the embedded (x, y), artinian at (x, y), CM at m
    (EMBEDDED, ["y^2"], {(1, (INFINITY, -1), (0, 0)),
                         (2, (0, 0), (0, 1)), (2, (INFINITY, -1), (1, 1)),
                         (3, (1, 1), (1, 2))}),
])
def test_locus_point_realizes_exactly_the_local_data_of_the_primes(
        ring, gens, points):
    """Each stratum reaches every height from ht(A : B^inf) to n - 1, and
    n only at m: checked against the primes of three small rings."""
    M = cyclic_module(ring, gens) if gens else free_module(ring, [0])
    assert _local_points(M) == points


@pytest.mark.parametrize("name, size", [("H", 19), ("T", 28), ("U", 17),
                                        ("P", 20), ("Q", 20)])
def test_serre_tilde_by_strata_matches_the_cm_reading(name, size):
    """Over a CM ring the stratum decider and the series-only reading of
    `_serre_tilde_cm` agree on S~_1, S~_2 and S~_3 of every module of the
    pool.  U's annihilators are not monomial; P and Q have dimension 2,
    where an Ext group above the codimension can sit exactly at the bound
    n - j - k."""
    field, names, rels = corpus_golden.RINGS[name]
    R = make_ring(field_from_name(field), names.split(", "), rels.split(", "))
    assert ring_is_cm(R)
    verdicts = []
    for label, M in generate_corpus(R, size):
        A = minimalize(M)
        if A.is_zero():
            continue
        for k in (1, 2, 3):
            cm = invariants._serre_tilde_cm(A, k)
            by_strata = invariants._serre_tilde_locus(A, k)
            assert by_strata.exact() and cm.exact()
            assert by_strata.holds() == cm.holds(), (label, k)
            verdicts.append(cm.holds())
    assert True in verdicts and False in verdicts


def test_gc_dim_over_gorenstein_is_ab_defect():
    # over a Gorenstein ring the G-dimension is finite and equals
    # depth R - depth M
    k = cyclic_module(H, ["x", "y"])
    R1 = free_module(H, [0])
    v = gc_dim(k, R1)
    assert v.is_finite() and v.value == 1 and v.exact()
    v0 = gc_dim(cyclic_module(H, ["x"]), R1)
    assert v0.kind == "zero" and v0.value == 0


def test_gc_dim_matches_projective_dimension_over_poly_ring():
    k = cyclic_module(S, ["x", "y"])
    v = gc_dim(k, free_module(S, [0]))
    assert v.is_finite() and v.value == 2


def test_relative_invariants_refuse_modules_over_different_rings():
    # M = S/(x) has finite projective dimension, which once answered
    # before the rings were compared
    M, C = cyclic_module(S, ["x"]), cyclic_module(H, ["y"])
    with pytest.raises(ValueError, match="gc_dim over different rings"):
        gc_dim(M, C)
    with pytest.raises(ValueError,
                       match="in_auslander_class over different rings"):
        in_auslander_class(M, C)


def test_reduced_grade_frozen():
    R1 = free_module(H, [0])
    rx = cyclic_module(H, ["x"])
    assert str(reduced_grade(rx, R1)) == "infinity"
    k = cyclic_module(H, ["x", "y"])
    rg = reduced_grade(k, R1)
    assert rg.value == 1  # Ext^1(k, R) already nonzero


def test_grade_of_finite_length_module():
    k = cyclic_module(S, ["x", "y"])
    assert grade_module(k) == 2
    assert grade_module(maximal_ideal(S)) == 0


def test_canonical_module_gorenstein_is_free():
    w = canonical_module(H)
    assert minimalize(w).n_rels() == 0
    assert minimalize(w).n_gens() == 1
    assert is_canonical_module(free_module(H, w.gen_twists))


def test_canonical_module_three_lines_frozen():
    w = canonical_module(T)
    assert w.gen_twists == (0, 0)
    assert w.rel_twists == (1, 1, 1)
    assert (depth(w), krull_dim(w)) == (1, 1)  # maximal CM
    assert is_canonical_module(w)
    assert not is_canonical_module(free_module(T, [0]))


def test_semidualizing_certificates():
    cert = is_semidualizing(free_module(T, [0]))
    assert cert.valid and cert.ext_bound is None  # free rank one: exact
    w = canonical_module(T)
    certw = is_semidualizing(w)
    assert certw.valid and certw.ext_bound is None  # canonical over CM: exact
    bad = is_semidualizing(free_module(T, [0, 0]))
    assert not bad.valid  # rank two cannot be semidualizing


def test_free_module_of_rank_two_has_no_coefficient_facts():
    for ring in (S, H, T):
        facts = coefficient_facts(free_module(ring, [0, 1]))
        assert facts == CoefficientFacts(free_rank_one=False, canonical=False)
        assert facts.certificate() is None


def test_free_coefficient_over_a_non_gorenstein_ring():
    R = free_module(T, [0])
    cert = is_semidualizing(R)
    assert (cert.status_label(), cert.describe()) == ("Exact",
                                                      "exact certificate")
    facts = coefficient_facts(R)
    assert facts == CoefficientFacts(free_rank_one=True, canonical=False)
    assert facts.certificate() is None  # G_C-dim is G-dim: no certificate


def test_coefficient_certificates_over_cm_rings():
    assert coefficient_facts(free_module(H, [2])).certificate() == \
        "Gorenstein ring, free coefficient module"
    assert coefficient_facts(canonical_module(T)).certificate() == \
        "canonical coefficient module"


def test_free_coefficient_auslander_class_needs_no_tor_or_ext(monkeypatch):
    calls = []

    def counted(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(invariants, "tor", counted(invariants.tor))
    monkeypatch.setattr(invariants, "ext", counted(invariants.ext))
    for ring in (H, T):
        # the residue field has infinite projective dimension over both
        v = in_auslander_class(cyclic_module(ring, ring.poly_ring.names),
                               free_module(ring, [1]))
        assert (v.status_label(), v.note) == (
            "Exact", "free coefficient module of rank one")
    assert calls == []


def test_auslander_class_membership():
    w = canonical_module(T)
    R1 = free_module(T, [0])
    assert in_auslander_class(R1, w).holds()
    # the residue field sits outside the Auslander class of omega here
    k = cyclic_module(T, ["x", "y", "z"])
    vk = in_auslander_class(k, w)
    assert not vk.holds()


def test_auslander_class_depth_transfer():
    # members satisfy depth(M (x) C) = depth M with C the canonical module
    w = canonical_module(T)
    for _, M in corpus_pool(T)[:10]:
        v = in_auslander_class(M, w, bound=8)
        if v.holds():
            assert depth(minimalize(tensor(M, w))) == depth(M)


def test_ab_formula_on_pool_slice():
    # finite relative G-dimension forces the depth formula exactly
    for _, R in classical_rings():
        R1 = free_module(R, [0])
        for _, M in corpus_pool(R)[:8]:
            v = gc_dim(M, R1)
            if v.is_finite() and v.exact():
                assert v.value == ring_depth(R) - depth(M)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=-2, max_value=2))
def test_depth_invariant_under_twist(a):
    m = maximal_ideal(T)
    assert depth(twist_module(m, a)) == depth(m)
    assert krull_dim(twist_module(m, a)) == krull_dim(m)


def test_depth_of_direct_sum_is_minimum():
    k = cyclic_module(H, ["x", "y"])
    f = free_module(H, [0])
    assert depth(direct_sum(k, f)) == 0
    assert krull_dim(direct_sum(k, f)) == 1


def _reference_natural_map_is_iso(A, Cmin):
    """The natural map test with Hom(C, A (x) C) presented by
    `_hom_cohomology`: its Hilbert series from the presentation, and
    surjectivity tested on the presentation's minimal generators."""
    ring = A.ring
    T_raw, _, Bc = tensor_raw(A, Cmin)
    qc, qT = Bc.n_gens(), T_raw.n_gens()
    pres, kept, twists = _hom_cohomology(Bc, T_raw, 0)
    rels = _per_slot_relations(qc, qT, T_raw)
    one = ring.poly_ring.one()
    img_cols = [{t * qT + i * qc + t: one for t in range(qc)}
                for i in range(A.n_gens())]
    if A.hilbert_series() != pres.hilbert_series():
        return False, "Hilbert series of source and target differ"
    img_gb = span_gb(ring, [c for c in img_cols if c] + rels, list(twists))
    if not all(img_gb.contains(k) for k in kept):
        return False, "map is not surjective"
    return True, "surjective with equal Hilbert series"


def test_natural_map_reads_hom_from_its_cycles():
    N = make_ring(GF(32003), ["x", "y", "z", "w"],
                  ["x*z", "x*w", "y*z", "y*w"])
    answers = []
    for ring in (T, N):
        Cmin = minimalize(canonical_module(ring))
        # the corpus, then A = R: the homothety R -> Hom(C, C)
        for M in [M for _, M in generate_corpus(ring, 8)] + [
                free_module(ring, [0])]:
            A = minimalize(M)
            got = invariants._natural_map_is_iso(A, Cmin)
            want = _reference_natural_map_is_iso(A, Cmin)
            assert got == want, (str(ring), A.content_key())
            answers.append(got[0])
    # the homothety over T (omega is semidualizing) is an iso; over the
    # non-CM ring N it is not
    assert answers[8] and not answers[-1]
    assert not all(answers)


N4 = make_ring(GF(32003), ["x", "y", "z", "w"], ["x*z", "x*w", "y*z", "y*w"])
# T after y -> x+y, z -> x+y+z: the same graded ring, non-monomial ideal
U = make_ring(QQ, ["x", "y", "z"],
              ["x^2+x*y", "x^2+x*y+x*z", "x^2+2*x*y+x*z+y^2+y*z"])


def _natural_map_inputs(ring, size):
    """(A, Cmin) over the corpus and A = R, with C the canonical module."""
    Cmin = minimalize(canonical_module(ring))
    return [(minimalize(M), Cmin) for _, M in generate_corpus(ring, size)
            + [("free[0]", free_module(ring, [0]))]]


@pytest.mark.parametrize("ring, size", [(T, 8), (N4, 8), (U, 4)],
                         ids=["T", "N", "U"])
def test_image_side_series_is_the_series_of_hom(ring, size):
    # rank-nullity along 0 -> Hom(C, X) -> Hom(F_0, X) -> Hom(F_1, X)
    # -> Tr_X C -> 0 against Hom(C, X) presented from its cycles
    for A, Cmin in _natural_map_inputs(ring, size):
        got = invariants._image_side_series(A, Cmin)
        want = _hom_cohomology(Cmin, tensor_raw(A, Cmin)[0],
                               0)[0].hilbert_series()
        assert got == want, (str(ring), A.content_key())


def test_differing_series_run_no_cycles(monkeypatch):
    # over N every corpus answer is "the series differ", read from the
    # image side alone
    inputs = _natural_map_inputs(N4, 8)
    want = [invariants._natural_map_is_iso(A, Cmin)
            for A, Cmin in inputs]
    assert not any(ok for ok, _ in want)

    def refuse(*args, **kwargs):
        raise AssertionError("_hom_cycles called")

    monkeypatch.setattr(invariants, "_hom_cycles", refuse)
    monkeypatch.setattr(homops, "_hom_cycles", refuse)
    got = [invariants._natural_map_is_iso(A, Cmin)
           for A, Cmin in inputs]
    assert got == want


def test_kernel_route_must_match_the_image_side_series():
    # the homothety R -> Hom(omega, omega) over T is an iso; a series off
    # by a factor t fails the cross-check of the cycles
    R, Cmin = _natural_map_inputs(T, 0)[0]
    series = invariants._image_side_series(R, Cmin)
    assert invariants._natural_map_by_cycles(R, Cmin, series)[0]
    with pytest.raises(ConsistencyError, match="image side"):
        invariants._natural_map_by_cycles(R, Cmin, series.shift(1))


def _split_tensor(A, Cmin):
    """tensor_raw(A, C) as (relations from A's, relations from C's)."""
    raw = tensor_raw(A, Cmin)[0]
    k = A.n_rels() * Cmin.n_gens()

    def part(cols):
        return ModulePresentation(raw.ring, raw.gen_twists,
                                  [raw.rel_twists[j] for j in cols],
                                  [raw.columns[j] for j in cols])

    return part(range(k)), part(range(k, raw.n_rels()))


def test_slot_checks_catch_a_wrong_target(monkeypatch):
    A = minimalize(cyclic_module(T, ["x"]))
    Cmin = minimalize(canonical_module(T))
    assert A.n_rels() and Cmin.n_rels()
    from_a, from_c = _split_tensor(A, Cmin)
    # without C's relations, Hom(d_1, X) moves an image off the cycles
    monkeypatch.setattr(invariants, "tensor", lambda M, N: from_a)
    with pytest.raises(ConsistencyError, match="leaves the target module"):
        invariants._natural_map_is_iso(A, Cmin)
    # without A's relations, the map does not factor through A
    monkeypatch.setattr(invariants, "tensor", lambda M, N: from_c)
    with pytest.raises(ConsistencyError, match="not well defined"):
        invariants._natural_map_is_iso(A, Cmin)
    # a tensor that lost or moved a generator
    monkeypatch.setattr(invariants, "tensor",
                        lambda M, N: twist_module(from_c, 1))
    with pytest.raises(ConsistencyError, match="generator"):
        invariants._natural_map_is_iso(A, Cmin)
