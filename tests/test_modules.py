"""Presentation-level operations: constructors, minimalization, sums,
twists, annihilators, and Hilbert series bookkeeping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkage_lab import config
from linkage_lab.corpus import (
    corpus_pool,
    generate_corpus,
    maximal_ideal,
)
from linkage_lab.errors import HomogeneityError, InapplicableError
from linkage_lab.fields import GF, QQ
from linkage_lab import modules
from linkage_lab.groebner import ModuleGB
from linkage_lab.hilbert import HilbertSeries
from linkage_lab.modules import (
    annihilates,
    annihilator,
    change_ring,
    cyclic_module,
    direct_sum,
    free_module,
    from_matrix,
    minimal_step,
    minimalize,
    subquotient,
    twist_module,
    zero_module,
)
from linkage_lab.rings import make_ring

S = make_ring(QQ, ["x", "y"])
H = make_ring(QQ, ["x", "y"], ["x*y"])
T = make_ring(QQ, ["x", "y", "z"], ["y*z", "x*z", "x*y"])
N = make_ring(GF(32003), ["x", "y", "z", "w"],
              ["x*z", "x*w", "y*z", "y*w"])
# T after y -> x+y, z -> x+y+z: the same graded ring, non-monomial ideal
U = make_ring(QQ, ["x", "y", "z"],
              ["x^2+x*y", "x^2+x*y+x*z", "x^2+2*x*y+x*z+y^2+y*z"])


def test_free_module_series():
    F = free_module(S, [0, -1])
    assert F.hilbert_series() == HilbertSeries.free(2, [0, -1])
    assert F.n_gens() == 2 and F.n_rels() == 0


def test_zero_module():
    Z = zero_module(S)
    assert Z.is_zero()
    assert minimalize(Z).n_gens() == 0


def test_cyclic_module_residue_field():
    k = cyclic_module(S, ["x", "y"])
    hs = k.hilbert_series()
    assert hs == HilbertSeries(2, {0: 1, 1: -2, 2: 1})
    assert [hs.value(d) for d in range(3)] == [1, 0, 0]


def test_from_matrix_row_major():
    # rows are indexed by generators, columns by relations
    m = from_matrix(S, [1, 1], [["y"], ["-x"]])
    assert m.gen_twists == (1, 1)
    assert m.rel_twists == (2,)
    assert m == maximal_ideal(S)


def test_from_matrix_rejects_inhomogeneous():
    with pytest.raises(HomogeneityError):
        from_matrix(S, [0], [["x + 1"]])


def test_from_matrix_row_count_guard():
    with pytest.raises(ValueError):
        from_matrix(S, [0, 0], [["x"]])


def test_minimalize_strips_unit_entries():
    # a unit relation entry cancels a generator against a relation
    M = from_matrix(S, [0, 0], [["1", "x"], ["0", "y"]])
    Mmin = minimalize(M)
    assert Mmin.n_gens() == 1
    assert Mmin.hilbert_series() == cyclic_module(S, ["y"]).hilbert_series()


def test_minimalize_preserves_series():
    for _, M in corpus_pool(H)[:8]:
        assert minimalize(M).hilbert_series() == M.hilbert_series()


def test_twist_shifts_series_and_twists():
    k = cyclic_module(S, ["x", "y"])
    k2 = twist_module(k, 2)
    assert k2.gen_twists == (-2,)
    assert k2.hilbert_series() == k.hilbert_series().shift(-2)


def test_twist_composes_to_identity():
    m = maximal_ideal(T)
    assert twist_module(twist_module(m, 3), -3) == m


def test_direct_sum_series_additive():
    m = maximal_ideal(S)
    k = cyclic_module(S, ["x", "y"])
    D = direct_sum(m, k)
    assert D.hilbert_series() == m.hilbert_series() + k.hilbert_series()
    assert D.n_gens() == m.n_gens() + k.n_gens()


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3))
def test_direct_sum_commutes_in_series(a, b):
    m = twist_module(maximal_ideal(H), a)
    k = twist_module(cyclic_module(H, ["x", "y"]), b)
    assert (direct_sum(m, k).hilbert_series()
            == direct_sum(k, m).hilbert_series())


def test_annihilator_of_cyclic():
    Rx = cyclic_module(H, ["x"])
    ann = annihilator(Rx)
    assert [str(p) for p in ann] == ["x"]


def test_annihilator_of_free_vanishes_in_ring():
    # annihilator generators live at the ambient level, so the defining
    # relations may appear; all of them must be zero in the quotient
    for p in annihilator(free_module(H, [0])):
        assert H.nf(p).is_zero()


def test_annihilates_is_ambient_level():
    # over the polynomial ring, without ring relations
    A = T.ambient()
    x = T.poly_ring.parse("x")
    yz = T.poly_ring.parse("y*z")
    assert annihilates(cyclic_module(A, [x]), T.poly_ring.parse("x^2"))
    # y*z is zero in T, hence in (x) there, but not at the ambient level
    assert not annihilates(cyclic_module(A, [x]), yz)
    # over T the ring relations recover containment in the quotient
    assert annihilates(cyclic_module(T, [x]), yz)


def _in_ideal(S, gens, f) -> bool:
    """Membership of f in the S-ideal (gens) by a fresh basis: the
    reference for `annihilates`."""
    if f.is_zero():
        return True
    if not gens:
        return False
    return ModuleGB(S, [{0: p} for p in gens], [0]).contains({0: f})


@pytest.mark.parametrize("ring", [H, T, N], ids=["H", "T", "N"])
def test_annihilates_agrees_with_annihilator_membership(ring):
    S = ring.poly_ring
    xs = [S.var(i) for i in range(ring.nvars)]
    fs = (xs + list(ring.reduced_relations)
          + [a * b for i, a in enumerate(xs) for b in xs[i:]])
    for name, M in generate_corpus(ring, 8):
        ann = annihilator(M)
        for f in fs:
            assert annihilates(M, f) == _in_ideal(S, ann, f), (name, str(f))


def _reduced_ideal(S, gens) -> list:
    if not gens:
        return []
    return [str(c[0]) for c in ModuleGB(S, [{0: p} for p in gens],
                                        [0]).basis_columns()]


def _syzygies(S, columns, twists, fixed) -> list:
    """Generators of {h : sum_t h[t] * columns[t] in span(fixed)} over S."""
    return ModuleGB(S, columns, twists, track=True, fixed=fixed).syzygies


def _untrimmed_annihilator(M) -> list:
    """ann(M) as the intersection of the ann(e_i), never trimmed: the
    reference for the trimmed loop of `annihilator`."""
    S = M.ring.poly_ring
    base = list(M.columns) + M.ring.aug_columns(M.gen_twists)
    current = None
    for i in range(M.n_gens()):
        q_i = [s[0] for s in _syzygies(S, [{i: S.one()}],
                                       list(M.gen_twists), base)]
        current = q_i if current is None else modules._intersect_ideals(
            M.ring.ambient(), current, q_i)
    return _reduced_ideal(S, current)


def _diagonal_annihilator(M) -> list:
    """ann(M) in one syzygy run, with no intersection: f kills M exactly
    when f * (e_0 in copy 0, ..., e_{m-1} in copy m-1) lies in m copies
    of span(columns) + I*F, copy c twisted so that e_c has degree 0."""
    S, m = M.ring.poly_ring, M.n_gens()
    base = list(M.columns) + M.ring.aug_columns(M.gen_twists)
    fixed = [{c * m + r: p for r, p in col.items()}
             for c in range(m) for col in base]
    twists = [g - M.gen_twists[c] for c in range(m) for g in M.gen_twists]
    diag = {c * m + c: S.one() for c in range(m)}
    return _reduced_ideal(S, [s[0] for s in _syzygies(
        S, [diag], twists, fixed)])


@pytest.mark.parametrize("ring, size", [(T, 8), (U, 4)], ids=["T", "U"])
def test_trimmed_annihilator_equals_references(ring, size):
    # the untrimmed loop over U's maximal ideal intersects 842 generators
    # with 25 and does not finish in minutes; the diagonal run covers it
    for name, M in generate_corpus(ring, size):
        ann = [str(p) for p in annihilator(M)]
        assert ann == _diagonal_annihilator(M), name
        if ring is T:
            assert ann == _untrimmed_annihilator(M), name


def test_annihilates_tests_every_generator():
    # x kills the first summand of S/(x) + S/(y) but not the second
    M = direct_sum(cyclic_module(S, ["x"]), cyclic_module(S, ["y"]))
    assert not annihilates(M, S.poly_ring.parse("x"))
    assert annihilates(M, S.poly_ring.parse("x*y"))
    with pytest.raises(InapplicableError):
        change_ring(M, S.quotient_by(["x"]))
    moved = change_ring(M, S.quotient_by(["x*y"]))
    assert moved.hilbert_series() == M.hilbert_series()


def test_subquotient_ideal_as_module():
    # the ideal (x, y) inside R^1 over the hypersurface
    gens = [{0: H.poly_ring.parse("x")}, {0: H.poly_ring.parse("y")}]
    M, kept = subquotient(H, [0], gens, [])
    assert len(kept) == 2
    M = minimalize(M)
    assert M.n_gens() == 2
    assert M.hilbert_series() == maximal_ideal(H).hilbert_series()


def test_change_ring_to_quotient():
    Rx = cyclic_module(S, ["x"])
    A = S.quotient_by([S.poly_ring.parse("x")])
    moved = minimalize(change_ring(Rx, A))
    assert moved.ring == A
    assert moved.n_gens() == 1 and moved.n_rels() == 0  # becomes free


def test_presentations_hash_by_content():
    a = cyclic_module(S, ["x"])
    b = cyclic_module(S, ["x"])
    assert a == b and hash(a) == hash(b)
    assert a != cyclic_module(S, ["y"])


def test_hilbert_series_of_quadric_quotient():
    R = make_ring(QQ, ["x", "y"], ["x^2"])
    hs = free_module(R, [0]).hilbert_series()
    assert str(hs).replace(" ", "") == "(1+t)/(1-t)"
    assert [hs.value(d) for d in range(5)] == [1, 2, 2, 2, 2]


def _nf_harvest(ring, gb):
    """The reference harvest: every entry reduced by ring.nf, zeros
    dropped."""
    out = []
    for s in gb.syzygies:
        col = {t: ring.nf(p) for t, p in s.items()}
        col = {t: p for t, p in col.items() if not p.is_zero()}
        if col:
            out.append(col)
    return out


@pytest.mark.parametrize("ring", [T, N, U], ids=["T", "N", "U"])
def test_harvest_reduced_in_the_kernel_matches_nf(ring):
    # over a monomial ideal the run drops the harvested terms in I before
    # they leave the kernel; an ideal with tails (U) keeps the nf path.
    # The references take I*F as fixed columns, so they drop nothing.
    monomial = all(len(f.terms) == 1 for f in ring.reduced_relations)
    S = ring.poly_ring
    checked = 0
    for _, M in generate_corpus(ring, 8):
        cols, twists = list(M.columns), list(M.gen_twists)
        if not cols:
            continue
        ideal = ring.aug_columns(twists)
        plain = ModuleGB(S, cols, twists, track=True, fixed=ideal,
                         max_degree=config.MAX_DEGREE)
        assert modules.column_syzygies(ring, cols, twists) == \
            _nf_harvest(ring, plain)
        reduced = ModuleGB(S, cols, twists, track=True, quotient=ring,
                           max_degree=config.MAX_DEGREE)
        assert reduced.syzygies_reduced == monomial
        minimal = ModuleGB(S, cols, twists, track=True, fixed=ideal,
                           max_degree=config.MAX_DEGREE,
                           minimal=True)
        kept, harvest = minimal_step(ring, cols, twists, harvest=True)
        assert kept == minimal.kept
        assert harvest == _nf_harvest(ring, minimal)
        checked += 1
    assert checked >= 6
