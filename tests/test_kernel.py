"""Kernel oracles: fields, polynomials, Groebner bases, syzygies, Hilbert series.

Expected values here were computed by hand (Buchberger runs, staircase
counts) before the implementation existed; they are frozen and must not
be regenerated from the code under test.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkage_lab.fields import GF, QQ
from linkage_lab.groebner import ModuleGB, _TermKeys, column_degree
from linkage_lab.hilbert import HilbertSeries, monomial_quotient_numerator
from linkage_lab.modules import column_syzygies
from linkage_lab.monomials import grevlex_key, monomials_of_degree
from linkage_lab.polynomials import PolyRing
from linkage_lab.rings import make_ring

import kernel_golden
from test_ideal_admission import _reduced


def ring_xy():
    return PolyRing(QQ, ["x", "y"])


def ring_xyz():
    return PolyRing(QQ, ["x", "y", "z"])


def col(p):
    return {0: p}


def basis(R, columns, twists):
    """The canonical reduced Groebner basis, as columns."""
    return ModuleGB(R, columns, twists).basis_columns()


def syzygies(R, columns, twists):
    """Generators of the syzygies of the columns, as columns."""
    return ModuleGB(R, columns, twists, track=True).syzygies


def test_field_arithmetic():
    assert QQ.from_fraction(2, 4) == Fraction(1, 2)
    f = GF(7)
    assert f.inv(3) == 5  # 3*5 = 15 = 1 mod 7
    assert f.add(4, 5) == 2
    with pytest.raises(ValueError):
        GF(6)


def test_grevlex_order_hand_checked():
    # in 3 vars: x*z > y^2 is FALSE under grevlex (x*z < y^2)
    xz = (1, 0, 1)
    y2 = (0, 2, 0)
    assert grevlex_key(y2) > grevlex_key(xz)
    # x^2 > x*y > y^2 in 2 vars
    ks = [grevlex_key(m) for m in [(2, 0), (1, 1), (0, 2)]]
    assert ks == sorted(ks, reverse=True)


def test_poly_parse_and_str_roundtrip():
    R = ring_xy()
    p = R.parse("x^2 - 2*x*y + y^2")
    assert str(p) == "x^2 - 2*x*y + y^2"
    assert R.parse(str(p)) == p
    assert R.parse("(x+y)^2") == R.parse("x^2 + 2x y + y^2")
    assert R.parse("0").is_zero()
    assert R.parse("1/2 x").scale(QQ.from_int(2)) == R.var(0)


def test_poly_homogeneous():
    R = ring_xy()
    assert R.parse("x^2 + x*y").is_homogeneous()
    assert not R.parse("x^2 + x").is_homogeneous()
    assert R.parse("0").is_homogeneous()


def test_buchberger_hand_worked_example():
    # {x^2 - y^2, x^2 + y^2}: S-pair gives 2*y^2, then x^2 - y^2 + y^2 -> x^2.
    # Reduced basis: {x^2, y^2}.
    R = ring_xy()
    gens = [col(R.parse("x^2 - y^2")), col(R.parse("x^2 + y^2"))]
    polys = sorted(str(c[0]) for c in basis(R, gens, [0]))
    assert polys == ["x^2", "y^2"]


def test_buchberger_permutation_invariance():
    R = ring_xyz()
    gens = [
        col(R.parse("x*y - z^2")),
        col(R.parse("x^2 - y*z")),
        col(R.parse("y^2 - x*z")),
    ]
    base = [str(c[0]) for c in basis(R, gens, [0])]
    rng = random.Random(7)
    for _ in range(5):
        sh = gens[:]
        rng.shuffle(sh)
        assert [str(c[0]) for c in basis(R, sh, [0])] == base


def test_normal_form_and_membership():
    R = ring_xy()
    gb = ModuleGB(R, [col(R.parse("x^2 - y^2")), col(R.parse("x^2 + y^2"))], [0])
    assert gb.contains(col(R.parse("x^2")))
    assert gb.contains(col(R.parse("x^4 - y^4")))
    assert not gb.contains(col(R.parse("x*y")))
    nf = gb.normal_form(col(R.parse("x^3 + x*y")))
    assert str(nf[0]) == "x*y"


def test_koszul_syzygy_frozen():
    # Syz(x, y) over QQ[x,y] is generated by (y, -x) alone.
    R = ring_xy()
    syz = syzygies(R, [col(R.var(0)), col(R.var(1))], [0])
    assert len(syz) == 1
    s = syz[0]
    # up to sign
    assert (str(s[0]), str(s[1])) in (("y", "-x"), ("-y", "x"))


def test_syzygy_of_repeated_generator():
    R = ring_xy()
    syz = syzygies(R, [col(R.var(0)), col(R.var(0))], [0])
    assert len(syz) == 1
    s = syz[0]
    assert str(s[0]) in ("1", "-1")
    assert s[0] + s[1] == R.zero()


def test_syzygy_of_unit_ideal_generator():
    R = ring_xy()
    assert syzygies(R, [col(R.one())], [0]) == []


def test_syzygies_compose_to_zero_random():
    rng = random.Random(3)
    R = ring_xyz()
    vocab = ["x", "y", "z", "x+y", "y-z", "x*y", "z^2", "x^2-y*z"]
    for _ in range(8):
        gens = [col(R.parse(rng.choice(vocab))) for _ in range(rng.randint(2, 4))]
        degs = [column_degree(c, [0]) for c in gens]
        syz = syzygies(R, gens, [0])
        for s in syz:
            total = R.zero()
            for t, q in s.items():
                total = total + q * gens[t][0]
            assert total.is_zero()
            # homogeneity of the syzygy for the induced twists
            for t, q in s.items():
                if not q.is_zero():
                    assert q.is_homogeneous()
                    assert q.degree() + degs[t] == column_degree(s, degs)


def test_module_syzygy_two_positions():
    # columns (x, y) and (y, x) in S^2: syzygies satisfy a*c1 + b*c2 = 0
    R = ring_xy()
    c1 = {0: R.var(0), 1: R.var(1)}
    c2 = {0: R.var(1), 1: R.var(0)}
    syz = syzygies(R, [c1, c2], [0, 0])
    for s in syz:
        for row in (0, 1):
            acc = R.zero()
            for t, cc in [(0, c1), (1, c2)]:
                q = s.get(t, R.zero())
                acc = acc + q * cc.get(row, R.zero())
            assert acc.is_zero()


def _span_series(R, columns, twists):
    """Hilbert series of the column span via leading-term staircases."""
    gb = ModuleGB(R, columns, twists)
    per_pos: dict = {}
    for pos, mono in gb.leading_terms():
        per_pos.setdefault(pos, []).append(mono)
    free = HilbertSeries.free(R.nvars, twists)
    coker = HilbertSeries.zero(R.nvars)
    for pos, a in enumerate(twists):
        num = monomial_quotient_numerator(R.nvars, per_pos.get(pos, []))
        coker = coker + HilbertSeries(R.nvars, num).shift(a)
    return free - coker


def test_syzygy_completeness_certificate():
    """Independent completeness oracle:

    series(syzygy span) must equal series(F1) - series(column span),
    which only uses staircase counting, never the tracked representations.
    """
    R = ring_xyz()
    cases = [
        [col(R.var(0)), col(R.var(1)), col(R.var(2))],
        [col(R.parse("x*y")), col(R.parse("y*z")), col(R.parse("x*z"))],
        [
            {0: R.var(0), 1: R.var(1)},
            {0: R.var(1), 1: R.var(2)},
            {0: R.zero(), 1: R.parse("x - z")},
        ],
    ]
    for columns in cases:
        twists = [0] * (max(max(c) for c in columns) + 1)
        degs = [column_degree(c, twists) for c in columns]
        syz = syzygies(R, columns, twists)
        lhs = _span_series(R, syz, degs) if syz else HilbertSeries.zero(R.nvars)
        rhs = HilbertSeries.free(R.nvars, degs) - _span_series(R, columns, twists)
        assert lhs == rhs


def test_lift_representation():
    R = ring_xy()
    cols = [col(R.parse("x^2 - y^2")), col(R.parse("x^2 + y^2"))]
    gb = ModuleGB(R, cols, [0], track=True)
    target = col(R.parse("x^4 - y^4"))
    lift = gb.lift(target)
    assert lift is not None
    acc = R.zero()
    for t, q in lift.items():
        acc = acc + q * cols[t][0]
    assert acc == target[0]
    assert gb.lift(col(R.parse("x*y"))) is None


def test_hilbert_free_and_hypersurface():
    # QQ[x,y]: 1/(1-t)^2;  QQ[x,y]/(x^2): (1+t)/(1-t)
    h_free = HilbertSeries.free(2, [0])
    assert str(h_free) == "(1)/(1-t)^2"
    num = monomial_quotient_numerator(2, [(2, 0)])
    h = HilbertSeries(2, num)
    red_num, red_den = h.reduced()
    assert red_num == {0: 1, 1: 1} and red_den == 1
    assert str(h) == "(1 + t)/(1-t)"
    assert h.dimension() == 1
    assert [h.value(d) for d in range(5)] == [1, 2, 2, 2, 2]


def test_hilbert_finite_length():
    num = monomial_quotient_numerator(2, [(2, 0), (1, 1), (0, 2)])
    h = HilbertSeries(2, num)
    assert h.is_finite_length()
    assert h.length() == 3  # 1, x, y
    assert h.dimension() == 0


def test_hilbert_three_lines_ring():
    # QQ[x,y,z]/(xy,xz,yz): series (1+2t)/(1-t), dimension 1
    num = monomial_quotient_numerator(3, [(1, 1, 0), (1, 0, 1), (0, 1, 1)])
    h = HilbertSeries(3, num)
    rn, rd = h.reduced()
    assert rn == {0: 1, 1: 2} and rd == 1
    assert h.dimension() == 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        min_size=0,
        max_size=5,
    )
)
def test_hilbert_numerator_matches_brute_force(monos):
    monos = [m for m in monos if sum(m) > 0]
    h = HilbertSeries(3, monomial_quotient_numerator(3, monos))
    for d in range(7):
        standard = [
            m
            for m in monomials_of_degree(3, d)
            if not any(all(e >= g for e, g in zip(m, gen)) for gen in monos)
        ]
        assert h.value(d) == len(standard)


def test_membership_soundness_random_combinations():
    rng = random.Random(11)
    R = ring_xyz()
    gens = [col(R.parse("x^2 - y*z")), col(R.parse("x*y - z^2")), col(R.parse("y^2"))]
    gb = ModuleGB(R, gens, [0])
    vocab = ["x", "y", "z", "x - y", "z^2", "x*y + y^2"]
    for _ in range(10):
        acc = R.zero()
        for g in gens:
            acc = acc + R.parse(rng.choice(vocab)) * g[0]
        assert gb.contains(col(acc))


def test_budget_error():
    from linkage_lab.errors import BudgetError

    R = ring_xy()
    with pytest.raises(BudgetError):
        # forcing an impossible degree cap below the S-pair degree
        ModuleGB(R, [col(R.parse("x^2 - y^2")), col(R.parse("x^2 + y^2"))], [0], max_degree=1)


def test_normal_form_idempotent_property():
    rng = random.Random(5)
    R = ring_xyz()
    gens = [col(R.parse("x*y - z^2")), col(R.parse("x^2"))]
    gb = ModuleGB(R, gens, [0])
    vocab = ["x^3", "x*y*z", "z^3", "y^2*z", "x^2*y - z^3"]
    for _ in range(8):
        p = R.parse(rng.choice(vocab)) + R.parse(rng.choice(vocab))
        nf1 = gb.normal_form(col(p))
        nf2 = gb.normal_form(nf1 if nf1 else {0: R.zero()})
        assert {k: str(v) for k, v in nf1.items()} == {k: str(v) for k, v in nf2.items()}


def test_rational_inverse_and_division_are_fractions():
    for a in (2, -3, Fraction(2, 3), Fraction(-5, 1)):
        inv = QQ.inv(a)
        assert type(inv) is Fraction and inv * a == 1
    assert QQ.inv(2) == Fraction(1, 2)
    for a, b, want in ((1, 3, Fraction(1, 3)), (4, 2, 2),
                       (Fraction(1, 2), Fraction(3, 4), Fraction(2, 3))):
        quotient = QQ.mul(a, QQ.inv(b))
        assert type(quotient) is Fraction and quotient == want
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def _top_grevlex(term):
    pos, mono = term
    return (grevlex_key(mono), -pos)


def test_int_term_keys_order_like_top_grevlex():
    rng = random.Random(17)
    for nvars in (1, 2, 3, 4):
        keys = _TermKeys(nvars, 0, 5)
        edge = keys.limit - 1
        terms = set()
        # monomials of the largest degree the width holds, and around it
        for i in range(nvars):
            for d in (edge, edge - 1, 1, 0):
                e = [0] * nvars
                e[i] = d
                terms.add((rng.randrange(6), tuple(e)))
        for _ in range(300):
            cut = sorted(rng.randrange(edge + 1) for _ in range(nvars - 1))
            mono = tuple(b - a for a, b in zip([0] + cut, cut + [edge]))
            mono = tuple(rng.randrange(x + 1) for x in mono)
            terms.add((rng.randrange(6), mono))
        terms = sorted(terms)
        for t in terms:
            assert keys.term(keys.key(t)) == t
        by_int = sorted(terms, key=keys.key)
        assert by_int == sorted(terms, key=_top_grevlex)
        # multiplying by a monomial adds its key at position bits zero
        q = tuple(rng.randrange(3) for _ in range(nvars))
        shift = keys.key((keys.pmask, q))
        small = [t for t in terms if sum(t[1]) + sum(q) < keys.limit]
        for pos, m in small:
            prod = tuple(a + b for a, b in zip(m, q))
            assert keys.key((pos, m)) + shift == keys.key((pos, prod))


def test_int_term_keys_widen_past_the_packing_width():
    R = ring_xyz()
    gb = ModuleGB(R, [col(R.parse("x - y")), col(R.parse("z^2"))], [0])
    limit = gb._keys.limit
    big = (limit, 3 * limit + 1)
    # a key of a degree at the limit shows it in the top field: the
    # kernel sees the overflow instead of wrapping into a wrong order
    assert gb._keys.degree(gb._keys.key((0, (0, limit, 0)))) >= limit
    for a, b in [big, (limit - 1, 1), (2, 4 * limit)]:
        p = R.monomial((a, b, 0)) + R.monomial((0, 1, 1))
        nf = gb.normal_form(col(p))
        assert str(nf[0]) == str(R.monomial((0, a + b, 0)) + R.monomial((0, 1, 1)))
        assert gb.contains(col(R.monomial((a, b, 2))))
    assert gb._keys.limit > 4 * limit + 2
    # degrees up to 4 * limit + 1, within what the basis has been given
    terms = [(0, (a, b, c)) for a in (0, 1, 2 * limit) for b in (0, limit)
             for c in (0, 1, limit)]
    assert sorted(terms, key=gb._keys.key) == sorted(terms, key=_top_grevlex)
    # tracked bases widen their representations too
    cols = [col(R.parse("x - y")), col(R.parse("y^2 - z^2"))]
    gb = ModuleGB(R, cols, [0], track=True)
    target = col(R.monomial((3 * limit, 0, 0)) - R.monomial((3 * limit - 2, 0, 2)))
    lift = gb.lift(target)
    acc = R.zero()
    for t, q in lift.items():
        acc = acc + q * cols[t][0]
    assert acc == target[0]


def test_kernel_reproduces_golden_outputs():
    with open(kernel_golden.GOLDEN, encoding="utf-8") as fh:
        cases = json.load(fh)
    names = {c["name"] for c in cases}
    assert {"K-step0", "W-step0", "cubic-QQ", "cubic-GF"} <= names
    for case in cases:
        assert kernel_golden.run_case(case) == case["expected"], case["name"]


def _column_coefficients(col):
    return [c for p in col.values() for c in p.terms.values()]


def test_coefficients_leaving_the_kernel_over_qq_are_fractions():
    R = ring_xyz()
    cols = [col(R.parse("2*x*y - 3*z^2")), col(R.parse("x^2 - 1/2*y*z")),
            col(R.parse("y^2 - 5/3*x*z")), {0: R.parse("4*x"), 1: R.parse("2*y")}]
    probes = [col(R.parse("x^3 + 6*x*y*z")), col(R.parse("2*x*(x^2 - 1/2*y*z)"))]
    seen = []
    for track in (False, True):
        gb = ModuleGB(R, cols, [0, 1], track=track)
        for c in gb.basis_columns():
            seen += _column_coefficients(c)
        for p in probes:
            seen += _column_coefficients(gb.normal_form(p))
            if track:
                lifted = gb.lift(p)
                if lifted is not None:
                    seen += _column_coefficients(lifted)
        for s in gb.syzygies:
            seen += _column_coefficients(s)
    for s in syzygies(R, cols + [{0: R.zero()}], [0, 1]):
        seen += _column_coefficients(s)
    assert len(seen) > 100
    assert all(type(c) is Fraction for c in seen)


_T = make_ring(QQ, ["x", "y", "z"], ["y*z", "x*z", "x*y"])
_N = make_ring(GF(32003), ["x", "y", "z", "w"], ["x*z", "x*w", "y*z", "y*w"])


def _random_poly(ring, terms):
    S = ring.poly_ring
    p = S.zero()
    for exps, c in terms:
        p = p + S.monomial(exps[:S.nvars], S.field.from_int(c))
    return p


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([_T, _N]),
    st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * 4),
                       st.integers(-5, 5).filter(bool)),
             max_size=6),
)
def test_ring_nf_agrees_with_full_reduction(ring, terms):
    p = _random_poly(ring, terms)
    full = ring._gb.normal_form({0: p}).get(0, ring.poly_ring.zero())
    nf = ring.nf(p)
    assert nf == full
    assert str(nf) == str(full)


def _projected(col, k):
    """The entries of a column on coordinates below k."""
    return {pos: p for pos, p in col.items() if pos < k}


def _terms(col) -> list:
    """A column's entries and their terms, in order."""
    return [(pos, list(p.terms.items())) for pos, p in col.items()]


@st.composite
def _split_columns(draw):
    """(ring, twists, columns, fixed): random homogeneous columns over QQ
    or GF(32003), split into tracked and fixed ones, with zero columns and
    monomial as well as non-monomial fixed columns among them."""
    S = PolyRing(draw(st.sampled_from([QQ, GF(32003)])), ["x", "y", "z"])
    twists = draw(st.lists(st.integers(0, 1), min_size=1, max_size=2))

    def poly(degree, monomial):
        monos = monomials_of_degree(3, degree)
        picks = draw(st.lists(st.sampled_from(monos), min_size=1,
                              max_size=1 if monomial else 3, unique=True))
        p = S.zero()
        for m in picks:
            p = p + S.monomial(m, S.field.from_int(draw(st.integers(-3, 3).filter(bool))))
        return p

    def column(monomial):
        kind = draw(st.sampled_from(["zero", "entry", "entry", "full"]))
        if kind == "zero":
            return {}
        degree = max(twists) + draw(st.integers(0, 2))
        positions = range(len(twists)) if kind == "full" else \
            [draw(st.integers(0, len(twists) - 1))]
        return {pos: poly(degree - twists[pos], monomial) for pos in positions}

    columns = [column(False) for _ in range(draw(st.integers(0, 3)))]
    fixed = [column(draw(st.booleans())) for _ in range(draw(st.integers(0, 4)))]
    return S, twists, columns, fixed


@settings(max_examples=60, deadline=None)
@given(_split_columns(), st.data())
def test_fixed_columns_track_the_projection_of_the_full_run(case, data):
    S, twists, columns, fixed = case
    k = len(columns)
    gb = ModuleGB(S, columns, twists, track=True, fixed=fixed)
    full = ModuleGB(S, columns + fixed, twists, track=True)
    projections = [_projected(s, k) for s in full.syzygies]
    want = [p for p in projections if p]
    assert [_terms(s) for s in gb.syzygies] == [_terms(p) for p in want]
    # lifts of span members and of a perturbed vector
    gens = S.gens()
    probes = []
    for c in columns + fixed:
        g = gens[data.draw(st.integers(0, 2))]
        probes.append({pos: g * p for pos, p in c.items()})
    probes.append({0: S.parse("x^2 + y*z")})
    for probe in probes:
        lifted, lifted_full = gb.lift(probe), full.lift(probe)
        if lifted_full is None:
            assert lifted is None
        else:
            assert _terms(lifted) == _terms(_projected(lifted_full, k))


def test_budget_error_on_an_inert_pair():
    from linkage_lab.errors import BudgetError

    R = ring_xy()
    # lcm(x^3, y^3) has degree 6; the pair is never queued, yet counts
    cubes = [col(R.parse("x^3")), col(R.parse("y^3"))]
    with pytest.raises(BudgetError):
        ModuleGB(R, cubes, [0], max_degree=5)
    with pytest.raises(BudgetError):
        ModuleGB(R, [], [0], track=True, fixed=cubes, max_degree=5)
    assert sorted(ModuleGB(R, cubes, [0], max_degree=6).leading_terms()) == \
        [(0, (0, 3)), (0, (3, 0))]


# -- runs limited to a degree -------------------------------------------------

_LIMIT_RINGS = [
    make_ring(field, ["x", "y", "z"], rels)
    for field in (QQ, GF(32003))
    for rels in (["y*z", "x*z", "x*y"],
                 ["x^2 + x*y", "x^2 + x*y + x*z",
                  "x^2 + 2*x*y + x*z + y^2 + y*z"])
]


@st.composite
def _quotient_columns(draw):
    """(ring, twists, columns, fixed): random homogeneous columns over a
    monomial or a non-monomial quotient of QQ[x,y,z] or GF(32003)[x,y,z],
    zero columns among them, and no fixed columns or some."""
    R = draw(st.sampled_from(_LIMIT_RINGS))
    S = R.poly_ring
    twists = draw(st.lists(st.integers(0, 1), min_size=1, max_size=2))

    def column():
        if draw(st.integers(0, 4)) == 0:
            return {}
        degree = max(twists) + draw(st.integers(0, 2))
        positions = draw(st.lists(st.integers(0, len(twists) - 1),
                                  min_size=1, unique=True))
        out = {}
        for pos in sorted(positions):
            monos = monomials_of_degree(3, degree - twists[pos])
            p = S.zero()
            for m in draw(st.lists(st.sampled_from(monos), min_size=1,
                                   max_size=3, unique=True)):
                p = p + S.monomial(m, S.field.from_int(
                    draw(st.integers(-3, 3).filter(bool))))
            out[pos] = p
        return out

    columns = [column() for _ in range(draw(st.integers(1, 4)))]
    fixed = [column() for _ in range(draw(st.sampled_from([0, 0, 1, 2])))]
    return R, twists, columns, fixed


def _syzygy_degree(s, columns, twists):
    """Twisted degree of a syzygy of the columns; None for the unit
    syzygy of a zero column, whose degree no column tells."""
    for t, p in s.items():
        if columns[t]:
            return p.degree() + column_degree(columns[t], twists)
    return None


@settings(max_examples=60, deadline=None)
@given(_quotient_columns(), st.integers(-1, 5))
def test_a_limited_run_harvests_the_full_run_through_its_limit(case, d):
    R, twists, columns, fixed = case
    full = column_syzygies(R, columns, twists, extra=fixed)
    want = [s for s in full
            if (e := _syzygy_degree(s, columns, twists)) is None or e <= d]
    got = column_syzygies(R, columns, twists, extra=fixed, through=d)
    assert [_terms(s) for s in got] == [_terms(s) for s in want]
    if any(columns):
        gb = ModuleGB(R.poly_ring, columns, twists, track=True, fixed=fixed,
                      quotient=R, through=d)
        assert gb.top_degree is None or gb.top_degree <= d


def _capped_case():
    """Columns x, x, y^2 over QQ[x,y,z]/(yz, xz, xy): one syzygy in
    degree 1, the others and the ideal's own pairs higher."""
    R = _LIMIT_RINGS[0]
    S = R.poly_ring
    return R, [{0: S.parse("x")}, {0: S.parse("x")}, {0: S.parse("y^2")}]


def test_a_limited_run_stays_within_a_cap_the_full_run_exceeds(set_caps):
    from linkage_lab.errors import BudgetError

    R, columns = _capped_case()
    full = column_syzygies(R, columns, [0])
    top = ModuleGB(R.poly_ring, columns, [0], track=True, quotient=R).top_degree
    assert top >= 3
    set_caps(MAX_DEGREE=top - 1)
    with pytest.raises(BudgetError, match="groebner pair degree"):
        column_syzygies(R, columns, [0])
    got = column_syzygies(R, columns, [0], through=1)
    assert [_terms(s) for s in got] == \
        [_terms(s) for s in full if _syzygy_degree(s, columns, [0]) <= 1]
    assert len(got) == 1


def test_a_limit_above_a_tight_cap_raises_as_the_full_run(set_caps):
    from linkage_lab.errors import BudgetError

    R, columns = _capped_case()
    set_caps(MAX_DEGREE=0)
    with pytest.raises(BudgetError) as limited:
        column_syzygies(R, columns, [0], through=1)
    with pytest.raises(BudgetError) as full:
        column_syzygies(R, columns, [0])
    assert str(limited.value) == str(full.value) == \
        "budget exceeded: groebner pair degree (limit 0)"


def test_an_inert_pair_at_or_below_the_limit_counts_against_the_cap():
    """An inert pair of degree 3 <= d = 3 exceeds the cap 2, while the
    largest inert pair of its element, or of the ideal, lies above d: a
    run limited to 3 raises, one limited to 2 does not.  Once with the
    monomials fixed, once as the ideal of a quotient."""
    from linkage_lab.errors import BudgetError

    S = ring_xy()
    x = [col(S.parse("x"))]
    fixed = [col(S.parse(m)) for m in ("x^2", "y^3", "x*y")]
    R = make_ring(QQ, ["x", "y"], ["x^2", "y^3", "x*y"])
    runs = [dict(fixed=fixed), dict(quotient=R)]
    for kwargs in runs:
        with pytest.raises(BudgetError, match="groebner pair degree"):
            ModuleGB(S, x, [0], track=True, max_degree=2, through=3, **kwargs)
        gb = ModuleGB(S, x, [0], track=True, max_degree=2, through=2, **kwargs)
        assert gb.top_degree == 2


def test_a_limited_run_answers_only_its_syzygies():
    R, columns = _capped_case()
    gb = ModuleGB(R.poly_ring, columns, [0], track=True, quotient=R, through=1)
    probe = columns[0]
    for query in (lambda: gb.contains(probe), lambda: gb.normal_form(probe),
                  lambda: gb.lift(probe), gb.basis_columns, gb.leading_terms):
        with pytest.raises(ValueError, match="limited to degree 1"):
            query()
    for kwargs in ({"track": False}, {"track": True, "minimal": True}):
        with pytest.raises(ValueError, match="degree limit"):
            ModuleGB(R.poly_ring, columns, [0], through=1, **kwargs)


# -- the product criterion for I*F --------------------------------------------

@pytest.fixture
def counted(monkeypatch):
    """counted(make) -> (make(), the ModuleGB._reduce calls it made)."""
    calls = []
    reduce = ModuleGB._reduce

    def counting(self, *args, **kwargs):
        calls.append(self)
        return reduce(self, *args, **kwargs)

    monkeypatch.setattr(ModuleGB, "_reduce", counting)

    def counted(make):
        start = len(calls)
        out = make()
        return out, len(calls) - start

    return counted


def _runs_of(monkeypatch, compute):
    """(columns, twists, keyword arguments) of every kernel run over a
    quotient ring that compute() makes."""
    runs = []
    init = ModuleGB.__init__

    def recording(self, ring, columns, twists, **kwargs):
        columns = list(columns)
        if kwargs.get("quotient") is not None:
            runs.append((columns, list(twists), kwargs))
        init(self, ring, columns, twists, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(ModuleGB, "__init__", recording)
        compute()
    return runs


def _outputs(gb, R=None):
    """What a run answers: leading terms (none for a run limited in
    degree), kept candidates, syzygies (reduced mod the ideal of R when
    given) and the top pair degree."""
    leads = None if gb.through is not None else gb.leading_terms()
    syzygies = gb.syzygies if R is None else _reduced(R, gb.syzygies)
    return leads, gb.kept, syzygies, gb.top_degree


def _with_and_without_criterion(counted, R, columns, twists, **kwargs):
    """The reduction counts of the run with quotient=R and of the same run
    with I*F as its last fixed columns (where no criterion reads I*F),
    after checking that the two answer alike."""
    S, fixed = R.poly_ring, list(kwargs.pop("fixed", ()))
    ideal, fewer = counted(lambda: ModuleGB(S, columns, twists, fixed=fixed,
                                            quotient=R, **kwargs))
    aug, full = counted(lambda: ModuleGB(S, columns, twists,
                                         fixed=fixed + R.aug_columns(twists),
                                         **kwargs))
    assert _outputs(ideal) == _outputs(aug, R if R._monomial else None)
    assert fewer <= full
    return fewer, full


@pytest.mark.parametrize("R, length", [(_T, 5), (_N, 3)], ids=["T", "N"])
def test_the_product_criterion_spares_reductions_of_resolution_steps(
        monkeypatch, counted, R, length):
    from linkage_lab.corpus import generate_corpus
    from linkage_lab.resolutions import minimal_free_resolution

    K = dict(generate_corpus(R, 8))["residue-field"]
    runs = _runs_of(monkeypatch, lambda: minimal_free_resolution(K, length))
    assert any(kw.get("minimal") and kw.get("track") for _c, _t, kw in runs)
    fewer = full = 0
    for columns, twists, kwargs in runs:
        kwargs = {k: v for k, v in kwargs.items() if k != "quotient"}
        a, b = _with_and_without_criterion(counted, R, columns, twists, **kwargs)
        fewer, full = fewer + a, full + b
    assert fewer < full


_U = _LIMIT_RINGS[1]  # over QQ, with tails and one monomial generator


def test_the_product_criterion_spares_reductions_of_plain_runs(counted):
    """Over the whole pools of T, N and U (whose ideal has one monomial
    generator); the chain criterion already skips most coprime pairs at
    pop time, so the smaller pools spare none."""
    from linkage_lab.corpus import generate_corpus

    fewer = full = 0
    for R, size in ((_T, 28), (_N, 40), (_U, 28)):
        for _label, M in generate_corpus(R, size):
            columns, twists = list(M.columns), list(M.gen_twists)
            for minimal in (False, True):
                a, b = _with_and_without_criterion(counted, R, columns, twists,
                                                   minimal=minimal)
                fewer, full = fewer + a, full + b
            gb = ModuleGB(R.poly_ring, columns, twists, quotient=R)
            aug = ModuleGB(R.poly_ring, columns, twists,
                           fixed=R.aug_columns(twists))
            assert gb.basis_columns() == aug.basis_columns()
    assert fewer < full


def test_a_tracked_minimal_run_with_fixed_columns_queues_its_coprime_pairs(
        counted):
    """A fixed column enters _by_pos before I*F, so it can reduce the
    S-vector of a coprime pair with a monomial of I*F and leave a
    representation outside I: over T this run harvests -y^2 e_1 twice,
    and the criterion would drop one of the two."""
    S = _T.poly_ring
    columns = [{0: S.one(), 1: S.parse("z")}, {0: S.one()}, {}]
    fixed = [{0: S.parse("x + y")}]
    _with_and_without_criterion(counted, _T, columns, [1, 0], fixed=fixed,
                                track=True, minimal=True)
    gb = ModuleGB(S, columns, [1, 0], fixed=fixed, quotient=_T, track=True,
                  minimal=True)
    assert gb.syzygies[-2:] == [{1: S.parse("-y^2")}] * 2


# -- term tables --------------------------------------------------------------

def _packed(keys, term):
    """A term's key by the arithmetic of the _TermKeys doc, no table read:
    the partial sums of the exponents in fields of fbits bits above the
    pbits bits that hold pmask - pos."""
    pos, mono = term
    key, s = 0, 0
    for k, a in enumerate(mono):
        s += a
        key += s << (keys.pbits + keys.fbits * k)
    return key + keys.pmask - pos


@st.composite
def _table_columns(draw):
    """(ring, twists, a column of small degree, one of a degree beyond the
    narrowest key width), over QQ or GF(32003) in 1 to 4 variables."""
    field = draw(st.sampled_from([QQ, GF(32003)]))
    nvars = draw(st.integers(1, 4))
    S = PolyRing(field, ["x", "y", "z", "w"][:nvars])
    twists = [0] * draw(st.integers(1, 3))

    def column(low, high):
        out = {}
        for pos in draw(st.lists(st.integers(0, len(twists) - 1), min_size=1,
                                 unique=True)):
            p = S.zero()
            for _ in range(draw(st.integers(1, 4))):
                mono = tuple(draw(st.integers(0, high)) for _ in range(nvars))
                if sum(mono) >= low:
                    c = draw(st.integers(-7, 7).filter(bool))
                    p = p + S.monomial(mono, field.from_int(c))
            if not p.is_zero():
                out[pos] = p
        return dict(sorted(out.items()))

    return S, twists, column(0, 4), column(40, 60)


@settings(max_examples=60, deadline=None)
@given(_table_columns())
def test_term_tables_agree_with_the_key_arithmetic_across_widening(case):
    S, twists, small, big = case
    gb = ModuleGB(S, [], twists)
    narrow = gb._keys
    for col in (small, big, small):
        vec = gb._encode(col)
        keys = gb._keys
        assert vec == {_packed(keys, (pos, m)): c for pos, p in col.items()
                       for m, c in p.terms.items()}
        assert gb._column(vec) == col
        for k in vec:
            assert keys.key(keys.term(k)) == k
    if any(sum(m) >= narrow.limit for p in big.values() for m in p.terms):
        assert gb._keys is not narrow
    keys = gb._keys
    assert all(part == _packed(keys, (keys.pmask, m))
               for m, part in keys.parts.items())
    assert all(keys.parts[m] == part for part, m in keys.monos.items())


def test_term_key_weights_and_guard_are_the_summed_fields():
    """The closed forms of `weights` and `guard` are the sums they stand
    for: x_i adds 1 to each field s_i .. s_n, and the guard is the top
    bit of every field."""
    for nvars in range(7):
        for degree in (0, 5, 31, 100, 1000):
            for positions in (1, 5, 40, 513):
                keys = _TermKeys(nvars, degree, positions)
                f, p = keys.fbits, keys.pbits
                assert keys.weights == [
                    sum(1 << (f * k) for k in range(i, nvars)) << p
                    for i in range(nvars)]
                assert keys.guard == sum(1 << (f * k + f - 1)
                                         for k in range(nvars))
                assert keys.lowmask == (1 << (f * max(nvars - 1, 0))) - 1
