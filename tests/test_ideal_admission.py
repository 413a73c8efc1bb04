"""The ring's ideal as a kernel input, lazy tails, and normal forms over
monomial ideals.

`ModuleGB(..., quotient=R)` admits f*e_p for every position p and every f
in the reduced basis of I right after the fixed columns.  It must be the
same run as one given those products as the last fixed columns
(`ring.aug_columns(twists)`): the same basis, leading terms, kept
candidates, syzygies, pair tops and budget errors.  The same outputs, not
the same work: the run with `quotient` forms but does not queue some
coprime pairs with a monomial of I*F (the product criterion, see
`groebner`), which the other run reduces.  Over a monomial I the run with
`quotient` drops the terms in I from its harvest, and a syzygy that is 0
there; its syzygies are those of the other run reduced mod I.  A basis
reduces its tails on the first read of tails or representations;
membership, normal forms and leading terms read before that must be the
ones the reduced basis gives.  Over a monomial ideal, `GradedRing.nf` drops the terms a
lead divides instead of running the kernel; it must agree with the
kernel's normal form.
"""

import itertools

import pytest

from linkage_lab.corpus import generate_corpus
from linkage_lab.errors import BudgetError
from linkage_lab.fields import GF, QQ
from linkage_lab.groebner import ModuleGB, column_degree
from linkage_lab.rings import make_ring

RINGS = {
    "H": make_ring(QQ, ["x", "y"], ["x*y"]),
    "T": make_ring(QQ, ["x", "y", "z"], ["y*z", "x*z", "x*y"]),
    "N": make_ring(GF(32003), ["x", "y", "z", "w"],
                   ["x*z", "x*w", "y*z", "y*w"]),
    # T after y -> x+y, z -> x+y+z: a cubic and tails in the reduced basis
    "U": make_ring(QQ, ["x", "y", "z"],
                   ["x^2+x*y", "x^2+x*y+x*z", "x^2+2*x*y+x*z+y^2+y*z"]),
}

MODES = {
    "plain": {},
    "tracked": {"track": True},
    "minimal": {"minimal": True},
    "minimal-tracked": {"minimal": True, "track": True},
}


def _extras(R, twists):
    """No extra column, a monomial one and a non-monomial one."""
    S = R.poly_ring
    x, last = S.var(0), S.var(R.nvars - 1)
    top = max(twists) + 1
    monomial = [{0: x * x}]
    mixed = [{i: _power(S, x + last, top - t) for i, t in enumerate(twists)}]
    return {"none": [], "monomial": monomial, "mixed": mixed}


def _power(S, p, e):
    out = S.one()
    for _ in range(e):
        out = out * p
    return out


def _probes(R, columns, twists, extra):
    """Homogeneous vectors to query: the inputs, their multiples by the
    variables, and x_i x_j e_p plus, where the degrees allow, a multiple
    of x_0 added to an input column."""
    S = R.poly_ring
    xs = [S.var(i) for i in range(R.nvars)]
    inputs = [c for c in list(columns) + list(extra) if c]
    out = list(inputs)
    out += [{p: v * f for p, f in c.items()} for c in inputs[:3] for v in xs]
    out += [{p: u * v} for p in range(len(twists))
            for u, v in itertools.combinations_with_replacement(xs, 2)]
    for c in inputs[:3]:
        d = column_degree(c, twists) - twists[0]
        if d >= 0:
            shifted = dict(c)
            shifted[0] = shifted.get(0, S.zero()) + _power(S, xs[0], d)
            out.append(shifted)
    return out


def _reduced(R, columns):
    """The columns with their entries reduced mod I, zeros dropped."""
    out = []
    for c in columns:
        c = {t: R.nf(p) for t, p in c.items()}
        c = {t: p for t, p in c.items() if not p.is_zero()}
        if c:
            out.append(c)
    return out


def _reads(gb, probes, *, eager, reduce_by=None):
    """Everything a caller can read of a run.  eager=True reads the basis
    first, so its tails are reduced before any query; otherwise the
    queries that need no tails come first.  With reduce_by a ring, the
    syzygies are read reduced mod its ideal."""
    basis = gb.basis_columns() if eager else None
    out = (gb.leading_terms(), [gb.contains(p) for p in probes],
           [gb.normal_form(p) for p in probes])
    if basis is None:
        basis = gb.basis_columns()
    lifts = [gb.lift(p) for p in probes] if gb.track else None
    syzygies = gb.syzygies if reduce_by is None else _reduced(reduce_by, gb.syzygies)
    return out + (basis, lifts, gb.kept, syzygies, gb.top_degree)


def _run(R, kind, columns, twists, extra, **mode):
    """The kernel run with quotient=R, or with I*F as the last fixed
    columns."""
    S = R.poly_ring
    if kind == "ideal":
        return ModuleGB(S, columns, twists, fixed=extra, quotient=R, **mode)
    return ModuleGB(S, columns, twists, fixed=extra + R.aug_columns(twists),
                    **mode)


KINDS = ("ideal", "augmented")


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(RINGS))
def test_ideal_admission_is_the_augmented_run(name, mode):
    R = RINGS[name]
    for _label, M in generate_corpus(R, 8):
        columns, twists = list(M.columns), list(M.gen_twists)
        for extra in _extras(R, twists).values():
            probes = _probes(R, columns, twists, extra)
            lazy, eager = (_run(R, kind, columns, twists, extra, **MODES[mode])
                           for kind in KINDS)
            assert _reads(lazy, probes, eager=False) == \
                _reads(eager, probes, eager=True,
                       reduce_by=R if R._monomial else None)
            if lazy.top_degree is None:
                continue
            for kind in KINDS:
                with pytest.raises(BudgetError):
                    _run(R, kind, columns, twists, extra,
                         max_degree=lazy.top_degree - 1, **MODES[mode])


def test_top_of_a_run_with_only_the_ideal_is_its_pair_top():
    # T's leads yz, xz, xy pair at xyz: degree 3, plus the twist 1
    T = RINGS["T"]
    a, b = (_run(T, kind, [], [0, 1], [], minimal=True) for kind in KINDS)
    assert a.top_degree == 4
    assert _reads(a, [], eager=False) == _reads(b, [], eager=True)
    with pytest.raises(BudgetError):
        _run(T, "ideal", [], [0, 1], [], minimal=True, max_degree=3)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_fixed_monomials_pair_with_the_ideal_monomials(mode):
    # H has one relation, so no pair among the ideal's monomials: the only
    # pair of the run is x^4 e_1 with xy e_1, at degree 5 + 2
    H = RINGS["H"]
    x4 = [{1: _power(H.poly_ring, H.poly_ring.var(0), 4)}]
    a, b = (_run(H, kind, [], [0, 2], x4, **MODES[mode]) for kind in KINDS)
    assert a.top_degree == b.top_degree == 7
    with pytest.raises(BudgetError):
        _run(H, "ideal", [], [0, 2], x4, max_degree=6, **MODES[mode])


@pytest.fixture
def tail_runs(monkeypatch):
    """The bases whose tails got reduced, one entry per reduction."""
    runs = []
    reduce_tails = ModuleGB._reduce_tails

    def counting(self):
        if self._tails_pending:
            runs.append(self)
        return reduce_tails(self)

    monkeypatch.setattr(ModuleGB, "_reduce_tails", counting)
    return runs


def _tailed_input(U):
    """A corpus module over U whose plain basis has an element with a
    tail, and its columns and twists."""
    for _label, M in generate_corpus(U, 8):
        columns, twists = list(M.columns), list(M.gen_twists)
        gb = _run(U, "ideal", columns, twists, [])
        if columns and any(e.tail for e in gb._elems):
            return columns, twists
    raise AssertionError("no basis over U has a tail")


def test_tails_are_reduced_once_and_only_when_read(tail_runs):
    U = RINGS["U"]
    columns, twists = _tailed_input(U)
    probes = _probes(U, columns, twists, [])
    gb = _run(U, "ideal", columns, twists, [])
    assert any(e.tail for e in gb._elems)
    gb.leading_terms()
    for p in probes:
        gb.contains(p)
        gb.normal_form(p)
    assert tail_runs == []
    basis = gb.basis_columns()
    assert gb.basis_columns() == basis
    assert tail_runs == [gb]
    assert basis == _run(U, "augmented", columns, twists, []).basis_columns()
    tail_runs.clear()

    tracked = _run(U, "ideal", columns, twists, [], track=True)
    assert tail_runs == []
    lifts = [tracked.lift(p) for p in probes]
    assert tail_runs == [tracked]
    assert [tracked.lift(p) for p in probes] == lifts
    tracked.basis_columns()
    assert tail_runs == [tracked]


def test_a_minimal_run_reduces_no_tails(tail_runs):
    U = RINGS["U"]
    columns, twists = _tailed_input(U)
    gb = _run(U, "ideal", columns, twists, [], minimal=True, track=True)
    gb.basis_columns()
    gb.lift(columns[0])
    assert tail_runs == []


def test_ring_keeps_its_monomial_generators_and_their_pair_top():
    # N: xz and yw pair at xyzw; U: xz is its one monomial generator
    expected = {"H": ((True,), None), "T": ((True,) * 3, 3),
                "N": ((True,) * 4, 4), "U": ((True, False, False, False), None)}
    for name, R in RINGS.items():
        assert (R._monomial_gens, R._pair_top) == expected[name]


def _entries(R):
    seen, out = set(), []
    for _label, M in generate_corpus(R, 8):
        for col in M.columns:
            for p in col.values():
                if str(p) not in seen:
                    seen.add(str(p))
                    out.append(p)
    return out


@pytest.mark.parametrize("name", ["H", "T", "N"])
def test_monomial_nf_is_the_kernel_normal_form(name):
    R = RINGS[name]
    zero = R.poly_ring.zero()
    entries = _entries(R)
    probes = entries + [p * q for p, q in
                        itertools.combinations_with_replacement(entries, 2)]
    assert len(probes) > len(entries)
    for p in probes:
        assert R.nf(p) == R._gb.normal_form({0: p}).get(0, zero)


def test_nf_over_an_ideal_with_tails_runs_the_kernel(monkeypatch):
    U = RINGS["U"]
    calls = []
    kernel = U._gb.normal_form

    def counting(col):
        calls.append(col)
        return kernel(col)

    monkeypatch.setattr(U._gb, "normal_form", counting)
    p = U.poly_ring.parse("x^2 + y^2 + z^2")
    reduced = U.nf(p)
    assert calls and reduced == kernel({0: p})[0]
