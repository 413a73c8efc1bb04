"""The ring's ideal as a kernel input, and normal forms over monomial ideals.

`ModuleGB(..., ideal=I)` admits f*e_p for every position p and every f in
the reduced basis of I right after the fixed columns.  It must be the same
run as one given those products as the last fixed columns
(`ring.aug_columns(twists)`): the same basis, leading terms, kept
candidates, syzygies, pair tops and budget errors.  Over a monomial ideal,
`GradedRing.nf` drops the terms a lead divides instead of running the
kernel; it must agree with the kernel's normal form.
"""

import itertools

import pytest

from linkage_lab.corpus import generate_corpus
from linkage_lab.errors import BudgetError
from linkage_lab.fields import GF, QQ
from linkage_lab.groebner import ModuleGB
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


def _shape(gb):
    return (gb.basis_columns(), gb.leading_terms(), gb.kept, gb.syzygies,
            gb.top_degree, gb.admitted_top)


def _run(R, kind, columns, twists, extra, **mode):
    """The kernel run with ideal=I, or with I*F as the last fixed columns."""
    S = R.poly_ring
    if kind == "ideal":
        return ModuleGB(S, columns, twists, fixed=extra,
                        ideal=R.reduced_relations, **mode)
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
            a, b = (_run(R, kind, columns, twists, extra, **MODES[mode])
                    for kind in KINDS)
            assert _shape(a) == _shape(b)
            if a.top_degree is None:
                continue
            for kind in KINDS:
                with pytest.raises(BudgetError):
                    _run(R, kind, columns, twists, extra,
                         max_degree=a.top_degree - 1, **MODES[mode])


def test_top_of_a_run_with_only_the_ideal_is_its_pair_top():
    # T's leads yz, xz, xy pair at xyz: degree 3, plus the twist 1
    T = RINGS["T"]
    a, b = (_run(T, kind, [], [0, 1], [], minimal=True) for kind in KINDS)
    assert a.top_degree == a.admitted_top == 4
    assert _shape(a) == _shape(b)
    with pytest.raises(BudgetError):
        _run(T, "ideal", [], [0, 1], [], minimal=True, max_degree=3)


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
