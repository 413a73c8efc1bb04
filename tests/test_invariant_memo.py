"""Each invariant is computed once per module and reused.

The ambient-Ext profile (the Hilbert series of every Ext^j_S(M, S)),
the groups it presents on demand and the memoized verdicts (semidualizing
certificate, Auslander class, Serre-type condition, G_C-dimension,
canonical-module recognition, isomorphism) must be indistinguishable
from recomputation: a hit returns the stored object, and after
`memo.clear()` a fresh computation returns an equal value.  Keys
separate every input the verdict depends on.
"""

import dataclasses
import sys

import pytest

from linkage_lab import config, isomorphism, memo
from linkage_lab.cache import DiskStore
from linkage_lab.corpus import corpus_pool, maximal_ideal
from linkage_lab.dsl import parse
from linkage_lab.errors import BudgetError
from linkage_lab.fields import GF, QQ
from linkage_lab.hilbert import _num_rec
from linkage_lab.homops import (
    ext,
    hom_module,
    hom_with_realizations,
    lambda_module,
    tensor,
    tor,
    transpose_wrt,
)
from linkage_lab.invariants import (
    BoundedVerdict,
    GcDimVerdict,
    SemidualizingCertificate,
    _ambient_profile,
    ambient_ext,
    canonical_module,
    gc_dim,
    in_auslander_class,
    is_canonical_module,
    is_semidualizing,
    serre_tilde,
)
from linkage_lab.isomorphism import IsoVerdict, is_isomorphic
from linkage_lab.modules import (
    ModulePresentation,
    annihilator,
    cyclic_module,
    free_module,
    minimalize,
    twist_module,
)
from linkage_lab.resolutions import (
    minimal_free_resolution,
    set_resolution_store,
)
from linkage_lab.rings import make_ring
from linkage_lab.runner import execute

H = make_ring(QQ, ["x", "y"], ["x*y"])
T = make_ring(QQ, ["x", "y", "z"], ["y*z", "x*z", "x*y"])
N = make_ring(GF(32003), ["x", "y", "z", "w"],
              ["x*z", "x*w", "y*z", "y*w"])


def _kH():
    return cyclic_module(H, ["x", "y"])


def _kT():
    return cyclic_module(T, ["x", "y", "z"])


# (op, thunk) pairs; each thunk builds its own modules, so collecting this
# file computes nothing and a library fault fails the cases it reaches
_CASES = [
    ("ambient-profile", lambda: _ambient_profile(_kT())),
    ("ambient-profile", lambda: _ambient_profile(maximal_ideal(N))),
    ("auslander", lambda: in_auslander_class(maximal_ideal(H), free_module(H, [0]))),
    ("auslander", lambda: in_auslander_class(_kT(), canonical_module(T),
                                             bound=2)),
    ("serre-tilde", lambda: serre_tilde(maximal_ideal(T), 2)),
    ("serre-tilde", lambda: serre_tilde(maximal_ideal(N), 1)),
    ("gc-dim", lambda: gc_dim(_kH(), free_module(H, [0]))),
    ("gc-dim", lambda: gc_dim(_kT(), canonical_module(T))),
    ("is-canonical", lambda: is_canonical_module(
        twist_module(canonical_module(T), 1))),
    ("is-canonical", lambda: is_canonical_module(_kT())),
    ("semidualizing", lambda: is_semidualizing(canonical_module(T))),
    ("semidualizing", lambda: is_semidualizing(canonical_module(N))),
    ("hom", lambda: hom_with_realizations(maximal_ideal(T),
                                          canonical_module(T))),
    ("ext", lambda: ext(_kT(), canonical_module(T), 1)),
    ("ext", lambda: ext(_kH(), _kH(), 2)),
    ("tor", lambda: tor(_kT(), _kT(), 2)),
    ("tensor", lambda: tensor(maximal_ideal(H), maximal_ideal(H))),
    ("transpose-wrt", lambda: transpose_wrt(_kT(), canonical_module(T))),
    ("ann", lambda: annihilator(canonical_module(T))),
    ("hilbert-num", lambda: _num_rec(3, ((0, 1, 1), (1, 0, 1), (1, 1, 0)))),
    # identical minimal presentations: the identity certificate
    ("isomorphic", lambda: is_isomorphic(
        twist_module(twist_module(canonical_module(T), 1), -1),
        canonical_module(T))),
    # different minimal presentations: the search
    ("isomorphic", lambda: is_isomorphic(
        maximal_ideal(H), lambda_module(lambda_module(maximal_ideal(H))))),
    # a group of the profile presented on demand
    ("ambient-ext", lambda: ambient_ext(_kT(), 3)),
    ("ambient-ext", lambda: ambient_ext(maximal_ideal(N), 2)),
    # a prime locus whose stratum off V(x, y) is saturated
    ("saturation", lambda: serre_tilde(
        cyclic_module(make_ring(GF(32003), ["x", "y", "z"],
                                ["x^2", "x*y"]), ["y^2"]), 1)),
]


@pytest.mark.parametrize("index", range(len(_CASES)))
def test_memo_hit_equals_fresh_computation(index):
    op, compute = _CASES[index]
    memo.clear()
    first = compute()
    assert any(o == op for o, _ in memo._TABLE), op
    hit = compute()
    assert hit is first or (isinstance(hit, bool) and hit == first)
    memo.clear()
    fresh = compute()
    assert fresh == first
    if not isinstance(first, bool):
        assert fresh is not first


def test_verdicts_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        BoundedVerdict("true").kind = "false"
    with pytest.raises(dataclasses.FrozenInstanceError):
        GcDimVerdict("zero", 0, None).note = "changed"
    with pytest.raises(dataclasses.FrozenInstanceError):
        SemidualizingCertificate(True, None).valid = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        IsoVerdict("unknown").kind = "isomorphic"


def test_keys_separate_the_bound(set_caps):
    memo.clear()
    # over A = QQ[x,y,z]/(x^2, y^2, yz, z^2), CM but not Gorenstein, x is
    # an exact zero-divisor: A/(x) has infinite projective dimension and
    # lies in the Auslander class of omega, so the Tor/Ext scan runs
    # through the whole bound
    A = make_ring(QQ, ["x", "y", "z"], ["x^2", "y^2", "y*z", "z^2"])
    M, C = cyclic_module(A, ["x"]), canonical_module(A)
    v2 = in_auslander_class(M, C, bound=2)
    v3 = in_auslander_class(M, C, bound=3)
    assert (v2.bound, v3.bound) == (2, 3)
    # no key names the caps: a tighter one empties the memo, and the scan
    # stops where it runs out
    set_caps(MAX_DEGREE=6)
    vt = in_auslander_class(M, C, bound=3)
    assert vt is not v3 and vt.kind == "unknown"
    M, C = maximal_ideal(H), free_module(H, [0])
    g2, g3 = gc_dim(M, C, bound=2), gc_dim(M, C, bound=3)
    assert g2 == g3 and g2 is not g3  # exact: equal, but separate entries


def test_isomorphism_is_one_memo_entry_per_pair(set_caps):
    mH = maximal_ideal(H)
    L2 = lambda_module(lambda_module(mH))
    assert minimalize(mH).content_key() != minimalize(L2).content_key()
    base = is_isomorphic(mH, L2)
    assert base.is_isomorphic()
    assert is_isomorphic(mH, L2) is base
    assert is_isomorphic(maximal_ideal(H), minimalize(L2)) is base
    assert sum(op == "isomorphic" for op, _ in memo._TABLE) == 1
    # a wider cap empties the memo and computes the same verdict again
    set_caps(MAX_DEGREE=30)
    wider = is_isomorphic(mH, L2)
    assert wider is not base and wider == base
    assert sum(op == "isomorphic" for op, _ in memo._TABLE) == 1


@pytest.mark.parametrize("group", ["hom", "ext", "tor"])
def test_derived_groups_read_the_caps_at_call_time(group, set_caps):
    """A call under a tight cap raises, the same call under the default
    caps answers, and under the tight cap again it raises again."""
    kT = cyclic_module(T, ["x", "y", "z"])
    call, tight = {
        "hom": (lambda: hom_module(maximal_ideal(T), maximal_ideal(T)),
                {"MAX_DEGREE": 2}),
        "ext": (lambda: ext(kT, kT, 3), {"MAX_RANK": 4}),
        "tor": (lambda: tor(kT, kT, 3), {"MAX_RANK": 4}),
    }[group]
    defaults = {name: getattr(config, name) for name in tight}
    set_caps(**tight)
    with pytest.raises(BudgetError):
        call()
    set_caps(**defaults)
    assert not call().is_zero()
    set_caps(**tight)
    with pytest.raises(BudgetError):
        call()


def _iso_route(C):
    """The isomorphism search alone, without `canonical_twist`."""
    Cmin = minimalize(C)
    omega = canonical_module(Cmin.ring)
    if Cmin.n_gens() != omega.n_gens():
        return False
    a = min(omega.gen_twists) - min(Cmin.gen_twists)
    return isomorphism.is_isomorphic(
        Cmin, twist_module(omega, a)).is_isomorphic()


def test_canonical_twist_answers_without_isomorphism_search(monkeypatch):
    memo.clear()
    omega = canonical_module(T)

    def no_search(*args, **kwargs):
        raise AssertionError("isomorphism search ran")

    monkeypatch.setattr(isomorphism, "is_isomorphic", no_search)
    assert is_canonical_module(twist_module(omega, -2))
    assert is_canonical_module(free_module(H, [3]))  # Gorenstein: omega = R(a)


def test_canonical_recognition_routes_agree():
    for ring in (H, T):
        omega = canonical_module(ring)
        mods = [M for _, M in corpus_pool(ring)[:8]]
        mods += [twist_module(omega, a) for a in (-1, 2)]
        for M in mods:
            memo.clear()
            assert is_canonical_module(M) == _iso_route(M)


@pytest.mark.parametrize("script", [
    "ring S = poly(QQ, x, y);\n"
    "ring H = quotient(S, [x*y]);\n"
    "suite [] on corpus(H, 4);\n",
    "ring S = poly(GF(32003), x, y, z, w);\n"
    "ring N = quotient(S, [x*z, x*w, y*z, y*w]);\n"
    "suite [] on corpus(N, 4);\n",
], ids=["H", "N"])
def test_every_compute_is_a_module_level_function(script, monkeypatch):
    """memo.cached(op, compute, *args) keys by the arguments alone, so a
    compute may read nothing else: no closure, no lambda, no local."""
    seen = {}
    real = memo.cached

    def spy(op, compute, *args):
        seen.setdefault(op, set()).add(compute)
        return real(op, compute, *args)

    monkeypatch.setattr(memo, "cached", spy)
    memo.clear()
    execute(parse(script))
    assert {"span-gb", "minimalize", "ext", "ring-cm", "tensor"} <= set(seen)
    for op, computes in seen.items():
        for f in computes:
            name = getattr(f, "__qualname__", repr(f))
            assert callable(f) and f.__closure__ is None, (op, name)
            assert "<lambda>" not in name and "<locals>" not in name, (op, name)
            assert getattr(sys.modules[f.__module__], name) is f, (op, name)


@pytest.mark.parametrize("ring", [H, T, N], ids=["H", "T", "N"])
def test_presentations_compare_and_hash_by_content_key(ring):
    pool = [M for _, M in corpus_pool(ring)]
    copies = [type(M)(M.ring, M.gen_twists, M.rel_twists,
                      [dict(c) for c in M.columns]) for M in pool]
    for A in pool + copies:
        for B in pool:
            same = A.content_key() == B.content_key()
            assert (A == B) is same and (A != B) is not same
            if same:
                assert hash(A) == hash(B)
    assert all(A == B and A is not B for A, B in zip(pool, copies))


def test_near_miss_presentations_compare_unequal():
    S = H.poly_ring
    x, y, zero = S.parse("x"), S.parse("y"), S.zero()
    M = ModulePresentation(H, [0, 0], [1, 1], [{0: x}, {0: y}])
    near = {
        "one coefficient": ModulePresentation(H, [0, 0], [1, 1],
                                              [{0: x}, {0: S.parse("2*y")}]),
        "one twist": ModulePresentation(H, [0, 1], [1, 1], [{0: x}, {0: y}]),
        "another ring": ModulePresentation(H.ambient(), [0, 0], [1, 1],
                                           [{0: x}, {0: y}]),
    }
    for what, B in near.items():
        assert M != B and B != M, what
        assert M.content_key() != B.content_key(), what
    # zero entries are dropped on construction: an explicit zero is absent
    Z = ModulePresentation(H, [0, 0], [1, 1], [{0: x, 1: zero}, {0: y}])
    assert Z == M and hash(Z) == hash(M)
    assert Z.content_key() == M.content_key()


def test_resolution_without_a_store_never_derives_a_content_key(tmp_path):
    k = cyclic_module(T, ["x", "y", "z"])
    minimal_free_resolution(k, 3)
    minimal_free_resolution(k, 5)  # an extension of the memoized cursor
    assert minimalize(k)._key is None
    memo.clear()
    set_resolution_store(DiskStore(str(tmp_path)))
    try:
        minimal_free_resolution(k, 3)
    finally:
        set_resolution_store(None)
    assert minimalize(k)._key is not None  # the store names its entries


def test_equal_presentations_built_apart_share_one_ext_entry():
    memo.clear()
    M1, M2 = cyclic_module(T, ["x", "y"]), cyclic_module(T, ["x", "y"])
    assert M1 is not M2 and M1 == M2
    C = canonical_module(T)
    first = ext(M1, C, 1)
    entries = sum(op == "ext" for op, _ in memo._TABLE)
    assert ext(M2, C, 1) is first
    assert sum(op == "ext" for op, _ in memo._TABLE) == entries
