"""Each invariant is computed once per module and reused.

The ambient-Ext profile and the memoized verdicts (semidualizing
certificate, Auslander class, Serre-type condition, G_C-dimension,
canonical-module recognition, isomorphism) must be indistinguishable
from recomputation: a hit returns the stored object, and after
`memo.clear()` a fresh computation returns an equal value.  Keys
separate every input the verdict depends on.
"""

import dataclasses
import sys

import pytest

from linkage_lab import isomorphism, memo
from linkage_lab.cache import DiskStore
from linkage_lab.config import DEFAULT_BUDGETS
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
    canonical_module,
    gc_dim,
    in_auslander_class,
    is_canonical_module,
    is_semidualizing,
    probe_primes,
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


def _cases():
    kH = cyclic_module(H, ["x", "y"])
    kT = cyclic_module(T, ["x", "y", "z"])
    mN = maximal_ideal(N)
    omega = canonical_module(T)
    unitH = free_module(H, [0])
    mH = maximal_ideal(H)
    return [
        ("ambient-profile", lambda: _ambient_profile(kT)),
        ("ambient-profile", lambda: _ambient_profile(mN)),
        ("auslander", lambda: in_auslander_class(maximal_ideal(H), unitH)),
        ("auslander", lambda: in_auslander_class(kT, omega, bound=2)),
        ("serre-tilde", lambda: serre_tilde(maximal_ideal(T), 2)),
        ("serre-tilde", lambda: serre_tilde(mN, 1)),
        ("gc-dim", lambda: gc_dim(kH, unitH)),
        ("gc-dim", lambda: gc_dim(kT, omega)),
        ("is-canonical", lambda: is_canonical_module(twist_module(omega, 1))),
        ("is-canonical", lambda: is_canonical_module(kT)),
        ("semidualizing", lambda: is_semidualizing(omega)),
        ("semidualizing", lambda: is_semidualizing(canonical_module(N))),
        ("hom", lambda: hom_with_realizations(maximal_ideal(T), omega)),
        ("ext", lambda: ext(kT, omega, 1)),
        ("ext", lambda: ext(kH, kH, 2)),
        ("tor", lambda: tor(kT, kT, 2)),
        ("tensor", lambda: tensor(maximal_ideal(H), maximal_ideal(H))),
        ("transpose-wrt", lambda: transpose_wrt(kT, omega)),
        ("ann", lambda: annihilator(omega)),
        ("hilbert-num", lambda: _num_rec(3, ((0, 1, 1), (1, 0, 1), (1, 1, 0)))),
        # identical minimal presentations: the identity certificate
        ("isomorphic", lambda: is_isomorphic(
            twist_module(twist_module(omega, 1), -1), omega)),
        # different minimal presentations: the search
        ("isomorphic", lambda: is_isomorphic(
            mH, lambda_module(lambda_module(mH)))),
    ]


@pytest.mark.parametrize("index", range(len(_cases())))
def test_memo_hit_equals_fresh_computation(index):
    op, compute = _cases()[index]
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


def test_keys_separate_bound_budgets_and_probes():
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
    tight = dataclasses.replace(DEFAULT_BUDGETS, max_degree=4)
    vt = in_auslander_class(M, C, bound=3, budgets=tight)
    assert vt is not v3 and vt.kind == "unknown"
    M, C = maximal_ideal(H), free_module(H, [0])
    g2, g3 = gc_dim(M, C, bound=2), gc_dim(M, C, bound=3)
    assert g2 == g3 and g2 is not g3  # exact: equal, but separate entries
    mN = maximal_ideal(N)
    probes = probe_primes(N)
    full = serre_tilde(mN, 1)
    part = serre_tilde(mN, 1, probes=probes[:2])
    assert full is serre_tilde(mN, 1, probes=probes)
    assert (full.note, part.note) == (f"{len(probes)} probe primes",
                                      "2 probe primes")


def test_isomorphism_keys_separate_seed_and_search_budget():
    mH = maximal_ideal(H)
    L2 = lambda_module(lambda_module(mH))
    assert minimalize(mH).content_key() != minimalize(L2).content_key()
    base = is_isomorphic(mH, L2)
    assert base.is_isomorphic()
    assert is_isomorphic(mH, L2, budgets=DEFAULT_BUDGETS, seed=0) is base
    other_seed = is_isomorphic(mH, L2, seed=1)
    fewer = is_isomorphic(
        mH, L2, budgets=dataclasses.replace(DEFAULT_BUDGETS, iso_search_tries=1))
    assert other_seed is not base and fewer is not base
    assert fewer is not other_seed
    assert sum(op == "isomorphic" for op, _ in memo._TABLE) == 3


@pytest.mark.parametrize("group", ["hom", "ext", "tor"])
def test_keys_separate_budgets_of_derived_groups(group):
    """A call under tight budgets raises on a cold memo and still raises
    after the same call under the default budgets has filled it."""
    kT = cyclic_module(T, ["x", "y", "z"])
    call, tight = {
        "hom": (lambda b: hom_module(maximal_ideal(T), maximal_ideal(T),
                                     budgets=b),
                dataclasses.replace(DEFAULT_BUDGETS, max_degree=2)),
        "ext": (lambda b: ext(kT, kT, 3, budgets=b),
                dataclasses.replace(DEFAULT_BUDGETS, max_rank=4)),
        "tor": (lambda b: tor(kT, kT, 3, budgets=b),
                dataclasses.replace(DEFAULT_BUDGETS, max_rank=4)),
    }[group]
    with pytest.raises(BudgetError):
        call(tight)
    assert not call(None).is_zero()
    with pytest.raises(BudgetError):
        call(tight)


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
