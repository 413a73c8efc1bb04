"""Linkage operator tests: stability, horizontal linkage with cross
validation, the hypersurface swap, self-linkage, and ideal linkage."""

import dataclasses

import pytest

from linkage_lab import memo
from linkage_lab.config import DEFAULT_BUDGETS
from linkage_lab.corpus import corpus_pool, maximal_ideal
from linkage_lab.fields import QQ
from linkage_lab.homops import lambda_module
from linkage_lab.isomorphism import is_isomorphic
from linkage_lab.linkage import (
    is_horizontally_linked,
    is_self_linked,
    is_stable,
    link,
    linked_by_ideal,
    stable_part,
)
from linkage_lab.modules import (
    cyclic_module,
    direct_sum,
    free_module,
    minimalize,
)
from linkage_lab.rings import make_ring

H = make_ring(QQ, ["x", "y"], ["x*y"])
T = make_ring(QQ, ["x", "y", "z"], ["y*z", "x*z", "x*y"])


def test_free_modules_are_not_stable():
    stable, rank = is_stable(free_module(H, [0, 1]))
    assert not stable and rank == 2


def test_stable_part_drops_free_summand():
    m = maximal_ideal(H)
    M = direct_sum(free_module(H, [2]), m)
    assert is_isomorphic(minimalize(stable_part(M)), m).is_isomorphic()


def test_hypersurface_swap_is_horizontal_linkage():
    Rx = cyclic_module(H, ["x"])
    Ry = cyclic_module(H, ["y"])
    rep = is_horizontally_linked(Rx)
    assert rep.linked and rep.stable and rep.ext1_vanishes
    assert rep.inconsistency == ""
    assert rep.double_link is not None and rep.double_link.is_isomorphic()
    assert is_isomorphic(link(Rx), Ry).is_isomorphic()
    assert is_isomorphic(link(Ry), Rx).is_isomorphic()


def test_free_module_is_not_linked():
    rep = is_horizontally_linked(free_module(H, [0]))
    assert not rep.linked and not rep.stable and rep.free_rank == 1


def test_double_linkage_recovers_module_on_pool():
    # lambda is an involution exactly on the horizontally linked part
    for _, M in corpus_pool(H)[:10]:
        rep = is_horizontally_linked(M)
        assert rep.inconsistency == ""
        if rep.linked:
            lam2 = lambda_module(lambda_module(M))
            assert is_isomorphic(minimalize(M), lam2).is_isomorphic()


def test_self_linked_frozen_examples():
    A = make_ring(QQ, ["x", "y"], ["x^2"])
    assert is_self_linked(cyclic_module(A, ["x"])).is_isomorphic()
    assert is_self_linked(cyclic_module(H, ["x"])).kind == "not_isomorphic"


def test_linked_by_ideal_hypersurface_swap():
    # S/(x) and S/(y) are linked by the principal ideal (x*y), which
    # sits inside both annihilators; the quotient is the hypersurface
    S = make_ring(QQ, ["x", "y"])
    M = cyclic_module(S, ["x"])
    N = cyclic_module(S, ["y"])
    rep = linked_by_ideal(M, N, ["x*y"])
    assert rep.applicable
    assert rep.ring_key == H.key()
    assert rep.verdict == "linked"
    assert rep.forward.is_isomorphic() and rep.backward.is_isomorphic()


def test_linked_by_ideal_rejects_non_annihilating_generator():
    S = make_ring(QQ, ["x", "y"])
    M = cyclic_module(S, ["x"])
    N = cyclic_module(S, ["y"])
    rep = linked_by_ideal(M, N, ["x"])
    assert not rep.applicable
    assert "does not annihilate the second module" in rep.reason


def test_linkage_reports_are_deterministic():
    Rx = cyclic_module(H, ["x"])
    a = is_horizontally_linked(Rx)
    b = is_horizontally_linked(Rx)
    assert a.describe() == b.describe()


def test_linkage_report_is_one_memo_entry_per_budgets_and_seed():
    M = cyclic_module(H, ["x"])
    rep = is_horizontally_linked(M)
    assert is_horizontally_linked(cyclic_module(H, ["x"])) is rep
    assert is_horizontally_linked(minimalize(M)) is rep
    tight = dataclasses.replace(DEFAULT_BUDGETS, iso_search_tries=1)
    assert is_horizontally_linked(M, budgets=DEFAULT_BUDGETS) is rep
    other_budgets = is_horizontally_linked(M, budgets=tight)
    other_seed = is_horizontally_linked(M, seed=1)
    assert other_budgets is not rep and other_seed is not rep
    assert other_budgets == rep and other_seed == rep
    entries = [args for op, args in memo._TABLE if op == "horizontally-linked"]
    assert len(entries) == 3


def test_linkage_report_refuses_assignment():
    rep = is_horizontally_linked(cyclic_module(H, ["x"]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.linked = False
    assert rep.linked
