"""Stability, horizontal linkage and linkage by an ideal.

A module is horizontally linked when it equals its double image under
the linkage operator.  The working criterion is: stable (no nonzero
free direct summand, detected by comparing generator counts against the
double transpose) together with vanishing of Ext^1(Tr M, R).  Reports
carry two independent cross-checks: an embedding-into-free test run
through the evaluation map into the bidual cover, and a direct
isomorphism test against the double linkage image.  Disagreement among
exact criteria is recorded on the report rather than raised, so the
theorem harness can surface it as a refutation.  A report is frozen and
memoized (op "horizontally-linked", keyed by the minimal presentation,
the budgets and the seed), so every check that assumes M is linked
reads one report.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import memo
from .config import DEFAULT_BUDGETS
from .homops import ext, evaluation_map, lambda_module, transpose
from .isomorphism import IsoVerdict, is_isomorphic
from .modules import (
    ModulePresentation,
    annihilates,
    change_ring,
    free_module,
    minimalize,
    span_series,
    twist_module,
)


def stable_part(M: ModulePresentation) -> ModulePresentation:
    """The double transpose: M with free direct summands removed."""
    return transpose(transpose(M))


def is_stable(M: ModulePresentation):
    """(stable?, free rank): free summands drop out of the double transpose."""
    A = minimalize(M)
    free_rank = A.n_gens() - minimalize(stable_part(M)).n_gens()
    return free_rank == 0, free_rank


def is_syzygy_module(M: ModulePresentation, *, budgets=None) -> bool:
    """Whether M embeds in a finite free module (is a first syzygy).

    The evaluation map into R^(generators of M*) is injective exactly
    when M is torsionless; injectivity is decided by comparing the
    Hilbert series of the image span with that of M.
    """
    A = minimalize(M)
    if A.is_zero():
        return True
    cols, taus = evaluation_map(A, free_module(A.ring, [0]), budgets=budgets)
    if not taus:
        return False
    image = span_series(A.ring, [c for c in cols if c], [-t for t in taus])
    return image == A.hilbert_series()


@dataclass(frozen=True)
class LinkageReport:
    stable: bool
    free_rank: int
    ext1_vanishes: bool
    syzygy_embedding: bool
    linked: bool
    double_link: IsoVerdict
    inconsistency: str

    def describe(self) -> str:
        bits = [
            f"stable={self.stable} (free rank {self.free_rank})",
            f"Ext^1(Tr M, R)=0: {self.ext1_vanishes}",
            f"embeds in free: {self.syzygy_embedding}",
            f"linked: {self.linked}",
            f"M ~ lambda^2 M: {self.double_link.kind}",
        ]
        if self.inconsistency:
            bits.append(f"INCONSISTENT: {self.inconsistency}")
        return "; ".join(bits)


def is_horizontally_linked(M: ModulePresentation, *, budgets=None,
                           seed=0) -> LinkageReport:
    """The report for minimalize(M), memoized under its budgets and seed."""
    budgets = budgets or DEFAULT_BUDGETS
    return memo.cached("horizontally-linked", _horizontally_linked,
                       minimalize(M), budgets, seed)


def _horizontally_linked(A: ModulePresentation, budgets,
                         seed) -> LinkageReport:
    stable, free_rank = is_stable(A)
    ext1_vanishes = ext(transpose(A), free_module(A.ring, [0]), 1,
                        budgets=budgets).is_zero()
    linked = stable and ext1_vanishes
    syz = is_syzygy_module(A, budgets=budgets)
    lam2 = lambda_module(lambda_module(A, budgets=budgets), budgets=budgets)
    double_link = is_isomorphic(A, lam2, budgets=budgets, seed=seed)
    disagreements = []
    if (stable and syz) != linked:
        disagreements.append(
            "syzygy-embedding test disagrees with Ext^1 vanishing")
    if double_link.resolved() and double_link.is_isomorphic() != linked:
        disagreements.append(
            "double-linkage isomorphism disagrees with the criterion")
    return LinkageReport(stable, free_rank, ext1_vanishes, syz, linked,
                         double_link, "; ".join(disagreements))


def link(M: ModulePresentation, *, budgets=None) -> ModulePresentation:
    return lambda_module(M, budgets=budgets)


def is_self_linked(M: ModulePresentation, *, twist: int = 0, budgets=None,
                   seed=0) -> IsoVerdict:
    """Compare the linkage image with M(twist); 0 means degree-for-degree."""
    return is_isomorphic(twist_module(minimalize(M), twist),
                         lambda_module(M, budgets=budgets),
                         budgets=budgets, seed=seed)


@dataclass
class IdealLinkageReport:
    applicable: bool
    reason: str
    ring_key: str
    forward: IsoVerdict | None
    backward: IsoVerdict | None
    verdict: str  # "linked" | "not_linked" | "unknown" | "inapplicable"

    def describe(self) -> str:
        if not self.applicable:
            return f"inapplicable: {self.reason}"
        return (
            f"over {self.ring_key}: N ~ lambda M: "
            f"{self.forward.kind}; M ~ lambda N: {self.backward.kind}"
        )


def linked_by_ideal(M: ModulePresentation, N: ModulePresentation, ideal_gens,
                    *, budgets=None, seed=0) -> IdealLinkageReport:
    """Linkage of M and N by an ideal inside both annihilators.

    The ideal must annihilate both modules (checked exactly; a failing
    generator is reported); the modules are then re-presented over the
    quotient by the ideal and tested for mutual horizontal linkage.
    """
    ring = M.ring
    if N.ring != ring:
        raise ValueError("modules must share a ring")
    gens = [ring.poly_ring.parse(g) if isinstance(g, str) else g
            for g in ideal_gens]
    gens = [g for g in gens if not ring.nf(g).is_zero()]
    for target, label in ((M, "first"), (N, "second")):
        for g in gens:
            if not annihilates(target, g):
                return IdealLinkageReport(
                    False,
                    f"generator {g} does not annihilate the {label} module",
                    "", None, None, "inapplicable",
                )
    Rc = ring.quotient_by(gens)
    Mc = minimalize(change_ring(minimalize(M), Rc))
    Nc = minimalize(change_ring(minimalize(N), Rc))
    forward = is_isomorphic(Nc, lambda_module(Mc, budgets=budgets),
                            budgets=budgets, seed=seed)
    backward = is_isomorphic(Mc, lambda_module(Nc, budgets=budgets),
                             budgets=budgets, seed=seed)
    if forward.is_isomorphic() and backward.is_isomorphic():
        verdict = "linked"
    elif forward.kind == "not_isomorphic" or backward.kind == "not_isomorphic":
        verdict = "not_linked"
    else:
        verdict = "unknown"
    return IdealLinkageReport(True, "", Rc.key(), forward, backward, verdict)
