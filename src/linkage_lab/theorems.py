"""Machine-checkable renditions of linkage-theory statements.

Each named check instantiates the hypotheses of one statement on a
concrete module instance, evaluates both sides of the claimed
equivalence or equality, and returns a report with verdict Verified,
Refuted, Inapplicable, or PartiallyVerified.

A check declares the bindings it reads (M, C, n, ideals) as its
parameters.  One driver, `_run`, is the prologue of every check: it
minimalizes M and C, names the instance, and turns a budget met
anywhere, minimalizing M included, into an Inapplicable report rather
than an error.

Hypotheses are evaluated in stages before conclusions, and the claims
are evaluated only after every hypothesis holds: a Failed or Unknown
hypothesis yields Inapplicable, never a vacuous confirmation, and the
claims of such an instance are never computed.  An index n <= 0 fails
the hypothesis n >= 1 and is Inapplicable.  Quantified claims over all
primes are exact: `invariants.locus_point` decides whether some prime
violates them.  A Refuted verdict reached while some hypothesis is only
bounded carries the suspected-counterexample flag: the bound must be
escalated before the refutation is trusted.
"""

from __future__ import annotations

import enum
import inspect
from dataclasses import dataclass, field

from .config import default_bound
from .errors import BudgetError, InapplicableError
from .homops import (
    ext,
    ext_vanishes,
    is_nth_cosyzygy_witness,
    lambda_module,
    tensor,
    transpose,
    transpose_wrt,
)
from .invariants import (
    INFINITY,
    _ambient_profile,
    _finite_pd,
    _ring_unit,
    canonical_module,
    coefficient_facts,
    cohomological_deficiency,
    depth,
    ext_vanishing_top,
    gc_dim,
    in_auslander_class,
    induced_semidualizing,
    is_cm,
    is_eilenberg_maclane,
    is_gc_gorenstein_ideal,
    is_gc_perfect_ideal,
    is_generalized_cm,
    is_mcm,
    is_reduced_gc_perfect,
    is_semidualizing,
    krull_dim,
    local_cohomology_degrees,
    locus_point,
    m_in_ass,
    n_torsionfree_degree,
    reduced_grade,
    ring_depth,
    ring_codim,
    ring_dim,
    ring_is_cm,
    ring_is_gorenstein,
    serre_tilde,
)
from .isomorphism import is_isomorphic
from .linkage import (
    is_horizontally_linked,
    is_self_linked,
    is_stable,
)
from .modules import (
    ModulePresentation,
    annihilates,
    annihilator,
    change_ring,
    cyclic_module,
    minimalize,
    subquotient,
    twist_module,
    _intersect_ideals,
)


@dataclass
class HypothesisStatus:
    name: str
    label: str  # Exact | Failed | BoundedTrue(B) | Unknown
    detail: str = ""

    def to_dict(self):
        return {"name": self.name, "label": self.label, "detail": self.detail}


@dataclass
class Side:
    """One side of an equivalence: a truth value and how it was obtained."""

    name: str
    value: bool | None
    exact: bool
    detail: str = ""


@dataclass
class Claim:
    """An atomic sub-conclusion: exact-true/partial-true/exact-false/open."""

    name: str
    status: str  # "exact-true" | "partial-true" | "exact-false" | "open"
    detail: str = ""


@dataclass
class TheoremReport:
    theorem_id: str
    instance: str
    hypothesis_status: list
    verdict: str  # Verified | Refuted | Inapplicable | PartiallyVerified
    witness: str = ""
    notes: list = field(default_factory=list)
    suspected_counterexample: bool = False

    def to_dict(self):
        return {
            "theorem_id": self.theorem_id,
            "instance": self.instance,
            "hypothesis_status": [h.to_dict() for h in self.hypothesis_status],
            "verdict": self.verdict,
            "witness": self.witness,
            "notes": list(self.notes),
            "suspected_counterexample": self.suspected_counterexample,
        }

    def summary_line(self) -> str:
        flag = " [suspected counterexample: escalate bounds]" \
            if self.suspected_counterexample else ""
        tail = f" -- {self.witness}" if self.witness else ""
        return f"{self.theorem_id}: {self.verdict}{flag} ({self.instance}){tail}"


# -- hypothesis and claim plumbing -------------------------------------------


def _hyp(name: str, ok: bool, detail: str = "") -> HypothesisStatus:
    return HypothesisStatus(name, "Exact" if ok else "Failed", detail)


def _hyp_verdict(name: str, verdict) -> HypothesisStatus:
    """The verdict's own status label and description.  Every verdict's
    label is Exact or its bound when it holds, Failed when it
    fails and Unknown when it is undetermined, so callers need no Failed
    branch of their own."""
    return HypothesisStatus(name, verdict.status_label(), verdict.describe())


def _hyp_unknown(name: str, detail: str = "") -> HypothesisStatus:
    return HypothesisStatus(name, "Unknown", detail)


def _side_bool(name: str, value: bool, detail: str = "") -> Side:
    return Side(name, value, True, detail)


def _side_verdict(name: str, verdict) -> Side:
    if verdict.kind == "unknown":
        return Side(name, None, False, verdict.describe())
    return Side(name, verdict.holds(), verdict.exact(), verdict.describe())


def _equivalence_claims(sides) -> list:
    """Pairwise comparison claims for an n-way equivalence."""
    claims = []
    for i in range(len(sides)):
        for j in range(i + 1, len(sides)):
            a, b = sides[i], sides[j]
            name = f"{a.name} <=> {b.name}"
            if a.value is None or b.value is None:
                claims.append(Claim(name, "open", "a side is undetermined"))
            elif a.value == b.value:
                status = "exact-true" if a.exact and b.exact else "partial-true"
                claims.append(Claim(
                    name, status, f"both {a.value}"))
            elif a.exact and b.exact:
                claims.append(Claim(
                    name, "exact-false",
                    f"{a.name}={a.value} ({a.detail}) but "
                    f"{b.name}={b.value} ({b.detail})"))
            else:
                claims.append(Claim(
                    name, "open",
                    "sides disagree but one is only bounded: "
                    f"{a.name}={a.value}, {b.name}={b.value}"))
    return claims


def _implication_claim(a: Side, b: Side) -> Claim:
    name = f"{a.name} => {b.name}"
    if a.value is False and a.exact:
        return Claim(name, "exact-true", "antecedent fails")
    if b.value is True and b.exact:
        return Claim(name, "exact-true", "consequent holds")
    if a.value is None or b.value is None:
        return Claim(name, "open", "a side is undetermined")
    if a.value and b.value:
        return Claim(name, "partial-true", "holds up to bounds")
    if a.value and not b.value and a.exact and b.exact:
        return Claim(name, "exact-false",
                     f"{a.name} holds ({a.detail}) but {b.name} fails "
                     f"({b.detail})")
    return Claim(name, "open", "inexact sides disagree")


def _equality_claim(name: str, lhs, rhs, detail: str = "") -> Claim:
    if lhs == rhs:
        return Claim(name, "exact-true", f"{lhs} = {rhs}; {detail}")
    return Claim(name, "exact-false", f"{lhs} != {rhs}; {detail}")


def _blocker(hyps):
    """The first Failed or Unknown hypothesis, or None."""
    return next((h for h in hyps if h.label in ("Failed", "Unknown")), None)


def _finish(tid, instance, hyps, claims, notes) -> TheoremReport:
    blocker = _blocker(hyps)
    if blocker is not None:
        word = "failed" if blocker.label == "Failed" else "undetermined"
        return TheoremReport(
            tid.value, instance, hyps, "Inapplicable",
            witness=f"hypothesis {word}: {blocker.name}"
            + (f" ({blocker.detail})" if blocker.detail else ""),
            notes=notes)
    all_exact_hyps = all(h.label == "Exact" for h in hyps)
    for c in claims:
        if c.status == "exact-false":
            return TheoremReport(
                tid.value, instance, hyps, "Refuted",
                witness=f"{c.name}: {c.detail}",
                notes=notes,
                suspected_counterexample=not all_exact_hyps)
    if all(c.status == "exact-true" for c in claims):
        return TheoremReport(tid.value, instance, hyps, "Verified",
                             notes=notes)
    open_notes = [f"{c.name}: {c.detail}" for c in claims
                  if c.status in ("open", "partial-true")]
    return TheoremReport(tid.value, instance, hyps, "PartiallyVerified",
                         notes=notes + open_notes)


# -- shared sub-evaluations ---------------------------------------------------


def _sd_hyp(C, bound) -> HypothesisStatus:
    return _hyp_verdict("C is semidualizing", is_semidualizing(C, bound))


def _linked_hyp(M) -> HypothesisStatus:
    report = is_horizontally_linked(M)
    return _hyp("M is horizontally linked", report.linked, report.describe())


def _stable_hyp(M) -> HypothesisStatus:
    stable, free_rank = is_stable(M)
    return _hyp("M is stable", stable, f"free rank {free_rank}")


def _auslander_hyp(M, C, bound, name="M is in the Auslander class of C"):
    return _hyp_verdict(name, in_auslander_class(M, C, bound))


def _gcdim_hyp(M, C, bound, *, positive=False):
    """(the hypothesis that M has finite, or finite positive, G_C-dimension,
    the G_C-dimension verdict)."""
    v = gc_dim(M, C, bound)
    name = f"M has finite {'positive ' if positive else ''}G_C-dimension"
    if positive and v.kind == "zero":
        return _hyp(name, False, "G-dimension is zero, not positive"), v
    return _hyp_verdict(name, v), v


def _lambda_auslander(M, C, bound):
    """The linked module lambda M and the hypothesis that it lies in the
    Auslander class of C."""
    lam = lambda_module(M)
    return lam, _auslander_hyp(lam, C, bound,
                               "lambda M is in the Auslander class of C")


def _linked_gcdim_stage(M, C, bound, *, positive=False):
    """Generator for the stage [M is linked, M has finite (positive)
    G_C-dimension, lambda M is in the Auslander class of C]; returns the
    G_C-dimension verdict and lambda M."""
    linked = _linked_hyp(M)
    gh, gv = _gcdim_hyp(M, C, bound, positive=positive)
    lam, ausl = _lambda_auslander(M, C, bound)
    yield [linked, gh, ausl]
    return gv, lam


def _lambda_finite_gdim(M, bound):
    """The linked module lambda M and the hypothesis that its G-dimension
    (coefficient R) is finite."""
    lam = lambda_module(M)
    name = "G-dim of the linked module is finite"
    if ring_is_gorenstein(lam.ring):
        return lam, _hyp(name, True, "Gorenstein ring")
    return lam, _hyp_verdict(name, gc_dim(lam, _ring_unit(lam.ring), bound))


# A locus claim and its detail when C is the canonical module of a CM ring.
_GCDIM_LOCUS = ("finite G_C-dimension", "canonical coefficient module")
_INJDIM_LOCUS = ("C has finite injective dimension",
                 "canonical module has finite injective dimension")


def _locus_hyp(t, *routes) -> HypothesisStatus:
    """A claim at every prime of depth <= t, from the first route
    (locus claim, coefficient module) that `coefficient_facts` certifies.

    Both claims hold everywhere when the coefficient module is free of
    rank one over a Gorenstein ring or the canonical module of a
    Cohen-Macaulay ring.  With no certificate the first route's claim is
    Unknown.
    """
    for (claim, canonical), C in routes:
        facts = coefficient_facts(C)
        if facts.canonical:
            detail = facts.certificate() if facts.free_rank_one else canonical
            return _hyp(f"{claim} on the depth <= {t} locus", True, detail)
    (claim, _), _ = routes[0]
    return _hyp_unknown(f"{claim} on the depth <= {t} locus",
                        "no exact certificate for the locus hypothesis")


def _optional_converse(skipped, t, *routes):
    """Generator for a converse that holds only on a certified locus.

    Returns [the locus hypothesis] for the first stage when `_locus_hyp`
    certifies it; otherwise yields the note `skipped` and returns [], and
    the check leaves the converse claim out.
    """
    locus = _locus_hyp(t, *routes)
    if locus.label == "Exact":
        return [locus]
    yield skipped
    return []


def _ext_window_vanishes(M, C, lo, hi):
    """(all Ext^i(M, C) = 0 for lo <= i <= hi, witness index or None, exact).

    When C is the canonical module up to a twist over a CM ring, Ext^i(M, C)
    vanishes exactly for i > dim R - depth M (ambient duality); the scan
    stops there.  `exact` says the answer holds for the whole window
    i >= lo, not only through hi: always after a witness, and after a
    clean scan only when the ambient route bounded it.
    """
    top = ext_vanishing_top(M, C)
    if top is not None:
        hi = min(hi, top)
    for i in range(lo, hi + 1):
        if not ext_vanishes(M, C, i):
            return False, i, True
    return True, None, top is not None


def _ext_side(pair, X, C, n) -> Side:
    """Ext^i(X, C) = 0 for 1 <= i <= n; `pair` names X and C."""
    ok, wit, _ = _ext_window_vanishes(X, C, 1, n)
    return _side_bool(f"Ext^i({pair}) = 0 for 1..{n}", ok,
                      "" if ok else f"Ext^{wit} != 0")


def _cosyzygy_side(name, X, C, n) -> Side:
    """X is an n-th C-syzygy, by iterated universal pushforward."""
    ok, step = is_nth_cosyzygy_witness(X, C, n)
    return _side_bool(
        f"{name} is an {n}th C-syzygy", ok,
        "iterated universal pushforward succeeds" if ok
        else f"pushforward obstructed at step {step}")


def _serre_side(name, M, k) -> Side:
    return _side_verdict(f"{name} satisfies S~_{k}", serre_tilde(M, k))


def _gc_zero_side(gv) -> Side:
    """The G_C-dimension of M is zero, from its verdict `gv`."""
    return Side("G_C-dimension of M is zero", gv.kind == "zero", gv.exact(),
                str(gv))


def _locus_side(name, modules, violated, detail="", base=True) -> Side:
    """Holds when `base` holds and no prime of the ring violates the
    condition (`invariants.locus_point` over `modules`); exact either
    way.  A prime outside a module's support gives it depth INFINITY
    there, which violates no depth inequality."""
    point = locus_point(modules, violated) if base else None
    if point is not None:
        detail = ", ".join(filter(None, (detail, f"violated at {point}")))
    return _side_bool(name, base and point is None, detail)


def _depth_sum_side(name, M, lam, other, detail) -> Side:
    """depth(lambda M) + other = dim R, with depth (lambda M)_p + other >
    dim R at every prime off the maximal ideal where M is not locally
    Cohen-Macaulay."""
    R = M.ring
    d = ring_dim(R)
    dep = depth(lam)
    return _locus_side(
        name, (M, lam),
        lambda h, dp, dm: (h < R.nvars and dp[0] not in (INFINITY, dm[0])
                           and dp[1] + other <= d),
        detail, base=INFINITY not in (dep, other) and dep + other == d)


def _lcd_window_empty(M, lo_excl, hi_excl) -> tuple:
    """No nonvanishing local cohomology strictly between the bounds."""
    degs = [i for i in local_cohomology_degrees(M)
            if lo_excl < i < hi_excl]
    return (not degs), degs


def _cm_ring_hyp(R) -> HypothesisStatus:
    return _hyp("the ring is Cohen-Macaulay", ring_is_cm(R),
                f"depth {ring_depth(R)}, dim {ring_dim(R)}")


def _tensor_canonical(M):
    return tensor(M, canonical_module(M.ring))


def _omega_s1_hyp(MW) -> HypothesisStatus:
    return _hyp_verdict("M (x) omega satisfies S~_1", serre_tilde(MW, 1))


def _ideal_as_module(ring, gens) -> ModulePresentation:
    cols = [{0: g} for g in gens]
    pres, _ = subquotient(ring, [0], cols, [])
    return pres


def _matches_canonical_ideal(ring, gens):
    """The ideal, as a submodule of R, is the canonical module up to shift."""
    omega = canonical_module(ring)
    O = minimalize(_ideal_as_module(ring, gens))
    if O.is_zero():
        return False, "the ideal is zero"
    a = min(omega.gen_twists) - min(O.gen_twists)
    v = is_isomorphic(O, twist_module(omega, a))
    if v.is_isomorphic():
        return True, f"ideal = canonical module twisted by {a}"
    return False, f"not isomorphic to the canonical module: {v.certificate}"


# -- the checks ---------------------------------------------------------------
#
# Every check is a generator `_check_x(bound, M, C, n, ...)` whose
# parameters are the bindings it reads, after the vanishing `bound` when
# it scans: a parameter without a default is a required binding, and
# `_CHECKS` reads them from the signature.  `_run` is the one prologue:
# it hands every check M and C minimalized, n as an int and the bound
# resolved for M's ring, and writes the instance line itself.
# Each list a check yields is one stage of hypotheses (HypothesisStatus),
# and a later stage may need what an earlier one computed; each string
# it yields is a report note.  After its last stage it returns its
# claims; a check without hypotheses yields one empty stage.  `_run`
# stops at the first stage that holds a Failed or Unknown hypothesis and
# never resumes the generator, so nothing after that stage, the claims
# included, is computed.
#
# Recurring pieces are written once.
# * Hypotheses: every verdict becomes one through `_hyp_verdict`, and
#   `_sd_hyp` states "C is semidualizing".
#   `_lambda_auslander` and `_lambda_finite_gdim` compute lambda M with
#   its Auslander-class or finite G-dimension hypothesis; `_gcdim_hyp`
#   (finite or finite positive G_C-dimension), `_auslander_hyp`,
#   `_stable_hyp`, `_linked_hyp` and `_cm_ring_hyp` state the others.
#   `_linked_gcdim_stage` yields the stage [linked, finite (positive)
#   G_C-dimension, lambda M in the Auslander class].  `_locus_hyp`
#   states every locus hypothesis from `invariants.coefficient_facts`,
#   and `_optional_converse` adds one to the first stage when it is
#   certified, or else notes that the converse is skipped.
# * Sides: `_ext_side` (Ext^i(X, C) = 0 for 1..n), `_cosyzygy_side` (an
#   n-th C-syzygy), `_serre_side` (S~_k), `_gc_zero_side` (G_C-dim M is
#   zero), `_locus_side` (no prime violates a condition on local depths)
#   and `_depth_sum_side` (the depth-sum form of a locus side).
# * PROP_P3 and COR_C2 share one body, `_serre_versus_lcd`, with the
#   roles of lambda M and M (x) omega exchanged; PROP_T1 and PROP_T13
#   share `_transpose_chain`, with Tr_C M against M or Tr M against
#   M (x) C.


def _check_thm_ms(M):
    yield []  # no hypotheses: one empty stage
    r = is_horizontally_linked(M)
    iso = r.double_link
    return _equivalence_claims([
        Side("M = lambda^2 M (horizontally linked)",
             iso.is_isomorphic() if iso.resolved() else None,
             iso.resolved(), iso.certificate),
        _side_bool("stable and Ext^1(Tr M, R) = 0", r.linked,
                   f"stable={r.stable} (free rank {r.free_rank}), "
                   f"Ext^1 vanishes={r.ext1_vanishes}"),
        _side_bool("stable and a syzygy module",
                   r.stable and r.syzygy_embedding,
                   f"stable={r.stable}, "
                   f"embeds in a free module={r.syzygy_embedding}"),
    ])


def _transpose_chain(bound, M, C, n, over_c):
    """PROP_T1 (over_c) and its mirror PROP_T13: Ext^i(Tr_C M, C) = 0,
    resp. Ext^i(Tr M, C) = 0, for 1..n => X is an n-th C-syzygy => X
    satisfies S~_n, for X = M, resp. M (x) C, and back to the first when
    the locus hypothesis is certified."""
    if over_c:
        locus, skipped = _GCDIM_LOCUS, (
            "converse (S~_n => Ext vanishing) skipped: finite G_C-dimension")
    else:
        locus, skipped = _INJDIM_LOCUS, (
            "converse skipped: finite injective dimension of C")
    converse = yield from _optional_converse(
        f"{skipped} on the depth <= {n - 1} locus not certified",
        n - 1, (locus, C))
    yield [_sd_hyp(C, bound), _hyp("n >= 1", n >= 1)] + converse
    if over_c:
        side_i = _ext_side("Tr_C M, C", transpose_wrt(M, C), C, n)
        name, X = "M", M
    else:
        side_i = _ext_side("Tr M, C", transpose(M), C, n)
        name, X = "M (x) C", tensor(M, C)
    side_ii = _cosyzygy_side(name, X, C, n)
    side_iii = _serre_side(name, X, n)
    claims = [
        _implication_claim(side_i, side_ii),
        _implication_claim(side_ii, side_iii),
    ]
    if converse:
        claims.append(_implication_claim(side_iii, side_i))
    return claims


def _check_prop_t1(bound, M, C, n):
    return (yield from _transpose_chain(bound, M, C, n, True))


def _serre_versus_lcd(M, n, serre_on_link):
    """PROP_P3 (serre_on_link) and its mirror COR_C2: S~_n of one of
    lambda M and M (x) omega against a local cohomology window of the
    other."""
    R = M.ring
    yield [_cm_ring_hyp(R), _hyp("n >= 1", n >= 1)]
    d = ring_dim(R)
    linked_h = _linked_hyp(M)
    MW = _tensor_canonical(M)
    yield [linked_h, _omega_s1_hyp(MW)]
    lam = lambda_module(M)
    pair = [("lambda M", lam), ("M (x) omega", MW)]
    (s_name, S), (h_name, H) = pair if serre_on_link else pair[::-1]
    side_i = _serre_side(s_name, S, n)
    empty, degs = _lcd_window_empty(H, d - n, d)
    side_ii = _side_bool(
        f"H^i_m({h_name}) = 0 for {d - n} < i < {d}", empty,
        "" if empty else f"nonvanishing local cohomology at {degs}")
    return _equivalence_claims([side_i, side_ii])


def _check_prop_p3(M, n):
    return (yield from _serre_versus_lcd(M, n, True))


def _check_prop_t13(bound, M, C, n):
    return (yield from _transpose_chain(bound, M, C, n, False))


def _check_cor_c2(M, n):
    return (yield from _serre_versus_lcd(M, n, False))


def _check_lem_lem2(bound, M, C, n=1):
    # n is optional here and defaults to 1, so only a failing n gets a line
    n_hyps = [] if n >= 1 else [_hyp("n >= 1", False)]
    yield [_sd_hyp(C, bound), *n_hyps, _auslander_hyp(M, C, bound)]
    MC = tensor(M, C)
    claims = [
        _equality_claim("depth M = depth(M (x) C)", depth(M), depth(MC)),
        _equality_claim("dim M = dim(M (x) C)", krull_dim(M), krull_dim(MC)),
    ]
    claims.extend(_equivalence_claims([
        _serre_side("M", M, n),
        _serre_side("M (x) C", MC, n),
    ]))
    claims.extend(_equivalence_claims([
        _side_bool("M is Cohen-Macaulay", is_cm(M)),
        _side_bool("M (x) C is Cohen-Macaulay", is_cm(MC)),
    ]))
    return claims


def _check_thm_th5(bound, M, C, n):
    ring = M.ring
    converse = yield from _optional_converse(
        "full four-way equivalence skipped: finite G-dimension "
        f"on the depth <= {n - 1} locus not certified",
        n - 1, (_GCDIM_LOCUS, _ring_unit(ring)), (_INJDIM_LOCUS, C))
    yield [_sd_hyp(C, bound), _hyp("n >= 1", n >= 1),
           _auslander_hyp(M, C, bound)] + converse
    T = transpose(M)
    side_i = _ext_side("Tr M, R", T, _ring_unit(ring), n)
    side_ii = _ext_side("Tr M, C", T, C, n)
    MC = tensor(M, C)
    side_iii = _serre_side("M (x) C", MC, n)
    side_iv = _serre_side("M", M, n)
    claims = [
        _implication_claim(side_i, side_ii),
        _implication_claim(side_ii, side_iii),
    ]
    claims.extend(_equivalence_claims([side_iii, side_iv]))
    if converse:
        claims.extend(_equivalence_claims([side_i, side_iv]))
    return claims


def _check_cor_cor7(bound, M, C, n):
    stable = _stable_hyp(M)
    yield [
        _sd_hyp(C, bound),
        stable,
        _auslander_hyp(M, C, bound),
        _locus_hyp(n - 1, (_GCDIM_LOCUS, _ring_unit(M.ring)),
                   (_INJDIM_LOCUS, C)),
        _hyp("n >= 1", n >= 1),
    ]
    side_i = _serre_side("M", M, n)
    report = is_horizontally_linked(M)
    lam = lambda_module(M)
    if n >= 2:
        e_ok, e_wit, _ = _ext_window_vanishes(lam, C, 1, n - 1)
    else:
        e_ok, e_wit = True, None
    side_ii = _side_bool(
        f"linked and Ext^i(lambda M, C) = 0 for 0 < i < {n}",
        report.linked and e_ok,
        f"linked={report.linked}"
        + ("" if e_ok else f", Ext^{e_wit}(lambda M, C) != 0"))
    return _equivalence_claims([side_i, side_ii])


def _check_thm_theorem1(M):
    R = M.ring
    yield [_cm_ring_hyp(R)]
    d = ring_dim(R)
    linked_h = _linked_hyp(M)
    MW = _tensor_canonical(M)
    yield [linked_h, _omega_s1_hyp(MW)]
    lam = lambda_module(M)
    dep_lam = depth(lam)
    dep_mw = depth(MW)
    if dep_lam == INFINITY or dep_mw == INFINITY:
        yield [_hyp("the linked module and M (x) omega are nonzero",
                    False, "a side is the zero module")]
    side_i = _side_bool("M (x) omega is maximal Cohen-Macaulay", is_mcm(MW),
                        f"depth {dep_mw} vs dim {d}")
    side_ii = _side_bool("lambda M is maximal Cohen-Macaulay", is_mcm(lam),
                         f"depth {dep_lam} vs dim {d}")
    t3 = d - dep_lam
    t4 = d - dep_mw
    side_iii = _serre_side(f"M (x) omega (at threshold {t3 + 1})",
                           MW, t3 + 1)
    side_iii.name = f"M (x) omega satisfies S_n for some n > {t3}"
    side_iv = _serre_side(f"lambda M (at threshold {t4 + 1})",
                          lam, t4 + 1)
    side_iv.name = f"lambda M satisfies S_n for some n > {t4}"
    return _equivalence_claims([side_i, side_ii, side_iii, side_iv])


def _check_thm_the1(M, omega_ideal):
    R = M.ring
    gens = R.poly_ring.as_polys(omega_ideal)
    hyps = [_cm_ring_hyp(R),
            _hyp("the ring is not Gorenstein", not ring_is_gorenstein(R))]
    ok, why = _matches_canonical_ideal(R, gens)
    hyps.append(_hyp("the canonical module embeds as the given ideal",
                     ok, why))
    hyps.append(_hyp("M is maximal Cohen-Macaulay", is_mcm(M)))
    hyps.append(_linked_hyp(M))
    yield hyps + [_omega_s1_hyp(_tensor_canonical(M))]
    d = ring_dim(R)
    lam = lambda_module(M)
    side_i = _side_bool("lambda M is maximal Cohen-Macaulay", is_mcm(lam),
                        f"depth {depth(lam)} vs dim {d}")
    Q = tensor(M, cyclic_module(R, gens))
    cm = is_cm(Q)
    dimq = krull_dim(Q)
    side_ii = _side_bool(
        f"M/(omega M) is Cohen-Macaulay of dimension {d - 1}",
        cm and dimq == d - 1,
        f"CM={cm}, dim={dimq}")
    return _equivalence_claims([side_i, side_ii])


def _check_cor_theorem3(ring, I, omega_ideal, J=None):
    I_gens = ring.poly_ring.as_polys(I)
    omega_gens = ring.poly_ring.as_polys(omega_ideal)
    RI = minimalize(cyclic_module(ring, I_gens))
    hyps = [_cm_ring_hyp(ring),
            _hyp("the ring is not Gorenstein", not ring_is_gorenstein(ring))]
    ok, why = _matches_canonical_ideal(ring, omega_gens)
    hyps.append(_hyp("the canonical module embeds as the given ideal",
                     ok, why))
    # the linked ideal: lambda(R/I) must again be cyclic
    lam = minimalize(lambda_module(RI))
    if J is not None:
        J_gens = ring.poly_ring.as_polys(J)
    else:
        J_gens = [g for g in annihilator(lam)
                  if not ring.nf(g).is_zero()]
    RJ = minimalize(cyclic_module(ring, J_gens))
    if lam.is_zero() or RJ.is_zero():
        yield hyps + [_hyp("R/I is linked to a cyclic module", False,
                           "the linkage image or the candidate R/J is zero")]
    shift = min(RJ.gen_twists) - min(lam.gen_twists)
    link_iso = is_isomorphic(lam, twist_module(RJ, shift))
    hyps.append(_linked_hyp(RI))
    hyps.append(_hyp("the linkage image of R/I is R/J",
                     link_iso.is_isomorphic()
                     if link_iso.resolved() else False,
                     f"J = ({', '.join(str(g) for g in J_gens)}); "
                     + link_iso.certificate))
    # I * omega = I intersect omega
    rels = list(ring.relations)
    inter = _intersect_ideals(ring.ambient(), list(I_gens) + rels,
                              list(omega_gens) + rels)
    # the product always sits inside the intersection; equality of the
    # R-ideals is: every intersection generator kills R/(I * omega)
    product = cyclic_module(ring, [a * b for a in I_gens for b in omega_gens])
    inter_ok = all(annihilates(product, f) for f in inter)
    hyps.append(_hyp("I * omega = I intersect omega", inter_ok,
                     "" if inter_ok
                     else "an intersection generator escapes the product"))
    yield hyps + [_hyp("R/I is Cohen-Macaulay", is_cm(RI))]
    d = ring_dim(ring)
    side_i = _side_bool("R/J is Cohen-Macaulay", is_cm(RJ))
    Q = minimalize(cyclic_module(ring, list(I_gens) + list(omega_gens)))
    cm = is_cm(Q)
    dimq = krull_dim(Q)
    side_ii = _side_bool(
        f"R/(I + omega) is Cohen-Macaulay of dimension {d - 1}",
        cm and dimq == d - 1, f"CM={cm}, dim={dimq}")
    return _equivalence_claims([side_i, side_ii])


def _check_thm_prop_even(bound, M, C, n, ideal, ideal2):
    R = M.ring
    hyps = [_sd_hyp(C, bound), _hyp("n >= 1", n >= 1),
            _gcdim_hyp(M, C, bound)[0]]
    links = []
    for given, label in ((ideal, "first"), (ideal2, "second")):
        gens = R.poly_ring.as_polys(given)
        gor = is_gc_gorenstein_ideal(R, gens, C, bound)
        hyps.append(_hyp_verdict(f"the {label} ideal is G_C-Gorenstein", gor))
        inside = all(annihilates(M, f) for f in gens)
        hyps.append(_hyp(f"the {label} ideal annihilates M", inside))
        if not inside or not gor.holds():
            continue
        Rq = R.quotient_by(gens)
        Mq = minimalize(change_ring(M, Rq))
        rep = is_horizontally_linked(Mq)
        hyps.append(_hyp(f"M is linked by the {label} ideal", rep.linked,
                         rep.describe()))
        links.append(lambda_module(Mq))
    yield hyps
    M1, M2 = links
    claims = _equivalence_claims([
        _serre_side("M1 (link through the first ideal)", M1, n),
        _serre_side("M2 (link through the second ideal)", M2, n),
    ])
    if ring_is_cm(R):
        claims.extend(_equivalence_claims([
            _side_bool("M1 is Cohen-Macaulay", is_cm(M1)),
            _side_bool("M2 is Cohen-Macaulay", is_cm(M2)),
        ]))
    return claims


def _check_thm_th1(bound, M, C, n):
    ring = M.ring
    hyps = [_stable_hyp(M), _hyp("n >= 1", n >= 1),
            _gcdim_hyp(M, C, bound)[0]]
    lam, ausl = _lambda_auslander(M, C, bound)
    yield hyps + [ausl]
    report = is_horizontally_linked(M)
    side_a = _serre_side("M", M, n)
    rgr_ok, rgr_wit, _ = _ext_window_vanishes(lam, _ring_unit(ring), 1, n - 1)
    side_b = _side_bool(
        f"linked and rgr(lambda M) >= {n}", report.linked and rgr_ok,
        f"linked={report.linked}"
        + ("" if rgr_ok else f", Ext^{rgr_wit}(lambda M, R) != 0"))
    claims = _equivalence_claims([side_a, side_b])
    if report.linked:
        c_ok, c_wit, _ = _ext_window_vanishes(M, C, 1, n - 1)
        side_c = _side_bool(f"rgr(M, C) >= {n}", c_ok,
                            "" if c_ok else f"Ext^{c_wit}(M, C) != 0")
        side_d = _serre_side("lambda M", lam, n)
        claims.extend(_equivalence_claims([side_c, side_d]))
    else:
        yield "part (ii) skipped: M is not horizontally linked"
    return claims


def _check_cor_cor5(bound, M, C):
    ring = M.ring
    hyps = [_cm_ring_hyp(ring), _stable_hyp(M), _gcdim_hyp(M, C, bound)[0]]
    lam, ausl = _lambda_auslander(M, C, bound)
    yield hyps + [ausl]
    d = ring_dim(ring)
    report = is_horizontally_linked(M)
    dep_m = depth(M)
    side_i = _side_bool("M is maximal Cohen-Macaulay", is_mcm(M),
                        f"depth {dep_m} vs dim {d}")
    side_ii = _side_bool(
        "lambda M is maximal Cohen-Macaulay and M is linked",
        is_mcm(lam) and report.linked,
        f"mCM(lambda M)={is_mcm(lam)}, linked={report.linked}")
    t = d - dep_m if dep_m != INFINITY else 0
    s = serre_tilde(lam, t + 1)
    side_iii = Side(
        f"lambda M satisfies S_n for some n > {t}, and M is linked",
        (s.holds() and report.linked) if s.kind != "unknown" else None,
        s.exact(), s.describe())
    if not report.linked:
        side_iii = _side_bool(side_iii.name, False, "M is not linked")
    return _equivalence_claims([side_i, side_ii, side_iii])


def _check_cor_cor6(bound, M, C, ideal):
    R = M.ring
    gens = R.poly_ring.as_polys(ideal)
    hyps = [_cm_ring_hyp(R), _sd_hyp(C, bound), _gcdim_hyp(M, C, bound)[0]]
    perf, _ = is_gc_perfect_ideal(R, gens, C, bound)
    hyps.append(_hyp_verdict("the ideal is G_C-perfect", perf))
    inside = all(annihilates(M, f) for f in gens)
    yield hyps + [_hyp("the ideal annihilates M", inside)]
    Rq = R.quotient_by(gens)
    Mq = minimalize(change_ring(M, Rq))
    rep = is_horizontally_linked(Mq)
    linked_h = _hyp("M is linked by the ideal", rep.linked, rep.describe())
    K = induced_semidualizing(R, gens, C, bound)
    lamq = lambda_module(Mq)
    yield [linked_h, _auslander_hyp(
        lamq, K, bound, "the quotient link is in the Auslander class of "
        "the induced semidualizing module")]
    return _equivalence_claims([
        _side_bool("M is Cohen-Macaulay", is_cm(M)),
        _side_bool("the quotient link of M is Cohen-Macaulay", is_cm(lamq)),
    ])


def _check_thm_cor3(bound, M):
    R = M.ring
    yield [_cm_ring_hyp(R)]
    hyps = [_linked_hyp(M),
            _hyp("M is not Cohen-Macaulay", not is_cm(M))]
    lam, gd = _lambda_finite_gdim(M, bound)
    yield hyps + [gd]
    d = ring_dim(R)
    cc = cohomological_deficiency(M)
    series, _ = _ambient_profile(M)
    side_i = _side_bool(
        f"H^{cc}_m(M) is finitely generated",
        series[R.nvars - cc].is_finite_length(),
        "tested as dim of the ambient Ext module <= 0")
    side_ii = _depth_sum_side(
        f"depth(lambda M) + cc(M) = {d} and strict inequality off the "
        "maximal ideal", M, lam, cc, f"depth(lambda M)={depth(lam)}, cc={cc}")
    return _equivalence_claims([side_i, side_ii])


def _check_thm_th2(bound, M, C):
    gv, lam = yield from _linked_gcdim_stage(M, C, bound)
    side_locus = _locus_side(
        "depth M_p + depth (lambda M)_p > depth R_p off the depth-zero locus",
        (M, lam, _ring_unit(M.ring)),
        lambda h, d, _: d[2] >= 1 and d[0] + d[1] <= d[2])
    return _equivalence_claims([_gc_zero_side(gv), side_locus])


def _check_cor_self(bound, M, C, self_twist=0):
    self_iso = is_self_linked(M, twist=self_twist)
    hyps = [_hyp("M is horizontally self-linked",
                 self_iso.is_isomorphic() if self_iso.resolved() else False,
                 self_iso.certificate)]
    gh, gv = _gcdim_hyp(M, C, bound)
    yield hyps + [gh, _auslander_hyp(M, C, bound)]
    side_locus = _locus_side(
        "depth M_p > (depth R_p)/2 off the depth-zero locus",
        (M, _ring_unit(M.ring)),
        lambda h, d, _: d[1] >= 1 and 2 * d[0] <= d[1])
    return _equivalence_claims([_gc_zero_side(gv), side_locus])


_TH3_RATIONALE = (
    "the largest syzygy order syz(M) is computed as the n-torsionfree "
    "degree max{n : Ext^i(Tr M, R) = 0 for 1 <= i <= n}; under the finite "
    "G-dimension hypothesis the two agree, and the chain rgr(lambda M) <= "
    "syz(M) <= depth(M) is asserted on the computed values")


def _check_thm_th3(bound, M, C):
    yield _TH3_RATIONALE
    ring = M.ring
    gh, _ = _gcdim_hyp(M, C, bound, positive=True)
    lam, ausl = _lambda_auslander(M, C, bound)
    yield [gh, ausl, _linked_hyp(M)]
    rg = reduced_grade(lam, _ring_unit(ring), bound)
    if rg.value is None:
        yield [_hyp_unknown("rgr(lambda M) is finite", str(rg))]
    t = rg.value
    dep = depth(M)
    cap = dep if dep != INFINITY else 0
    ntf = n_torsionfree_degree(M, cap)
    yield (f"computed chain: rgr(lambda M)={t} <= syz(M)={ntf} <= "
           f"depth(M)={dep}")
    side_i = _side_bool(
        "depth(M) = syz(M) = rgr(lambda M)",
        dep == ntf == t, f"depth={dep}, syz={ntf}, rgr(lambda M)={t}")
    Et = ext(lam, _ring_unit(ring), t)
    side_ii = _side_bool(
        f"the maximal ideal is associated to Ext^{t}(lambda M, R)",
        m_in_ass(Et))
    side_iii = _locus_side(
        "depth(M) <= depth M_p on the nonzero-G-dimension locus",
        (M, _ring_unit(ring)), lambda h, d, _: d[0] < d[1] and d[0] < dep)
    return _equivalence_claims([side_i, side_ii, side_iii])


def _check_thm_th6(bound, M, C):
    ring = M.ring
    gv, lam = yield from _linked_gcdim_stage(M, C, bound)
    claims = []
    rg = reduced_grade(M, C, bound)
    triple = (M, lam, _ring_unit(ring))

    def on_locus(holds):
        """A prime with nonzero local G-dimension, depth M_p < depth R_p
        under the finite G_C-dimension hypothesis, where
        holds(depth (lambda M)_p); else None."""
        return locus_point(triple, lambda h, d, _: d[0] < d[2]
                           and holds(d[1]))

    if gv.kind == "zero":
        ng = on_locus(lambda _: True)
        claims.append(Claim(
            "rgr(M, C) = inf over the empty nonzero-G-dimension locus",
            "exact-true" if (rg.value is None and ng is None)
            else "exact-false",
            f"G_C-dim 0: rgr={rg}, nonzero locus "
            + ("empty" if ng is None else f"meets {ng}")))
    elif rg.value is None:
        claims.append(Claim("rgr(M, C) is finite", "open", str(rg)))
    else:
        r = rg.value
        below = on_locus(lambda dl: dl < r)
        attained = None if below else on_locus(lambda dl: dl == r)
        if below:
            claims.append(Claim(
                "rgr(M, C) <= depth (lambda M)_p on the nonzero locus",
                "exact-false", f"depth (lambda M)_p = {below.depths[1]} < "
                f"rgr={r} at {below}"))
        else:
            claims.append(Claim(
                f"rgr(M, C) = {r} = min of depth (lambda M)_p over the "
                "nonzero-G-dimension locus",
                "exact-true" if attained else "exact-false",
                f"attained at {attained}" if attained
                else "not attained: the locus is empty or lies above it"))
    # rgr(M) <= rgr(M, C), equality under finite projective dimension
    if rg.value is not None:
        r = rg.value
        unit = _ring_unit(ring)
        ok, wit, _ = _ext_window_vanishes(M, unit, 1, r - 1)
        first = wit if not ok else (
            r if not ext_vanishes(M, unit, r)
            else None)
        if first is not None:
            claims.append(Claim(
                "rgr(M) <= rgr(M, C)",
                "exact-true" if first <= r else "exact-false",
                f"rgr(M)={first}, rgr(M, C)={r}"))
        else:
            claims.append(Claim("rgr(M) <= rgr(M, C)", "exact-false",
                                f"Ext^i(M, R) = 0 through {r} so "
                                f"rgr(M) > rgr(M, C) = {r}"))
        pd = _finite_pd(lam)
        if pd is not None and first is not None:
            claims.append(_equality_claim(
                "rgr(M) = rgr(M, C) when pd(lambda M) is finite",
                first, r, f"pd(lambda M) = {pd}"))
    return claims


def _check_prop_xtm(bound, M, C):
    ring = M.ring
    _, lam = yield from _linked_gcdim_stage(M, C, bound, positive=True)
    rg_c = reduced_grade(M, C, bound)
    rg_l = reduced_grade(lam, _ring_unit(ring), bound)
    if rg_c.value is None or rg_l.value is None:
        yield [_hyp_unknown(
            "both reduced grades are finite",
            f"rgr(M, C)={rg_c}, rgr(lambda M)={rg_l}")]
    t_m = rg_c.value + rg_l.value
    yield f"t_M = rgr(M, C) + rgr(lambda M) = {t_m}"
    side = _locus_side(
        f"G_C-dimension of M vanishes at primes of depth <= {t_m - 1}",
        (M, _ring_unit(ring)),
        lambda h, d, _: d[1] <= t_m - 1 and d[0] < d[1])
    return [Claim(side.name, "exact-true" if side.value else "exact-false",
                  side.detail)]


def _check_thm_th4(bound, M, C):
    ring = M.ring
    hyps = [_cm_ring_hyp(ring)]
    red, gv = is_reduced_gc_perfect(M, C, bound)
    hyps.append(_hyp_verdict("M is reduced G_C-perfect", red))
    lam, ausl = _lambda_auslander(M, C, bound)
    yield hyps + [ausl]
    n = gv.value
    En = ext(M, C, n)
    dep_m, dep_l, dep_e = depth(M), depth(lam), depth(En)
    if INFINITY in (dep_m, dep_l, dep_e):
        yield [_hyp("all depth terms are finite", False,
                    "a zero module appeared")]
    return [_equality_claim(
        "depth M + depth lambda M = depth R + depth Ext^n(M, C)",
        dep_m + dep_l, ring_depth(ring) + dep_e,
        f"depth M={dep_m}, depth lambda M={dep_l}, depth R="
        f"{ring_depth(ring)}, depth Ext^{n}={dep_e}")]


def _check_thm_th7(bound, M, C):
    gv, lam = yield from _linked_gcdim_stage(M, C, bound, positive=True)
    n = gv.value
    ok, wit, _ = _ext_window_vanishes(M, C, 1, n - 1)
    top = not ext_vanishes(M, C, n)
    side_red = _side_bool(
        f"M is reduced G_C-perfect (rgr(M, C) = {n})", ok and top,
        f"Ext vanishing below {n}: {ok}"
        + ("" if ok else f" (Ext^{wit} != 0)")
        + f", Ext^{n}(M, C) != 0: {top}")
    side_serre = _serre_side("lambda M", lam, n)
    return _equivalence_claims([side_red, side_serre])


def _check_cor_cor1(bound, M):
    R = M.ring
    hyps = [_cm_ring_hyp(R), _linked_hyp(M)]
    d = ring_dim(R)
    n = depth(M)
    hyps.append(_hyp(f"depth M = {n} < dim R = {d}",
                     n != INFINITY and n < d))
    lam, gd = _lambda_finite_gdim(M, bound)
    yield hyps + [gd]
    side_em = _side_bool(
        "M is an Eilenberg-MacLane module", is_eilenberg_maclane(M),
        f"local cohomology degrees {local_cohomology_degrees(M)}")
    side_serre = _serre_side("lambda M", lam, d - int(n))
    return _equivalence_claims([side_em, side_serre])


def _check_cor_cor4(bound, M):
    R = M.ring
    hyps = [_cm_ring_hyp(R), _linked_hyp(M),
            _hyp("M is not Cohen-Macaulay", not is_cm(M)),
            _hyp("M is an Eilenberg-MacLane module",
                 is_eilenberg_maclane(M),
                 f"local cohomology degrees "
                 f"{local_cohomology_degrees(M)}")]
    lam, gd = _lambda_finite_gdim(M, bound)
    yield hyps + [gd]
    d = ring_dim(R)
    dep_m = depth(M)
    side_gcm = _side_bool("M is generalized Cohen-Macaulay",
                          is_generalized_cm(M))
    side_rhs = _depth_sum_side(
        f"depth(lambda M) + depth(M) = {d} with strict local inequalities "
        "off the maximal ideal", M, lam, dep_m,
        f"depth lambda M={depth(lam)}, depth M={dep_m}")
    return _equivalence_claims([side_gcm, side_rhs])


def _check_remark3_i(M, C):
    yield []  # no hypotheses: one empty stage
    # The two constructions meet: Hom(F_1, C) = F_1^* (x) C for the free
    # F_1 of M's minimal presentation d_1, so Tr M (x) C, presented by
    # d_1^T (x) id and C's relations on each copy of C, has the very
    # columns of Tr_C M = coker Hom(d_1, C).  Their minimal presentations
    # agree and is_isomorphic answers by its identity certificate; the
    # search would only run if the constructions ever drifted apart.
    lhs = tensor(transpose(M), C)
    rhs = transpose_wrt(M, C)
    v = is_isomorphic(lhs, rhs)
    if not v.resolved():
        return [Claim("Tr M (x) C = Tr_C M", "open", v.certificate)]
    return [Claim("Tr M (x) C = Tr_C M",
                  "exact-true" if v.is_isomorphic() else "exact-false",
                  v.certificate)]


def _check_g3_ab_formula(bound, M, C):
    ring = M.ring
    sd = _sd_hyp(C, bound)
    if M.is_zero():
        yield [sd, _hyp("M is nonzero", False)]
    gh, gv = _gcdim_hyp(M, C, bound)
    yield [sd, gh]
    r = gv.value
    claims = [_equality_claim(
        "G_C-dim(M) = depth R - depth M",
        r, ring_depth(ring) - depth(M),
        f"depth R={ring_depth(ring)}, depth M={depth(M)}")]
    top = not ext_vanishes(M, C, r)
    claims.append(Claim(
        f"Ext^{r}(M, C) != 0 (the supremum is attained)",
        "exact-true" if top else "exact-false",
        ""))
    tail = f"Ext^i(M, C) = 0 for i > {r}"
    hi = max(r + 1, bound)
    ok, wit, exact = _ext_window_vanishes(M, C, r + 1, hi)
    pd = None if not ok or exact else _finite_pd(M)
    if not ok:
        claims.append(Claim(
            tail, "exact-false",
            f"Ext^{wit}(M, C) != 0 above the G-dimension"))
    elif exact:
        claims.append(Claim(
            tail, "exact-true",
            f"ambient projective dimension {ring.nvars - depth(M)} bounds "
            f"Ext^(i+{ring_codim(ring)})_S(M, S)"))
    elif pd is not None:
        claims.append(Claim(
            tail, "exact-true",
            f"finite projective dimension {pd} truncates the resolution"))
    else:
        claims.append(Claim(tail, "partial-true", f"scanned through {hi}"))
    return claims


def _bindings(fn) -> tuple:
    """(required, defaults) of a check: its parameters but bound, those
    without a default in order, and the others with their defaults."""
    params = [p for p in inspect.signature(fn).parameters.values()
              if p.name != "bound"]
    return (tuple(p.name for p in params if p.default is p.empty),
            {p.name: p.default for p in params if p.default is not p.empty})


# The one list of theorem ids: `TheoremId` is built from its keys, in
# order, and `_CHECKS` holds each check and its bindings under its member,
# in the members' order, which is the order suites run them in.
_CHECK_FUNCTIONS = {
    "THM_MS": _check_thm_ms,
    "PROP_T1": _check_prop_t1,
    "PROP_P3": _check_prop_p3,
    "PROP_T13": _check_prop_t13,
    "COR_C2": _check_cor_c2,
    "LEM_LEM2": _check_lem_lem2,
    "THM_TH5": _check_thm_th5,
    "COR_COR7": _check_cor_cor7,
    "THM_THEOREM1": _check_thm_theorem1,
    "THM_THE1": _check_thm_the1,
    "COR_THEOREM3": _check_cor_theorem3,
    "THM_PROP_EVEN": _check_thm_prop_even,
    "THM_TH1": _check_thm_th1,
    "COR_COR5": _check_cor_cor5,
    "COR_COR6": _check_cor_cor6,
    "THM_COR3": _check_thm_cor3,
    "THM_TH2": _check_thm_th2,
    "COR_SELF": _check_cor_self,
    "THM_TH3": _check_thm_th3,
    "THM_TH6": _check_thm_th6,
    "PROP_XTM": _check_prop_xtm,
    "THM_TH4": _check_thm_th4,
    "THM_TH7": _check_thm_th7,
    "COR_COR1": _check_cor_cor1,
    "COR_COR4": _check_cor_cor4,
    "REMARK3_I": _check_remark3_i,
    "G3_AB_FORMULA": _check_g3_ab_formula,
}
TheoremId = enum.Enum("TheoremId", [(t, t) for t in _CHECK_FUNCTIONS],
                      type=str, module=__name__)
_CHECKS = {tid: (_CHECK_FUNCTIONS[tid], *_bindings(_CHECK_FUNCTIONS[tid]))
           for tid in TheoremId}
# the checks that scan through the vanishing bound, their first parameter
_SCANS = frozenset(fn for fn, *_ in _CHECKS.values()
                   if "bound" in inspect.signature(fn).parameters)


def resolve_id(tid) -> TheoremId:
    if isinstance(tid, TheoremId):
        return tid
    return TheoremId(str(tid))


def _instance(label, args) -> str:
    """The report's instance line: M by its label, else by its
    presentation, with ", n=..." when the check takes n; COR_THEOREM3,
    which binds no M, is named by its ideal."""
    if "M" not in args:
        ring = args["ring"]
        gens = ", ".join(str(g) for g in ring.poly_ring.as_polys(args["I"]))
        return f"ideal ({gens}) over {ring.key()}"
    M = args["M"]
    name = label or f"module({M.n_gens()} gens, twists {list(M.gen_twists)})"
    line = f"{name} over {M.ring.key()}"
    return f"{line}, n={args['n']}" if "n" in args else line


def _run(tid, bindings, bound) -> TheoremReport:
    """The one prologue and driver of every check.

    The prologue reads the check's bindings, defaults filled in, makes n
    an int, resolves the vanishing bound of a check that scans (None:
    `default_bound` of M's ring; every ring a check reaches is a quotient
    of M's polynomial ring, so it is the default there too), minimalizes
    M and names the instance, then minimalizes C.
    The driver runs the hypothesis stages in order, then the claims,
    which are computed only when every stage holds.  A budget or an
    inapplicability met anywhere, minimalizing M included, ends the check
    with an Inapplicable report; its instance line names M by the given
    presentation when M itself could not be minimalized.  Modules over
    different rings raise ValueError.
    """
    fn, required, defaults = _CHECKS[tid]
    args = {k: bindings[k] for k in required}
    args.update((k, bindings.get(k, d)) for k, d in defaults.items())
    if len({v.ring for v in args.values()
            if isinstance(v, ModulePresentation)}) > 1:
        raise ValueError(f"{tid.value} over different rings")
    if "n" in args:
        args["n"] = int(args["n"])
    if fn in _SCANS:
        args["bound"] = (default_bound(args["M"].ring) if bound is None
                         else bound)
    label = bindings.get("label")
    hyps, notes = [], []
    try:
        if "M" in args:
            args["M"] = minimalize(args["M"])
        instance = _instance(label, args)
        if "C" in args:
            args["C"] = minimalize(args["C"])
        stages = fn(**args)
        while _blocker(hyps) is None:
            step = next(stages)
            if isinstance(step, str):
                notes.append(step)
            else:
                hyps += step
    except StopIteration as done:
        return _finish(tid, instance, hyps, done.value, notes)
    except (BudgetError, InapplicableError) as e:
        return _stopped(tid, _instance(label, args), e)
    return _finish(tid, instance, hyps, [], notes)


def _stopped(tid, instance, e) -> TheoremReport:
    """The report of a check that a budget or an inapplicability ended."""
    if isinstance(e, BudgetError):
        return TheoremReport(
            tid.value, instance, [], "Inapplicable",
            witness=f"budget exhausted: {e}",
            notes=["Inapplicable-by-budget"])
    return TheoremReport(tid.value, instance, [], "Inapplicable",
                         witness=str(e))


def check(tid, bindings, bound: int | None = None) -> TheoremReport:
    """Run one named check, scanning Ext/Tor vanishing through `bound`
    (None: `default_bound` of M's ring); a bound below 1, missing
    bindings and modules over different rings raise, and a budget or an
    inapplicability degrades to an Inapplicable report."""
    tid = resolve_id(tid)
    if bound is not None and bound < 1:
        raise ValueError(f"bound {bound} is below 1")
    missing = [k for k in _CHECKS[tid][1] if k not in bindings]
    if missing:
        raise KeyError(
            f"{tid.value} needs bindings {missing}; got "
            f"{sorted(bindings.keys())}")
    return _run(tid, bindings, bound)


def run_suite(instances, bound: int | None = None):
    """Run (theorem id, bindings) pairs in order through `check` with the
    same bound; aggregate a summary.

    The summary counts verdicts; the suite fails if any report is
    Refuted with every hypothesis exact.
    """
    reports = []
    for tid, bindings in instances:
        reports.append(check(tid, bindings, bound))
    counts = {"Verified": 0, "Refuted": 0, "Inapplicable": 0,
              "PartiallyVerified": 0}
    hard_failures = []
    for r in reports:
        counts[r.verdict] += 1
        if r.verdict == "Refuted" and not r.suspected_counterexample:
            hard_failures.append(r)
    summary = {
        "counts": counts,
        "total": len(reports),
        "suite_passed": not hard_failures,
        "hard_refutations": [r.summary_line() for r in hard_failures],
    }
    return reports, summary


def default_coefficient(ring) -> ModulePresentation:
    """R itself over a Gorenstein ring, else the canonical module."""
    if ring_is_gorenstein(ring):
        return _ring_unit(ring)
    return canonical_module(ring)


def _binds_a_corpus_module(tid) -> bool:
    """Whether the check needs only M, C and n, which a corpus module and
    the defaults fill in."""
    return set(_CHECKS[tid][1]) <= {"M", "C", "n"}


SUITE_DEFAULT_IDS = tuple(tid for tid in _CHECKS if _binds_a_corpus_module(tid))


def special_instances(ring):
    """Curated bindings for checks that need explicit ideal data."""
    key = ring.key()
    C = default_coefficient(ring)
    out = []
    if key == "QQ[x,y]/()":
        M = cyclic_module(ring, ["x"])
        out.append((TheoremId.COR_COR6,
                    {"M": M, "C": C, "ideal": ["x*y"], "label": "S/(x)"}))
        out.append((TheoremId.THM_PROP_EVEN,
                    {"M": M, "C": C, "n": 1, "ideal": ["x*y"],
                     "ideal2": ["x^2 + x*y"], "label": "S/(x)"}))
    if key == "QQ[x,y,z]/(y*z, x*z, x*y)":
        omega_ideal = ["x - y", "y - z"]
        out.append((TheoremId.THM_THE1,
                    {"M": cyclic_module(ring, ["x"]),
                     "omega_ideal": omega_ideal, "label": "R/(x)"}))
        out.append((TheoremId.COR_THEOREM3,
                    {"ring": ring, "I": ["x"], "omega_ideal": omega_ideal}))
    return out


def default_instances(ring, modules, ids=None, *, n: int = 1):
    """Suite bindings for corpus modules: C is the default coefficient
    module, and n is given to every check that takes it, required or
    optional."""
    ids = list(ids) if ids is not None else list(SUITE_DEFAULT_IDS)
    C = default_coefficient(ring)
    out = []
    for name, M in modules:
        for tid in ids:
            tid = resolve_id(tid)
            if not _binds_a_corpus_module(tid):
                continue
            _, required, defaults = _CHECKS[tid]
            b = {"M": M, "label": name}
            if "C" in required:
                b["C"] = C
            if "n" in required or "n" in defaults:
                b["n"] = n
            out.append((tid, b))
    return out
