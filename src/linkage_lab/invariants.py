"""Homological invariants computed through ambient duality.

Over the ambient polynomial ring S in n variables every finitely
generated graded module has a finite free resolution, and grade
sensitivity of Ext gives exact values: depth M = n - max{j :
Ext^j_S(M,S) != 0}, dim M = n - min{...}, and the set {n - j :
Ext^j_S(M,S) != 0} is exactly the set of degrees where local cohomology
at the irrelevant maximal ideal is nonzero.  Everything else here
(Serre conditions, canonical modules, semidualizing certificates,
Auslander classes, G-dimension) builds on that profile plus bounded
Ext/Tor scans whose bounds are reported honestly.

Ext into the canonical module over a Cohen-Macaulay ring R = S/I of
codimension c is exact through the same duality:
Ext^i_R(M, omega_R) = Ext^(i+c)_S(M, S)(-n).  `canonical_twist` is the
gate `homops.ext` uses to take that route (the direct computation over R
stays as an oracle for i <= 1), and `ext_vanishing_top` turns
pd_S M = n - depth M into exact vanishing past dim R - depth M.

The groups Ext^j_S(M, S), j = 0..n, are computed once per presentation
and kept in the memo as M's ambient profile, with the indices where they
are nonzero.  Depth, dimension, local cohomology degrees, generalized
CM-ness, the CM branch of `serre_tilde` and the support tests at probe
primes all read from it.  The verdicts of `in_auslander_class`,
`serre_tilde`, `gc_dim` and `is_canonical_module` are memoized too,
keyed by the content keys of the minimal inputs, the bound, the budgets
and the probe set, so a suite asking the same question in several checks
computes it once.  A hit hands every caller the same object, which is
why the verdict classes are frozen.

Local data at primes is sampled on variable-subset primes, where
support membership reduces to exact monomial tests on annihilators.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import memo
from .config import DEFAULT_BUDGETS, default_bound
from .errors import BudgetError, ConsistencyError, InapplicableError
from .homops import (
    _hom_cohomology,
    _per_slot_relations,
    ext,
    ext_to_ambient,
    hom_with_realizations,
    syzygy,
    tensor_raw,
    tor,
    transpose,
    transpose_wrt,
)
from .modules import (
    ModulePresentation,
    annihilator,
    change_ring,
    cyclic_module,
    free_module,
    ideal_in_prime,
    minimalize,
    span_gb,
    twist_module,
)
from .resolutions import minimal_free_resolution
from .rings import GradedRing

INFINITY = float("inf")


# -- depth, dimension and local cohomology degrees ---------------------------


def _ambient_profile(M: ModulePresentation) -> tuple:
    """(exts, nonzero): exts[j] = Ext^j_S(M, S) for j = 0..n, and the
    ascending j with exts[j] != 0; computed once per presentation."""
    return memo.cached("ambient-profile", M.content_key(), _ambient_exts, M)


def _ambient_exts(M: ModulePresentation) -> tuple:
    exts = tuple(ext_to_ambient(M, j) for j in range(M.ring.nvars + 1))
    return exts, tuple(j for j, E in enumerate(exts) if not E.is_zero())


def depth(M: ModulePresentation):
    """Depth at the irrelevant maximal ideal; INFINITY for the zero module."""
    _, js = _ambient_profile(M)
    if not js:
        return INFINITY
    return M.ring.nvars - max(js)


def krull_dim(M: ModulePresentation) -> int:
    """Krull dimension; -1 for the zero module."""
    _, js = _ambient_profile(M)
    if not js:
        return -1
    return M.ring.nvars - min(js)


def local_cohomology_degrees(M: ModulePresentation) -> list:
    """Sorted degrees i with H^i_m(M) != 0, through graded duality."""
    n = M.ring.nvars
    _, js = _ambient_profile(M)
    return sorted(n - j for j in js)


def is_finite_length(M: ModulePresentation) -> bool:
    return M.hilbert_series().is_finite_length()


def m_in_ass(M: ModulePresentation) -> bool:
    """Whether the irrelevant maximal ideal is an associated prime."""
    return not minimalize(M).is_zero() and depth(M) == 0


def is_cm(M: ModulePresentation) -> bool:
    if minimalize(M).is_zero():
        return True
    return depth(M) == krull_dim(M)


def cohomological_deficiency(M: ModulePresentation) -> int:
    """Largest i < dim M with H^i_m(M) != 0; undefined for CM modules."""
    if is_cm(M):
        raise InapplicableError("deficiency degree undefined for CM modules")
    d = krull_dim(M)
    return max(i for i in local_cohomology_degrees(M) if i < d)


def is_eilenberg_maclane(M: ModulePresentation) -> bool:
    """Nonvanishing local cohomology only at depth and dimension."""
    if minimalize(M).is_zero():
        return True
    degs = set(local_cohomology_degrees(M))
    return degs <= {depth(M), krull_dim(M)}


def is_generalized_cm(M: ModulePresentation) -> bool:
    """dim >= 1 and H^i_m(M) of finite length for all i < dim M."""
    d = krull_dim(M)
    if d < 1:
        return False
    n = M.ring.nvars
    exts, _ = _ambient_profile(M)
    for i in range(d):
        E = exts[n - i]
        if not E.is_zero() and E.hilbert_series().dimension() > 0:
            return False
    return True


# -- ring-level facts ---------------------------------------------------------


def _ring_unit(R: GradedRing) -> ModulePresentation:
    return free_module(R, [0])


def ring_dim(R: GradedRing) -> int:
    return R.hilbert_series().dimension()


def ring_depth(R: GradedRing):
    return memo.cached("ring-depth", R.key(), lambda: depth(_ring_unit(R)))


def ring_codim(R: GradedRing) -> int:
    return R.nvars - ring_dim(R)


def ring_is_cm(R: GradedRing) -> bool:
    return memo.cached("ring-cm", R.key(),
                       lambda: ring_depth(R) == ring_dim(R))


def ring_is_gorenstein(R: GradedRing) -> bool:
    return memo.cached("ring-gor", R.key(), lambda: ring_is_cm(R) and (
        ext_to_ambient(_ring_unit(R), ring_codim(R)).n_gens() == 1))


def is_mcm(M: ModulePresentation) -> bool:
    """Maximal Cohen-Macaulay: depth M = dim R (zero module passes)."""
    if minimalize(M).is_zero():
        return True
    return depth(M) == ring_dim(M.ring)


def canonical_module(R: GradedRing) -> ModulePresentation:
    """Graded canonical module Ext^c_S(R, S) twisted so that omega_S = S(-n)."""
    return memo.cached("canonical", R.key(), _canonical_module, R)


def _canonical_module(R: GradedRing) -> ModulePresentation:
    E = ext_to_ambient(_ring_unit(R), ring_codim(R))
    return minimalize(change_ring(twist_module(E, -R.nvars), R))


def is_canonical_module(C: ModulePresentation) -> bool:
    """Whether C is the canonical module up to a twist (exact).

    `canonical_twist` answers first; when it finds no match, an
    isomorphism search against omega twisted by the same shift decides.
    """
    Cmin = minimalize(C)
    if Cmin.is_zero():
        return False
    return memo.cached("is-canonical", Cmin.content_key(), _is_canonical, Cmin)


def _is_canonical(Cmin: ModulePresentation) -> bool:
    from .isomorphism import is_isomorphic

    if canonical_twist(Cmin) is not None:
        return True
    omega = canonical_module(Cmin.ring)
    if Cmin.n_gens() != omega.n_gens():
        return False
    a = min(omega.gen_twists) - min(Cmin.gen_twists)
    return is_isomorphic(Cmin, twist_module(omega, a)).is_isomorphic()


def canonical_twist(C: ModulePresentation):
    """The a with C = omega_R(a) over a CM proper quotient R, else None.

    Exact but not complete, and no isomorphism search: C matches when its
    minimal presentation has the content key of twist_module(omega, a),
    or when R is Gorenstein and C is free of rank one (omega = R up to a
    twist).  A polynomial ring never matches, which keeps the ambient
    route of `homops.ext` from recursing.
    """
    R = C.ring
    if R.is_polynomial or not ring_is_cm(R):
        return None
    B = minimalize(C)
    if not B.n_gens():
        return None
    omega = canonical_module(R)
    a = min(omega.gen_twists) - min(B.gen_twists)
    if B.n_rels() == 0 and B.n_gens() == 1 and ring_is_gorenstein(R):
        return a
    if twist_module(omega, a).content_key() == B.content_key():
        return a
    return None


def ext_vanishing_top(M: ModulePresentation, C: ModulePresentation):
    """dim R - depth M when `canonical_twist(C)` is defined, else None.

    Ext^i(M, C) = 0 exactly for every i above it: the ambient Ext
    Ext^(i+c)_S(M, S) vanishes past pd_S M = n - depth M.
    """
    if canonical_twist(C) is None:
        return None
    if minimalize(M).is_zero():
        return -1
    return ring_dim(M.ring) - depth(M)


# -- probe primes -------------------------------------------------------------


@dataclass(frozen=True)
class ProbePrime:
    label: str
    gens: tuple  # polynomials over the ambient ring
    height: int
    trusted: bool = True  # variable-subset primes are exact

    def __str__(self):
        return self.label


def probe_primes(R: GradedRing, extra=()):
    """Variable-subset primes of S containing the defining ideal, plus extras.

    For a subset W the ideal (W) is prime in S; it is a probe for R when
    it contains every defining relation, which for these generators is an
    exact monomial-divisibility test via Groebner containment.
    """
    key = memo.content_hash("probes", R.key(), *[str(p) for p in extra])
    return memo.cached("probes", key, _probe_primes, R, extra)


def _probe_primes(R: GradedRing, extra) -> list:
    S = R.poly_ring
    names = S.names
    rels = list(R.reduced_relations)
    out = []
    for mask in range(1 << len(names)):
        subset = [i for i in range(len(names)) if mask >> i & 1]
        gens = [S.var(i) for i in subset]
        if rels and not all(
            ideal_in_prime(R, [r], gens) for r in rels
        ):
            continue
        label = "(" + ",".join(names[i] for i in subset) + ")" if subset else "(0)"
        out.append(ProbePrime(label, tuple(gens), len(subset)))
    out.sort(key=lambda p: (p.height, p.label))
    for g in extra:
        gens = tuple(S.parse(t) if isinstance(t, str) else t for t in g)
        label = "(" + ",".join(str(p) for p in gens) + ")"
        ht = len(gens)  # trusted height hint for user primes
        out.append(ProbePrime(label, gens, ht, trusted=False))
    return out


def _ann_in_prime(E: ModulePresentation, prime: ProbePrime) -> bool:
    if minimalize(E).is_zero():
        return False
    ann = annihilator(E)
    return ideal_in_prime(E.ring, ann, list(prime.gens))


def _supported_indices(M: ModulePresentation, prime: ProbePrime) -> tuple:
    """The j with Ext^j_S(M, S) supported at the prime, ascending."""
    key = memo.content_hash(M.content_key(), _probes_key([prime]))
    return memo.cached("supported", key, _supported, M, prime)


def _supported(M: ModulePresentation, prime: ProbePrime) -> tuple:
    exts, js = _ambient_profile(M)
    return tuple(j for j in js if _ann_in_prime(exts[j], prime))


def depth_at_prime(M: ModulePresentation, prime: ProbePrime):
    """Depth of M localized at the prime; INFINITY outside the support."""
    js = _supported_indices(M, prime)
    if not js:
        return INFINITY
    return prime.height - max(js)


def dim_at_prime(M: ModulePresentation, prime: ProbePrime):
    """Dimension of M localized at the prime; -1 outside the support."""
    js = _supported_indices(M, prime)
    if not js:
        return -1
    return prime.height - min(js)


def ring_depth_at_prime(R: GradedRing, prime: ProbePrime):
    return depth_at_prime(_ring_unit(R), prime)


# -- bounded verdicts ---------------------------------------------------------


@dataclass(frozen=True)
class BoundedVerdict:
    kind: str  # "true" | "false" | "bounded" | "probe" | "unknown"
    witness: str = ""
    bound: int | None = None
    note: str = ""

    def holds(self) -> bool:
        return self.kind in ("true", "bounded", "probe")

    def exact(self) -> bool:
        return self.kind in ("true", "false")

    def status_label(self) -> str:
        if self.kind == "true":
            return "Exact"
        if self.kind == "false":
            return "Failed"
        if self.kind == "bounded":
            return f"BoundedTrue({self.bound})"
        if self.kind == "probe":
            return f"ProbeVerified({self.note or 'variable-subset primes'})"
        return "Unknown"

    def describe(self) -> str:
        bits = [self.kind]
        if self.witness:
            bits.append(f"witness={self.witness}")
        if self.bound is not None:
            bits.append(f"bound={self.bound}")
        if self.note:
            bits.append(self.note)
        return ", ".join(bits)


def serre_tilde(M: ModulePresentation, k: int, *, probes=None) -> BoundedVerdict:
    """The depth condition depth M_p >= min(k, depth R_p) at every prime.

    Over a CM base ring this is decided exactly by dimension bounds on
    the ambient Ext modules; otherwise it is sampled on probe primes.
    """
    if k < 1:
        raise ValueError("the Serre-type condition needs k >= 1")
    R = M.ring
    A = minimalize(M)
    if A.is_zero():
        return BoundedVerdict("true", note="zero module")
    cm = ring_is_cm(R)
    if not cm and probes is None:
        probes = probe_primes(R)
    key = memo.content_hash(A.content_key(), str(k),
                            "cm" if cm else _probes_key(probes))
    if cm:
        return memo.cached("serre-tilde", key, _serre_tilde_cm, A, k)
    return memo.cached("serre-tilde", key, _serre_tilde_probes, A, k, probes)


def _probes_key(probes) -> str:
    return "|".join(
        f"{p.label}:{p.height}:{p.trusted}:{','.join(map(str, p.gens))}"
        for p in probes
    )


def _serre_tilde_cm(M: ModulePresentation, k: int) -> BoundedVerdict:
    R = M.ring
    n = R.nvars
    c = ring_codim(R)
    exts, js = _ambient_profile(M)
    for j in js:
        if j <= c:
            continue
        dim = exts[j].hilbert_series().dimension()
        if dim > n - j - k:
            return BoundedVerdict(
                "false",
                witness=f"ambient Ext index {j} has dimension {dim} > {n - j - k}",
            )
    return BoundedVerdict("true")


def _serre_tilde_probes(M: ModulePresentation, k: int, probes) -> BoundedVerdict:
    R = M.ring
    for p in probes:
        need = min(k, ring_depth_at_prime(R, p))
        if depth_at_prime(M, p) < need:
            return BoundedVerdict("false", witness=f"prime {p.label}")
    return BoundedVerdict("probe", note=f"{len(probes)} probe primes")


# -- grade and reduced grade --------------------------------------------------


def grade_module(M: ModulePresentation) -> int:
    """grade(ann M, R) = least i with Ext^i_R(M, R) != 0 (exact)."""
    A = minimalize(M)
    if A.is_zero():
        raise InapplicableError("grade of the zero module is infinite")
    R = M.ring
    if ring_is_cm(R):
        return ring_dim(R) - krull_dim(M)
    unit = _ring_unit(R)
    for i in range(ring_depth(R) + 1):
        if not ext(A, unit, i).is_zero():
            return i
    raise ConsistencyError("grade exceeded the depth of the ring")


@dataclass
class ReducedGrade:
    value: int | None  # None = no nonvanishing Ext found
    bound: int | None  # None = exact; else scanned through this bound

    def __str__(self):
        if self.value is not None:
            return str(self.value)
        if self.bound is None:
            return "infinity"
        return f"InfinityUpTo({self.bound})"


def reduced_grade(M: ModulePresentation, C: ModulePresentation, bound=None, *,
                  budgets=None) -> ReducedGrade:
    """Least i > 0 with Ext^i(M, C) != 0, scanned through the bound."""
    R = M.ring
    bound = bound if bound is not None else default_bound(R)
    A = minimalize(M)
    if A.is_zero():
        return ReducedGrade(None, None)
    for i in range(1, bound + 1):
        if not ext(A, C, i, budgets=budgets).is_zero():
            return ReducedGrade(i, None)
    verdict = gc_dim(M, C, bound=bound, budgets=budgets)
    if verdict.kind == "zero":
        return ReducedGrade(None, None if verdict.exact() else bound)
    return ReducedGrade(None, bound)


def n_torsionfree_degree(M: ModulePresentation, cap: int, *, budgets=None):
    """max{n <= cap : Ext^i(Tr M, R) = 0 for 1 <= i <= n}, with saturation flag."""
    T = transpose(M)
    unit = _ring_unit(M.ring)
    for i in range(1, cap + 1):
        if not ext(T, unit, i, budgets=budgets).is_zero():
            return i - 1, False
    return cap, True


# -- explicit graded maps and their isomorphism tests -------------------------


def _combine_columns(cols, coeffs):
    acc: dict = {}
    for col, c in zip(cols, coeffs):
        if c is None or c.is_zero():
            continue
        for i, p in col.items():
            q = p * c
            cur = acc.get(i)
            acc[i] = q if cur is None else cur + q
    return {i: p for i, p in acc.items() if not p.is_zero()}


def graded_map_is_iso(domain: ModulePresentation, target_pres, target_kept,
                      target_twists, target_rels, img_cols) -> tuple:
    """Decide exactly whether a degree-zero map into a subquotient is an iso.

    The map sends generator i of minimalize(domain) to img_cols[i] (a
    column in the subquotient's ambient coordinates).  Surjectivity is a
    Groebner span test; with equal Hilbert series that forces bijectivity
    degree by degree.
    """
    ring = domain.ring
    D = minimalize(domain)
    if len(img_cols) != D.n_gens():
        raise ValueError("one image column per generator required")
    rel_gb = span_gb(ring, list(target_rels), list(target_twists))
    for col in D.columns:
        coeffs = [col.get(i) for i in range(D.n_gens())]
        image = _combine_columns(img_cols, coeffs)
        if image and not rel_gb.contains(image):
            raise ConsistencyError("candidate map is not well defined")
    full_gb = span_gb(ring, list(target_kept) + list(target_rels),
                      list(target_twists))
    for col in img_cols:
        if col and not full_gb.contains(col):
            raise ConsistencyError("image column leaves the target module")
    if D.hilbert_series() != target_pres.hilbert_series():
        return False, "Hilbert series of source and target differ"
    img_gb = span_gb(ring, [c for c in img_cols if c] + list(target_rels),
                     list(target_twists))
    for k in target_kept:
        if not img_gb.contains(k):
            return False, "map is not surjective"
    return True, "surjective with equal Hilbert series"


# -- semidualizing certificates ----------------------------------------------


@dataclass
class SemidualizingCertificate:
    valid: bool
    homothety_is_iso: bool
    ext_bound: int | None  # checked Ext^i(C,C)=0 for 1<=i<=bound; None = exact
    failure: str = ""

    def status_label(self) -> str:
        if not self.valid:
            return "Failed"
        if self.ext_bound is None:
            return "Exact"
        return f"BoundedTrue({self.ext_bound})"


def is_semidualizing(C: ModulePresentation, bound=None, *,
                     budgets=None) -> SemidualizingCertificate:
    """Homothety R -> Hom(C, C) must be an iso and Ext^i(C,C) must vanish.

    The homothety test is exact; self-Ext vanishing is scanned through
    the bound, except for free rank-one C where it is exact.
    """
    R = C.ring
    bound = bound if bound is not None else default_bound(R)
    Cmin = minimalize(C)
    if Cmin.is_zero():
        return SemidualizingCertificate(False, False, None, "zero module")
    if Cmin.n_rels() == 0:
        if Cmin.n_gens() == 1:
            return SemidualizingCertificate(True, True, None)
        return SemidualizingCertificate(
            False, False, None, "free of rank > 1 is not semidualizing"
        )
    # the canonical module of a CM ring is semidualizing; exact certificate
    if ring_is_cm(R) and is_canonical_module(Cmin):
        return SemidualizingCertificate(True, True, None)
    pres, kept, h0 = hom_with_realizations(Cmin, Cmin, budgets=budgets)
    q = Cmin.n_gens()
    rels = _per_slot_relations(q, q, Cmin)
    one = R.poly_ring.one()
    identity_col = {t * q + t: one for t in range(q)}
    ok, reason = graded_map_is_iso(
        _ring_unit(R), pres, kept, h0, rels, [identity_col]
    )
    if not ok:
        return SemidualizingCertificate(False, False, None,
                                        f"homothety: {reason}")
    for i in range(1, bound + 1):
        if not ext(Cmin, Cmin, i, budgets=budgets).is_zero():
            return SemidualizingCertificate(
                False, True, None, f"Ext^{i}(C,C) != 0"
            )
    return SemidualizingCertificate(True, True, bound)


# -- Auslander class ----------------------------------------------------------


def _finite_pd(M: ModulePresentation, *, budgets=None):
    """Exact projective dimension if finite, else None (exact dichotomy).

    A module of finite pd has pd <= depth R, so incompleteness at
    depth R + 1 steps certifies infinite projective dimension.
    """
    R = M.ring
    res = minimal_free_resolution(M, ring_depth(R) + 1, budgets=budgets)
    if res.complete:
        return res.projective_dimension()
    return None


def in_auslander_class(M: ModulePresentation, C: ModulePresentation,
                       bound=None, *, budgets=None) -> BoundedVerdict:
    """Membership in the Auslander class of C.

    Exact True for finite projective dimension; otherwise the natural
    map M -> Hom(C, M (x) C) is tested exactly and the Tor/Ext vanishing
    families are scanned through the bound, interleaved so that failures
    surface at the smallest witness index.
    """
    budgets = budgets or DEFAULT_BUDGETS
    R = M.ring
    bound = bound if bound is not None else default_bound(R)
    A = minimalize(M)
    if A.is_zero():
        return BoundedVerdict("true", note="zero module")
    Cmin = minimalize(C)
    key = memo.content_hash(A.content_key(), Cmin.content_key(), str(bound),
                            repr(budgets))
    return memo.cached("auslander", key, _auslander, A, Cmin, bound, budgets)


def _auslander(A: ModulePresentation, Cmin: ModulePresentation, bound: int,
               budgets) -> BoundedVerdict:
    R = A.ring
    pd = _finite_pd(A, budgets=budgets)
    if pd is not None:
        return BoundedVerdict("true", note=f"finite projective dimension {pd}")
    T_raw, _, Bc = tensor_raw(A, Cmin)
    qc, qT = Bc.n_gens(), T_raw.n_gens()
    pres, kept, h0 = _hom_cohomology(Bc, T_raw, 0, budgets)
    rels = _per_slot_relations(qc, qT, T_raw)
    one = R.poly_ring.one()
    mu_cols = [
        {t * qT + (i * qc + t): one for t in range(qc)}
        for i in range(A.n_gens())
    ]
    ok, reason = graded_map_is_iso(A, pres, kept, h0, rels, mu_cols)
    if not ok:
        return BoundedVerdict(
            "false", witness=f"natural map M -> Hom(C, M(x)C): {reason}"
        )
    MC = None
    try:
        for i in range(1, bound + 1):
            if not tor(A, Cmin, i, budgets=budgets).is_zero():
                return BoundedVerdict("false", witness=f"Tor_{i}(M, C) != 0")
            if MC is None:
                MC = minimalize(T_raw)
            if not ext(Cmin, MC, i, budgets=budgets).is_zero():
                return BoundedVerdict("false",
                                      witness=f"Ext^{i}(C, M(x)C) != 0")
    except BudgetError as e:
        return BoundedVerdict("unknown", bound=i - 1,
                              note=f"budget exhausted: {e}")
    return BoundedVerdict("bounded", bound=bound)


# -- G-dimension with respect to a semidualizing module -----------------------


@dataclass(frozen=True)
class GcDimVerdict:
    kind: str  # "zero" | "finite" | "infinite" | "unknown"
    value: int | None
    bound: int | None  # None = exact
    note: str = ""

    def exact(self) -> bool:
        return self.bound is None

    def is_finite(self) -> bool:
        return self.kind in ("zero", "finite")

    def status_label(self) -> str:
        if self.kind == "unknown":
            return "Unknown"
        if self.exact():
            return "Exact"
        return f"BoundedTrue({self.bound})"

    def __str__(self):
        if self.kind == "zero":
            base = "0"
        elif self.kind == "finite":
            base = str(self.value)
        elif self.kind == "infinite":
            base = "infinite"
        else:
            base = "unknown"
        tag = "exact" if self.exact() else f"bound {self.bound}"
        note = f"; {self.note}" if self.note else ""
        return f"{base} ({tag}{note})"


def gc_dim(M: ModulePresentation, C: ModulePresentation, bound=None, *,
           budgets=None) -> GcDimVerdict:
    """G-dimension of M with respect to C.

    When finite it equals depth R - depth M.  Exact certificates: the
    ring is Gorenstein and C is free of rank one; C is the canonical
    module; or M has finite projective dimension.  Otherwise vanishing
    of the defining Ext families for the (depth gap)-th syzygy is
    scanned through the bound, where any nonvanishing witness proves the
    dimension infinite exactly.
    """
    budgets = budgets or DEFAULT_BUDGETS
    R = M.ring
    bound = bound if bound is not None else default_bound(R)
    A = minimalize(M)
    if A.is_zero():
        return GcDimVerdict("zero", 0, None, "zero module")
    Cmin = minimalize(C)
    key = memo.content_hash(A.content_key(), Cmin.content_key(), str(bound),
                            repr(budgets))
    return memo.cached("gc-dim", key, _gc_dim, A, Cmin, bound, budgets)


def _gc_dim(A: ModulePresentation, Cmin: ModulePresentation, bound: int,
            budgets) -> GcDimVerdict:
    R = A.ring
    r = ring_depth(R) - depth(A)
    certificate = None
    if Cmin.n_rels() == 0 and Cmin.n_gens() == 1 and ring_is_gorenstein(R):
        certificate = "Gorenstein ring, free coefficient module"
    elif is_canonical_module(Cmin):
        certificate = "canonical coefficient module"
    else:
        pd = _finite_pd(A, budgets=budgets)
        if pd is not None:
            certificate = f"finite projective dimension {pd}"
    if certificate is not None:
        if r == 0:
            return GcDimVerdict("zero", 0, None, certificate)
        return GcDimVerdict("finite", r, None, certificate)
    if r < 0:
        return GcDimVerdict(
            "infinite", None, None,
            "depth M exceeds depth R, impossible at finite G-dimension"
        )
    try:
        X = syzygy(A, r, budgets=budgets)
        Xmin = minimalize(X)
        if Xmin.is_zero():
            return GcDimVerdict("finite" if r else "zero", r, None,
                                "syzygy vanishes")
        TX = transpose_wrt(Xmin, Cmin)
        for i in range(1, bound + 1):
            if not ext(Xmin, Cmin, i, budgets=budgets).is_zero():
                return GcDimVerdict(
                    "infinite", None, None,
                    f"Ext^{i + r}(M, C) != 0 beyond the depth gap {r}"
                )
            if not ext(TX, Cmin, i, budgets=budgets).is_zero():
                return GcDimVerdict(
                    "infinite", None, None,
                    f"Ext^{i}(Tr_C of the {r}-th syzygy, C) != 0"
                )
    except BudgetError as e:
        return GcDimVerdict("unknown", None, bound, f"budget exhausted: {e}")
    if r == 0:
        return GcDimVerdict("zero", 0, bound)
    return GcDimVerdict("finite", r, bound)


# -- perfect ideals and induced semidualizing modules -------------------------


def is_gc_perfect_ideal(R: GradedRing, ideal_gens, C: ModulePresentation,
                        bound=None, *, budgets=None):
    """(verdict, grade, gc-dim verdict) for the cyclic module R/(ideal)."""
    Q = cyclic_module(R, ideal_gens)
    if minimalize(Q).is_zero():
        raise InapplicableError("the ideal is the unit ideal")
    g = grade_module(Q)
    v = gc_dim(Q, C, bound=bound, budgets=budgets)
    if not v.is_finite():
        return BoundedVerdict("false", witness=str(v)), g, v
    if (v.value or 0) != g:
        return BoundedVerdict(
            "false", witness=f"grade {g} != G-dimension {v.value}"
        ), g, v
    kind = "true" if v.exact() else "bounded"
    return BoundedVerdict(kind, bound=v.bound), g, v


def is_gc_gorenstein_ideal(R: GradedRing, ideal_gens, C: ModulePresentation,
                           bound=None, *, budgets=None):
    """G_C-perfect with cyclic top Ext module."""
    perfect, g, v = is_gc_perfect_ideal(R, ideal_gens, C, bound=bound,
                                        budgets=budgets)
    if not perfect.holds():
        return perfect, g
    K = ext(cyclic_module(R, ideal_gens), C, g, budgets=budgets)
    if minimalize(K).n_gens() != 1:
        return BoundedVerdict(
            "false", witness=f"Ext^{g}(R/ideal, C) is not cyclic"
        ), g
    return BoundedVerdict(perfect.kind, bound=perfect.bound), g


def induced_semidualizing(R: GradedRing, ideal_gens, C: ModulePresentation,
                          bound=None, *, budgets=None):
    """K = Ext^g(R/a, C) presented over R/a, with its own certificate.

    For a G_C-perfect ideal a this is semidualizing over R/a.
    """
    perfect, g, _ = is_gc_perfect_ideal(R, ideal_gens, C, bound=bound,
                                        budgets=budgets)
    if not perfect.holds():
        raise InapplicableError(
            f"ideal is not G_C-perfect: {perfect.describe()}"
        )
    Q = cyclic_module(R, ideal_gens)
    K = ext(Q, C, g, budgets=budgets)
    Rq = R.quotient_by([g_ for g_ in ideal_gens])
    Kq = minimalize(change_ring(minimalize(K), Rq))
    cert = is_semidualizing(Kq, bound=bound, budgets=budgets)
    return Kq, cert


def is_reduced_gc_perfect(M: ModulePresentation, C: ModulePresentation,
                          bound=None, *, budgets=None):
    """gcdim M = reduced grade, both finite and positive."""
    v = gc_dim(M, C, bound=bound, budgets=budgets)
    if v.kind != "finite" or not v.value:
        return BoundedVerdict(
            "false", witness=f"G-dimension {v} is not finite positive"
        ), v, None
    rg = reduced_grade(M, C, bound=max(bound or 0, v.value), budgets=budgets)
    if rg.value != v.value:
        return BoundedVerdict(
            "false", witness=f"reduced grade {rg} != G-dimension {v.value}"
        ), v, rg
    kind = "true" if v.exact() else "bounded"
    return BoundedVerdict(kind, bound=v.bound), v, rg
