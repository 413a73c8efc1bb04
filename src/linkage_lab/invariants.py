"""Homological invariants computed through ambient duality.

Over the ambient polynomial ring S in n variables every finitely
generated graded module has a finite free resolution, and grade
sensitivity of Ext gives exact values: depth M = n - max{j :
Ext^j_S(M,S) != 0}, dim M = n - min{...}, and the set {n - j :
Ext^j_S(M,S) != 0} is exactly the set of degrees where local cohomology
at the irrelevant maximal ideal is nonzero.  Everything else here
(Serre conditions, canonical modules, semidualizing certificates,
Auslander classes, G-dimension) builds on that profile plus bounded
Ext/Tor scans whose bounds are reported honestly.  The Auslander-class
natural map M -> Hom(C, M (x) C) reads the Hilbert series of its target
by rank-nullity along Hom(F_1 -> F_0 -> C, M (x) C), and computes the
cycles of Hom only when that series equals HS(M).

Ext into the canonical module over a Cohen-Macaulay ring R = S/I of
codimension c is exact through the same duality:
Ext^i_R(M, omega_R) = Ext^(i+c)_S(M, S)(-n).  `canonical_twist` is the
gate `homops.ext` uses to take that route (the direct computation over R
stays as an oracle for i = 0, and the route itself is certified per
coefficient module and twist), and `ext_vanishing_top` turns
pd_S M = n - depth M into exact vanishing past dim R - depth M.

`coefficient_facts(C)` is the one exact source of facts about a
coefficient module C (free of rank one; canonical over a CM ring) that
`is_semidualizing`, `in_auslander_class`, `gc_dim` and the theorem
checks read before any bounded scan.

The groups Ext^j_S(M, S), j = 0..n, are computed once per presentation
and kept in the memo as M's ambient profile, with the indices where they
are nonzero.  Only the window grade <= j <= pd is computed: Ext^j_S(M, S)
vanishes below grade(ann M, S) = n - dim M (Rees) and above pd_S M,
which the minimal resolution of M over S gives (Auslander-Buchsbaum
bounds it by n); the profile holds the zero module at every other j.
The profile is checked when it is built: the alternating sum of the
Hilbert series must be K_M(1/t) / (1-t)^n, where K_M is the numerator of
HS(M); then, for M != 0, both ends of the window must be nonzero, since
grade and pd are attained.  Either failure raises ConsistencyError.
Ext into the canonical module, depth, dimension, local cohomology
degrees, generalized CM-ness, the CM branch of `serre_tilde` and the
support tests at probe primes all read from it.  The verdicts of
`is_semidualizing`, `in_auslander_class`, `serre_tilde`, `gc_dim` and
`is_canonical_module` are memoized too, keyed by the minimal inputs,
the bound, the budgets and the probe set, so a suite asking the same
question in several checks computes it once.  A hit hands every caller
the same object, which is why the verdict classes are frozen.

Local data at primes is sampled on variable-subset primes P, where
Ext^j_S(M, S) is supported exactly when `annihilates(S/P, g)` holds for
every generator g of its annihilator.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import memo
from .config import DEFAULT_BUDGETS, INFINITY, default_bound
from .errors import BudgetError, ConsistencyError, InapplicableError
from .groebner import column_degree
from .hilbert import HilbertSeries
from .homops import (
    _hom_cycles,
    _tensor_twists,
    _transpose_raw,
    ext,
    ext_to_ambient,
    syzygy,
    tensor,
    tensor_raw,
    tor,
    transpose,
    transpose_wrt,
)
from .modules import (
    ModulePresentation,
    annihilates,
    annihilator,
    change_ring,
    cyclic_module,
    free_module,
    minimalize,
    quotient_series,
    span_gb,
    twist_module,
    zero_module,
)
from .resolutions import minimal_free_resolution
from .rings import GradedRing


# -- depth, dimension and local cohomology degrees ---------------------------


def _ambient_profile(M: ModulePresentation, budgets=None) -> tuple:
    """(exts, nonzero): exts[j] = Ext^j_S(M, S) for j = 0..n, and the
    ascending j with exts[j] != 0; computed once per presentation and
    budgets."""
    budgets = budgets or DEFAULT_BUDGETS
    return memo.cached("ambient-profile", _ambient_exts, M, budgets)


def _ambient_exts(M: ModulePresentation, budgets) -> tuple:
    n = M.ring.nvars
    # Ext^j_S(M, S) = 0 outside grade <= j <= pd (Rees; Auslander-Buchsbaum),
    # and grade = n - dim M over the polynomial ring S
    res = minimal_free_resolution(M.over_ambient(), n + 1, budgets=budgets)
    pd = res.projective_dimension()
    if pd is None:
        raise ConsistencyError(
            f"the ambient resolution did not end within {n + 1} steps")
    dim = M.hilbert_series().dimension()
    lo = n - dim
    zero = zero_module(res.ring)
    exts = tuple(ext_to_ambient(M, j, budgets=budgets) if lo <= j <= pd
                 else zero for j in range(n + 1))
    # Euler characteristic of Hom(F., S) for a free resolution F. of M:
    # sum_j (-1)^j HS(Ext^j_S(M, S)) = K_M(1/t) / (1-t)^n, where K_M is the
    # numerator of HS(M); a free summand S(-e) of F_j gives t^e to K_M
    # and t^-e to the dual.
    euler = HilbertSeries.zero(n)
    for j, E in enumerate(exts):
        euler = euler + E.hilbert_series().scale((-1) ** j)
    dual = HilbertSeries(n, {-d: c for d, c in M.hilbert_series().num.items()})
    if euler != dual:
        raise ConsistencyError(
            f"ambient Ext profile fails the Euler characteristic: "
            f"sum (-1)^j HS(Ext^j_S(M, S)) = {euler}, K_M(1/t)/(1-t)^{n} "
            f"= {dual}")
    # both ends of the window are attained: Ext^grade and Ext^pd are nonzero
    if dim >= 0 and (exts[lo].is_zero() or exts[pd].is_zero()):
        raise ConsistencyError(
            f"ambient Ext profile: Ext^{lo}_S(M, S) (grade = n - dim M) or "
            f"Ext^{pd}_S(M, S) (pd of the resolution) is zero")
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
    return memo.cached("ring-depth", _ring_depth, R)


def _ring_depth(R: GradedRing):
    return depth(_ring_unit(R))


def ring_codim(R: GradedRing) -> int:
    return R.nvars - ring_dim(R)


def ring_is_cm(R: GradedRing) -> bool:
    return memo.cached("ring-cm", _ring_is_cm, R)


def _ring_is_cm(R: GradedRing) -> bool:
    return ring_depth(R) == ring_dim(R)


def ring_is_gorenstein(R: GradedRing) -> bool:
    return memo.cached("ring-gor", _ring_is_gorenstein, R)


def _ring_is_gorenstein(R: GradedRing) -> bool:
    return ring_is_cm(R) and (
        ext_to_ambient(_ring_unit(R), ring_codim(R)).n_gens() == 1)


def is_mcm(M: ModulePresentation) -> bool:
    """Maximal Cohen-Macaulay: depth M = dim R (zero module passes)."""
    if minimalize(M).is_zero():
        return True
    return depth(M) == ring_dim(M.ring)


def canonical_module(R: GradedRing) -> ModulePresentation:
    """Graded canonical module Ext^c_S(R, S) twisted so that omega_S = S(-n)."""
    return memo.cached("canonical", _canonical_module, R)


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
    return memo.cached("is-canonical", _is_canonical, Cmin)


def _is_canonical(Cmin: ModulePresentation) -> bool:
    from .isomorphism import is_isomorphic

    if canonical_twist(Cmin) is not None:
        return True
    omega, _ = _omega_like(Cmin)
    return (Cmin.n_gens() == omega.n_gens()
            and is_isomorphic(Cmin, omega).is_isomorphic())


def _omega_like(B: ModulePresentation) -> tuple:
    """(omega_R(a), a), twisted so that its lowest generator degree is B's."""
    omega = canonical_module(B.ring)
    a = min(omega.gen_twists) - min(B.gen_twists)
    return twist_module(omega, a), a


def canonical_twist(C: ModulePresentation):
    """The a with C = omega_R(a) over a CM proper quotient R, else None.

    Exact but not complete, and no isomorphism search: C matches when its
    minimal presentation equals twist_module(omega, a) entry for entry,
    as every free C of rank one does over a Gorenstein ring.  A polynomial
    ring never matches, which keeps `homops.ext` from recursing.
    """
    R = C.ring
    if R.is_polynomial or not ring_is_cm(R):
        return None
    B = minimalize(C)
    if not B.n_gens():
        return None
    omega, a = _omega_like(B)
    return a if omega == B else None


@dataclass(frozen=True)
class CoefficientFacts:
    """C = R(a), and C = omega_R(a) over a Cohen-Macaulay R (a free C of
    rank one is canonical exactly when R is Gorenstein).  Either makes C
    semidualizing.  A free C puts every module in its Auslander class; a
    canonical C has finite injective dimension and gives every module
    finite G_C-dimension."""

    free_rank_one: bool
    canonical: bool

    def certificate(self):
        """Why every module has finite G_C-dimension, or None."""
        if not self.canonical:
            return None
        return ("Gorenstein ring, free coefficient module"
                if self.free_rank_one else "canonical coefficient module")


def coefficient_facts(C: ModulePresentation) -> CoefficientFacts:
    """The exact coefficient facts of C, read from its minimal presentation."""
    B = minimalize(C)
    free = B.n_rels() == 0 and B.n_gens() == 1
    return CoefficientFacts(free, ring_is_cm(B.ring) and is_canonical_module(B))


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
    it contains every defining relation: `annihilates(S/(W), r)` for each
    reduced relation r.  Extras (see `probe_generators`) are untrusted.
    """
    return memo.cached("probes", _probe_primes, R, tuple(map(tuple, extra)))


def _probe_primes(R: GradedRing, extra) -> tuple:
    S = R.poly_ring
    names = S.names
    out = []
    for mask in range(1 << len(names)):
        subset = [i for i in range(len(names)) if mask >> i & 1]
        gens = [S.var(i) for i in subset]
        prime = cyclic_module(R.ambient(), gens)
        if not all(annihilates(prime, r) for r in R.reduced_relations):
            continue
        label = "(" + ",".join(names[i] for i in subset) + ")" if subset else "(0)"
        out.append(ProbePrime(label, tuple(gens), len(subset)))
    out.sort(key=lambda p: (p.height, p.label))
    for g in extra:
        gens = probe_generators(S, g)
        label = "(" + ",".join(str(p) for p in gens) + ")"
        # the height of (gens) in S; primality is not checked
        quotient = cyclic_module(R.ambient(), list(gens)).hilbert_series()
        out.append(ProbePrime(label, gens, S.nvars - quotient.dimension(),
                              trusted=False))
    return tuple(out)


def probe_generators(S, group) -> tuple:
    """One extra probe prime's generators over S.  ValueError names a
    generator that does not parse over S, is zero, is not homogeneous or
    has degree 0 (then it generates the unit ideal)."""
    gens = []
    for t in group:
        try:
            p = S.parse(t) if isinstance(t, str) else t
        except ValueError as e:
            raise ValueError(f"probe generator {str(t)!r}: {e}") from None
        if p.is_zero() or not p.is_homogeneous():
            raise ValueError(
                f"probe generator {str(t)!r} is zero or not homogeneous")
        if p.degree() == 0:
            raise ValueError(
                f"probe generator {str(t)!r} is a unit: the ideal is not proper")
        gens.append(p)
    return tuple(gens)


def _ann_in_prime(E: ModulePresentation, prime: ProbePrime) -> bool:
    if minimalize(E).is_zero():
        return False
    P = cyclic_module(E.ring.ambient(), prime.gens)
    return all(annihilates(P, g) for g in annihilator(E))


def _supported_indices(M: ModulePresentation, prime: ProbePrime) -> tuple:
    """The j with Ext^j_S(M, S) supported at the prime, ascending."""
    return memo.cached("supported", _supported, M, prime)


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
    if cm:
        return memo.cached("serre-tilde", _serre_tilde_cm, A, k)
    return memo.cached("serre-tilde", _serre_tilde_probes, A, k,
                       tuple(probes))


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


# -- the natural map M -> Hom(C, M (x) C) -------------------------------------


def _natural_map_is_iso(A: ModulePresentation, Cmin: ModulePresentation,
                        budgets) -> tuple:
    """(is it an iso, reason) for the natural map A -> Hom(C, A (x) C),
    generator i to the identity onto slot i of A (x) C, on the coordinates
    (t, s) -> t*qT + s; at A = R it is the homothety R -> Hom(C, C).

    Exact for minimal A: with equal Hilbert series, surjectivity (a
    Groebner span test) forces bijectivity degree by degree.  The series
    of Hom(C, X), X = A (x) C, is read from the image side first (see
    `_image_side_series`): for a minimal presentation F_1 -> F_0 -> C
    with F_0 = sum R(-a_t) and F_1 = sum R(-b_j), the sequence
    0 -> Hom(C, X) -> Hom(F_0, X) -> Hom(F_1, X) -> Tr_X C -> 0 is exact,
    Tr_X C = coker Hom(d_1, X), so by rank-nullity

      HS(Hom(C, X)) = sum_t t^(-a_t) HS(X) - sum_j t^(-b_j) HS(X)
                      + HS(Tr_X C),

    with no kernel computed.  When it differs from HS(A) the map is not
    an iso.  Only when they agree does the kernel route run
    (`_natural_map_by_cycles`), whose own series must match.
    """
    series = _image_side_series(A, Cmin, budgets)
    if A.hilbert_series() != series:
        return False, "Hilbert series of source and target differ"
    return _natural_map_by_cycles(A, Cmin, series, budgets)


def _image_side_series(A: ModulePresentation, Cmin: ModulePresentation,
                       budgets) -> HilbertSeries:
    """HS(Hom(C, X)) for X = A (x) C by the formula of `_natural_map_is_iso`,
    after the natural map's two consistency checks, slot by slot in X.

    X is the memoized minimal tensor; for minimal A and C it keeps every
    generator of `tensor_raw`, in order, so generator i*qc + t of X is
    the image in slot t of A's generator i.  The checks read the basis of
    X's relations that HS(X) builds.  HS(Tr_X C) is one plain run, under
    the budgets, over the columns of `_transpose_raw(Cmin, X)` with X
    presented by that basis: the same span in every slot of Hom(F_1, X),
    entering already a Groebner basis.
    """
    ring = A.ring
    X = tensor(A, Cmin)
    qc = Cmin.n_gens()
    if X.gen_twists != tuple(_tensor_twists(A.gen_twists, Cmin.gen_twists)):
        raise ConsistencyError(
            "minimal tensor of minimal modules pruned or moved a generator")
    rel_gb = span_gb(ring, X.columns, X.gen_twists)
    # slot t of the image of a relation of A
    for col in A.columns:
        for t in range(qc):
            if not rel_gb.contains({i * qc + t: f for i, f in col.items()}):
                raise ConsistencyError("candidate map is not well defined")
    # slot j of Hom(d_1, X) applied to the image of generator i
    for i in range(A.n_gens()):
        for col in Cmin.columns:
            if not rel_gb.contains({i * qc + t: f for t, f in col.items()}):
                raise ConsistencyError("image column leaves the target module")
    hs = X.hilbert_series()
    out = HilbertSeries.zero(ring.nvars)
    for a in Cmin.gen_twists:
        out = out + hs.shift(-a)
    for b in Cmin.rel_twists:
        out = out - hs.shift(-b)
    basis = rel_gb.basis_columns()
    tr = _transpose_raw(Cmin, ModulePresentation(
        ring, X.gen_twists, [column_degree(c, X.gen_twists) for c in basis],
        basis))
    return out + quotient_series(ring, tr.columns, tr.gen_twists,
                                 max_degree=budgets.max_degree)


def _natural_map_by_cycles(A: ModulePresentation, Cmin: ModulePresentation,
                           series: HilbertSeries, budgets) -> tuple:
    """The kernel route of `_natural_map_is_iso`, run when HS(A) equals
    the image-side `series`.  Hom is never presented: it is
    span(cycles + rels) / span(rels) on the coordinates of
    `homops._hom_cycles`, so its Hilbert series is
    HS(F / rels) - HS(F / (cycles + rels)), which must equal `series`
    (else ConsistencyError), and the map is onto iff every cycle lies in
    the span of its images and the relations.
    """
    ring = A.ring
    T_raw, _, Bc = tensor_raw(A, Cmin)
    qc, qT = Bc.n_gens(), T_raw.n_gens()
    twists, cycles, rels = _hom_cycles(Bc, T_raw, 0, budgets)
    hom_series = (quotient_series(ring, rels, twists)
                  - quotient_series(ring, cycles + rels, twists))
    if hom_series != series:
        raise ConsistencyError(
            f"Hom(C, M (x) C): the cycles give series {hom_series}, "
            f"the image side gives {series}")
    one = ring.poly_ring.one()
    img_cols = [{t * qT + i * qc + t: one for t in range(qc)}
                for i in range(A.n_gens())]
    img_gb = span_gb(ring, [c for c in img_cols if c] + rels, twists)
    for k in cycles:
        if not img_gb.contains(k):
            return False, "map is not surjective"
    return True, "surjective with equal Hilbert series"


# -- semidualizing certificates ----------------------------------------------


@dataclass(frozen=True)
class SemidualizingCertificate:
    valid: bool
    ext_bound: int | None  # checked Ext^i(C,C)=0 for 1<=i<=bound; None = exact
    failure: str = ""

    def status_label(self) -> str:
        if not self.valid:
            return "Failed"
        return ("Exact" if self.ext_bound is None
                else f"BoundedTrue({self.ext_bound})")

    def describe(self) -> str:
        if not self.valid:
            return self.failure
        return ("exact certificate" if self.ext_bound is None
                else "homothety exact; self-Ext vanishing scanned")


def is_semidualizing(C: ModulePresentation, bound=None, *,
                     budgets=None) -> SemidualizingCertificate:
    """Homothety R -> Hom(C, C) must be an iso and Ext^i(C,C) must vanish.

    The homothety test is exact; self-Ext vanishing is scanned through
    the bound, except where `coefficient_facts` certifies C exactly.
    """
    return _verdict("semidualizing", _semidualizing,
                    SemidualizingCertificate(False, None, "zero module"),
                    (C,), bound, budgets)


def _semidualizing(Cmin: ModulePresentation, bound: int,
                   budgets) -> SemidualizingCertificate:
    facts = coefficient_facts(Cmin)
    if facts.free_rank_one or facts.canonical:
        return SemidualizingCertificate(True, None)
    if Cmin.n_rels() == 0:
        return SemidualizingCertificate(
            False, None, "free of rank > 1 is not semidualizing"
        )
    ok, reason = _natural_map_is_iso(_ring_unit(Cmin.ring), Cmin, budgets)
    if not ok:
        return SemidualizingCertificate(False, None, f"homothety: {reason}")
    for i in range(1, bound + 1):
        if not ext(Cmin, Cmin, i, budgets=budgets).is_zero():
            return SemidualizingCertificate(False, None, f"Ext^{i}(C,C) != 0")
    return SemidualizingCertificate(True, bound)


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

    Exact True for finite projective dimension or a free C of rank one;
    otherwise the natural map M -> Hom(C, M (x) C) is tested exactly and
    the Tor/Ext vanishing families are scanned through the bound,
    interleaved so that failures surface at the smallest witness index.
    """
    if M.ring != C.ring:
        raise ValueError("in_auslander_class over different rings")
    return _verdict("auslander", _auslander,
                    BoundedVerdict("true", note="zero module"), (M, C),
                    bound, budgets)


def _verdict(op, compute, zero, modules, bound, budgets):
    """`zero` when the first module is zero, else the memoized
    compute(*minimal presentations, bound, budgets)."""
    mins = [minimalize(M) for M in modules]
    if mins[0].is_zero():
        return zero
    budgets = budgets or DEFAULT_BUDGETS
    bound = bound if bound is not None else default_bound(mins[0].ring)
    return memo.cached(op, compute, *mins, bound, budgets)


def _auslander(A: ModulePresentation, Cmin: ModulePresentation, bound: int,
               budgets) -> BoundedVerdict:
    pd = _finite_pd(A, budgets=budgets)
    if pd is not None:
        return BoundedVerdict("true", note=f"finite projective dimension {pd}")
    # C = R(a): Tor_i(M, C) = 0, Ext^i(C, -) = 0 and M -> Hom(C, M(a)) is
    # the identity
    if coefficient_facts(Cmin).free_rank_one:
        return BoundedVerdict("true", note="free coefficient module of rank one")
    ok, reason = _natural_map_is_iso(A, Cmin, budgets)
    if not ok:
        return BoundedVerdict(
            "false", witness=f"natural map M -> Hom(C, M(x)C): {reason}"
        )
    try:
        for i in range(1, bound + 1):
            if not tor(A, Cmin, i, budgets=budgets).is_zero():
                return BoundedVerdict("false", witness=f"Tor_{i}(M, C) != 0")
            if not ext(Cmin, tensor(A, Cmin), i, budgets=budgets).is_zero():
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
        if self.kind == "infinite":
            return "Failed"
        if self.exact():
            return "Exact"
        return f"BoundedTrue({self.bound})"

    def describe(self) -> str:
        base = {"zero": "0", "finite": str(self.value)}.get(self.kind,
                                                             self.kind)
        tag = "exact" if self.exact() else f"bound {self.bound}"
        note = f"; {self.note}" if self.note else ""
        return f"{base} ({tag}{note})"

    __str__ = describe


def gc_dim(M: ModulePresentation, C: ModulePresentation, bound=None, *,
           budgets=None) -> GcDimVerdict:
    """G-dimension of M with respect to C.

    When finite it equals depth R - depth M.  Exact certificates: the
    `coefficient_facts` of C, or finite projective dimension of M.
    Otherwise vanishing
    of the defining Ext families for the (depth gap)-th syzygy is
    scanned through the bound, where any nonvanishing witness proves the
    dimension infinite exactly.
    """
    if M.ring != C.ring:
        raise ValueError("gc_dim over different rings")
    return _verdict("gc-dim", _gc_dim,
                    GcDimVerdict("zero", 0, None, "zero module"), (M, C),
                    bound, budgets)


def _gc_dim(A: ModulePresentation, Cmin: ModulePresentation, bound: int,
            budgets) -> GcDimVerdict:
    r = ring_depth(A.ring) - depth(A)
    certificate = coefficient_facts(Cmin).certificate()
    if certificate is None and is_canonical_module(Cmin):
        # Unsound over a non-CM ring, where omega need not be semidualizing;
        # kept until the suite-noncm-gf ledger is re-seeded (see ROADMAP.md).
        certificate = "canonical coefficient module"
    if certificate is None:
        pd = _finite_pd(A, budgets=budgets)
        if pd is not None:
            certificate = f"finite projective dimension {pd}"
    if certificate is not None:
        return GcDimVerdict("finite" if r else "zero", r, None, certificate)
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
    return GcDimVerdict("finite" if r else "zero", r, bound)


# -- perfect ideals and induced semidualizing modules -------------------------


def is_gc_perfect_ideal(R: GradedRing, ideal_gens, C: ModulePresentation,
                        bound=None, *, budgets=None):
    """(verdict, grade) for the cyclic module R/(ideal)."""
    Q = cyclic_module(R, ideal_gens)
    if minimalize(Q).is_zero():
        raise InapplicableError("the ideal is the unit ideal")
    g = grade_module(Q)
    v = gc_dim(Q, C, bound=bound, budgets=budgets)
    if not v.is_finite():
        return BoundedVerdict("false", witness=str(v)), g
    if (v.value or 0) != g:
        return BoundedVerdict(
            "false", witness=f"grade {g} != G-dimension {v.value}"
        ), g
    kind = "true" if v.exact() else "bounded"
    return BoundedVerdict(kind, bound=v.bound), g


def is_gc_gorenstein_ideal(R: GradedRing, ideal_gens, C: ModulePresentation,
                           bound=None, *, budgets=None) -> BoundedVerdict:
    """G_C-perfect with cyclic top Ext module."""
    perfect, g = is_gc_perfect_ideal(R, ideal_gens, C, bound=bound,
                                     budgets=budgets)
    if not perfect.holds():
        return perfect
    K = ext(cyclic_module(R, ideal_gens), C, g, budgets=budgets)
    if minimalize(K).n_gens() != 1:
        return BoundedVerdict(
            "false", witness=f"Ext^{g}(R/ideal, C) is not cyclic"
        )
    return perfect


def induced_semidualizing(R: GradedRing, ideal_gens, C: ModulePresentation,
                          bound=None, *, budgets=None) -> ModulePresentation:
    """K = Ext^g(R/a, C) presented over R/a.

    For a G_C-perfect ideal a this is semidualizing over R/a.
    """
    perfect, g = is_gc_perfect_ideal(R, ideal_gens, C, bound=bound,
                                     budgets=budgets)
    if not perfect.holds():
        raise InapplicableError(
            f"ideal is not G_C-perfect: {perfect.describe()}"
        )
    K = ext(cyclic_module(R, ideal_gens), C, g, budgets=budgets)
    return minimalize(change_ring(minimalize(K), R.quotient_by(ideal_gens)))


def is_reduced_gc_perfect(M: ModulePresentation, C: ModulePresentation,
                          bound=None, *, budgets=None):
    """gcdim M = reduced grade, both finite and positive."""
    v = gc_dim(M, C, bound=bound, budgets=budgets)
    if v.kind != "finite" or not v.value:
        return BoundedVerdict(
            "false", witness=f"G-dimension {v} is not finite positive"
        ), v
    rg = reduced_grade(M, C, bound=max(bound or 0, v.value), budgets=budgets)
    if rg.value != v.value:
        return BoundedVerdict(
            "false", witness=f"reduced grade {rg} != G-dimension {v.value}"
        ), v
    kind = "true" if v.exact() else "bounded"
    return BoundedVerdict(kind, bound=v.bound), v
