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

M's ambient profile holds the Hilbert series of Ext^j_S(M, S), j = 0..n,
computed once per presentation, with the indices where they are
nonzero.  Only the window grade <= j <= pd is computed:
Ext^j_S(M, S) vanishes below grade(ann M, S) = n - dim M (Rees) and
above pd_S M, which the minimal resolution F. of M over S gives
(Auslander-Buchsbaum bounds it by n).  No group is presented for it.
With delta_j = d_j^T : F_(j-1)^* -> F_j^* and coker delta_0 = F_0^*,
rank-nullity along the dual complex gives

  HS(Ext^j_S(M, S)) = HS(coker delta_j) + HS(coker delta_(j+1))
                      - HS(F_(j+1)^*),

and each HS(coker delta_j) is one plain Groebner run on the transposed
differential, kept out of the memo.  Four checks guard the series when
they are built, and a fifth every group that is presented; each failure
raises ConsistencyError:
  1. Euler identity: sum (-1)^j HS(Ext^j_S(M, S)), which rank-nullity
     makes sum (-1)^j HS(F_j^*), must be K_M(1/t) / (1-t)^n, where K_M is
     the numerator of HS(M): the resolution's graded ranks against HS(M);
  2. for M != 0 both ends of the window are nonzero, since grade and pd
     are attained;
  3. the series vanish below grade = n - dim M: then F_0^* -> ... ->
     F_grade^* is exact up to its last spot, which fixes
     HS(coker delta_grade), the run the window starts from;
  4. dim Ext^j_S(M, S) <= n - j for every j (local duality: the group is
     dual to H^(n-j)_m(M));
  5. `ambient_ext` presents a group only where a caller needs the
     module (the ambient route of `homops.ext`, the annihilators of a
     prime locus, the canonical module), and it must have exactly the
     profile's series.
Checks 1 to 4 are series arithmetic and need no kernel run.  Depth,
dimension, local cohomology degrees, generalized CM-ness, the CM branch
of `serre_tilde`, `homops.ext_vanishes` and the height bounds of a
prime locus read the profile.  The verdicts of
`is_semidualizing`, `in_auslander_class`, `serre_tilde`, `gc_dim` and
`is_canonical_module` are memoized too, keyed by the minimal inputs and
the bound, so a suite asking the same question in several checks
computes it once.  A hit hands every caller the same
object, which is why the verdict classes are frozen.

Local data at primes is exact: `locus_point` decides whether some prime
of R meets a condition on the local depths and dimensions of a tuple of
modules, stratum by stratum, from the annihilators of their ambient Ext
groups, ideal quotients and Hilbert series.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import memo
from .config import INFINITY, default_bound
from .errors import BudgetError, ConsistencyError, InapplicableError
from .groebner import column_degree
from .hilbert import HilbertSeries
from .homops import (
    _dual_map_images,
    _hom_cycles,
    _tensor_twists,
    _transpose_raw,
    ext,
    ext_to_ambient,
    ext_vanishes,
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
    cokernel_series,
    column_syzygies,
    cyclic_module,
    free_module,
    minimalize,
    quotient_series,
    span_gb,
    twist_module,
    zero_module,
    _trimmed,
)
from .resolutions import minimal_free_resolution
from .rings import GradedRing


# -- depth, dimension and local cohomology degrees ---------------------------


def _ambient_profile(M: ModulePresentation) -> tuple:
    """(series, nonzero): series[j] = HS(Ext^j_S(M, S)) for j = 0..n, and
    the ascending j with series[j] != 0; computed once per presentation."""
    return memo.cached("ambient-profile", _ambient_series, M)


def _ambient_series(M: ModulePresentation) -> tuple:
    n = M.ring.nvars
    res = minimal_free_resolution(M.over_ambient(), n + 1)
    pd = res.projective_dimension()
    if pd is None:
        raise ConsistencyError(
            f"the ambient resolution did not end within {n + 1} steps")
    S = res.ring
    zero = HilbertSeries.zero(n)
    # F_j^* = sum S(d) over the twists d of F_j
    free = [HilbertSeries.free(n, [-d for d in res.twists[j]])
            for j in range(pd + 1)] + [zero]
    # Ext^j_S(M, S) = 0 outside grade <= j <= pd (Rees; Auslander-Buchsbaum),
    # and grade = n - dim M over the polynomial ring S (n + 1 for M = 0)
    lo = n - M.hilbert_series().dimension()
    # HS(coker delta_j) for delta_j = d_j^T : F_(j-1)^* -> F_j^*, one plain
    # run per map in the window; coker delta_0 = F_0^*, coker delta_(pd+1) = 0
    coker = {0: free[0], pd + 1: zero}
    for j in range(max(lo, 1), pd + 1):
        images = _dual_map_images(res.maps[j - 1], len(res.twists[j - 1]), 1)
        coker[j] = cokernel_series(
            S, [c for c in images if c], [-d for d in res.twists[j]])
    # Ext^j = ker delta_(j+1) / im delta_j: rank-nullity on both maps
    series = tuple(coker[j] + coker[j + 1] - free[j + 1] if lo <= j <= pd
                   else zero for j in range(n + 1))
    _check_profile(M, series, free, coker.get(lo), pd)
    return series, tuple(j for j, E in enumerate(series) if not E.is_zero())


def _check_profile(M: ModulePresentation, series, free, grade_coker,
                   pd: int) -> None:
    """The four series checks of the module docstring, on M's profile
    `series`, the series `free` of F_0^*, ..., F_pd^* and HS(coker
    delta_grade) (unread for M = 0); each failure raises
    ConsistencyError."""
    n = M.ring.nvars
    # Euler characteristic of Hom(F., S) for a free resolution F. of M:
    # sum_j (-1)^j HS(Ext^j_S(M, S)) = sum_j (-1)^j HS(F_j^*) by
    # rank-nullity, and that is K_M(1/t) / (1-t)^n, where K_M is the
    # numerator of HS(M); a free summand S(-e) of F_j gives t^e to K_M
    # and t^-e to the dual.
    euler = HilbertSeries.zero(n)
    for j, F in enumerate(free):
        euler = euler + F.scale((-1) ** j)
    dual = HilbertSeries(n, {-d: c for d, c in M.hilbert_series().num.items()})
    if euler != dual:
        raise ConsistencyError(
            f"ambient Ext profile fails the Euler characteristic: "
            f"sum (-1)^j HS(Ext^j_S(M, S)) = {euler}, K_M(1/t)/(1-t)^{n} "
            f"= {dual}")
    dim = M.hilbert_series().dimension()
    if dim < 0:
        return
    lo = n - dim
    # both ends of the window are attained: Ext^grade and Ext^pd are nonzero
    if series[lo].is_zero() or series[pd].is_zero():
        raise ConsistencyError(
            f"ambient Ext profile: Ext^{lo}_S(M, S) (grade = n - dim M) or "
            f"Ext^{pd}_S(M, S) (pd of the resolution) is zero")
    # the groups below the grade are zero, so F_0^* -> ... -> F_grade^* is
    # exact up to its last spot, which fixes the cokernel there
    below = HilbertSeries.zero(n)
    for j in range(lo + 1):
        below = below + free[j].scale((-1) ** (lo - j))
    if grade_coker != below:
        raise ConsistencyError(
            f"ambient Ext profile: the series vanish below the grade {lo} = "
            f"n - dim M only if HS(coker delta_{lo}) = {below}, the run "
            f"gives {grade_coker}")
    # local duality: Ext^j_S(M, S) is dual to H^(n-j)_m(M), whose dimension
    # is at most n - j
    for j, E in enumerate(series):
        if E.dimension() > n - j:
            raise ConsistencyError(
                f"ambient Ext profile: Ext^{j}_S(M, S) has dimension "
                f"{E.dimension()} > n - j = {n - j}")


def ambient_ext(M: ModulePresentation, j: int) -> ModulePresentation:
    """Ext^j_S(M, S) presented, for a caller that needs the module and
    not only its series.  The profile comes first; the
    group is computed only where its series is nonzero (so never past n),
    and must have that series (else ConsistencyError)."""
    return memo.cached("ambient-ext", _ambient_ext, M, j)


def _ambient_ext(M: ModulePresentation, j: int) -> ModulePresentation:
    series, _ = _ambient_profile(M)
    if j >= len(series) or series[j].is_zero():
        return zero_module(M.ring.ambient())
    E = ext_to_ambient(M, j)
    if E.hilbert_series() != series[j]:
        raise ConsistencyError(
            f"ambient Ext profile: the presented Ext^{j}_S(M, S) has series "
            f"{E.hilbert_series()}, the profile has {series[j]}")
    return E


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
    series, _ = _ambient_profile(M)
    return all(series[n - i].dimension() <= 0 for i in range(d))


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
        ambient_ext(_ring_unit(R), ring_codim(R)).n_gens() == 1)


def is_mcm(M: ModulePresentation) -> bool:
    """Maximal Cohen-Macaulay: depth M = dim R (zero module passes)."""
    if minimalize(M).is_zero():
        return True
    return depth(M) == ring_dim(M.ring)


def canonical_module(R: GradedRing) -> ModulePresentation:
    """Graded canonical module Ext^c_S(R, S) twisted so that omega_S = S(-n)."""
    return memo.cached("canonical", _canonical_module, R)


def _canonical_module(R: GradedRing) -> ModulePresentation:
    E = ambient_ext(_ring_unit(R), ring_codim(R))
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


# -- exact prime loci ---------------------------------------------------------
#
# By local duality over the regular local ring S_p, a prime p of S
# containing I, of height h = ht_S p, gives depth X_p = h - max J and
# dim X_p = h - min J, where J = {j : p contains ann Ext^j_S(X, S)}
# (Bruns-Herzog 3.5.11); J is empty exactly off the support of X.
#
# A stratum fixes, for each module X of a tuple, (min J, max J) or "off
# the support".  It is V(A) minus V(B): A is I plus the annihilators of the
# groups at min J and max J, and B the product of the annihilators at the
# excluded indices (below min J or above max J, or all of them off the
# support).  Its primes inside the maximal ideal m have exactly the heights
# ht(A : B^inf) through n - 1, and n as well when B is empty, when m itself
# lies in the stratum: every minimal prime q of A : B^inf misses B, so
# q != m, and the nonempty open set D(B) of Spec S/q holds primes of every
# height from ht q to n - 1.  A non-graded prime p inside m has the J of
# the graded prime p* it contains, and ht p = ht p* + 1 <= n - 1, so it
# adds no new (height, local data) pair (Bruns-Herzog 1.5.8-1.5.9).


@dataclass(frozen=True)
class LocusPoint:
    """A prime p of R inside m: its height in S and each module's depth
    at p (INFINITY off its support).  `over` generates A : B^inf for the
    stratum p lies in; it is empty at m."""

    height: int
    depths: tuple
    over: tuple = ()

    def __str__(self):
        if not self.over:
            return "the maximal ideal"
        gens = ", ".join(str(g) for g in self.over)
        return f"a height-{self.height} prime over ({gens})"


def locus_point(modules, condition):
    """A prime of R inside m where condition(h, depths, dims) holds, as a
    LocusPoint, else None; exact.  h is the height of the prime in S, and
    depths and dims hold each module's depth and dimension there, in the
    order of `modules` (INFINITY and -1 off its support).

    m comes first, since its data are the global ones, then m's stratum,
    the one with B empty.  A stratum whose heights, bounded below by the
    series of its chosen groups, never meet the condition is skipped
    before any annihilator is read; the rest are saturated, each
    saturation once per ideals.
    """
    R = modules[0].ring
    n = R.nvars
    profiles = [_ambient_profile(X) for X in modules]
    depths = tuple(depth(X) for X in modules)
    dims = tuple(krull_dim(X) for X in modules)
    if condition(n, depths, dims):
        return LocusPoint(n, depths)
    options = []
    for _, js in profiles:
        pairs = [(lo, hi) for lo in js for hi in js if lo <= hi]
        # (min, max) of all indices first: the first stratum is m's
        pairs.sort(key=lambda pair: pair != (js[0], js[-1]))
        options.append(pairs + [None])
    for stratum in itertools.product(*options):
        point = _stratum_point(R, modules, profiles, stratum, condition)
        if point is not None:
            return point
    return None


def _local_data(stratum, h) -> tuple:
    """(depths, dims) at height h in the stratum."""
    return (tuple(INFINITY if s is None else h - s[1] for s in stratum),
            tuple(-1 if s is None else h - s[0] for s in stratum))


def _stratum_point(R: GradedRing, modules, profiles, stratum, condition):
    """The least-height prime of the stratum below m where the condition
    holds, as a LocusPoint, else None."""
    n = R.nvars
    chosen, excluded = [], []
    for X, (series, js), s in zip(modules, profiles, stratum):
        for j in js:
            if s is None or not s[0] <= j <= s[1]:
                excluded.append((X, j))
            elif j in s:
                chosen.append((X, j, series[j]))
    # V(A) lies in V(I) and in Supp Ext^j_S(X, S) for each chosen (X, j);
    # height n is m's alone, tested already
    floor = max([n - ring_dim(R)] + [n - E.dimension() for _, _, E in chosen])
    heights = [h for h in range(floor, n)
               if condition(h, *_local_data(stratum, h))]
    if not heights:
        return None
    A = _ring_ideal(R, [g for X, j, _ in chosen for g in _ambient_ann(X, j)])
    quotient = cyclic_module(R, A)
    least = n - quotient.hilbert_series().dimension()
    if heights[-1] < least:
        return None
    B = []
    for X, j in excluded:
        b = _ring_ideal(R, _ambient_ann(X, j))
        if all(annihilates(quotient, g) for g in b):
            return None  # V(A) lies in V(b)
        if b not in B:
            B.append(b)
    over = A
    if B:
        over = memo.cached("saturation", _saturation, R, A, tuple(B))
        least = n - cyclic_module(R, over).hilbert_series().dimension()
    hit = next((h for h in heights if h >= least), None)
    if hit is None:
        return None
    return LocusPoint(hit, _local_data(stratum, hit)[0], over)


def _ambient_ann(X: ModulePresentation, j: int) -> list:
    """Generators of ann Ext^j_S(X, S) over S."""
    return annihilator(ambient_ext(X, j))


def _ring_ideal(R: GradedRing, gens) -> tuple:
    """The distinct nonzero normal forms mod I of `gens`, in order."""
    out = []
    for g in gens:
        g = R.nf(g)
        if not g.is_zero() and g not in out:
            out.append(g)
    return tuple(out)


def _saturation(R: GradedRing, A: tuple, B: tuple) -> tuple:
    """Generators of A : (b_1 ... b_r)^inf in R, for the ideals b_i of B:
    A : b_1^inf, then that saturated by b_2, and so on.  Each saturation
    repeats the quotient by b_i until the series of R/(A) stops moving,
    since a quotient only grows its ideal."""
    for b in B:
        series = cyclic_module(R, A).hilbert_series()
        while series.dimension() >= 0:  # A is proper
            Q = _ideal_quotient(R, A, b)
            after = cyclic_module(R, Q).hilbert_series()
            if after == series:
                break
            A, series = Q, after
    return A


def _ideal_quotient(R: GradedRing, A: tuple, b: tuple) -> tuple:
    """Generators of A : b in R: the h with h * (f_1, ..., f_r) in A^r,
    syzygies of one column modulo A in every row (the route of
    `modules._annihilator`), trimmed to a minimal generating set."""
    col = {t: f for t, f in enumerate(b)}
    extra = [{t: a} for t in range(len(b)) for a in A]
    syz = column_syzygies(R, [col], [-f.degree() for f in b], extra=extra)
    return _ring_ideal(R, _trimmed(R.poly_ring, [s[0] for s in syz]))


# -- bounded verdicts ---------------------------------------------------------


@dataclass(frozen=True)
class BoundedVerdict:
    kind: str  # "true" | "false" | "bounded" | "unknown"
    witness: str = ""
    bound: int | None = None
    note: str = ""

    def holds(self) -> bool:
        return self.kind in ("true", "bounded")

    def exact(self) -> bool:
        return self.kind in ("true", "false")

    def status_label(self) -> str:
        if self.kind == "true":
            return "Exact"
        if self.kind == "false":
            return "Failed"
        if self.kind == "bounded":
            return f"BoundedTrue({self.bound})"
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


def serre_tilde(M: ModulePresentation, k: int) -> BoundedVerdict:
    """The depth condition depth M_p >= min(k, depth R_p) at every prime.

    Exact.  Over a CM base ring it is read from dimension bounds on the
    ambient Ext modules alone; otherwise `locus_point` looks for a prime
    that violates it.
    """
    if k < 1:
        raise ValueError("the Serre-type condition needs k >= 1")
    A = minimalize(M)
    if A.is_zero():
        return BoundedVerdict("true", note="zero module")
    if ring_is_cm(M.ring):
        return memo.cached("serre-tilde", _serre_tilde_cm, A, k)
    return memo.cached("serre-tilde", _serre_tilde_locus, A, k)


def _serre_tilde_cm(M: ModulePresentation, k: int) -> BoundedVerdict:
    """S~_k over a CM ring of codimension c, where depth R_p = ht p - c:
    it fails exactly when some j > c in the profile has a group of
    dimension above n - j - k (then a minimal prime of its support
    violates it)."""
    R = M.ring
    n = R.nvars
    c = ring_codim(R)
    series, js = _ambient_profile(M)
    for j in js:
        if j <= c:
            continue
        dim = series[j].dimension()
        if dim > n - j - k:
            return BoundedVerdict(
                "false",
                witness=f"ambient Ext index {j} has dimension {dim} > {n - j - k}",
            )
    return BoundedVerdict("true")


def _serre_tilde_locus(M: ModulePresentation, k: int) -> BoundedVerdict:
    point = locus_point((M, _ring_unit(M.ring)),
                        lambda h, d, _: d[0] < min(k, d[1]))
    if point is None:
        return BoundedVerdict("true")
    dm, dr = point.depths
    return BoundedVerdict(
        "false", witness=f"depth M_p = {dm} < min({k}, depth R_p = {dr}) "
        f"at {point}")


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
        if not ext_vanishes(A, unit, i):
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


def reduced_grade(M: ModulePresentation, C: ModulePresentation,
                  bound=None) -> ReducedGrade:
    """Least i > 0 with Ext^i(M, C) != 0, scanned through the bound."""
    R = M.ring
    bound = bound if bound is not None else default_bound(R)
    A = minimalize(M)
    if A.is_zero():
        return ReducedGrade(None, None)
    for i in range(1, bound + 1):
        if not ext_vanishes(A, C, i):
            return ReducedGrade(i, None)
    verdict = gc_dim(M, C, bound=bound)
    if verdict.kind == "zero":
        return ReducedGrade(None, None if verdict.exact() else bound)
    return ReducedGrade(None, bound)


def n_torsionfree_degree(M: ModulePresentation, cap: int) -> int:
    """max{n <= cap : Ext^i(Tr M, R) = 0 for 1 <= i <= n}."""
    T = transpose(M)
    unit = _ring_unit(M.ring)
    for i in range(1, cap + 1):
        if not ext_vanishes(T, unit, i):
            return i - 1
    return cap


# -- the natural map M -> Hom(C, M (x) C) -------------------------------------


def _natural_map_is_iso(A: ModulePresentation,
                        Cmin: ModulePresentation) -> tuple:
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
    series = _image_side_series(A, Cmin)
    if A.hilbert_series() != series:
        return False, "Hilbert series of source and target differ"
    return _natural_map_by_cycles(A, Cmin, series)


def _image_side_series(A: ModulePresentation,
                       Cmin: ModulePresentation) -> HilbertSeries:
    """HS(Hom(C, X)) for X = A (x) C by the formula of `_natural_map_is_iso`,
    after the natural map's two consistency checks, slot by slot in X.

    X is the memoized minimal tensor; for minimal A and C it keeps every
    generator of `tensor_raw`, in order, so generator i*qc + t of X is
    the image in slot t of A's generator i.  The checks read the basis of
    X's relations that HS(X) builds.  HS(Tr_X C) is one plain run over
    the columns of `_transpose_raw(Cmin, X)` with X presented by that
    basis: the same span in every slot of Hom(F_1, X), entering already
    a Groebner basis.
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
    return out + quotient_series(ring, tr.columns, tr.gen_twists)


def _natural_map_by_cycles(A: ModulePresentation, Cmin: ModulePresentation,
                           series: HilbertSeries) -> tuple:
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
    twists, cycles, rels = _hom_cycles(Bc, T_raw, 0)
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


def is_semidualizing(C: ModulePresentation,
                     bound=None) -> SemidualizingCertificate:
    """Homothety R -> Hom(C, C) must be an iso and Ext^i(C,C) must vanish.

    The homothety test is exact; self-Ext vanishing is scanned through
    the bound, except where `coefficient_facts` certifies C exactly.
    """
    return _verdict("semidualizing", _semidualizing,
                    SemidualizingCertificate(False, None, "zero module"),
                    (C,), bound)


def _semidualizing(Cmin: ModulePresentation,
                   bound: int) -> SemidualizingCertificate:
    facts = coefficient_facts(Cmin)
    if facts.free_rank_one or facts.canonical:
        return SemidualizingCertificate(True, None)
    if Cmin.n_rels() == 0:
        return SemidualizingCertificate(
            False, None, "free of rank > 1 is not semidualizing"
        )
    ok, reason = _natural_map_is_iso(_ring_unit(Cmin.ring), Cmin)
    if not ok:
        return SemidualizingCertificate(False, None, f"homothety: {reason}")
    for i in range(1, bound + 1):
        if not ext_vanishes(Cmin, Cmin, i):
            return SemidualizingCertificate(False, None, f"Ext^{i}(C,C) != 0")
    return SemidualizingCertificate(True, bound)


# -- Auslander class ----------------------------------------------------------


def _finite_pd(M: ModulePresentation):
    """Exact projective dimension if finite, else None (exact dichotomy).

    A module of finite pd has pd <= depth R, so incompleteness at
    depth R + 1 steps certifies infinite projective dimension.
    """
    R = M.ring
    res = minimal_free_resolution(M, ring_depth(R) + 1)
    if res.complete:
        return res.projective_dimension()
    return None


def in_auslander_class(M: ModulePresentation, C: ModulePresentation,
                       bound=None) -> BoundedVerdict:
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
                    bound)


def _verdict(op, compute, zero, modules, bound):
    """`zero` when the first module is zero, else the memoized
    compute(*minimal presentations, bound)."""
    mins = [minimalize(M) for M in modules]
    if mins[0].is_zero():
        return zero
    bound = bound if bound is not None else default_bound(mins[0].ring)
    return memo.cached(op, compute, *mins, bound)


def _auslander(A: ModulePresentation, Cmin: ModulePresentation,
               bound: int) -> BoundedVerdict:
    pd = _finite_pd(A)
    if pd is not None:
        return BoundedVerdict("true", note=f"finite projective dimension {pd}")
    # C = R(a): Tor_i(M, C) = 0, Ext^i(C, -) = 0 and M -> Hom(C, M(a)) is
    # the identity
    if coefficient_facts(Cmin).free_rank_one:
        return BoundedVerdict("true", note="free coefficient module of rank one")
    ok, reason = _natural_map_is_iso(A, Cmin)
    if not ok:
        return BoundedVerdict(
            "false", witness=f"natural map M -> Hom(C, M(x)C): {reason}"
        )
    try:
        for i in range(1, bound + 1):
            if not tor(A, Cmin, i).is_zero():
                return BoundedVerdict("false", witness=f"Tor_{i}(M, C) != 0")
            if not ext_vanishes(Cmin, tensor(A, Cmin), i):
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


def gc_dim(M: ModulePresentation, C: ModulePresentation,
           bound=None) -> GcDimVerdict:
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
                    bound)


def _gc_dim(A: ModulePresentation, Cmin: ModulePresentation,
            bound: int) -> GcDimVerdict:
    r = ring_depth(A.ring) - depth(A)
    certificate = coefficient_facts(Cmin).certificate()
    if certificate is None and is_canonical_module(Cmin):
        # Unsound over a non-CM ring, where omega need not be semidualizing;
        # kept until the suite-noncm-gf ledger is re-seeded (see ROADMAP.md).
        certificate = "canonical coefficient module"
    if certificate is None:
        pd = _finite_pd(A)
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
        X = syzygy(A, r)
        Xmin = minimalize(X)
        if Xmin.is_zero():
            return GcDimVerdict("finite" if r else "zero", r, None,
                                "syzygy vanishes")
        TX = transpose_wrt(Xmin, Cmin)
        for i in range(1, bound + 1):
            if not ext_vanishes(Xmin, Cmin, i):
                return GcDimVerdict(
                    "infinite", None, None,
                    f"Ext^{i + r}(M, C) != 0 beyond the depth gap {r}"
                )
            if not ext_vanishes(TX, Cmin, i):
                return GcDimVerdict(
                    "infinite", None, None,
                    f"Ext^{i}(Tr_C of the {r}-th syzygy, C) != 0"
                )
    except BudgetError as e:
        return GcDimVerdict("unknown", None, bound, f"budget exhausted: {e}")
    return GcDimVerdict("finite" if r else "zero", r, bound)


# -- perfect ideals and induced semidualizing modules -------------------------


def is_gc_perfect_ideal(R: GradedRing, ideal_gens, C: ModulePresentation,
                        bound: int):
    """(verdict, grade) for the cyclic module R/(ideal)."""
    Q = cyclic_module(R, ideal_gens)
    if minimalize(Q).is_zero():
        raise InapplicableError("the ideal is the unit ideal")
    g = grade_module(Q)
    v = gc_dim(Q, C, bound)
    if not v.is_finite():
        return BoundedVerdict("false", witness=str(v)), g
    if (v.value or 0) != g:
        return BoundedVerdict(
            "false", witness=f"grade {g} != G-dimension {v.value}"
        ), g
    kind = "true" if v.exact() else "bounded"
    return BoundedVerdict(kind, bound=v.bound), g


def is_gc_gorenstein_ideal(R: GradedRing, ideal_gens, C: ModulePresentation,
                           bound: int) -> BoundedVerdict:
    """G_C-perfect with cyclic top Ext module."""
    perfect, g = is_gc_perfect_ideal(R, ideal_gens, C, bound)
    if not perfect.holds():
        return perfect
    K = ext(cyclic_module(R, ideal_gens), C, g)
    if minimalize(K).n_gens() != 1:
        return BoundedVerdict(
            "false", witness=f"Ext^{g}(R/ideal, C) is not cyclic"
        )
    return perfect


def induced_semidualizing(R: GradedRing, ideal_gens, C: ModulePresentation,
                          bound: int) -> ModulePresentation:
    """K = Ext^g(R/a, C) presented over R/a.

    For a G_C-perfect ideal a this is semidualizing over R/a.
    """
    perfect, g = is_gc_perfect_ideal(R, ideal_gens, C, bound)
    if not perfect.holds():
        raise InapplicableError(
            f"ideal is not G_C-perfect: {perfect.describe()}"
        )
    K = ext(cyclic_module(R, ideal_gens), C, g)
    return minimalize(change_ring(minimalize(K), R.quotient_by(ideal_gens)))


def is_reduced_gc_perfect(M: ModulePresentation, C: ModulePresentation,
                          bound: int):
    """gcdim M = reduced grade, both finite and positive."""
    v = gc_dim(M, C, bound)
    if v.kind != "finite" or not v.value:
        return BoundedVerdict(
            "false", witness=f"G-dimension {v} is not finite positive"
        ), v
    rg = reduced_grade(M, C, max(bound, v.value))
    if rg.value != v.value:
        return BoundedVerdict(
            "false", witness=f"reduced grade {rg} != G-dimension {v.value}"
        ), v
    kind = "true" if v.exact() else "bounded"
    return BoundedVerdict(kind, bound=v.bound), v
