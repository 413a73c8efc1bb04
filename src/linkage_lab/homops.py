"""Homological operations on presented modules.

Hom, Ext and Tor are computed by one routine in two steps, `_cycles`
then `_homology`: the (co)homology at one spot of Hom(F., N) or
F. (x) N, for a free resolution F. of M, as an explicitly presented
subquotient of a free module built on (F-generator, N-generator)
coordinate pairs.  Hom(M, N) is the spot 0 of Hom(F., N) with
F_1 -> F_0 M's own presentation; its generators come with realizations
(actual matrices): `evaluation_map` builds M -> sum_t N(tau_t) from them
for pushforwards and the embedding-into-free test.  `_hom_cycles` stops
after the first step, for the natural-map and homothety test, which
needs only the cycles and relations of Hom(C, M (x) C), and runs it only
once the series of Hom read from the image side has matched HS(M) (see
`invariants._natural_map_is_iso`), and for the isomorphism search, which
spans Hom(A, B)_0 by monomial multiples of the cycles (see
`isomorphism.degree_zero_maps`).

Ext into the canonical module (up to a twist) over a Cohen-Macaulay
quotient ring is computed exactly through ambient duality over the
polynomial ring, where resolutions are finite.  Three exact checks guard
that route: the Euler characteristic identity of the ambient profile it
reads (see `invariants`), a certificate per coefficient module and twist
that the route sends the unit module to that coefficient module, and
the direct computation as an oracle for i = 0.

The transpose with respect to C is the cokernel of Hom(d_1, C) for a
minimal presentation d_1; the transpose is Tr = Tr_R, and the linkage
operator is the first syzygy of the transpose.  A test-only fault hook
can disable the minimalization inside transpose to let the theorem
harness demonstrate that it detects false statements.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import memo
from .config import DEFAULT_BUDGETS
from .errors import ConsistencyError, InapplicableError
from .modules import (
    ModulePresentation,
    change_ring,
    column_syzygies,
    free_module,
    minimalize,
    subquotient,
    twist_module,
    zero_module,
)
from .resolutions import minimal_free_resolution

# Test-only fault injection: when "skip-minimalize-transpose" is active,
# transpose dualizes the raw presentation and returns it unminimalized.
_ACTIVE_FAULTS: set = set()


def set_fault(name: str, active: bool):
    """Switch a fault on or off.  Memo entries computed through transpose
    (the linkage report, say) do not name the faults in their keys, so
    the memo is emptied: no value computed on one side is served on the
    other."""
    memo.clear()
    if active:
        _ACTIVE_FAULTS.add(name)
    else:
        _ACTIVE_FAULTS.discard(name)


def fault_active(name: str) -> bool:
    return name in _ACTIVE_FAULTS


# -- transpose and the linkage operator -------------------------------------


def transpose(M: ModulePresentation) -> ModulePresentation:
    """Tr M = Tr_R M: the transpose with respect to the ring itself."""
    unit = free_module(M.ring, [0])
    if fault_active("skip-minimalize-transpose"):
        return _transpose_raw(M.reduce_entries(), unit)
    return _transpose_wrt(minimalize(M), unit)


def syzygy(M: ModulePresentation, i: int, *, budgets=None) -> ModulePresentation:
    """i-th syzygy in the minimal resolution; syzygy(M, 0) = minimalize(M)."""
    if i < 0:
        raise ValueError("syzygy index must be >= 0")
    if i == 0:
        return minimalize(M)
    res = minimal_free_resolution(M, i + 1, budgets=budgets)
    return res.syzygy_module(i)


def lambda_module(M: ModulePresentation, *, budgets=None) -> ModulePresentation:
    """The linkage operator: first syzygy of the transpose."""
    return syzygy(transpose(M), 1, budgets=budgets)


# -- Hom / tensor / Ext / Tor as presented subquotients ---------------------
#
# Hom(F, N) for a free F with twists w is presented on coordinates
# (t, r) -> t*q + r with twist gN[r] - w[t]; an element is the matrix of
# a homomorphism F -> N.  Tensor F (x) N uses twist w[t] + gN[r].


def _hom_twists(w, gN):
    return [gN[r] - w[t] for t in range(len(w)) for r in range(len(gN))]


def _tensor_twists(w, gN):
    return [w[t] + gN[r] for t in range(len(w)) for r in range(len(gN))]


def _per_slot_relations(n_slots: int, q: int, B: ModulePresentation) -> list:
    """Columns embedding N's relations into every slot of Hom/tensor."""
    out = []
    for t in range(n_slots):
        for col in B.columns:
            out.append({t * q + r: p for r, p in col.items()})
    return out


def _dual_map_images(d_cols, n_from, q):
    """Images of Hom(F_i, N) basis vectors under composition with d.

    d: F_{i+1} -> F_i has columns d_cols over F_i rows; the dual map sends
    eps_(t,r) to sum_u d[t,u] * eps_(u,r) in Hom(F_{i+1}, N).
    """
    out = []
    for t in range(n_from):
        for r in range(q):
            img = {}
            for u, col in enumerate(d_cols):
                p = col.get(t)
                if p is not None and not p.is_zero():
                    img[u * q + r] = p
            out.append(img)
    return out


def _tensor_map_images(d_cols, q):
    """Images of F_{i} (x) N basis vectors under d (x) id in F_{i-1} (x) N."""
    out = []
    for u, col in enumerate(d_cols):
        for r in range(q):
            img = {}
            for t, p in col.items():
                if not p.is_zero():
                    img[t * q + r] = p
            out.append(img)
    return out


def _cycles(ring, images, image_twists, image_rels, budgets):
    """The cycles at a free spot whose outgoing map sends coordinate k to
    images[k] in a free module with twists `image_twists`, modulo the
    columns `image_rels`: the kernel of that map (every coordinate when
    all images are zero)."""
    return column_syzygies(ring, images, image_twists, extra=image_rels,
                           max_degree=budgets.max_degree)


def _homology(ring, twists, cycles, rels, budgets):
    """(presentation, kept cycles) of the homology at a free spot with
    coordinate twists `twists`: the span of `cycles` modulo `rels`."""
    return subquotient(ring, twists, cycles, rels,
                       max_degree=budgets.max_degree)


def _spots(A: ModulePresentation, i: int, budgets):
    """(twists, maps) of a free resolution of A long enough for spot i:
    A's own presentation F_1 -> F_0 for i = 0, else the minimal one."""
    if i == 0:
        return [A.gen_twists, A.rel_twists], [A.columns]
    res = minimal_free_resolution(A, i + 1, budgets=budgets)
    return res.twists, res.maps


def _hom_cycles(A: ModulePresentation, B: ModulePresentation, i: int,
                budgets):
    """(coordinate twists, cycles, relations) of spot i of Hom(F., B) for
    a free resolution F. of A (see _spots): H^i is the span of the
    cycles modulo the relations, on the coordinates (t, r) -> t*q + r of
    Hom(F_i, B) over the generators of B.  No twists when the spot is
    zero."""
    ring = A.ring
    q = B.n_gens()
    if q == 0 or A.n_gens() == 0:
        return [], [], []
    twists, maps = _spots(A, i, budgets)
    w_i = twists[i] if i < len(twists) else ()
    if not w_i:
        return [], [], []
    d_next, w_next = (maps[i], twists[i + 1]) if i < len(maps) else ([], ())
    h_i = _hom_twists(w_i, B.gen_twists)
    rels = _per_slot_relations(len(w_i), q, B)
    if i > 0:
        # images of Hom(F_{i-1}, B) basis vectors inside Hom(F_i, B)
        rels += [img for img in _dual_map_images(maps[i - 1],
                                                 len(twists[i - 1]), q) if img]
    cycles = _cycles(ring, _dual_map_images(d_next, len(w_i), q),
                     _hom_twists(w_next, B.gen_twists),
                     _per_slot_relations(len(w_next), q, B), budgets)
    return h_i, cycles, rels


def _hom_cohomology(A: ModulePresentation, B: ModulePresentation, i: int,
                    budgets):
    """H^i of Hom(F., B) for a free resolution F. of A (see _hom_cycles):
    (presentation, cocycle realizations, coordinate twists of Hom(F_i, B)).

    B may be any presentation.  For i = 0 this is Hom(A, B), each
    realization the matrix of a homomorphism.
    """
    h_i, cycles, rels = _hom_cycles(A, B, i, budgets)
    if not h_i:
        return zero_module(A.ring), [], []
    pres, kept = _homology(A.ring, h_i, cycles, rels, budgets)
    return pres, kept, h_i


def hom_with_realizations(M: ModulePresentation, N: ModulePresentation, *,
                          budgets=None):
    """(presentation of Hom(M, N), generator matrices, coordinate twists).

    Each returned generator realization is a column on the coordinates
    (i, r) -> i*q + r: the matrix sending M's generator i to an element
    of N's cover.
    """
    if M.ring != N.ring:
        raise ValueError("hom over different rings")
    return _hom(minimalize(M), minimalize(N), budgets or DEFAULT_BUDGETS)


def _hom(A: ModulePresentation, B: ModulePresentation, budgets):
    """hom_with_realizations for minimal A and B."""
    return memo.cached("hom", _hom_cohomology, A, B, 0, budgets)


def hom_module(M, N, *, budgets=None) -> ModulePresentation:
    return hom_with_realizations(M, N, budgets=budgets)[0]


def dual(M: ModulePresentation, *, budgets=None) -> ModulePresentation:
    return hom_module(M, free_module(M.ring, [0]), budgets=budgets)


def tensor_raw(M: ModulePresentation, N: ModulePresentation):
    """Unminimalized presentation of M (x) N on (i, r) coordinates."""
    if M.ring != N.ring:
        raise ValueError("tensor over different rings")
    A, B = minimalize(M), minimalize(N)
    ring = A.ring
    q = B.n_gens()
    gen_twists = _tensor_twists(A.gen_twists, B.gen_twists)
    cols = _tensor_map_images(A.columns, q) + _per_slot_relations(A.n_gens(), q, B)
    rel_twists = _tensor_twists(A.rel_twists, B.gen_twists) + [
        A.gen_twists[i] + B.rel_twists[s]
        for i in range(A.n_gens()) for s in range(B.n_rels())
    ]
    return ModulePresentation(ring, gen_twists, rel_twists, cols), A, B


def tensor(M, N) -> ModulePresentation:
    return memo.cached("tensor", _tensor, minimalize(M), minimalize(N))


def _tensor(A: ModulePresentation, B: ModulePresentation):
    """tensor for minimal A and B."""
    return minimalize(tensor_raw(A, B)[0])


def ext(M: ModulePresentation, N: ModulePresentation, i: int, *,
        budgets=None) -> ModulePresentation:
    """Ext^i(M, N) over the common ring R = S/I of M and N.

    When R is a Cohen-Macaulay proper quotient of codimension c in n
    variables and N = omega_R(a) (see `invariants.canonical_twist`), the
    group is exact through ambient duality,
    Ext^i_R(M, omega_R(a)) = Ext^(i+c)_S(M, S)(a - n), read from M's
    ambient profile (whose Euler characteristic is checked once per
    module).  Once per (N, a) the same formula at M = R must give N's
    Hilbert series, which catches a wrong a; for i = 0 the direct route
    runs as an oracle.  A disagreement raises ConsistencyError.  Every
    other case is the cohomology of Hom(minimal resolution of M, N) over
    R.
    """
    if M.ring != N.ring:
        raise ValueError("ext over different rings")
    budgets = budgets or DEFAULT_BUDGETS
    if i < 0:
        raise ValueError("ext index must be >= 0")
    A, B = minimalize(M), minimalize(N)
    return memo.cached("ext", _ext, A, B, i, budgets)


def _ext(A: ModulePresentation, B: ModulePresentation, i: int,
         budgets) -> ModulePresentation:
    """ext for minimal A and B."""
    from .invariants import canonical_twist

    a = canonical_twist(B)
    if a is None:
        return _ext_direct(A, B, i, budgets)
    memo.cached("twist-certificate", _certify_twist, B, a)
    out = _ambient_route(A, i, a, budgets)
    if i == 0:
        direct = _ext_direct(A, B, i, budgets).hilbert_series()
        if direct != out.hilbert_series():
            raise ConsistencyError(
                f"Ext^0 into the canonical module: ambient series "
                f"{out.hilbert_series()} != direct series {direct}"
            )
    return out


def _ambient_route(A: ModulePresentation, i: int, a: int,
                   budgets) -> ModulePresentation:
    """Ext^i_R(A, omega_R(a)) = Ext^(i+c)_S(A, S)(a - n) over a
    Cohen-Macaulay R of codimension c in n variables, read from A's
    ambient profile under the budgets (zero past i + c = n)."""
    from .invariants import _ambient_profile, ring_codim

    ring = A.ring
    exts, _ = _ambient_profile(A, budgets)
    j = i + ring_codim(ring)
    if j >= len(exts):
        return zero_module(ring)
    return minimalize(change_ring(twist_module(exts[j], a - ring.nvars), ring))


def _certify_twist(B: ModulePresentation, a: int) -> bool:
    """The route at the unit module: Ext^0_R(R, omega_R(a)) is omega_R(a),
    which must have the series of B = omega_R(a).  A wrong a shifts it,
    even where every Ext^i(M, B) the route serves is zero."""
    route = _ambient_route(free_module(B.ring, [0]), 0, a,
                           DEFAULT_BUDGETS).hilbert_series()
    if route != B.hilbert_series():
        raise ConsistencyError(
            f"canonical twist {a}: the ambient route gives omega with series "
            f"{route}, the coefficient module has {B.hilbert_series()}"
        )
    return True


def _ext_direct(A: ModulePresentation, B: ModulePresentation, i: int,
                budgets) -> ModulePresentation:
    """Ext^i(A, B) for minimal A, B: cohomology of Hom(resolution of A, B)."""
    return _hom_cohomology(A, B, i, budgets)[0]


def tor(M: ModulePresentation, N: ModulePresentation, i: int, *,
        budgets=None) -> ModulePresentation:
    """Tor_i(M, N): homology of (minimal resolution of M) (x) N."""
    if M.ring != N.ring:
        raise ValueError("tor over different rings")
    budgets = budgets or DEFAULT_BUDGETS
    if i < 0:
        raise ValueError("tor index must be >= 0")
    if i == 0:
        return tensor(M, N)
    A, B = minimalize(M), minimalize(N)
    return memo.cached("tor", _tor, A, B, i, budgets)


def _tor(A: ModulePresentation, B: ModulePresentation, i: int,
         budgets) -> ModulePresentation:
    """tor for minimal A and B and i >= 1."""
    ring = A.ring
    q = B.n_gens()
    if q == 0 or A.n_gens() == 0:
        return zero_module(ring)
    twists, maps = _spots(A, i, budgets)
    w_i = twists[i] if i < len(twists) else ()
    if not w_i:
        return zero_module(ring)
    w_prev = twists[i - 1]
    rels = _per_slot_relations(len(w_i), q, B)
    if i < len(maps):
        rels += [img for img in _tensor_map_images(maps[i], q) if img]
    cycles = _cycles(ring, _tensor_map_images(maps[i - 1], q),
                     _tensor_twists(w_prev, B.gen_twists),
                     _per_slot_relations(len(w_prev), q, B), budgets)
    return _homology(ring, _tensor_twists(w_i, B.gen_twists), cycles, rels,
                     budgets)[0]


def _transpose_raw(A: ModulePresentation, B: ModulePresentation):
    """coker of Hom(d_1, B) for A's presentation d_1, unminimalized."""
    q = B.n_gens()
    cols = (_dual_map_images(A.columns, A.n_gens(), q)
            + _per_slot_relations(A.n_rels(), q, B))
    rel_twists = _hom_twists(A.gen_twists, B.gen_twists) + [
        B.rel_twists[s] - A.rel_twists[j]
        for j in range(A.n_rels()) for s in range(B.n_rels())
    ]
    return ModulePresentation(A.ring, _hom_twists(A.rel_twists, B.gen_twists),
                              rel_twists, cols)


def _transpose_wrt(A: ModulePresentation, B: ModulePresentation):
    """Tr_B A for minimal A and B."""
    return memo.cached("transpose-wrt", _minimal_transpose, A, B)


def _minimal_transpose(A: ModulePresentation, B: ModulePresentation):
    if B.n_gens() == 0 or A.n_gens() == 0:
        return zero_module(A.ring)
    return minimalize(_transpose_raw(A, B))


def transpose_wrt(M: ModulePresentation,
                  C: ModulePresentation) -> ModulePresentation:
    """Transpose with respect to C: coker of Hom(d_1, C)."""
    if M.ring != C.ring:
        raise ValueError("transpose_wrt over different rings")
    return _transpose_wrt(minimalize(M), minimalize(C))


def ext_to_ambient(M: ModulePresentation, i: int, *,
                   budgets=None) -> ModulePresentation:
    """Ext^i over the ambient polynomial ring S of M viewed as S-module."""
    amb = M.over_ambient()
    S = amb.ring
    return ext(amb, free_module(S, [0]), i, budgets=budgets)


# -- pushforward ------------------------------------------------------------


def evaluation_map(M: ModulePresentation, N: ModulePresentation, *,
                   budgets=None):
    """(columns, taus) of the evaluation map M -> sum_t N(tau_t).

    phi_1, ..., phi_m are the minimal generators of Hom(M, N), phi_t of
    degree tau_t; generator i of minimalize(M) goes to columns[i], the
    tuple (phi_t(generator i))_t on the coordinates (t, r) -> t*q + r
    over the q generators of minimalize(N).
    """
    A, B = minimalize(M), minimalize(N)
    q = B.n_gens()
    _, kept, h0 = _hom(A, B, budgets or DEFAULT_BUDGETS)
    taus = []
    for phi in kept:
        idx, p = next(iter(phi.items()))
        taus.append(p.degree() + h0[idx])
    columns = [{t * q + r: p for t, phi in enumerate(kept) for r in range(q)
                if (p := phi.get(i * q + r)) is not None and not p.is_zero()}
               for i in range(A.n_gens())]
    return columns, taus


@dataclass
class Pushforward:
    map_columns: list  # per M-generator: column over codomain coordinates
    codomain_twists: list  # twist of each C-copy
    cokernel: ModulePresentation
    m: int


def universal_pushforward(M: ModulePresentation, C: ModulePresentation, *,
                          budgets=None) -> Pushforward:
    """Embedding M -> C^m from a minimal generating set of Hom(M, C).

    Requires Ext^1(Tr_C M, C) = 0 (which makes the map injective); the
    cokernel N then satisfies Ext^1(N, C) = 0.  Both facts are verified,
    the first through an exact Hilbert-series identity.
    """
    budgets = budgets or DEFAULT_BUDGETS
    obstruction = ext(transpose_wrt(M, C), C, 1, budgets=budgets)
    if not obstruction.is_zero():
        raise InapplicableError(
            "universal pushforward needs a vanishing biduality kernel; "
            "Ext^1(Tr_C M, C) is nonzero"
        )
    A, B = minimalize(M), minimalize(C)
    q = B.n_gens()
    cols, taus = evaluation_map(A, B, budgets=budgets)
    m = len(taus)
    gen_twists = [B.gen_twists[r] - tau for tau in taus for r in range(q)]
    rel_twists = list(A.gen_twists) + [B.rel_twists[s] - tau for tau in taus
                                       for s in range(B.n_rels())]
    N = minimalize(ModulePresentation(
        A.ring, gen_twists, rel_twists, cols + _per_slot_relations(m, q, B)))
    # injectivity certificate: HS(M) + HS(N) = sum_t HS(C) shifted by tau_t
    lhs = A.hilbert_series() + N.hilbert_series()
    rhs = A.hilbert_series() - A.hilbert_series()
    for t in range(m):
        rhs = rhs + B.hilbert_series().shift(-taus[t])
    if lhs != rhs:
        raise ConsistencyError("pushforward failed the exactness series check")
    if not ext(N, C, 1, budgets=budgets).is_zero():
        raise ConsistencyError("pushforward cokernel has nonvanishing Ext^1(-,C)")
    return Pushforward(cols, taus, N, m)


def is_nth_cosyzygy_witness(M: ModulePresentation, C: ModulePresentation,
                            n: int, *, budgets=None):
    """Try to realize M as an n-th C-syzygy by iterated pushforward.

    Returns (True, n) when the chain of universal pushforwards runs for n
    steps, else (False, failed_step).  Failure at step 1 is an exact
    certificate that M is not even a first C-syzygy.
    """
    X = minimalize(M)
    for step in range(1, n + 1):
        if not ext(transpose_wrt(X, C), C, 1,
                   budgets=budgets).is_zero():
            return False, step
        if X.is_zero():
            continue
        X = universal_pushforward(X, C, budgets=budgets).cokernel
    return True, n
