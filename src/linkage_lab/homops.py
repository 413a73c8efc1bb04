"""Homological operations on presented modules.

Hom, tensor, Ext and Tor are computed as explicitly presented
subquotients of free modules built on (cover generator, target
generator) coordinate pairs; generators of Hom modules come with
realizations (actual matrices), which downstream code uses to build
evaluation maps, homothety maps and pushforwards.

Ext into the canonical module (up to a twist) over a Cohen-Macaulay
quotient ring is computed exactly through ambient duality over the
polynomial ring, where resolutions are finite; the direct computation
stays as a cross-checking oracle for i <= 1.

The transpose dualizes a minimal presentation (dual twists negate); the
linkage operator is the first syzygy of the transpose.  A test-only
fault hook can disable the minimalization inside transpose to let the
theorem harness demonstrate that it detects false statements.
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
    if active:
        _ACTIVE_FAULTS.add(name)
    else:
        _ACTIVE_FAULTS.discard(name)


def fault_active(name: str) -> bool:
    return name in _ACTIVE_FAULTS


# -- transpose and the linkage operator -------------------------------------


def _dualized_presentation(A: ModulePresentation) -> ModulePresentation:
    """coker of the dualized map: gens from relations, twists negated."""
    gen_twists = [-r for r in A.rel_twists]
    rel_twists = [-g for g in A.gen_twists]
    cols = []
    for i in range(A.n_gens()):
        col = {}
        for j, c in enumerate(A.columns):
            p = c.get(i)
            if p is not None and not p.is_zero():
                col[j] = p
        cols.append(col)
    return ModulePresentation(A.ring, gen_twists, rel_twists, cols)


def transpose(M: ModulePresentation) -> ModulePresentation:
    if fault_active("skip-minimalize-transpose"):
        return _dualized_presentation(M.reduce_entries())
    key = minimalize(M).content_key()
    hit = memo.get("transpose", key)
    if hit is not None:
        return hit
    out = minimalize(_dualized_presentation(minimalize(M)))
    return memo.put("transpose", key, out)


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


def hom_with_realizations(M: ModulePresentation, N: ModulePresentation, *,
                          budgets=None):
    """(presentation of Hom(M, N), generator matrices, coordinate twists).

    Each returned generator realization is a column on the coordinates
    (i, r) -> i*q + r: the matrix sending M's generator i to an element
    of N's cover.
    """
    budgets = budgets or DEFAULT_BUDGETS
    if M.ring != N.ring:
        raise ValueError("hom over different rings")
    A, B = minimalize(M), minimalize(N)
    key = memo.content_hash(A.content_key(), B.content_key())
    hit = memo.get("hom", key)
    if hit is not None:
        return hit
    ring = A.ring
    p, q = A.n_gens(), B.n_gens()
    if p == 0 or q == 0:
        result = (zero_module(ring), [], [])
        return memo.put("hom", key, result)
    h0 = _hom_twists(A.gen_twists, B.gen_twists)
    h1 = _hom_twists(A.rel_twists, B.gen_twists)
    images = _dual_map_images(A.columns, p, q)
    v1 = _per_slot_relations(A.n_rels(), q, B)
    gens = column_syzygies(ring, images, h1, extra=v1,
                           max_degree=budgets.max_degree)
    rels = _per_slot_relations(p, q, B)
    pres, kept = subquotient(ring, h0, gens, rels, max_degree=budgets.max_degree)
    result = (pres, kept, h0)
    return memo.put("hom", key, result)


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
    key = memo.content_hash(minimalize(M).content_key(),
                            minimalize(N).content_key())
    hit = memo.get("tensor", key)
    if hit is not None:
        return hit
    raw, _, _ = tensor_raw(M, N)
    return memo.put("tensor", key, minimalize(raw))


def ext(M: ModulePresentation, N: ModulePresentation, i: int, *,
        budgets=None) -> ModulePresentation:
    """Ext^i(M, N) over the common ring R = S/I of M and N.

    When R is a Cohen-Macaulay proper quotient of codimension c in n
    variables and N = omega_R(a) (see `invariants.canonical_twist`), the
    group is exact through ambient duality,
    Ext^i_R(M, omega_R(a)) = Ext^(i+c)_S(M, S)(a - n), from the finite
    resolution of M over S.  For i <= 1 the direct route runs as an
    oracle, and a Hilbert-series disagreement raises ConsistencyError.
    Every other case is the cohomology of Hom(minimal resolution of M, N)
    over R.
    """
    budgets = budgets or DEFAULT_BUDGETS
    if i < 0:
        raise ValueError("ext index must be >= 0")
    A, B = minimalize(M), minimalize(N)
    key = memo.content_hash(A.content_key(), B.content_key(), str(i))
    hit = memo.get("ext", key)
    if hit is not None:
        return hit
    from .invariants import canonical_twist, ring_codim

    a = canonical_twist(B)
    if a is None:
        return memo.put("ext", key, _ext_direct(A, B, i, budgets))
    ring = A.ring
    E = ext_to_ambient(A, i + ring_codim(ring), budgets=budgets)
    out = minimalize(change_ring(twist_module(E, a - ring.nvars), ring))
    if i <= 1:
        direct = _ext_direct(A, B, i, budgets).hilbert_series()
        if direct != out.hilbert_series():
            raise ConsistencyError(
                f"Ext^{i} into the canonical module: ambient series "
                f"{out.hilbert_series()} != direct series {direct}"
            )
    return memo.put("ext", key, out)


def _ext_direct(A: ModulePresentation, B: ModulePresentation, i: int,
                budgets) -> ModulePresentation:
    """Ext^i(A, B) for minimal A, B: cohomology of Hom(resolution of A, B)."""
    ring = A.ring
    q = B.n_gens()
    if q == 0 or A.n_gens() == 0:
        return zero_module(ring)
    res = minimal_free_resolution(A, i + 1, budgets=budgets)
    w_i = res.twists_at(i)
    if not w_i:
        return zero_module(ring)
    h_i = _hom_twists(w_i, B.gen_twists)
    if i < res.length():
        d_next = res.maps[i]
        w_next = res.twists_at(i + 1)
        h_next = _hom_twists(w_next, B.gen_twists)
        images = _dual_map_images(d_next, len(w_i), q)
        v_next = _per_slot_relations(len(w_next), q, B)
        gens = column_syzygies(ring, images, h_next, extra=v_next,
                               max_degree=budgets.max_degree)
    else:
        one = ring.poly_ring.one()
        gens = [{k: one} for k in range(len(w_i) * q)]
    rels = _per_slot_relations(len(w_i), q, B)
    if i > 0:
        d_i = res.maps[i - 1]
        w_prev = res.twists_at(i - 1)
        # images of Hom(F_{i-1}, N) basis vectors inside Hom(F_i, N)
        rels = rels + [
            img for img in _dual_map_images(d_i, len(w_prev), q) if img
        ]
    pres, _ = subquotient(ring, h_i, gens, rels, max_degree=budgets.max_degree)
    return pres


def tor(M: ModulePresentation, N: ModulePresentation, i: int, *,
        budgets=None) -> ModulePresentation:
    """Tor_i(M, N): homology of (minimal resolution of M) (x) N."""
    budgets = budgets or DEFAULT_BUDGETS
    if i < 0:
        raise ValueError("tor index must be >= 0")
    if i == 0:
        return tensor(M, N)
    A, B = minimalize(M), minimalize(N)
    key = memo.content_hash(A.content_key(), B.content_key(), str(i))
    hit = memo.get("tor", key)
    if hit is not None:
        return hit
    ring = A.ring
    q = B.n_gens()
    if q == 0 or A.n_gens() == 0:
        return memo.put("tor", key, zero_module(ring))
    res = minimal_free_resolution(A, i + 1, budgets=budgets)
    w_i = res.twists_at(i)
    if not w_i:
        return memo.put("tor", key, zero_module(ring))
    h_i = _tensor_twists(w_i, B.gen_twists)
    d_i = res.maps[i - 1]
    w_prev = res.twists_at(i - 1)
    h_prev = _tensor_twists(w_prev, B.gen_twists)
    images = _tensor_map_images(d_i, q)
    v_prev = _per_slot_relations(len(w_prev), q, B)
    gens = column_syzygies(ring, images, h_prev, extra=v_prev,
                           max_degree=budgets.max_degree)
    rels = _per_slot_relations(len(w_i), q, B)
    if i < res.length():
        rels = rels + [img for img in _tensor_map_images(res.maps[i], q) if img]
    pres, _ = subquotient(ring, h_i, gens, rels, max_degree=budgets.max_degree)
    return memo.put("tor", key, pres)


def transpose_wrt(M: ModulePresentation, C: ModulePresentation, *,
                  budgets=None) -> ModulePresentation:
    """Transpose with respect to C: coker of Hom(d_1, C)."""
    budgets = budgets or DEFAULT_BUDGETS
    A, B = minimalize(M), minimalize(C)
    key = memo.content_hash(A.content_key(), B.content_key())
    hit = memo.get("transpose-wrt", key)
    if hit is not None:
        return hit
    ring = A.ring
    q = B.n_gens()
    if q == 0 or A.n_gens() == 0:
        return memo.put("transpose-wrt", key, zero_module(ring))
    h1 = _hom_twists(A.rel_twists, B.gen_twists)
    cols = _dual_map_images(A.columns, A.n_gens(), q)
    cols = cols + _per_slot_relations(A.n_rels(), q, B)
    rel_twists = _hom_twists(A.gen_twists, B.gen_twists) + [
        B.rel_twists[s] - A.rel_twists[j]
        for j in range(A.n_rels()) for s in range(B.n_rels())
    ]
    pres = ModulePresentation(ring, h1, rel_twists, cols)
    return memo.put("transpose-wrt", key, minimalize(pres))


def ext_to_ambient(M: ModulePresentation, i: int, *,
                   budgets=None) -> ModulePresentation:
    """Ext^i over the ambient polynomial ring S of M viewed as S-module."""
    amb = M.over_ambient()
    S = amb.ring
    return ext(amb, free_module(S, [0]), i, budgets=budgets)


# -- pushforward ------------------------------------------------------------


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
    obstruction = ext(transpose_wrt(M, C, budgets=budgets), C, 1, budgets=budgets)
    if not obstruction.is_zero():
        raise InapplicableError(
            "universal pushforward needs a vanishing biduality kernel; "
            "Ext^1(Tr_C M, C) is nonzero"
        )
    A, B = minimalize(M), minimalize(C)
    ring = A.ring
    q = B.n_gens()
    _, kept, h0 = hom_with_realizations(A, B, budgets=budgets)
    taus = []
    for col in kept:
        d = None
        for idx, poly in col.items():
            d = poly.degree() + h0[idx]
            break
        taus.append(d)
    m = len(kept)
    # a hom generator of degree tau embeds into the copy C(tau), whose
    # coordinate degrees are B.gen_twists[r] - tau
    gen_twists = [B.gen_twists[r] - taus[t] for t in range(m) for r in range(q)]
    cols = []
    rel_twists = []
    for i in range(A.n_gens()):
        col = {}
        for t in range(m):
            for r in range(q):
                p = kept[t].get(i * q + r)
                if p is not None and not p.is_zero():
                    col[t * q + r] = p
        cols.append(col)
        rel_twists.append(A.gen_twists[i])
    for t in range(m):
        for s, bcol in enumerate(B.columns):
            cols.append({t * q + r: p for r, p in bcol.items()})
            rel_twists.append(B.rel_twists[s] - taus[t])
    N = minimalize(ModulePresentation(ring, gen_twists, rel_twists, cols))
    # injectivity certificate: HS(M) + HS(N) = sum_t HS(C) shifted by tau_t
    lhs = A.hilbert_series() + N.hilbert_series()
    rhs = A.hilbert_series() - A.hilbert_series()
    for t in range(m):
        rhs = rhs + B.hilbert_series().shift(-taus[t])
    if lhs != rhs:
        raise ConsistencyError("pushforward failed the exactness series check")
    if not ext(N, C, 1, budgets=budgets).is_zero():
        raise ConsistencyError("pushforward cokernel has nonvanishing Ext^1(-,C)")
    return Pushforward(cols[: A.n_gens()], list(taus), N, m)


def is_nth_cosyzygy_witness(M: ModulePresentation, C: ModulePresentation,
                            n: int, *, budgets=None):
    """Try to realize M as an n-th C-syzygy by iterated pushforward.

    Returns (True, n) when the chain of universal pushforwards runs for n
    steps, else (False, failed_step).  Failure at step 1 is an exact
    certificate that M is not even a first C-syzygy.
    """
    X = minimalize(M)
    for step in range(1, n + 1):
        if not ext(transpose_wrt(X, C, budgets=budgets), C, 1,
                   budgets=budgets).is_zero():
            return False, step
        if X.is_zero():
            continue
        X = universal_pushforward(X, C, budgets=budgets).cokernel
    return True, n
