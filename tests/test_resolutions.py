"""Minimal free resolutions: exactness, Froberg's ranks, independence of
history, the disk store's per-step entries (round trips, one write per
step, damaged entries as misses), and the minimal-admission run against
the per-degree reference it replaced."""

import json
import os
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkage_lab import memo, resolutions
from linkage_lab.cache import DiskStore, install_cache
from linkage_lab.config import DEFAULT_BUDGETS
from linkage_lab.corpus import generate_corpus
from linkage_lab.errors import BudgetError
from linkage_lab.fields import GF, QQ
from linkage_lab.groebner import column_degree
from linkage_lab.modules import (
    ModulePresentation,
    _minimal_gb,
    cyclic_module,
    from_matrix,
    mingens_columns,
    minimal_step,
    minimalize,
    quotient_series,
    span_gb,
)
from linkage_lab.monomials import monomials_of_degree
from linkage_lab.resolutions import minimal_free_resolution, set_resolution_store
from linkage_lab.rings import make_ring

H = make_ring(QQ, ["x", "y"], ["x*y"])
T = make_ring(QQ, ["x", "y", "z"], ["y*z", "x*z", "x*y"])
N = make_ring(GF(32003), ["x", "y", "z", "w"], ["x*z", "x*w", "y*z", "y*w"])
x, y, z = T.poly_ring.gens()
# the modules of the resolve-qq benchmark: the residue field and a module
# with a non-monomial relation
K = cyclic_module(T, ["x", "y", "z"])
W = ModulePresentation(T, [0, 0], [1, 1, 1],
                       [{0: x}, {0: y, 1: y - z}, {1: x}])


def _store_key(M):
    """The key the engine files M's resolution under the default budgets
    in the store, through resolutions._key."""
    return minimalize(M), DEFAULT_BUDGETS


def _terms(maps) -> list:
    """Maps (or lists of candidates) term by term, with the type of each
    coefficient, in the order the polynomials hold their terms."""
    return [[{row: [(m, type(c), c) for m, c in p.terms.items()]
              for row, p in col.items()} for col in cols] for cols in maps]


def _assert_exact(res):
    """Every step is a complex and HS(im d_{i+1}) = HS(ker d_i), through
    HS(F_i / im d_{i+1}) + HS(F_{i-1} / im d_i) = HS(F_{i-1})."""
    ring = res.ring
    maps = list(res.maps) + ([[]] if res.complete else [])
    for i in range(1, len(maps)):
        for col in maps[i]:
            image: dict = {}
            for j, p in col.items():
                for r, q in res.maps[i - 1][j].items():
                    image[r] = image.get(r, ring.poly_ring.zero()) + p * q
            assert all(ring.nf(p).is_zero() for p in image.values())
        left = quotient_series(ring, maps[i], res.twists[i])
        right = quotient_series(ring, maps[i - 1], res.twists[i - 1])
        assert left + right == quotient_series(ring, [], res.twists[i - 1])


def test_resolutions_of_the_benchmark_modules_are_exact():
    memo.clear()
    for M in (K, W):
        res = minimal_free_resolution(M, 8)
        assert res.length() == 8
        _assert_exact(res)


def test_corpus_resolutions_are_exact():
    memo.clear()
    for ring in (H, T, N):
        for _name, M in generate_corpus(ring, 8):
            _assert_exact(minimal_free_resolution(M, 3))


def test_residue_field_has_froberg_ranks():
    """T is Koszul: P(t) = 1 / H_T(-t), all in linear degrees."""
    memo.clear()
    h = [T.hilbert_series().value(d) for d in range(9)]
    p = [1]
    for n in range(1, 9):
        p.append(-sum(h[k] * (-1) ** k * p[n - k] for k in range(1, n + 1)))
    res = minimal_free_resolution(K, 8)
    assert p == [1, 3, 6, 12, 24, 48, 96, 192, 384]
    assert [res.rank(i) for i in range(9)] == p
    assert all(res.twists_at(i) == (i,) * p[i] for i in range(9))


def test_maps_do_not_depend_on_history(tmp_path, monkeypatch):
    steps = []
    for name in ("minimal_step", "column_syzygies"):
        fn = getattr(resolutions, name)
        monkeypatch.setattr(resolutions, name,
                            lambda *a, _fn=fn, **k: steps.append(1) or _fn(*a, **k))
    try:
        for M in (K, W):
            memo.clear()
            once = _terms(minimal_free_resolution(M, 8).maps)
            memo.clear()
            minimal_free_resolution(M, 3)
            assert _terms(minimal_free_resolution(M, 8).maps) == once
            store = os.path.join(str(tmp_path), str(id(M)))
            install_cache(store)
            memo.clear()
            minimal_free_resolution(M, 3)
            # the map entries of d_2 and d_3
            assert len(os.listdir(store)) == 2
            memo.clear()  # the store serves length 3, the rest is rebuilt
            steps.clear()
            loaded = minimal_free_resolution(M, 3)
            assert not steps
            assert _terms(loaded.maps) == once[:3]
            assert _terms(minimal_free_resolution(M, 8).maps) == once
            memo.clear()
            steps.clear()
            assert _terms(minimal_free_resolution(M, 8).maps) == once
            assert not steps
            set_resolution_store(None)
    finally:
        set_resolution_store(None)
        memo.clear()


# -- the disk store, one entry per step -------------------------------------


S3 = make_ring(QQ, ["x", "y", "z"], [])
# kernel_golden's "module-QQ" and "Q" inputs: non-monomial, with
# non-integral coefficients over QQ, and over GF(32003)
_MODULE_QQ = (["x^2 + 1/2*y*z", "y^2", "x*z - z^2", "x*y*z"],
              ["3*x", "y - 2/5*z", "x + y + z", "2*z^2"])


@pytest.mark.parametrize("ring, length", [(S3, 5), (T, 4), (N, 4)],
                         ids=["QQ-complete", "QQ-quotient", "GF"])
def test_store_round_trips_terms_and_coefficient_types(ring, length, tmp_path):
    if ring is N:
        M = cyclic_module(N, ["x + y", "z^2 - 2*w^2"])
    else:
        M = from_matrix(ring, [0, 1], _MODULE_QQ)
    key = _store_key(M)
    try:
        memo.clear()
        cold = minimal_free_resolution(M, length)
        # a scan: each call loads the steps before it and stores the last
        store = install_cache(str(tmp_path))
        for step in range(2, cold.length() + 1):
            memo.clear()
            minimal_free_resolution(M, step)
        memo.clear()
        minimal_free_resolution(M, length)
        memo.clear()
        loaded = minimal_free_resolution(M, length)
        assert loaded.twists == cold.twists
        assert loaded.complete == cold.complete == (ring is S3)
        assert _terms(loaded.maps) == _terms(cold.maps)
        coeffs = [c for cols in cold.maps for col in cols
                  for p in col.values() for c in p.terms.values()]
        assert {type(c) for c in coeffs} == {int if ring is N else Fraction}
        if ring is not N:
            assert any(c.denominator != 1 for c in coeffs)
        assert os.path.exists(store._path(resolutions._key("complete", key))) \
            == (ring is S3)
    finally:
        set_resolution_store(None)
        memo.clear()


def test_each_step_is_written_once(tmp_path, monkeypatch):
    steps, saved, loaded = [], [], []
    for name in ("minimal_step", "column_syzygies"):
        fn = getattr(resolutions, name)
        monkeypatch.setattr(resolutions, name,
                            lambda *a, _fn=fn, **k: steps.append(1) or _fn(*a, **k))
    save, load = DiskStore.save, DiskStore.load
    monkeypatch.setattr(DiskStore, "save",
                        lambda self, k, r: saved.append(k) or save(self, k, r))
    monkeypatch.setattr(DiskStore, "load",
                        lambda self, k: loaded.append(k) or load(self, k))
    key = _store_key(W)
    try:
        memo.clear()
        cold = _terms(minimal_free_resolution(W, 8).maps)
        install_cache(str(tmp_path))
        for length in range(2, 9):
            memo.clear()
            assert _terms(minimal_free_resolution(W, length).maps) == cold[:length]
        want = {resolutions._key("map", key, step) for step in range(2, 9)}
        assert sorted(saved) == sorted(want)
        assert sorted(os.listdir(str(tmp_path))) == sorted(k + ".json" for k in want)
        memo.clear()
        steps.clear()
        saved.clear()
        loaded.clear()
        assert _terms(minimal_free_resolution(W, 3).maps) == cold[:3]
        assert not steps and not saved
        assert loaded == [resolutions._key("map", key, step) for step in (2, 3)]
    finally:
        set_resolution_store(None)
        memo.clear()


def _damage(kind, store, key):
    """Damage the store's d_3 of the module with content key `key`; the
    name of the damaged entry."""
    name = resolutions._key("map", key, 3)
    path = store._path(name)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    entry = json.loads(text)
    if kind == "degree":
        entry["columns"][0][0][1][0][0][0] += 1
    elif kind == "twists":
        entry["twists"][0] += 1
    elif kind == "row":
        entry["columns"][0][0][0] = -1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text[:len(text) // 2] if kind == "truncated"
                 else json.dumps(entry))
    return name


@pytest.mark.parametrize("kind", ["degree", "twists", "row", "truncated"])
def test_a_damaged_entry_is_a_miss(kind, tmp_path, capsys):
    """A wrongly-degreed entry, a twist that disagrees with the entries, a
    row outside F_{i-1} or a truncated file: a warning names the entry,
    and the maps are the ones a cold run builds."""
    memo.clear()
    cold = minimal_free_resolution(W, 6)
    key = _store_key(W)
    try:
        store = install_cache(str(tmp_path))
        memo.clear()
        minimal_free_resolution(W, 4)
        name = _damage(kind, store, key)
        capsys.readouterr()
        memo.clear()
        res = minimal_free_resolution(W, 6)
        assert name in capsys.readouterr().err
        assert res.twists == cold.twists
        assert _terms(res.maps) == _terms(cold.maps)
    finally:
        set_resolution_store(None)
        memo.clear()


def _drop_last_column(store, key, step) -> str:
    """Drop the last column of the store's d_step: the entry stays well
    formed and homogeneous, so only its use can show it is wrong."""
    name = resolutions._key("map", key, step)
    with open(store._path(name), encoding="utf-8") as fh:
        entry = json.load(fh)
    entry["twists"], entry["columns"] = entry["twists"][:-1], entry["columns"][:-1]
    with open(store._path(name), "w", encoding="utf-8") as fh:
        json.dump(entry, fh)
    return name


@pytest.mark.parametrize("kind", ["degree", "truncated", "column", "d4-column"])
def test_a_damaged_entry_is_repaired(kind, tmp_path, capsys, monkeypatch):
    """The run that rejects a damaged d_3, or finds a wrong d_3 or d_4,
    names it and writes it again, so the store is the cold run's and the
    next run loads every step: no warning and no Groebner step.

    A d_3 or d_4 with its last column dropped passes the load checks (it
    is well formed and homogeneous); so does a d_6 with its last column
    dropped, which is not loaded once the next map's rows fall outside
    the shortened F_i.  Only the extension's rebuild from d_1 shows
    them wrong, and it rewrites the first wrong map and every later
    entry."""
    steps = []
    for name in ("minimal_step", "column_syzygies"):
        fn = getattr(resolutions, name)
        monkeypatch.setattr(resolutions, name,
                            lambda *a, _fn=fn, **k: steps.append(1) or _fn(*a, **k))
    memo.clear()
    cold = _terms(minimal_free_resolution(K, 6).maps)
    key = _store_key(K)
    try:
        store = install_cache(str(tmp_path))
        memo.clear()
        minimal_free_resolution(K, 6)
        files = {f: (tmp_path / f).read_bytes() for f in os.listdir(tmp_path)}
        if kind.endswith("column"):
            name = _drop_last_column(store, key, 4 if kind == "d4-column" else 3)
            _drop_last_column(store, key, 6)
        else:
            name = _damage(kind, store, key)
        capsys.readouterr()
        memo.clear()
        assert _terms(minimal_free_resolution(K, 6).maps) == cold
        assert name in capsys.readouterr().err
        assert {f: (tmp_path / f).read_bytes()
                for f in os.listdir(tmp_path)} == files
        memo.clear()
        steps.clear()
        assert _terms(minimal_free_resolution(K, 6).maps) == cold
        assert capsys.readouterr().err == ""
        assert not steps
    finally:
        set_resolution_store(None)
        memo.clear()


@pytest.mark.parametrize("served_by", ["store", "memo"])
def test_a_served_resolution_keeps_the_rank_budget(served_by, tmp_path):
    """F_4 of K has rank 24: a rank budget of 20 stops K at length 6
    whether its steps are computed, loaded or already in the memo."""
    tight = replace(DEFAULT_BUDGETS, max_rank=20)
    memo.clear()
    with pytest.raises(BudgetError):
        minimal_free_resolution(K, 6, budgets=tight)
    try:
        install_cache(str(tmp_path) if served_by == "store" else None)
        memo.clear()
        minimal_free_resolution(K, 6)
        if served_by == "store":
            memo.clear()
        with pytest.raises(BudgetError, match="resolution rank"):
            minimal_free_resolution(K, 6, budgets=tight)
        # the steps within the budget are still served
        assert minimal_free_resolution(K, 3, budgets=tight).rank(3) == 12
    finally:
        set_resolution_store(None)
        memo.clear()


@pytest.mark.parametrize("served_by", ["store", "memo"])
def test_a_served_resolution_keeps_the_degree_budget(served_by, tmp_path):
    """With max_degree 3 the resolution of K to length 4 meets a pair of
    degree 4: it stops whether its steps are computed, loaded or already
    in the memo."""
    tight = replace(DEFAULT_BUDGETS, max_degree=3)
    memo.clear()
    with pytest.raises(BudgetError, match="groebner pair degree"):
        minimal_free_resolution(K, 4, budgets=tight)
    try:
        install_cache(str(tmp_path) if served_by == "store" else None)
        memo.clear()
        minimal_free_resolution(K, 4)
        if served_by == "store":
            memo.clear()
        with pytest.raises(BudgetError, match="groebner pair degree"):
            minimal_free_resolution(K, 4, budgets=tight)
    finally:
        set_resolution_store(None)
        memo.clear()


# over the hypersurface x*y - z^2: the tracked run of step 2 forms a pair
# of degree 10 after its last admission, where a plain run stops at 8
HZ = make_ring(GF(101), ["x", "y", "z"], ["x*y - z^2"])
G = cyclic_module(HZ, ["4*x^2*y + x^2*z + 6*x*z^2", "4*y*z + y^2"])


def _outcome(M, length, budgets):
    try:
        res = minimal_free_resolution(M, length, budgets=budgets)
    except BudgetError as e:
        return str(e)
    return [res.rank(i) for i in range(length + 1)]


@pytest.mark.parametrize("M", [K, G], ids=["K", "G"])
def test_served_budgets_answer_as_a_cold_run(M, tmp_path):
    """For every length and pair-degree or rank budget, a resolution
    served by the memo (computed further, with every step tracked) or by
    the store answers as a cold run does: the same ranks, or the same
    BudgetError first."""
    budgets = [replace(DEFAULT_BUDGETS, max_degree=d) for d in range(3, 11)]
    budgets += [replace(DEFAULT_BUDGETS, max_rank=r) for r in (2, 6)]
    try:
        for length in range(1, 5):
            for tight in budgets:
                memo.clear()
                cold = _outcome(M, length, tight)
                memo.clear()
                minimal_free_resolution(M, 5)
                assert _outcome(M, length, tight) == cold, (length, tight)
                install_cache(str(tmp_path / f"{length}-{tight.max_degree}"
                                  f"-{tight.max_rank}"))
                memo.clear()
                minimal_free_resolution(M, 5)
                memo.clear()
                assert _outcome(M, length, tight) == cold, (length, tight)
                set_resolution_store(None)
    finally:
        set_resolution_store(None)
        memo.clear()


def test_a_budget_stop_leaves_the_store_extendable(tmp_path, capsys):
    """A rank budget of 20 stops K at F_4 after d_2 and d_3: the store then
    holds what a run to length 3 under that budget writes, the maps d_2
    and d_3, so a rerun under it raises without a warning, and a run
    under the default budgets builds the cold maps."""
    tight = replace(DEFAULT_BUDGETS, max_rank=20)
    memo.clear()
    cold = _terms(minimal_free_resolution(K, 6).maps)
    short, stopped = tmp_path / "short", tmp_path / "stopped"
    try:
        install_cache(str(short))
        memo.clear()
        minimal_free_resolution(K, 3, budgets=tight)
        install_cache(str(stopped))
        memo.clear()
        with pytest.raises(BudgetError, match="resolution rank"):
            minimal_free_resolution(K, 6, budgets=tight)
        assert sorted(os.listdir(stopped)) == sorted(os.listdir(short))
        for name in os.listdir(short):
            assert (stopped / name).read_bytes() == (short / name).read_bytes()
        capsys.readouterr()
        memo.clear()
        with pytest.raises(BudgetError, match="resolution rank"):
            minimal_free_resolution(K, 6, budgets=tight)
        memo.clear()
        assert _terms(minimal_free_resolution(K, 6).maps) == cold
        assert capsys.readouterr().err == ""
    finally:
        set_resolution_store(None)
        memo.clear()


def test_a_store_is_per_budget(tmp_path, monkeypatch):
    """A store filled under the default budgets serves nothing to a run
    under a rank budget of 20: every load misses, and the run raises the
    BudgetError a cold one does."""
    tight = replace(DEFAULT_BUDGETS, max_rank=20)
    memo.clear()
    with pytest.raises(BudgetError) as cold:
        minimal_free_resolution(K, 6, budgets=tight)
    hits = []
    load = DiskStore.load

    def counted(self, k):
        entry = load(self, k)
        if entry is not None:
            hits.append(k)
        return entry

    monkeypatch.setattr(DiskStore, "load", counted)
    try:
        install_cache(str(tmp_path))
        memo.clear()
        minimal_free_resolution(K, 6)
        memo.clear()
        hits.clear()
        with pytest.raises(BudgetError) as served:
            minimal_free_resolution(K, 6, budgets=tight)
        assert not hits
        assert str(served.value) == str(cold.value)
    finally:
        set_resolution_store(None)
        memo.clear()


# -- the minimal-admission run against the per-degree reference ------------


def _flat(col) -> dict:
    """A column as {(row, mono): coeff}."""
    return {(pos, m): c for pos, p in col.items() for m, c in p.terms.items()}


def _independent(field, vecs) -> list:
    """Indices i such that vecs[i] (flat) is not a k-linear combination of
    vecs[:i]: Gaussian elimination with the largest term as pivot."""
    pivots: dict = {}
    kept = []
    for i, vec in enumerate(vecs):
        vec = dict(vec)
        while vec:
            top = max(vec)
            piv = pivots.get(top)
            if piv is None:
                inv = field.inv(vec[top])
                pivots[top] = {k: field.mul(c, inv) for k, c in vec.items()}
                kept.append(i)
                break
            factor = vec[top]
            for k, c in piv.items():
                v = field.sub(vec.get(k, field.zero()), field.mul(factor, c))
                if v == field.zero():
                    vec.pop(k, None)
                else:
                    vec[k] = v
    return kept


def _reference_mingens(ring, columns, ambient_twists, extra_lower=()) -> list:
    """Degree by degree: a column is redundant iff it lies in U + (columns
    of strictly lower degree) + (kept columns of the same degree), the
    last by k-linear elimination of normal forms modulo the rest; one
    fresh Groebner basis per degree group."""
    degs = [column_degree(c, ambient_twists) for c in columns]
    order = sorted((i for i in range(len(columns)) if degs[i] is not None),
                   key=lambda i: (degs[i], i))
    lower = list(extra_lower)
    kept: list = []
    i = 0
    while i < len(order):
        d = degs[order[i]]
        group = []
        while i < len(order) and degs[order[i]] == d:
            group.append(order[i])
            i += 1
        gb = span_gb(ring, lower, ambient_twists)
        nfs = [_flat(gb.normal_form(columns[idx])) for idx in group]
        found = [group[j] for j in _independent(ring.field, nfs)]
        kept += found
        lower += [columns[idx] for idx in found]
    return kept


@st.composite
def _candidate_columns(draw):
    """(ring, twists, columns, extra_lower): random homogeneous columns over
    QQ or GF(32003), monomial and not, with zero columns, scalar and
    variable multiples and sums of earlier columns among them."""
    field = draw(st.sampled_from([QQ, GF(32003)]))
    relations = draw(st.sampled_from([[], ["y*z", "x*z", "x*y"], ["x^2"]]))
    ring = make_ring(field, ["x", "y", "z"], relations)
    S = ring.poly_ring
    twists = draw(st.lists(st.integers(0, 1), min_size=1, max_size=2))
    monomial = draw(st.booleans())

    def poly(degree):
        picks = draw(st.lists(st.sampled_from(monomials_of_degree(3, degree)),
                              min_size=1, max_size=1 if monomial else 3,
                              unique=True))
        p = S.zero()
        for m in picks:
            p = p + S.monomial(m, field.from_int(draw(st.integers(-3, 3).filter(bool))))
        return p

    def column():
        kind = draw(st.sampled_from(["zero", "entry", "entry", "full"]))
        if kind == "zero":
            return {}
        degree = max(twists) + draw(st.integers(0, 2))
        positions = range(len(twists)) if kind == "full" else \
            [draw(st.integers(0, len(twists) - 1))]
        return {pos: poly(degree - twists[pos]) for pos in positions}

    columns = [column() for _ in range(draw(st.integers(1, 5)))]
    for _ in range(draw(st.integers(0, 3))):
        a = columns[draw(st.integers(0, len(columns) - 1))]
        b = columns[draw(st.integers(0, len(columns) - 1))]
        kind = draw(st.sampled_from(["scalar", "variable", "sum"]))
        if kind == "scalar":
            derived = {pos: p.scale(field.from_int(2)) for pos, p in a.items()}
        elif kind == "variable":
            v = S.var(draw(st.integers(0, 2)))
            derived = {pos: v * p for pos, p in a.items()}
        elif column_degree(a, twists) == column_degree(b, twists):
            derived = {pos: a.get(pos, S.zero()) + b.get(pos, S.zero())
                       for pos in set(a) | set(b)}
        else:
            derived = dict(b)
        derived = {pos: p for pos, p in derived.items() if not p.is_zero()}
        columns.insert(draw(st.integers(0, len(columns))), derived)
    extra = [column() for _ in range(draw(st.integers(0, 2)))]
    extra = [c for c in extra if c]
    return ring, twists, columns, extra


@settings(max_examples=80, deadline=None)
@given(_candidate_columns())
def test_minimal_run_keeps_what_the_per_degree_reference_keeps(case):
    ring, twists, columns, extra = case
    want = _reference_mingens(ring, columns, twists, extra)
    assert mingens_columns(ring, columns, twists, extra_lower=extra) == want
    if not extra:
        want = _reference_mingens(ring, columns, twists)
        kept, _syz = minimal_step(ring, columns, twists, harvest=True)
        assert kept == want


@settings(max_examples=80, deadline=None)
@given(_candidate_columns())
def test_a_run_records_its_highest_pair_degree(case):
    """.top_degree is the highest deg lcm + twist over pairs of elements
    at one position, and a plain minimal run's .top_degree is at most the
    tracked run's (None when the plain run forms no pair)."""
    ring, twists, columns, extra = case
    plain = _minimal_gb(ring, columns, twists, track=False, extra=extra)
    tracked = _minimal_gb(ring, columns, twists, track=True, extra=extra)
    assert plain.top_degree is None or plain.top_degree <= tracked.top_degree
    for gb in (plain, tracked):
        leads = gb.leading_terms()
        degrees = [sum(map(max, a, b)) + twists[p]
                   for i, (p, a) in enumerate(leads)
                   for q, b in leads[:i] if p == q]
        assert gb.top_degree == (max(degrees) if degrees else None)


def test_a_negative_index_is_refused():
    """Every accessor taking an index refuses i < 0 rather than reading
    F_i from the end of the resolution."""
    H = make_ring(QQ, ["x", "y"], ["x*y"])
    res = minimal_free_resolution(cyclic_module(H, ["x"]), 3)
    for read in (res.rank, res.twists_at, res.betti_row, res.syzygy_module):
        with pytest.raises(ValueError, match="-1 is negative"):
            read(-1)
    with pytest.raises(ValueError, match="-1 is negative"):
        resolutions.betti(cyclic_module(H, ["x"]), -1)
