"""Acceptance gate: eleven binding criteria, one test and one pass/fail
line each, with the stated runtime tolerances enforced.

Every criterion prints `criterion NN PASS/FAIL: detail` so a plain
pytest -v run shows one line per criterion and the printed detail
surfaces on failure."""

import math
import time

from linkage_lab import memo, resolutions
from linkage_lab.cache import install_cache
from linkage_lab.corpus import classical_rings, corpus_pool
from linkage_lab.dsl import parse
from linkage_lab.fields import QQ
from linkage_lab.homops import (
    ext,
    is_c_torsionless,
    lambda_module,
    tensor,
    transpose,
)
from linkage_lab.invariants import (
    canonical_module,
    depth,
    gc_dim,
    in_auslander_class,
    is_mcm,
    krull_dim,
    local_cohomology_degrees,
    ring_depth,
    ring_is_gorenstein,
)
from linkage_lab.isomorphism import is_isomorphic
from linkage_lab.linkage import is_horizontally_linked, is_stable
from linkage_lab.modules import (
    cyclic_module,
    free_module,
    minimalize,
    twist_module,
)
from linkage_lab.resolutions import betti, set_resolution_store
from linkage_lab.rings import make_ring
from linkage_lab.runner import RunConfig, execute, report_json
from linkage_lab.theorems import (
    TheoremId,
    check,
    default_instances,
    run_suite,
)

_VARS = ["x", "y", "z", "w"]
_pools = None


def _classical_pools():
    global _pools
    if _pools is None:
        _pools = [(name, R, corpus_pool(R)) for name, R in classical_rings()]
    return _pools


def _emit(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_koszul_oracle():
    t0 = time.perf_counter()
    for n in range(1, 5):
        S = make_ring(QQ, _VARS[:n])
        k = cyclic_module(S, _VARS[:n])
        for i in range(n + 1):
            expected = {i: math.comb(n, i)}
            assert betti(k, i) == expected, (n, i)
        assert betti(k, n + 1) == {}
        E = ext(k, free_module(S, [0]), n)
        verdict = is_isomorphic(E, twist_module(k, n))
        assert verdict.is_isomorphic() and verdict.forward and verdict.backward
    wall = time.perf_counter() - t0
    _emit(1, wall < 10.0,
          f"Koszul Betti rows and top Ext match for n<=4 in {wall:.2f}s")


def test_criterion_02_three_way_linkage_criterion():
    t0 = time.perf_counter()
    total = 0
    discrepancies = []
    for name, R, pool in _classical_pools():
        for label, M in pool:
            total += 1
            A = minimalize(M)
            stable, _ = is_stable(A)
            ext1 = ext(transpose(A), free_module(R, [0]), 1).is_zero()
            syz = is_c_torsionless(A, free_module(R, [0]))
            lam2 = lambda_module(lambda_module(A))
            iso = is_isomorphic(A, lam2)
            sides = [stable and ext1, stable and syz]
            if iso.resolved():
                sides.append(iso.is_isomorphic())
            if len(set(sides)) != 1:
                discrepancies.append(f"{label} over {name}")
    wall = time.perf_counter() - t0
    _emit(2, total >= 50 and not discrepancies and wall < 300.0,
          f"three-way linkage criterion agrees on {total} corpus modules "
          f"in {wall:.1f}s; discrepancies: {discrepancies}")


def test_criterion_03_classical_linked_pair():
    H = make_ring(QQ, ["x", "y"], ["x*y"])
    Rx = cyclic_module(H, ["x"])
    Ry = cyclic_module(H, ["y"])
    t0 = time.perf_counter()
    fwd = is_isomorphic(lambda_module(Rx), Ry)
    bwd = is_isomorphic(lambda_module(Ry), Rx)
    wall = time.perf_counter() - t0
    ok = (fwd.is_isomorphic() and bwd.is_isomorphic()
          and all((fwd.forward, fwd.backward, bwd.forward, bwd.backward)))
    _emit(3, ok and wall < 1.0,
          f"lambda swaps R/(x) and R/(y) with witnesses in {wall:.3f}s")


def test_criterion_04_ab_formula():
    checked = 0
    violations = []
    for name, R, pool in _classical_pools():
        R1 = free_module(R, [0])
        rd = ring_depth(R)
        for label, M in pool:
            v = gc_dim(M, R1)
            if v.is_finite():
                checked += 1
                if v.value != rd - depth(M):
                    violations.append(f"{label} over {name}")
    _emit(4, checked > 0 and not violations,
          f"depth formula for finite relative G-dimension holds on "
          f"{checked} modules; violations: {violations}")


def test_criterion_05_local_cohomology_window():
    checked = 0
    violations = []
    for name, R, pool in _classical_pools():
        for label, M in pool:
            lcd = local_cohomology_degrees(M)
            checked += 1
            if not lcd or min(lcd) != depth(M) or max(lcd) != krull_dim(M):
                violations.append(f"{label} over {name}")
    _emit(5, checked >= 50 and not violations,
          f"local cohomology window equals [depth, dim] on {checked} "
          f"modules; violations: {violations}")


def test_criterion_06_depth_transfer_in_auslander_class():
    name, T, pool = _classical_pools()[2]
    w = canonical_module(T)
    members = 0
    violations = []
    for label, M in pool:
        if not in_auslander_class(M, w, bound=8).holds():
            continue
        members += 1
        MC = minimalize(tensor(M, w))
        if depth(MC) != depth(M) or krull_dim(MC) != krull_dim(M):
            violations.append(label)
    _emit(6, members > 0 and not violations,
          f"depth and dim transfer along tensoring with the canonical "
          f"module for {members} class members over {name}; "
          f"violations: {violations}")


def test_criterion_07_serre_versus_reduced_grade_suite():
    hard = []
    runs = 0
    mcm_mismatches = []
    for name, R, pool in _classical_pools():
        if not ring_is_gorenstein(R):
            continue
        R1 = free_module(R, [0])
        for label, M in pool:
            if not is_horizontally_linked(M).linked:
                continue
            lam = lambda_module(M)
            if is_mcm(M) != is_mcm(lam):
                mcm_mismatches.append(f"{label} over {name}")
            for n in (1, 2, 3):
                for tid in (TheoremId.THM_TH1, TheoremId.COR_COR5):
                    report = check(tid, {"M": M, "C": R1, "n": n,
                                         "label": label})
                    runs += 1
                    if (report.verdict == "Refuted"
                            and not report.suspected_counterexample):
                        hard.append(f"{tid} {label} n={n} over {name}")
    _emit(7, runs > 0 and not hard and not mcm_mismatches,
          f"{runs} linkage/depth-condition checks on linked modules over "
          f"Gorenstein rings, zero exact refutations; "
          f"mCM mismatches: {mcm_mismatches}")


def test_criterion_08_depth_sum_equality_instances():
    verified = []
    for name, R, pool in _classical_pools():
        C = free_module(R, [0]) if ring_is_gorenstein(R) \
            else canonical_module(R)
        for label, M in pool:
            report = check(TheoremId.THM_TH4, {"M": M, "C": C,
                                               "label": label})
            if report.verdict == "Verified":
                verified.append(f"{label} over {name}")
            if len(verified) >= 5:
                break
        if len(verified) >= 5:
            break
    _emit(8, len(verified) >= 3,
          f"depth-sum equality verified on {len(verified)} reduced "
          f"relatively-perfect instances: {verified[:3]}...")


def test_criterion_09_hilbert_series_exactness():
    R = make_ring(QQ, ["x", "y"], ["x^2"])
    hs = free_module(R, [0]).hilbert_series()
    shown = str(hs).replace(" ", "")
    _emit(9, shown == "(1+t)/(1-t)",
          f"Hilbert series of the quadric quotient prints as {shown}")


_SUITE_SRC = """\
ring S = poly(QQ, x, y);
ring H = quotient(S, [x*y]);
ring B = poly(QQ, x, y, z);
ring T = quotient(B, [y*z, x*z, x*y]);
suite [] on corpus(H, 8);
suite [] on corpus(T, 8);
"""

_HEAVY_SRC = """\
ring B = poly(QQ, x, y, z);
ring T = quotient(B, [y*z, x*z, x*y]);
module K = coker(T, twists=[0], matrix=[[x, y, z]]);
module W = coker(T, twists=[0, 0], matrix=[[x, y, 0], [0, y - z, x]]);
print betti(K, 8);
print betti(W, 8);
"""


def _counting(fn, calls):
    def counted(*args, **kwargs):
        calls.append(fn)
        return fn(*args, **kwargs)
    return counted


def test_criterion_10_determinism_and_cache(tmp_path, monkeypatch):
    script = parse(_SUITE_SRC)
    first = report_json(execute(script, RunConfig()))
    second = report_json(execute(parse(_SUITE_SRC), RunConfig()))
    identical = first == second

    # the Groebner steps of a resolution; a warm rerun runs none of them
    calls: list = []
    for name in ("minimal_step", "column_syzygies"):
        monkeypatch.setattr(resolutions, name,
                            _counting(getattr(resolutions, name), calls))
    heavy = parse(_HEAVY_SRC)
    try:
        install_cache(str(tmp_path))
        memo.clear()
        t0 = time.perf_counter()
        cold = report_json(execute(heavy, RunConfig()))
        cold_wall = time.perf_counter() - t0
        cold_steps = len(calls)
        warm_walls, warm_steps, warm_same = [], [], True
        for _ in range(3):
            memo.clear()  # a warm run may only use the disk cache
            del calls[:]
            t0 = time.perf_counter()
            warm = report_json(execute(parse(_HEAVY_SRC), RunConfig()))
            warm_walls.append(time.perf_counter() - t0)
            warm_steps.append(len(calls))
            warm_same = warm_same and warm == cold
    finally:
        set_resolution_store(None)
        memo.clear()
    # the fastest of three warm reruns: one stall in a 10 ms run is noise
    warm_wall = min(warm_walls)
    speedup = cold_wall / max(warm_wall, 1e-9)
    _emit(10, identical and warm_same and speedup >= 2.0 and cold_steps > 0
          and warm_steps == [0, 0, 0],
          f"suite JSON byte-identical across runs; cache-warm "
          f"resolution-heavy rerun {speedup:.1f}x faster "
          f"({cold_wall:.2f}s -> {warm_wall:.2f}s, best of 3), "
          f"byte-identical; resolution steps cold {cold_steps}, "
          f"warm {warm_steps}")


def test_criterion_11_fault_negative_control(transpose_fault):
    _, H, pool = _classical_pools()[1]
    instances = default_instances(H, pool, [TheoremId.THM_MS])
    with transpose_fault():
        reports, summary = run_suite(instances)
    refuted = summary["counts"].get("Refuted", 0)
    _emit(11, refuted >= 1 and not summary["suite_passed"],
          f"minimalization-skip fault produces {refuted} refuted "
          f"double-linkage instances out of {summary['total']}")
