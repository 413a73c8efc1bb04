"""Theorem harness behavior: verdict taxonomy, curated instances, suite
aggregation, fault-driven refutation, and budget degradation."""

import inspect

import pytest

from linkage_lab import isomorphism, memo, theorems
from linkage_lab.corpus import (
    corpus_pool,
    generate_corpus,
    maximal_ideal,
)
from linkage_lab.dsl import parse
from linkage_lab.fields import GF, QQ
from linkage_lab.invariants import canonical_module, coefficient_facts
from linkage_lab.modules import (
    cyclic_module,
    direct_sum,
    free_module,
)
from linkage_lab.rings import make_ring
from linkage_lab.runner import RunConfig, execute
from linkage_lab.theorems import (
    SUITE_DEFAULT_IDS,
    TheoremId,
    check,
    default_coefficient,
    default_instances,
    resolve_id,
    run_suite,
    special_instances,
)

S = make_ring(QQ, ["x", "y"])
H = make_ring(QQ, ["x", "y"], ["x*y"])
T = make_ring(QQ, ["x", "y", "z"], ["y*z", "x*z", "x*y"])
N = make_ring(GF(32003), ["x", "y", "z", "w"],
              ["x*z", "x*w", "y*z", "y*w"])


def test_resolve_id_accepts_names_and_enum():
    assert resolve_id("THM_MS") is TheoremId.THM_MS
    assert resolve_id(TheoremId.THM_TH4) is TheoremId.THM_TH4
    with pytest.raises(ValueError):
        resolve_id("NO_SUCH_THEOREM")


def test_missing_binding_raises_keyerror():
    with pytest.raises(KeyError):
        check("THM_MS", {})


def test_modules_over_different_rings_raise():
    # M over S and C over H: no check may answer for such a pair
    M, C = cyclic_module(S, ["x"]), cyclic_module(H, ["y"])
    with pytest.raises(ValueError, match="LEM_LEM2 over different rings"):
        check("LEM_LEM2", {"M": M, "C": C})


def test_ms_criterion_verified_on_swap_module():
    report = check("THM_MS", {"M": cyclic_module(H, ["x"])})
    assert report.verdict == "Verified"
    assert not report.suspected_counterexample
    assert report.theorem_id == "THM_MS"


def test_ms_criterion_equivalence_of_falsehoods():
    # a free module is neither linked nor stable: all three sides are
    # false together, and the equivalence still verifies exactly
    report = check("THM_MS", {"M": free_module(H, [0])})
    assert report.verdict == "Verified"


def test_report_dict_is_deterministic_and_timing_free():
    M = cyclic_module(H, ["x"])
    a = check("THM_MS", {"M": M}).to_dict()
    b = check("THM_MS", {"M": M}).to_dict()
    assert a == b
    assert "wall_ms" not in a


def test_hypothesis_failure_gives_inapplicable():
    # a free module is not stable, so linkage-dependent statements do
    # not apply to it
    report = check("THM_TH1", {"M": free_module(H, [0]),
                               "C": free_module(H, [0]), "n": 1})
    assert report.verdict == "Inapplicable"
    assert "hypothesis failed" in report.witness


def test_budget_exhaustion_is_flagged_not_failed(set_caps):
    M = maximal_ideal(T)
    set_caps(MAX_DEGREE=1, MAX_RANK=4)
    report = check("THM_MS", {"M": M})
    assert report.verdict == "Inapplicable"
    assert "Inapplicable-by-budget" in report.notes


def test_budget_exhaustion_keeps_the_instance_line(set_caps):
    """A budget that runs out after the check named its instance reports
    that name, the ", n=..." suffix included."""
    bindings = {"M": maximal_ideal(T), "C": free_module(T, [0]), "n": 2}
    want = {tid: check(tid, bindings).instance
            for tid in ("PROP_T1", "THM_TH1")}
    for tid, instance in want.items():
        set_caps(MAX_DEGREE=1, MAX_RANK=4)
        report = check(tid, bindings)
        assert "Inapplicable-by-budget" in report.notes
        assert report.instance == instance
        assert report.instance.endswith(", n=2")


def _binds_c_and_n(tid) -> bool:
    _, required, defaults = theorems._CHECKS[tid]
    return {"C", "n"} <= {*required, *defaults}


@pytest.mark.parametrize("tid", [t.value for t in theorems._CHECKS
                                 if _binds_c_and_n(t)])
def test_a_coefficient_over_budget_keeps_the_instance_line(tid):
    """C = S/(x^13, y^13) meets a pair of degree 26 when it is
    minimalized: every check that binds C and n still names its instance
    with the ", n=..." suffix."""
    S3 = make_ring(QQ, ["x", "y", "z"])
    bindings = {"M": cyclic_module(S3, ["x"]),
                "C": cyclic_module(S3, ["x^13", "y^13"]), "n": 1,
                "ideal": ["x*y"], "ideal2": ["x^2 + x*y"], "label": "S/(x)"}
    memo.clear()
    report = check(tid, bindings)
    assert "Inapplicable-by-budget" in report.notes
    assert report.instance == "S/(x) over QQ[x,y,z]/(), n=1"


def test_required_bindings_are_the_parameters_without_default():
    for tid, (fn, required, defaults) in theorems._CHECKS.items():
        params = [p for p in inspect.signature(fn).parameters.values()
                  if p.name != "bound"]
        assert required == tuple(
            p.name for p in params if p.default is p.empty), tid
        assert defaults == {
            p.name: p.default for p in params
            if p.default is not p.empty}, tid


def test_lem_lem2_names_the_n_it_is_given():
    bindings = {"M": cyclic_module(H, ["x"]), "C": free_module(H, [0])}
    assert check("LEM_LEM2", bindings).instance.endswith(", n=1")
    report = check("LEM_LEM2", {**bindings, "n": 2})
    assert report.instance.endswith(", n=2")


def test_a_module_over_budget_is_one_inapplicable_report_of_a_suite():
    """Minimalizing M = S/(x^13, y^13) meets a pair of degree 26: that
    instance alone is Inapplicable-by-budget, named by its label, and the
    suite goes on."""
    S3 = make_ring(QQ, ["x", "y", "z"])
    instances = [
        (TheoremId.THM_MS, {"M": cyclic_module(S3, gens), "label": label})
        for gens, label in ((["x"], "S/(x)"),
                            (["x^13", "y^13"], "S/(x^13, y^13)"),
                            (["x"], "S/(x)"))]
    memo.clear()
    reports, summary = run_suite(instances)
    assert [r.verdict for r in reports] == [
        "Verified", "Inapplicable", "Verified"]
    assert reports[1].notes == ["Inapplicable-by-budget"]
    assert reports[1].instance == "S/(x^13, y^13) over QQ[x,y,z]/()"
    assert summary["total"] == 3


@pytest.mark.parametrize("bound", [0, -3])
def test_check_and_run_suite_refuse_a_bound_below_one(bound):
    instance = (TheoremId.THM_MS, {"M": cyclic_module(H, ["x"])})
    with pytest.raises(ValueError, match=f"bound {bound} is below 1"):
        check(*instance, bound)
    with pytest.raises(ValueError, match=f"bound {bound} is below 1"):
        run_suite([instance], bound)


@pytest.mark.parametrize("bound, label", [(None, "BoundedTrue(10)"),
                                          (3, "BoundedTrue(3)")])
def test_a_run_bound_reaches_the_checks(bound, label):
    """Over E = QQ[x,y,z,t]/(x^2, y^2, yz, z^2), which is not Gorenstein,
    the finite G-dimension of lambda(quot(x)) is only scanned: through the
    ring's default bound 2*(4+1) = 10, or through the run's bound."""
    script = ("ring E0 = poly(QQ, x, y, z, t);\n"
              "ring E = quotient(E0, [x^2, y^2, y*z, z^2]);\n"
              "suite [THM_COR3, COR_COR1, COR_COR4] on corpus(E, 12);\n")
    (entry,) = execute(parse(script), RunConfig(bound=bound)).results
    hyps = [h for r in entry["report"]["reports"]
            if r["instance"].startswith("quot(x) ")
            for h in r["hypothesis_status"]
            if h["name"] == "G-dim of the linked module is finite"]
    tag = "bound 10" if bound is None else f"bound {bound}"
    assert len(hyps) == 3
    assert {(h["label"], h["detail"]) for h in hyps} == {(label, f"0 ({tag})")}


def test_fault_injection_refutes_ms_criterion(transpose_fault):
    # with transpose minimalization disabled, a module with a free
    # summand passes the stability test but fails double linkage
    M = direct_sum(free_module(H, [0]), maximal_ideal(H))
    clean = check("THM_MS", {"M": M})
    assert clean.verdict == "Verified"
    with transpose_fault():
        faulty = check("THM_MS", {"M": M})
    assert faulty.verdict == "Refuted"
    assert not faulty.suspected_counterexample  # hypotheses stayed exact


def test_default_coefficient_matches_gorenstein_split():
    assert default_coefficient(H).n_rels() == 0  # free over Gorenstein
    assert default_coefficient(T).n_gens() == 2  # canonical module


def test_special_instances_all_verify():
    for ring in (S, T):
        for tid, bindings in special_instances(ring):
            report = check(tid, bindings)
            assert report.verdict == "Verified", (tid, report.witness)


def test_default_instances_skip_ideal_bound_ids():
    mods = corpus_pool(H)[:3]
    instances = default_instances(H, mods, [TheoremId.THM_MS,
                                            TheoremId.COR_THEOREM3])
    # COR_THEOREM3 needs explicit ideal bindings, so only THM_MS remains
    assert {tid for tid, _ in instances} == {TheoremId.THM_MS}
    assert len(instances) == 3


def test_default_instances_give_n_to_every_check_that_takes_it():
    """LEM_LEM2 takes n as an optional binding and PROP_T1 requires it:
    both run at the n handed to default_instances."""
    free0 = [(name, M) for name, M in corpus_pool(H) if name == "free[0]"]
    instances = default_instances(H, free0, [TheoremId.PROP_T1,
                                             TheoremId.LEM_LEM2], n=2)
    assert [b["n"] for _, b in instances] == [2, 2]
    reports, _ = run_suite(instances)
    assert [r.instance for r in reports] == [
        "free[0] over QQ[x,y]/(x*y), n=2"] * 2


def test_run_suite_counts_and_pass_flag():
    instances = default_instances(H, corpus_pool(H)[:4],
                                  [TheoremId.THM_MS, TheoremId.PROP_T1])
    reports, summary = run_suite(instances)
    assert summary["total"] == len(reports) == len(instances)
    assert sum(summary["counts"].values()) == summary["total"]
    assert summary["suite_passed"]
    assert summary["hard_refutations"] == []


def test_suite_flags_hard_refutation_under_fault(transpose_fault):
    M = direct_sum(free_module(H, [0]), maximal_ideal(H))
    instances = [(TheoremId.THM_MS, {"M": M, "label": "planted"})]
    with transpose_fault():
        reports, summary = run_suite(instances)
    assert not summary["suite_passed"]
    assert summary["counts"]["Refuted"] == 1
    assert summary["hard_refutations"] != []


def test_suite_default_ids_cover_corpus_friendly_checks():
    assert TheoremId.THM_MS in SUITE_DEFAULT_IDS
    assert TheoremId.COR_THEOREM3 not in SUITE_DEFAULT_IDS
    # every check that binds only M, C and n, in the order of the table
    assert [t.value for t in SUITE_DEFAULT_IDS] == (
        "THM_MS PROP_T1 PROP_P3 PROP_T13 COR_C2 LEM_LEM2 THM_TH5 COR_COR7 "
        "THM_THEOREM1 THM_TH1 COR_COR5 THM_COR3 THM_TH2 COR_SELF THM_TH3 "
        "THM_TH6 PROP_XTM THM_TH4 THM_TH7 COR_COR1 COR_COR4 REMARK3_I "
        "G3_AB_FORMULA").split()


def test_ab_formula_check_verifies_on_pool():
    for _, M in corpus_pool(S)[:4]:
        report = check("G3_AB_FORMULA", {"M": M,
                                         "C": free_module(S, [0])})
        assert report.verdict in ("Verified", "PartiallyVerified")
        assert report.verdict != "Refuted"


def test_serre_linkage_equivalence_on_hypersurface():
    Rx = cyclic_module(H, ["x"])
    for n in (1, 2):
        report = check("THM_TH1", {"M": Rx, "C": free_module(H, [0]),
                                   "n": n})
        assert report.verdict in ("Verified", "PartiallyVerified")
        assert not (report.verdict == "Refuted"
                    and not report.suspected_counterexample)


N_CHECKS = ("PROP_T1", "PROP_P3", "PROP_T13", "COR_C2", "THM_TH5",
            "COR_COR7", "THM_TH1")


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("tid", N_CHECKS + ("LEM_LEM2",))
def test_nonpositive_n_is_inapplicable(tid, n):
    # over the hypersurface H with C = R every hypothesis before n >= 1
    # holds for the linked module R/(x)
    report = check(tid, {"M": cyclic_module(H, ["x"]),
                         "C": free_module(H, [0]), "n": n})
    assert report.verdict == "Inapplicable"
    assert report.witness == "hypothesis failed: n >= 1"
    assert report.instance.endswith(f", n={n}")


def test_canonical_module_of_a_non_cm_ring_gives_no_certificate():
    C = canonical_module(N)
    facts = coefficient_facts(C)
    assert not facts.canonical and facts.certificate() is None
    locus = theorems._locus_hyp(0, (theorems._GCDIM_LOCUS, C))
    assert (locus.name, locus.label) == (
        "finite G_C-dimension on the depth <= 0 locus", "Unknown")


def test_nonpositive_n_in_a_script_is_a_report():
    result = execute(parse("ring B = poly(QQ, x, y);\n"
                           "ring H = quotient(B, [x*y]);\n"
                           "module M = coker(H, twists=[0], matrix=[[x]]);\n"
                           "check PROP_P3(M = M, n = 0);\n"))
    report = result.results[-1]["report"]
    assert report["verdict"] == "Inapplicable"
    assert report["witness"] == "hypothesis failed: n >= 1"


CLAIM_HELPERS = ("_serre_side", "_ext_window_vanishes", "_ext_side",
                 "_cosyzygy_side", "_locus_side", "_depth_sum_side",
                 "locus_point", "is_nth_cosyzygy_witness",
                 "_equivalence_claims", "_implication_claim",
                 "_equality_claim")


@pytest.mark.parametrize("ring", [N, T], ids=["N", "T"])
def test_claims_stay_unevaluated_when_a_hypothesis_blocks(ring, monkeypatch):
    calls = []

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in CLAIM_HELPERS:
        monkeypatch.setattr(theorems, name,
                            recording(name, getattr(theorems, name)))
    blocked = 0
    for tid, bindings in default_instances(ring, generate_corpus(ring, 2)):
        calls.clear()
        report = check(tid, bindings)
        if report.witness.startswith(("hypothesis failed",
                                      "hypothesis undetermined")):
            blocked += 1
            assert calls == [], (tid.value, bindings["label"], calls)
    assert blocked > 0


def test_remark3_i_needs_no_isomorphism_search(monkeypatch):
    """Tr M (x) C and Tr_C M have one minimal presentation over the
    corpora of H, T and N, for C = omega and C = R: every REMARK3_I
    instance is verified by the identity certificate."""

    def no_search(*args, **kwargs):
        raise AssertionError("REMARK3_I searched for an isomorphism")

    monkeypatch.setattr(isomorphism, "degree_zero_maps", no_search)
    verdicts = [
        check(TheoremId.REMARK3_I, {"M": M, "C": C}).verdict
        for ring in (H, T, N)
        for C in (canonical_module(ring), free_module(ring, [0]))
        for _, M in generate_corpus(ring, 8)
    ]
    assert verdicts == ["Verified"] * 48
