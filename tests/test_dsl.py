"""Script language tests: tokenizer diagnostics, parse and pretty-print
round trips, interpreter exit codes, JSON determinism, the CLI entry
point, and disk cache semantics."""

import json
import os

import pytest

from linkage_lab import memo
from linkage_lab.cache import DiskStore, install_cache, resolve_cache_dir
from linkage_lab.cli import main
from linkage_lab.dsl import (
    Call,
    Cmp,
    DslError,
    Name,
    PolyList,
    PrintStmt,
    Script,
    Token,
    parse,
    pretty_print,
    tokenize,
)
from linkage_lab.fields import QQ
from linkage_lab.modules import cyclic_module
from linkage_lab.resolutions import (
    minimal_free_resolution,
    set_resolution_store,
)
from linkage_lab.rings import make_ring
from linkage_lab.runner import (
    RunConfig,
    ScriptError,
    execute,
    report_json,
    report_text,
)

DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "demos")
FULL_SCRIPT = """\
# exercises every statement form
ring S = poly(QQ, x, y);
ring R = quotient(S, [x*y]);
module M = coker(R, twists=[0], matrix=[[x]]);
module F = coker(R, twists=[0], matrix=[]);
let L = lambda(M);
let D = transpose_wrt(M, canonical(R));
assert is_horizontally_linked(M);
assert serre_tilde(M, 1);
assert depth(M) == 1;
assert rgr(L, F) >= 1;
print hilbert(M);
print dim(L);
check THM_MS(M = M);
check PROP_T1(M = M, C = canonical(R), n = 1);
suite [THM_MS] on corpus(R, 4);
"""


# -- parsing ------------------------------------------------------------------


def test_round_trip_parse_pretty_parse():
    script = parse(FULL_SCRIPT)
    printed = pretty_print(script)
    assert parse(printed) == script
    # pretty printing is idempotent
    assert pretty_print(parse(printed)) == printed


def test_comments_and_whitespace_ignored():
    a = parse("ring S = poly(QQ, x, y);")
    b = parse("# lead\n  ring   S =\n poly( QQ , x , y ) ;  # trail\n")
    assert a == b


def test_parse_error_reports_line_and_column():
    with pytest.raises(DslError) as e:
        parse("ring S = poly(QQ, x, y)\nmodule M = coker(S);")
    assert e.value.line == 2 and e.value.col == 1
    assert ";" in e.value.expected


@pytest.mark.parametrize("source, line, col", [
    ("ring S = poly(", 1, 15),
    ("ring S = poly(QQ,", 1, 18),
    ("ring S = poly(QQ, x, y);\nring R = quotient(S, [", 2, 23)])
def test_end_of_input_is_one_column_past_the_last_symbol(source, line, col):
    """A one-character symbol at the very end of the source advances the
    column by one, so the end of input is named right after it."""
    with pytest.raises(DslError) as e:
        parse(source)
    assert (e.value.line, e.value.col) == (line, col)


def test_homogeneity_error_names_offending_monomial():
    with pytest.raises(DslError) as e:
        parse("ring S = poly(QQ, x, y);\nring R = quotient(S, [x^2 + y]);")
    msg = str(e.value)
    assert "not homogeneous" in msg
    assert "monomial y has degree 1" in msg
    assert e.value.line == 2


def test_undeclared_names_are_rejected():
    with pytest.raises(DslError) as e:
        parse("module M = coker(S, twists=[0], matrix=[[x]]);")
    assert "undeclared ring" in str(e.value)
    with pytest.raises(DslError):
        parse("ring S = poly(QQ, x, y);\nlet L = lambda(M);")


def test_duplicate_declaration_rejected():
    with pytest.raises(DslError) as e:
        parse("ring S = poly(QQ, x, y);\nring S = poly(QQ, z);")
    assert "already declared" in str(e.value)


def test_unknown_statement_lists_expected():
    with pytest.raises(DslError) as e:
        parse("rings S = poly(QQ, x, y);")
    assert "suite" in e.value.expected


def test_scalar_assert_requires_comparison():
    with pytest.raises(DslError) as e:
        parse("ring S = poly(QQ, x, y);\n"
              "module M = coker(S, twists=[0], matrix=[[x]]);\n"
              "assert depth(M);")
    assert "==" in e.value.expected


def test_matrix_twist_mismatch_is_parse_error():
    with pytest.raises(DslError) as e:
        parse("ring S = poly(QQ, x, y);\n"
              "module M = coker(S, twists=[0, 1], matrix=[[x]]);")
    assert "matrix has 1 rows but 2 twists" in str(e.value)


def test_gf_field_declaration():
    script = parse("ring S = poly(GF(7), x, y);")
    assert script.statements[0].field_name == "GF(7)"
    assert parse(pretty_print(script)) == script


def test_nodes_are_equal_by_type_and_fields():
    assert Name("x") == Name("x")
    assert Name("x") != Name("y")
    assert Name("x") != PolyList("x")
    assert Call("lambda", [Name("M")]) == Call("lambda", [Name("M")])
    assert Call("lambda", [Name("M")]) != Call("dual", [Name("M")])
    assert tokenize("x") == [Token("name", "x", 1, 1),
                             Token("eof", "", 1, 2)]


def test_nodes_are_unhashable():
    for node in (Name("x"), Token("name", "x", 1, 1), Script([])):
        with pytest.raises(TypeError):
            hash(node)


def test_nodes_print_as_their_constructor_calls():
    node = Cmp(Call("depth", [Call("lambda", [Name("M")])]), ">=", 1)
    assert repr(node) == ("Cmp(call=Call(fn='depth', args=[Call(fn='lambda', "
                          "args=[Name(ident='M')])]), op='>=', value=1)")
    with pytest.raises(TypeError):
        Name()


@pytest.mark.parametrize("demo", sorted(
    name for name in os.listdir(DEMOS) if name.endswith(".link")))
def test_every_demo_round_trips_through_the_pretty_printer(demo):
    with open(os.path.join(DEMOS, demo), encoding="utf-8") as fh:
        script = parse(fh.read())
    again = parse(pretty_print(script))
    assert again == script
    assert repr(again) == repr(script)


def test_a_script_error_names_the_node_it_cannot_evaluate():
    item = Cmp(Call("depth", [Name("M")]), ">=", 1)
    with pytest.raises(ScriptError) as e:
        execute(Script([PrintStmt(item)]))
    assert str(e.value) == (
        "expected a module expression, got Cmp(call=Call(fn='depth', "
        "args=[Name(ident='M')]), op='>=', value=1)")


# -- execution and exit codes -------------------------------------------------


def _run(source: str, **kw):
    return execute(parse(source), RunConfig(**kw))


def test_exit_code_zero_on_pass():
    res = _run(FULL_SCRIPT)
    assert res.exit_code() == 0
    kinds = [r["kind"] for r in res.results]
    assert kinds.count("assert") == 4
    assert kinds.count("check") == 2
    assert "suite" in kinds


def test_exit_code_one_on_failed_assert():
    res = _run("ring S = poly(QQ, x, y);\n"
               "module M = coker(S, twists=[0], matrix=[[x]]);\n"
               "assert depth(M) == 7;")
    assert res.exit_code() == 1
    assert not res.results[-1]["value"]["passed"]


def test_exit_code_three_on_budget():
    # the syzygy between x^13 and y^13 has degree 26, past the default
    # Groebner pair-degree budget
    res = _run("ring S = poly(QQ, x, y);\n"
               "module M = coker(S, twists=[0], matrix=[[x^13, y^13]]);\n"
               "print depth(M);")
    assert res.exit_code() == 3
    assert res.results[-1]["kind"] == "error"


def test_exit_code_four_needs_strict():
    src = ("ring S = poly(QQ, x, y);\n"
           "ring R = quotient(S, [x*y]);\n"
           "module F = coker(R, twists=[0], matrix=[]);\n"
           "check THM_TH1(M = F, C = F, n = 1);\n")
    assert _run(src).exit_code() == 0
    assert _run(src, strict=True).exit_code() == 4


def test_exit_code_one_outranks_strict_inapplicable():
    src = ("ring S = poly(QQ, x, y);\n"
           "ring R = quotient(S, [x*y]);\n"
           "module F = coker(R, twists=[0], matrix=[]);\n"
           "check THM_TH1(M = F, C = F, n = 1);\n"
           "assert is_stable(F);\n")
    assert _run(src, strict=True).exit_code() == 1


def test_fail_fast_stops_after_first_failure():
    src = ("ring S = poly(QQ, x, y);\n"
           "module M = coker(S, twists=[0], matrix=[[x]]);\n"
           "assert depth(M) == 7;\n"
           "print depth(M);\n")
    full = _run(src)
    assert [r["kind"] for r in full.results] == ["assert", "print"]
    clipped = _run(src, fail_fast=True)
    assert [r["kind"] for r in clipped.results] == ["assert"]


def test_empty_matrix_declares_free_module():
    res = _run("ring S = poly(QQ, x, y);\n"
               "module F = coker(S, twists=[0, -1], matrix=[]);\n"
               "assert depth(F) == 2;\n")
    assert res.exit_code() == 0


def test_json_report_is_byte_identical_across_runs():
    a = report_json(_run(FULL_SCRIPT))
    b = report_json(_run(FULL_SCRIPT))
    assert a == b
    payload = json.loads(a)
    assert set(payload) == {"version", "config", "declarations", "results"}
    assert "wall" not in a and "time" not in a


def test_json_serializes_infinity_as_string():
    res = _run("ring S = poly(QQ, x, y);\n"
               "ring R = quotient(S, [x*y]);\n"
               "module M = coker(R, twists=[0], matrix=[[x]]);\n"
               "module F = coker(R, twists=[0], matrix=[]);\n"
               "print rgr(M, F);\n")
    payload = json.loads(report_json(res))
    prints = [r for r in payload["results"] if r["kind"] == "print"]
    assert prints[0]["value"] == "infinity"


def test_text_report_has_one_line_per_result():
    res = _run("ring S = poly(QQ, x, y);\n"
               "module M = coker(S, twists=[0], matrix=[[x]]);\n"
               "assert depth(M) == 1;\n")
    text = report_text(res)
    assert "assert  ok" in text
    assert text.rstrip().endswith("exit 0")


def test_unknown_theorem_id_is_script_error():
    with pytest.raises(ScriptError) as e:
        _run("ring S = poly(QQ, x, y);\n"
             "module M = coker(S, twists=[0], matrix=[[x]]);\n"
             "check NOT_A_THEOREM(M = M);\n")
    assert "unknown theorem id" in str(e.value)


# -- CLI entry point ----------------------------------------------------------


def test_cli_run_and_check(tmp_path, capsys):
    script = tmp_path / "demo.link"
    script.write_text(
        "ring S = poly(QQ, x, y);\n"
        "ring R = quotient(S, [x*y]);\n"
        "module M = coker(R, twists=[0], matrix=[[x]]);\n"
        "assert depth(M) == 1;\n",
        encoding="utf-8")
    assert main(["run", str(script)]) == 0
    out = capsys.readouterr().out
    assert "assert  ok" in out

    assert main(["run", str(script), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"]

    assert main(["check", "THM_MS", str(script), "--bind", "M=M"]) == 0
    out = capsys.readouterr().out
    assert "Verified" in out

    # bind values may be expressions and ideal lists
    assert main(["check", "PROP_T1", str(script),
                 "--bind", "M=lambda(M)", "--bind", "C=canonical(R)",
                 "--bind", "n=1"]) == 0
    capsys.readouterr()


def test_cli_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.link"
    bad.write_text("ring S = poly(QQ, x, y;\n", encoding="utf-8")
    assert main(["run", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


NEGATIVE_CORPUS = """\
ring S = poly(QQ, x, y);
ring H = quotient(S, [x*y]);
suite [THM_MS] on corpus(H, -17);
"""


def test_negative_corpus_size_is_a_parse_error():
    with pytest.raises(DslError, match="corpus size -17") as info:
        parse(NEGATIVE_CORPUS)
    assert (info.value.line, info.value.col) == (3, 29)


def test_cli_negative_corpus_size_exit_two(tmp_path, capsys):
    bad = tmp_path / "negative.link"
    bad.write_text(NEGATIVE_CORPUS, encoding="utf-8")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "corpus size -17" in err


ONE_MODULE = """\
ring S = poly(QQ, x, y);
ring H = quotient(S, [x*y]);
module M = coker(H, twists=[0], matrix=[[x]]);
"""


@pytest.mark.parametrize("stmt, message", [
    ("let L = syzygy(M, -1);", "syzygy index -1 is negative"),
    ("let L = ext(M, M, -1);", "ext index -1 is negative"),
    ("let L = tor(M, M, -2);", "tor index -2 is negative"),
    ("print betti(M, -1);", "betti index -1 is negative"),
    ("assert serre_tilde(M, 0);", "serre_tilde order 0 is below 1"),
])
def test_an_index_below_its_least_is_a_parse_error(stmt, message, tmp_path,
                                                   capsys):
    with pytest.raises(DslError, match=message) as info:
        parse(ONE_MODULE + stmt + "\n")
    assert info.value.line == 4
    bad = tmp_path / "index.link"
    bad.write_text(ONE_MODULE + stmt + "\n", encoding="utf-8")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and message in err


def test_the_least_indices_still_parse():
    res = _run(ONE_MODULE + "let L = syzygy(M, 0);\n"
               "assert serre_tilde(M, 1);\nprint betti(M, 0);\n")
    assert res.exit_code() == 0


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_cli_bound_below_one_exit_two(bound, tmp_path, capsys):
    script = tmp_path / "ok.link"
    script.write_text(ONE_MODULE, encoding="utf-8")
    with pytest.raises(SystemExit) as info:
        main(["run", "--bound", bound, str(script)])
    assert info.value.code == 2
    assert f"--bound: {bound} is below 1" in capsys.readouterr().err


def test_cli_has_no_seed_flag(tmp_path, capsys):
    """No flag affects an isomorphism verdict: --seed is a usage error."""
    script = tmp_path / "ok.link"
    script.write_text(ONE_MODULE, encoding="utf-8")
    with pytest.raises(SystemExit) as info:
        main(["run", "--seed", "1", str(script)])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_cli_has_no_probe_primes_flag(tmp_path, capsys):
    """Prime loci are exact, so no flag samples them: --probe-primes is a
    usage error."""
    script = tmp_path / "ok.link"
    script.write_text(ONE_MODULE, encoding="utf-8")
    with pytest.raises(SystemExit) as info:
        main(["run", "--probe-primes", "x,y", str(script)])
    assert info.value.code == 2
    assert "unrecognized arguments: --probe-primes" in capsys.readouterr().err


def test_a_module_over_budget_is_a_check_report(tmp_path, capsys):
    """Minimalizing M itself runs out of budget: the check still reports,
    Inapplicable-by-budget, and the run exits 3."""
    script = tmp_path / "budget.link"
    script.write_text("ring S = poly(QQ, x, y, z);\n"
                      "module B = coker(S, twists=[0], "
                      "matrix=[[x^13, y^13]]);\n"
                      "check THM_MS(M = B);\n", encoding="utf-8")
    memo.clear()
    assert main(["run", "--json", str(script)]) == 3
    (entry,) = json.loads(capsys.readouterr().out)["results"]
    assert entry["kind"] == "check"
    assert entry["report"]["verdict"] == "Inapplicable"
    assert entry["report"]["notes"] == ["Inapplicable-by-budget"]


def test_empty_corpus_suite_is_valid():
    res = _run(NEGATIVE_CORPUS.replace("-17", "0"))
    assert res.exit_code() == 0
    (suite,) = res.results
    assert suite["name"] == "corpus(H, 0)"
    assert suite["report"]["reports"] == []


def test_cli_missing_file_exit_two(capsys):
    assert main(["run", "/nonexistent/path.link"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_cli_bad_bind_exit_two(tmp_path, capsys):
    script = tmp_path / "s.link"
    script.write_text("ring S = poly(QQ, x, y);\n", encoding="utf-8")
    assert main(["check", "THM_MS", str(script), "--bind", "Mnovalue"]) == 2
    assert "NAME=VALUE" in capsys.readouterr().err


NONCM_SCRIPT = """\
ring S = poly(GF(32003), x, y, z, w);
ring N = quotient(S, [x*z, x*w, y*z, y*w]);
module M = coker(N, twists=[0], matrix=[[{gens}]]);
assert serre_tilde(M, 1);
"""


def test_serre_tilde_assertions_over_a_non_cm_ring_are_exact(tmp_path,
                                                              capsys):
    """N/(x, y) satisfies S~_1 exactly; N/(x + y) fails it at the prime
    (x + y, z, w), where depth M_p = 0 < depth R_p = 1."""
    script = tmp_path / "n.link"
    script.write_text(NONCM_SCRIPT.format(gens="x, y"), encoding="utf-8")
    assert main(["run", str(script)]) == 0
    assert "ok   serre_tilde(M, 1)  [true]" in capsys.readouterr().out
    script.write_text(NONCM_SCRIPT.format(gens="x + y"), encoding="utf-8")
    assert main(["run", str(script)]) == 1
    out = capsys.readouterr().out
    assert "FAIL serre_tilde(M, 1)  [false, witness=depth M_p = 0 < " \
        "min(1, depth R_p = 1) at a height-3 prime over (w, z, x + y)]" in out


@pytest.mark.parametrize("source, message", [
    ("ring R = poly(GF(4), x, y);\n", "ring R: 4 is not prime"),
    ("ring R = poly(GF(1), x);\n", "ring R: prime must satisfy"),
    ("ring R = poly(QQ, x, x);\n", "ring R: repeated variable names"),
    ("ring S = poly(QQ, x, y);\nring R = quotient(S, [1]);\n",
     "ring R: ring relations generate the unit ideal"),
    ("ring R = poly(QQ, x, y);\n"
     "module M = coker(R, twists=[0, 0], matrix=[[x], [x^2]]);\n",
     "module M: column 0 mixes relation degrees 1 and 2"),
])
def test_cli_bad_declaration_exit_two(tmp_path, capsys, source, message):
    # a declaration that names no ring or module is a script error (exit
    # 2, no report), not a refuted claim
    script = tmp_path / "bad.link"
    script.write_text(source, encoding="utf-8")
    assert main(["run", str(script)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"script error: {message}")


# -- disk cache ---------------------------------------------------------------


def test_disk_store_first_write_wins(tmp_path):
    store = DiskStore(str(tmp_path))
    store.save("k", {"x": 1})
    store.save("k", {"x": 2})  # append-only: ignored
    assert store.load("k") == {"x": 1}
    assert store.load("missing") is None


def test_disk_store_corruption_recovers(tmp_path, capsys):
    store = DiskStore(str(tmp_path))
    store.save("k", {"x": 1})
    path = os.path.join(str(tmp_path), "k.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{ not json")
    assert store.load("k") is None
    assert "cache" in capsys.readouterr().err


def test_resolve_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.delenv("LINKAGE_LAB_CACHE", raising=False)
    assert resolve_cache_dir(None) is None
    assert resolve_cache_dir(str(tmp_path)) == str(tmp_path)
    monkeypatch.setenv("LINKAGE_LAB_CACHE", "/from/env")
    assert resolve_cache_dir(None) == "/from/env"
    assert resolve_cache_dir(str(tmp_path)) == str(tmp_path)


def test_cached_resolution_round_trips(tmp_path):
    T = make_ring(QQ, ["x", "y", "z"], ["y*z", "x*z", "x*y"])
    k = cyclic_module(T, ["x", "y", "z"])
    try:
        install_cache(str(tmp_path))
        memo.clear()
        cold = minimal_free_resolution(k, 4)
        cold_data = [(cold.rank(i), cold.twists_at(i)) for i in range(5)]
        memo.clear()  # force the disk store to serve the second run
        warm = minimal_free_resolution(k, 4)
        warm_data = [(warm.rank(i), warm.twists_at(i)) for i in range(5)]
        assert cold_data == warm_data
        assert any(f.endswith(".json") for f in os.listdir(str(tmp_path)))
    finally:
        set_resolution_store(None)
        memo.clear()


CROSS_RING = """\
ring S = poly(QQ, x, y);
ring Q = quotient(S, [x*y]);
module M = coker(S, twists=[0], matrix=[[x]]);
module N = coker(Q, twists=[0], matrix=[[y]]);
"""


@pytest.mark.parametrize("stmt, message", [
    ("print ext(N, M, 1);", "print ext(N, M, 1): ext over different rings"),
    ("print tor(M, N, 1);", "print tor(M, N, 1): tor over different rings"),
    ("print rgr(M, N);", "print rgr(M, N): ext over different rings"),
    ("let X = hom(M, N);", "let X = hom(M, N): hom over different rings"),
    ("let X = tensor(M, N);",
     "let X = tensor(M, N): tensor over different rings"),
    ("assert rgr(M, N) >= 1;",
     "assert rgr(M, N) >= 1: ext over different rings"),
    ("check LEM_LEM2(M = M, C = N);",
     "check LEM_LEM2(M = M, C = N): LEM_LEM2 over different rings"),
    ("assert in_auslander_class(M, N);",
     "assert in_auslander_class(M, N): in_auslander_class over different "
     "rings"),
])
def test_operands_over_different_rings_are_a_script_error(stmt, message,
                                                         tmp_path, capsys):
    with pytest.raises(ScriptError) as e:
        _run(CROSS_RING + stmt + "\n")
    assert str(e.value) == message
    bad = tmp_path / "cross.link"
    bad.write_text(CROSS_RING + stmt + "\n", encoding="utf-8")
    assert main(["run", str(bad)]) == 2
    assert f"script error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("stmt, message", [
    ("check THM_MS(M = S);",
     "check THM_MS: binding M = S is a ring, not a module"),
    ("check PROP_T1(M = M, C = M, n = M);",
     "check PROP_T1: binding n = M is a module, not an integer"),
    ("check LEM_LEM2(M = M, C = M, n = [x]);",
     "check LEM_LEM2: binding n = [x] is a polynomial list, not an integer"),
    ("check COR_COR6(M = M, C = M, ideal = 2);",
     "check COR_COR6: binding ideal = 2 is an integer, not a polynomial list"),
    ("check COR_THEOREM3(ring = M, I = [x], omega_ideal = [x]);",
     "check COR_THEOREM3: binding ring = M is a module, not a ring"),
    ("check THM_MS(M = M, C = M);",
     "check THM_MS: unknown binding C (it takes M)"),
])
def test_malformed_check_bindings_are_a_script_error(stmt, message, tmp_path,
                                                     capsys):
    # each binding is a name the check takes, of the kind that name asks
    # for; anything else stops the script before any statement runs
    with pytest.raises(ScriptError) as e:
        _run(CROSS_RING + stmt + "\n")
    assert str(e.value) == message
    bad = tmp_path / "binding.link"
    bad.write_text(CROSS_RING + stmt + "\n", encoding="utf-8")
    assert main(["run", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"script error: {message}" in captured.err


def test_iso_over_different_rings_is_still_a_verdict():
    res = _run(CROSS_RING + "assert iso(M, N);\n")
    (entry,) = res.results
    assert entry["value"] == {"passed": False,
                              "detail": "not_isomorphic: different rings"}
    assert res.exit_code() == 1
