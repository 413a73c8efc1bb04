"""Interpreter for parsed scripts.

Builds rings and modules from declarations, evaluates operator
expressions, runs assertions, theorem checks and corpus suites, and
collects everything into a RunResult whose JSON rendering is
deterministic: statement order is preserved, keys are sorted, no
timings or machine-local paths appear, and the only non-integer
numeric value is the string "infinity".
"""

from __future__ import annotations

import json
import operator
from json.encoder import encode_basestring_ascii

from . import __version__ as VERSION
from .config import INFINITY
from .dsl import (
    PREDICATE_FNS,
    SCALAR_FNS,
    AssertStmt,
    Call,
    CheckStmt,
    Cmp,
    LetBinding,
    ModuleDecl,
    Name,
    PolyList,
    PrintStmt,
    RingPolyDecl,
    RingQuotientDecl,
    Script,
    SuiteStmt,
    _fmt_value,
    pretty_print,
)
from .errors import BudgetError, HomogeneityError, InapplicableError
from .fields import field_from_name
from .modules import from_matrix
from .rings import make_ring

# The homops, resolution, corpus, theorem, invariant, isomorphism and
# linkage layers are imported in the branches that use them: a module
# operator loads homops, `betti` resolutions, a suite the corpus, and the
# rest as each predicate, scalar or check needs it.  A script that only
# declares and prints presentations loads none of them.

_CMP = {
    "==": operator.eq,
    "!=": operator.ne,
    "<=": operator.le,
    ">=": operator.ge,
    "<": operator.lt,
    ">": operator.gt,
}

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_INAPPLICABLE = 4


class ScriptError(Exception):
    """A script that cannot run: a static error, an unknown name, or an
    operator that refuses its operands."""


class RunConfig:
    def __init__(self, bound: int | None = None, fail_fast: bool = False,
                 strict: bool = False):
        self.bound = bound
        self.fail_fast = fail_fast
        self.strict = strict

    def to_dict(self) -> dict:
        return {
            "bound": self.bound if self.bound is not None else "default",
            "fail_fast": self.fail_fast,
            "strict": self.strict,
        }


class RunResult:
    def __init__(self, config: RunConfig, declarations: list | None = None,
                 results: list | None = None, budget_hit: bool = False,
                 failed: bool = False, inapplicable_seen: bool = False):
        self.config = config
        self.declarations = [] if declarations is None else declarations
        self.results = [] if results is None else results
        self.budget_hit = budget_hit
        self.failed = failed
        self.inapplicable_seen = inapplicable_seen

    def exit_code(self) -> int:
        if self.budget_hit:
            return EXIT_BUDGET
        if self.failed:
            return EXIT_FAILED
        if self.config.strict and self.inapplicable_seen:
            return EXIT_INAPPLICABLE
        return EXIT_OK


# The kind of value each check binding takes; every other binding is an
# ideal, written as a list of polynomials.
_BINDING_KINDS = {"M": "a module", "C": "a module", "ring": "a ring",
                  "n": "an integer", "self_twist": "an integer"}


def _binding_kind(value, rings: set) -> str:
    """What a parsed binding value is: a ring named in `rings`, an
    integer, a polynomial list or a module expression."""
    if isinstance(value, int):
        return "an integer"
    if isinstance(value, PolyList):
        return "a polynomial list"
    if isinstance(value, Name) and value.ident in rings:
        return "a ring"
    return "a module"


def _jsonable(v):
    if isinstance(v, bool) or isinstance(v, int):
        return v
    if isinstance(v, float):
        return "infinity" if v == INFINITY else v
    if isinstance(v, dict):
        return {str(k): _jsonable(x)
                for k, x in sorted(v.items(), key=lambda kv: str(kv[0]))}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return str(v)


class _Runner:
    def __init__(self, config: RunConfig):
        self.config = config
        self.rings: dict = {}
        self.values: dict = {}
        self.result = RunResult(config)

    # ---- static validation

    def validate(self, script: Script):
        rings = set()
        for s in script.statements:
            if isinstance(s, (RingPolyDecl, RingQuotientDecl)):
                rings.add(s.name)
            elif isinstance(s, CheckStmt):
                self._validate_check(s, rings)
            elif isinstance(s, SuiteStmt):
                for t in s.theorem_ids:
                    self._resolve(t)

    def _validate_check(self, s: CheckStmt, rings: set):
        """A check's bindings: each one a name the check takes, none
        repeated, none missing, each of the kind its name asks for."""
        from .theorems import _CHECKS

        _, required, defaults = _CHECKS[self._resolve(s.theorem_id)]
        given = [k for k, _ in s.bindings]
        if len(set(given)) != len(given):
            raise ScriptError(f"check {s.theorem_id}: duplicate binding")
        for name, value in s.bindings:
            if name not in required and name not in defaults:
                takes = ", ".join([*required, *defaults])
                raise ScriptError(
                    f"check {s.theorem_id}: unknown binding {name} "
                    f"(it takes {takes})")
            want = _BINDING_KINDS.get(name, "a polynomial list")
            got = _binding_kind(value, rings)
            if got != want:
                raise ScriptError(
                    f"check {s.theorem_id}: binding {name} = "
                    f"{_fmt_value(value)} is {got}, not {want}")
        missing = [r for r in required if r not in given]
        if missing:
            raise ScriptError(
                f"check {s.theorem_id}: missing bindings " + ", ".join(missing))

    @staticmethod
    def _resolve(tid: str):
        from .theorems import TheoremId, resolve_id

        try:
            return resolve_id(tid)
        except ValueError:
            known = ", ".join(t.value for t in TheoremId)
            raise ScriptError(
                f"unknown theorem id {tid!r} (known: {known})") from None

    # ---- evaluation

    def _module(self, expr):
        if isinstance(expr, Name):
            if expr.ident in self.values:
                return self.values[expr.ident]
            raise ScriptError(f"{expr.ident!r} is not a module")
        if not isinstance(expr, Call):
            raise ScriptError(f"expected a module expression, got {expr!r}")
        from . import homops

        f, a = expr.fn, expr.args
        if f == "lambda":
            return homops.lambda_module(self._module(a[0]))
        if f == "transpose":
            return homops.transpose(self._module(a[0]))
        if f == "transpose_wrt":
            return homops.transpose_wrt(self._module(a[0]),
                                        self._module(a[1]))
        if f == "syzygy":
            return homops.syzygy(self._module(a[0]), a[1])
        if f == "ext":
            return homops.ext(self._module(a[0]), self._module(a[1]), a[2])
        if f == "tor":
            return homops.tor(self._module(a[0]), self._module(a[1]), a[2])
        if f == "tensor":
            return homops.tensor(self._module(a[0]), self._module(a[1]))
        if f == "hom":
            return homops.hom_module(self._module(a[0]), self._module(a[1]))
        if f == "canonical":
            from .invariants import canonical_module

            return canonical_module(self.rings[a[0].ident])
        if f == "dual":
            return homops.dual(self._module(a[0]))
        if f == "pushforward":
            return homops.universal_pushforward(self._module(a[0]),
                                                self._module(a[1])).cokernel
        raise ScriptError(f"unknown operator {f!r}")

    def _predicate(self, call: Call):
        """(passed, detail) for a predicate call."""
        cfg = self.config
        f, a = call.fn, call.args
        if f == "is_horizontally_linked":
            from .linkage import is_horizontally_linked

            rep = is_horizontally_linked(self._module(a[0]))
            return rep.linked, rep.describe()
        if f == "is_stable":
            from .linkage import is_stable

            stable, free_rank = is_stable(self._module(a[0]))
            return stable, f"free rank {free_rank}"
        if f == "iso":
            from .isomorphism import is_isomorphic

            v = is_isomorphic(self._module(a[0]), self._module(a[1]))
            detail = v.kind
            if v.certificate:
                detail += f": {v.certificate}"
            return v.is_isomorphic(), detail
        from .invariants import (
            depth,
            in_auslander_class,
            is_cm,
            is_mcm,
            is_semidualizing,
            krull_dim,
            serre_tilde,
        )

        if f == "serre_tilde":
            M = self._module(a[0])
            v = serre_tilde(M, a[1])
            return v.holds(), v.describe()
        if f == "is_cm":
            M = self._module(a[0])
            return is_cm(M), f"depth={_jsonable(depth(M))}, dim={krull_dim(M)}"
        if f == "is_mcm":
            M = self._module(a[0])
            return is_mcm(M), f"depth={_jsonable(depth(M))}, dim={krull_dim(M)}"
        if f == "in_auslander_class":
            v = in_auslander_class(self._module(a[0]), self._module(a[1]),
                                   bound=cfg.bound)
            return v.holds(), v.describe()
        if f == "is_semidualizing":
            cert = is_semidualizing(self._module(a[0]), bound=cfg.bound)
            detail = cert.status_label()
            if cert.failure:
                detail += f": {cert.failure}"
            return cert.valid, detail
        raise ScriptError(f"unknown predicate {f!r}")

    def _scalar(self, call: Call):
        """(numeric value, display value) for a scalar call."""
        from .invariants import depth, krull_dim, reduced_grade

        f, a = call.fn, call.args
        if f == "depth":
            d = depth(self._module(a[0]))
            return d, _jsonable(d)
        if f == "dim":
            d = krull_dim(self._module(a[0]))
            return d, d
        if f == "rgr":
            rg = reduced_grade(self._module(a[0]), self._module(a[1]),
                               bound=self.config.bound)
            num = rg.value if rg.value is not None else INFINITY
            return num, str(rg)
        raise ScriptError(f"unknown scalar {f!r}")

    def _print_value(self, item):
        if isinstance(item, Call):
            if item.fn in SCALAR_FNS:
                _, display = self._scalar(item)
                return display, ""
            if item.fn in PREDICATE_FNS:
                passed, detail = self._predicate(item)
                return passed, detail
            if item.fn == "hilbert":
                return str(self._module(item.args[0]).hilbert_series()), ""
            if item.fn == "betti":
                from .resolutions import betti

                row = betti(self._module(item.args[0]), item.args[1])
                return _jsonable(row), ""
        M = self._module(item)
        return M.serialize(), ""

    def _binding(self, value):
        if isinstance(value, int):
            return value
        if isinstance(value, PolyList):
            return list(value.polys)
        if isinstance(value, Name) and value.ident in self.rings:
            return self.rings[value.ident]
        return self._module(value)

    # ---- statements

    def run(self, script: Script) -> RunResult:
        self.validate(script)
        for s in script.statements:
            stop = self._statement(s)
            if stop and self.config.fail_fast:
                break
        return self.result

    def _statement(self, s) -> bool:
        """Execute one statement; True if it failed or hit a budget."""
        try:
            return self._dispatch(s)
        except BudgetError as e:
            self.result.budget_hit = True
            self.result.results.append({
                "kind": "error",
                "name": type(s).__name__,
                "value": f"budget exhausted: {e}",
            })
            return True
        except InapplicableError as e:
            self.result.failed = True
            self.result.results.append({
                "kind": "error",
                "name": type(s).__name__,
                "value": f"operation not applicable: {e}",
            })
            return True
        except ValueError as e:
            if not isinstance(s, (LetBinding, AssertStmt, PrintStmt,
                                  CheckStmt)):
                raise
            # an operator or a check refused its operands (two rings, say)
            stmt = pretty_print(Script([s])).rstrip(";\n")
            raise ScriptError(f"{stmt}: {e}") from None

    def _dispatch(self, s) -> bool:
        if isinstance(s, (RingPolyDecl, RingQuotientDecl, ModuleDecl)):
            kind = "module" if isinstance(s, ModuleDecl) else "ring"
            try:
                self._declare(s)
            except (ValueError, HomogeneityError) as e:
                raise ScriptError(f"{kind} {s.name}: {e}") from None
            return False
        cfg = self.config
        if isinstance(s, LetBinding):
            M = self._module(s.expr)
            self.values[s.name] = M
            self.result.declarations.append(
                {"kind": "let", "name": s.name,
                 "expr": _fmt_value(s.expr),
                 "presentation": M.serialize()})
            return False
        if isinstance(s, AssertStmt):
            if isinstance(s.predicate, Cmp):
                num, display = self._scalar(s.predicate.call)
                want = s.predicate.value
                passed = _CMP[s.predicate.op](num, want)
                detail = f"{_fmt_value(s.predicate.call)} = {display}"
            else:
                passed, detail = self._predicate(s.predicate)
            self.result.results.append({
                "kind": "assert",
                "name": _fmt_value(s.predicate),
                "value": {"passed": bool(passed), "detail": str(detail)},
            })
            if not passed:
                self.result.failed = True
            return not passed
        if isinstance(s, PrintStmt):
            value, detail = self._print_value(s.item)
            entry = {"kind": "print", "name": _fmt_value(s.item),
                     "value": _jsonable(value)}
            if detail:
                entry["detail"] = detail
            self.result.results.append(entry)
            return False
        if isinstance(s, CheckStmt):
            from . import theorems

            tid = theorems.resolve_id(s.theorem_id)
            bindings = {k: self._binding(v) for k, v in s.bindings}
            report = theorems.check(tid, bindings, cfg.bound)
            shown = ", ".join(f"{k} = {_fmt_value(v)}"
                              for k, v in s.bindings)
            self.result.results.append({
                "kind": "check",
                "name": f"{s.theorem_id}({shown})",
                "report": _jsonable(report.to_dict()),
            })
            return self._note_report(report)
        if isinstance(s, SuiteStmt):
            from . import theorems
            from .corpus import generate_corpus

            ring = self.rings[s.ring]
            modules = generate_corpus(ring, s.size)
            ids = ([theorems.resolve_id(t) for t in s.theorem_ids]
                   or list(theorems.SUITE_DEFAULT_IDS))
            instances = theorems.default_instances(ring, modules, ids)
            reports, summary = theorems.run_suite(instances, cfg.bound)
            failed = False
            for r in reports:
                failed = self._note_report(r) or failed
            if not summary["suite_passed"]:
                self.result.failed = True
                failed = True
            self.result.results.append({
                "kind": "suite",
                "name": f"corpus({s.ring}, {s.size})",
                "report": {
                    "summary": _jsonable(summary),
                    "reports": [_jsonable(r.to_dict()) for r in reports],
                },
            })
            return failed
        raise ScriptError(f"unknown statement {type(s).__name__}")

    def _declare(self, s):
        """Build a ring or module declaration; a bad field, variable list,
        unit ideal or inhomogeneous matrix raises ValueError or
        HomogeneityError."""
        if isinstance(s, RingPolyDecl):
            ring = make_ring(field_from_name(s.field_name), s.variables)
            self.rings[s.name] = ring
            self.result.declarations.append(
                {"kind": "ring", "name": s.name, "key": ring.key()})
        elif isinstance(s, RingQuotientDecl):
            base = self.rings[s.base]
            ring = make_ring(base.field, base.names,
                             list(base.relations) + list(s.polys))
            self.rings[s.name] = ring
            self.result.declarations.append(
                {"kind": "ring", "name": s.name, "key": ring.key()})
        else:
            ring = self.rings[s.ring]
            rows = ([list(row) for row in s.matrix]
                    or [[] for _ in s.twists])  # no relations: free module
            M = from_matrix(ring, s.twists, rows)
            self.values[s.name] = M
            self.result.declarations.append(
                {"kind": "module", "name": s.name,
                 "presentation": M.serialize()})

    def _note_report(self, report) -> bool:
        if "Inapplicable-by-budget" in report.notes:
            self.result.budget_hit = True
            return True
        if report.verdict == "Refuted":
            self.result.failed = True
            return True
        if report.verdict == "Inapplicable":
            self.result.inapplicable_seen = True
            return self.config.strict
        return False


def execute(script: Script, config: RunConfig | None = None) -> RunResult:
    return _Runner(config or RunConfig()).run(script)


def report_json(result: RunResult) -> str:
    payload = {
        "version": VERSION,
        "config": result.config.to_dict(),
        "declarations": result.declarations,
        "results": result.results,
    }
    out: list = []
    _write_json(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, indent: str, out: list) -> None:
    """Append to `out` the text of json.dumps(value, sort_keys=True,
    indent=2) for a value on a line that breaks and indents as `indent`,
    without the encoder's pure-Python indenting path."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep, comma = "{" + inner, "," + inner
        for key, item in sorted(value.items()):
            out.append(sep)
            out.append(encode_basestring_ascii(
                key if isinstance(key, str) else json.dumps(key)))
            out.append(": ")
            _write_json(item, inner, out)
            sep = comma
        out.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = comma
        out.append(indent + "]")
    elif type(value) is int:
        out.append(repr(value))
    else:
        out.append(json.dumps(value))


def _text_lines(result: RunResult):
    for d in result.declarations:
        if d["kind"] == "ring":
            yield f"ring    {d['name']} = {d['key']}"
        else:
            gens = d["presentation"].splitlines()[1]
            yield f"{d['kind']:<7} {d['name']}: generators {gens}"
    for r in result.results:
        if r["kind"] == "assert":
            mark = "ok  " if r["value"]["passed"] else "FAIL"
            yield f"assert  {mark} {r['name']}  [{r['value']['detail']}]"
        elif r["kind"] == "print":
            extra = f"  [{r['detail']}]" if "detail" in r else ""
            yield f"print   {r['name']} = {r['value']}{extra}"
        elif r["kind"] == "check":
            rep = r["report"]
            yield (f"check   {rep['theorem_id']} on {rep['instance']}: "
                   f"{rep['verdict']}")
            for note in rep.get("notes", []):
                yield f"        note: {note}"
            if rep.get("witness"):
                yield f"        witness: {rep['witness']}"
        elif r["kind"] == "suite":
            summary = r["report"]["summary"]
            counts = ", ".join(f"{k}={v}"
                               for k, v in sorted(summary["counts"].items()))
            status = "PASS" if summary["suite_passed"] else "FAIL"
            yield f"suite   {r['name']}: {status} ({counts})"
            for rep in r["report"]["reports"]:
                yield (f"        {rep['theorem_id']} on {rep['instance']}: "
                       f"{rep['verdict']}")
        elif r["kind"] == "error":
            yield f"error   {r['name']}: {r['value']}"


def report_text(result: RunResult) -> str:
    lines = list(_text_lines(result))
    lines.append(f"exit {result.exit_code()}")
    return "\n".join(lines) + "\n"
