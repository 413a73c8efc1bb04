"""Declarative script language for rings, modules, asserts and checks.

A script is a sequence of semicolon-terminated statements:

    ring R = poly(QQ, x, y);
    ring Q = quotient(R, [x*y]);
    module M = coker(Q, twists=[0], matrix=[[x]]);
    let L = lambda(M);
    assert is_horizontally_linked(M);
    assert depth(M) == 1;
    print depth(L);
    check THM_MS(M = M);
    suite [THM_MS, PROP_T1] on corpus(Q, 20);

Comments run from '#' to the end of the line.  Every referenced name
must be declared earlier, and every polynomial literal must be
homogeneous; both are enforced at parse time with line and column
diagnostics, homogeneity failures naming the offending monomial.  The
parser returns a Script whose pretty-printed form parses back to an
equal AST.
"""

from __future__ import annotations

from .fields import QQ
from .monomials import mono_deg, mono_str
from .polynomials import PolyRing, parse_poly

EXPR_FNS = {
    "lambda": ("module",),
    "transpose": ("module",),
    "transpose_wrt": ("module", "module"),
    "syzygy": ("module", "index"),
    "ext": ("module", "module", "index"),
    "tor": ("module", "module", "index"),
    "tensor": ("module", "module"),
    "hom": ("module", "module"),
    "canonical": ("ring",),
    "dual": ("module",),
    "pushforward": ("module", "module"),
}

PREDICATE_FNS = {
    "is_horizontally_linked": ("module",),
    "is_stable": ("module",),
    "serre_tilde": ("module", "order"),
    "is_cm": ("module",),
    "is_mcm": ("module",),
    "in_auslander_class": ("module", "module"),
    "is_semidualizing": ("module",),
    "iso": ("module", "module"),
}

SCALAR_FNS = {
    "depth": ("module",),
    "dim": ("module",),
    "rgr": ("module", "module"),
}

PRINT_ONLY_FNS = {
    "hilbert": ("module",),
    "betti": ("module", "index"),
}

# The least value of an integer argument: a homological index or a
# resolution length is at least 0, the order k of S~_k at least 1.
INT_LEAST = {"index": 0, "order": 1}

CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")

_SYMBOLS = ("==", "!=", "<=", ">=",
            "(", ")", "[", "]", "=", ",", ";", "<", ">",
            "+", "-", "*", "^", "/")


class DslError(Exception):
    def __init__(self, message: str, line: int, col: int, expected=()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        suffix = ""
        if self.expected:
            suffix = " (expected: " + ", ".join(self.expected) + ")"
        super().__init__(f"line {line}, col {col}: {message}{suffix}")


class _Node:
    """A record of the fields named by `__slots__`, built positionally.

    Two records are equal when they have the same type and equal fields,
    and none is hashable; the repr is the dataclass one, e.g.
    `Call(fn='lambda', args=[Name(ident='M')])`.  Not a dataclass, whose
    code generation would run in every fresh interpreter that parses.
    """

    __slots__ = ()
    __hash__ = None

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes "
                            f"{len(self.__slots__)} fields, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            setattr(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"


class Token(_Node):
    __slots__ = ("kind", "value", "line", "col")
    kind: str  # "name" | "int" | "sym" | "eof"
    value: str
    line: int
    col: int


def tokenize(source: str):
    tokens = []
    line, col, i = 1, 1, 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("int", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("name", source[i:j], line, col))
            col += j - i
            i = j
            continue
        sym = source[i:i + 2] if source[i:i + 2] in _SYMBOLS else c
        if sym in _SYMBOLS:
            tokens.append(Token("sym", sym, line, col))
            i += len(sym)
            col += len(sym)
            continue
        raise DslError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# -- AST ----------------------------------------------------------------------


class Name(_Node):
    __slots__ = ("ident",)
    ident: str


class Call(_Node):
    __slots__ = ("fn", "args")
    fn: str
    args: list  # Name | Call | int | PolyList


class Cmp(_Node):
    __slots__ = ("call", "op", "value")
    call: Call
    op: str
    value: int


class PolyList(_Node):
    __slots__ = ("polys",)
    polys: list  # canonical polynomial strings


class RingPolyDecl(_Node):
    __slots__ = ("name", "field_name", "variables")
    name: str
    field_name: str
    variables: list


class RingQuotientDecl(_Node):
    __slots__ = ("name", "base", "polys")
    name: str
    base: str
    polys: list  # canonical polynomial strings


class ModuleDecl(_Node):
    __slots__ = ("name", "ring", "twists", "matrix")
    name: str
    ring: str
    twists: list
    matrix: list  # rows of canonical polynomial strings


class LetBinding(_Node):
    __slots__ = ("name", "expr")
    name: str
    expr: object  # Call | Name


class AssertStmt(_Node):
    __slots__ = ("predicate",)
    predicate: object  # Call | Cmp


class PrintStmt(_Node):
    __slots__ = ("item",)
    item: object  # Call | Name


class CheckStmt(_Node):
    __slots__ = ("theorem_id", "bindings")
    theorem_id: str
    bindings: list  # (name, Name | Call | int | PolyList) in source order


class SuiteStmt(_Node):
    __slots__ = ("theorem_ids", "ring", "size")
    theorem_ids: list
    ring: str
    size: int


class Script(_Node):
    __slots__ = ("statements",)
    statements: list


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.i = 0
        self.rings: dict = {}   # ring name -> tuple of variable names
        self.values: dict = {}  # module/let name -> ring name

    def peek(self) -> Token:
        return self.tokens[self.i]

    def take(self) -> Token:
        t = self.tokens[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def error(self, message, tok=None, expected=()):
        tok = tok or self.peek()
        raise DslError(message, tok.line, tok.col, expected)

    def expect(self, kind, value=None) -> Token:
        t = self.peek()
        if t.kind != kind or (value is not None and t.value != value):
            want = value if value is not None else kind
            self.error(f"found {t.value!r}", expected=(str(want),))
        return self.take()

    def expect_name(self, what="name") -> Token:
        t = self.peek()
        if t.kind != "name":
            self.error(f"found {t.value!r}", expected=(what,))
        return self.take()

    # ---- entry point

    def script(self) -> Script:
        stmts = []
        while self.peek().kind != "eof":
            stmts.append(self.statement())
        return Script(stmts)

    def statement(self):
        t = self.peek()
        if t.kind != "name":
            self.error(f"found {t.value!r}", expected=(
                "ring", "module", "let", "assert", "print", "check", "suite"))
        handler = {
            "ring": self.ring_stmt,
            "module": self.module_stmt,
            "let": self.let_stmt,
            "assert": self.assert_stmt,
            "print": self.print_stmt,
            "check": self.check_stmt,
            "suite": self.suite_stmt,
        }.get(t.value)
        if handler is None:
            self.error(f"unknown statement {t.value!r}", expected=(
                "ring", "module", "let", "assert", "print", "check", "suite"))
        return handler()

    # ---- declarations

    def _declare(self, tok: Token, table: dict, value):
        if tok.value in self.rings or tok.value in self.values:
            self.error(f"name {tok.value!r} already declared", tok)
        table[tok.value] = value

    def _ring_ref(self) -> str:
        t = self.expect_name("ring name")
        if t.value not in self.rings:
            self.error(f"undeclared ring {t.value!r}", t)
        return t.value

    def ring_stmt(self):
        self.take()
        name = self.expect_name("ring name")
        self.expect("sym", "=")
        head = self.expect_name("poly or quotient")
        if head.value == "poly":
            self.expect("sym", "(")
            fieldname = self._field_name()
            variables = []
            while True:
                self.expect("sym", ",")
                variables.append(self.expect_name("variable").value)
                if self.peek().value == ")":
                    break
            self.expect("sym", ")")
            self.expect("sym", ";")
            self._declare(name, self.rings, tuple(variables))
            return RingPolyDecl(name.value, fieldname, variables)
        if head.value == "quotient":
            self.expect("sym", "(")
            base = self._ring_ref()
            self.expect("sym", ",")
            polys = self._poly_list(self.rings[base])
            self.expect("sym", ")")
            self.expect("sym", ";")
            self._declare(name, self.rings, self.rings[base])
            return RingQuotientDecl(name.value, base, polys)
        self.error(f"found {head.value!r}", head, expected=("poly",
                                                            "quotient"))

    def _field_name(self) -> str:
        t = self.expect_name("field")
        if t.value == "GF":
            self.expect("sym", "(")
            p = self.expect("int")
            self.expect("sym", ")")
            return f"GF({p.value})"
        if t.value != "QQ":
            self.error(f"unknown field {t.value!r}", t,
                       expected=("QQ", "GF(p)"))
        return "QQ"

    def module_stmt(self):
        kw = self.take()
        name = self.expect_name("module name")
        self.expect("sym", "=")
        self.expect("name", "coker")
        self.expect("sym", "(")
        ring = self._ring_ref()
        self.expect("sym", ",")
        self.expect("name", "twists")
        self.expect("sym", "=")
        twists = self._int_list()
        self.expect("sym", ",")
        self.expect("name", "matrix")
        self.expect("sym", "=")
        matrix = self._matrix(self.rings[ring])
        self.expect("sym", ")")
        self.expect("sym", ";")
        if matrix and len(matrix) != len(twists):
            self.error(
                f"matrix has {len(matrix)} rows but {len(twists)} twists",
                kw)
        self._declare(name, self.values, ring)
        return ModuleDecl(name.value, ring, twists, matrix)

    def _int_list(self):
        self.expect("sym", "[")
        out = []
        if self.peek().value != "]":
            while True:
                out.append(self._signed_int())
                if self.peek().value != ",":
                    break
                self.take()
        self.expect("sym", "]")
        return out

    def _signed_int(self) -> int:
        neg = False
        if self.peek().kind == "sym" and self.peek().value == "-":
            self.take()
            neg = True
        t = self.expect("int")
        return -int(t.value) if neg else int(t.value)

    def _int_at_least(self, least: int, what: str) -> int:
        """A signed integer literal; below `least` it is an error at the
        literal."""
        start = self.peek()
        value = self._signed_int()
        if value < least:
            self.error(f"{what} {value} is "
                       + ("negative" if least == 0 else f"below {least}"),
                       start)
        return value

    def _matrix(self, variables):
        self.expect("sym", "[")
        rows = []
        if self.peek().value != "]":
            while True:
                rows.append(self._poly_list(variables))
                if self.peek().value != ",":
                    break
                self.take()
        self.expect("sym", "]")
        return rows

    # ---- polynomial literals

    def _poly_list(self, variables):
        self.expect("sym", "[")
        out = []
        if self.peek().value != "]":
            while True:
                out.append(self._poly_literal(variables))
                if self.peek().value != ",":
                    break
                self.take()
        self.expect("sym", "]")
        return out

    def _poly_literal(self, variables) -> str:
        start = self.peek()
        depth = 0
        parts = []
        while True:
            t = self.peek()
            if t.kind == "eof":
                self.error("unterminated polynomial", start)
            if t.kind == "sym" and depth == 0 and t.value in (",", "]", ")",
                                                              ";"):
                break
            if t.kind == "sym" and t.value == "(":
                depth += 1
            elif t.kind == "sym" and t.value == ")":
                depth -= 1
            parts.append(self.take())
        if not parts:
            self.error("empty polynomial", start)
        return _check_poly(parts, variables, start)

    # ---- expressions and predicates

    def _expr(self, *, tables=(EXPR_FNS,)):
        t = self.peek()
        if t.kind != "name":
            self.error(f"found {t.value!r}", expected=("expression",))
        nxt = self.tokens[self.i + 1]
        if nxt.kind == "sym" and nxt.value == "(":
            return self._call(tables)
        self.take()
        if t.value not in self.values:
            self.error(f"undeclared module {t.value!r}", t)
        return Name(t.value)

    def _call(self, tables):
        t = self.expect_name("function")
        sig = None
        for table in tables:
            if t.value in table:
                sig = table[t.value]
                break
        if sig is None:
            known = sorted(set().union(*tables))
            self.error(f"unknown function {t.value!r}", t, expected=known)
        self.expect("sym", "(")
        args = []
        for k, kind in enumerate(sig):
            if k:
                self.expect("sym", ",")
            if kind in INT_LEAST:
                args.append(self._int_at_least(
                    INT_LEAST[kind], f"{t.value} {kind}"))
            elif kind == "ring":
                args.append(Name(self._ring_ref()))
            else:
                args.append(self._expr())
        self.expect("sym", ")")
        return Call(t.value, args)

    # ---- statements

    def let_stmt(self):
        self.take()
        name = self.expect_name("value name")
        self.expect("sym", "=")
        expr = self._expr()
        self.expect("sym", ";")
        self._declare(name, self.values, self._ring_of(expr))
        return LetBinding(name.value, expr)

    def _ring_of(self, expr):
        if isinstance(expr, Name):
            if expr.ident in self.values:
                return self.values[expr.ident]
            return expr.ident  # a ring reference
        for a in expr.args:
            if isinstance(a, (Name, Call)):
                return self._ring_of(a)
        return None

    def assert_stmt(self):
        self.take()
        pred = self._call((PREDICATE_FNS, SCALAR_FNS))
        if pred.fn in SCALAR_FNS:
            op = self.peek()
            if op.kind != "sym" or op.value not in CMP_OPS:
                self.error(f"found {op.value!r}", expected=CMP_OPS)
            self.take()
            value = self._signed_int()
            pred = Cmp(pred, op.value, value)
        self.expect("sym", ";")
        return AssertStmt(pred)

    def print_stmt(self):
        self.take()
        item = self._expr(tables=(EXPR_FNS, PREDICATE_FNS, SCALAR_FNS,
                                  PRINT_ONLY_FNS))
        self.expect("sym", ";")
        return PrintStmt(item)

    def check_stmt(self):
        self.take()
        tid = self.expect_name("theorem id")
        self.expect("sym", "(")
        bindings = []
        if self.peek().value != ")":
            while True:
                bname = self.expect_name("binding name")
                self.expect("sym", "=")
                bindings.append((bname.value, self._binding_value(bindings)))
                if self.peek().value != ",":
                    break
                self.take()
        self.expect("sym", ")")
        self.expect("sym", ";")
        return CheckStmt(tid.value, bindings)

    def _binding_value(self, seen):
        t = self.peek()
        if t.kind == "int" or (t.kind == "sym" and t.value == "-"):
            return self._signed_int()
        if t.kind == "sym" and t.value == "[":
            return PolyList(self._poly_list(self._binding_ring_vars(seen)))
        if t.kind == "name" and t.value in self.rings:
            nxt = self.tokens[self.i + 1]
            if not (nxt.kind == "sym" and nxt.value == "("):
                self.take()
                return Name(t.value)
        return self._expr()

    def _binding_ring_vars(self, seen):
        for _, value in seen:
            ring = self._ring_of(value) if isinstance(value,
                                                      (Name, Call)) else None
            if ring in self.rings:
                return self.rings[ring]
        self.error("an ideal binding needs a prior module or ring binding "
                   "to fix the variables")

    def suite_stmt(self):
        self.take()
        self.expect("sym", "[")
        ids = []
        if self.peek().value != "]":
            while True:
                ids.append(self.expect_name("theorem id").value)
                if self.peek().value != ",":
                    break
                self.take()
        self.expect("sym", "]")
        self.expect("name", "on")
        self.expect("name", "corpus")
        self.expect("sym", "(")
        ring = self._ring_ref()
        self.expect("sym", ",")
        size = self._int_at_least(0, "corpus size")
        self.expect("sym", ")")
        self.expect("sym", ";")
        return SuiteStmt(ids, ring, size)


def _join_poly(tokens) -> str:
    """Canonical text for a polynomial token run."""
    out = []
    prev = None
    for t in tokens:
        v = t.value
        if v in ("+", "-"):
            unary = prev is None or (prev.kind == "sym"
                                     and prev.value in "(+-*/^")
            out.append(v if unary else f" {v} ")
        elif v in ("*", "^", "/", "(", ")"):
            out.append(v)
        else:
            if prev is not None and (prev.kind in ("name", "int")
                                     or prev.value == ")"):
                out.append("*")
            out.append(v)
        prev = t
    return "".join(out)


def _check_poly(tokens, variables, start: Token) -> str:
    text = _join_poly(tokens)
    ring = PolyRing(QQ, variables)
    try:
        p = parse_poly(ring, text)
    except ValueError as e:
        raise DslError(f"bad polynomial {text!r}: {e}", start.line,
                       start.col) from None
    if not p.is_homogeneous():
        top = p.degree()
        for m in sorted(p.terms):
            if mono_deg(m) != top:
                bad = mono_str(m, ring.names)
                raise DslError(
                    f"polynomial {text!r} is not homogeneous: monomial "
                    f"{bad} has degree {mono_deg(m)}, top degree is {top}",
                    start.line, start.col)
    return text


def parse(source: str) -> Script:
    """Parse UTF-8 source into a Script or raise DslError."""
    return _Parser(source).script()


# -- pretty printer -----------------------------------------------------------


def _fmt_value(v) -> str:
    if isinstance(v, Name):
        return v.ident
    if isinstance(v, Call):
        return f"{v.fn}(" + ", ".join(_fmt_value(a) for a in v.args) + ")"
    if isinstance(v, Cmp):
        return f"{_fmt_value(v.call)} {v.op} {v.value}"
    if isinstance(v, PolyList):
        return "[" + ", ".join(v.polys) + "]"
    return str(v)


def pretty_print(script: Script) -> str:
    lines = []
    for s in script.statements:
        if isinstance(s, RingPolyDecl):
            args = ", ".join([s.field_name] + list(s.variables))
            lines.append(f"ring {s.name} = poly({args});")
        elif isinstance(s, RingQuotientDecl):
            lines.append(f"ring {s.name} = quotient({s.base}, "
                         f"[{', '.join(s.polys)}]);")
        elif isinstance(s, ModuleDecl):
            rows = ", ".join("[" + ", ".join(r) + "]" for r in s.matrix)
            tw = ", ".join(str(t) for t in s.twists)
            lines.append(f"module {s.name} = coker({s.ring}, twists=[{tw}], "
                         f"matrix=[{rows}]);")
        elif isinstance(s, LetBinding):
            lines.append(f"let {s.name} = {_fmt_value(s.expr)};")
        elif isinstance(s, AssertStmt):
            lines.append(f"assert {_fmt_value(s.predicate)};")
        elif isinstance(s, PrintStmt):
            lines.append(f"print {_fmt_value(s.item)};")
        elif isinstance(s, CheckStmt):
            body = ", ".join(f"{k} = {_fmt_value(v)}" for k, v in s.bindings)
            lines.append(f"check {s.theorem_id}({body});")
        elif isinstance(s, SuiteStmt):
            ids = ", ".join(s.theorem_ids)
            lines.append(f"suite [{ids}] on corpus({s.ring}, {s.size});")
        else:
            raise TypeError(f"unknown statement {type(s).__name__}")
    return "\n".join(lines) + ("\n" if lines else "")
