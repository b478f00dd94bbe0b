"""Expression language for operator words and identity statements.

Grammar (whitespace-insensitive, juxtaposition is never multiplication):

    expr    := ['-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := atom ('^' INT)?
    atom    := 'a' | 'b' | 'N' | 'p' | 'q' | 'A' | 'd' | RATIONAL
             | 'qnum(' NAT ')' | 'comm(' expr ',' expr ')' | '(' expr ')'

RATIONAL is DIGITS or DIGITS/DIGITS with no intervening spaces and a nonzero
denominator; 'd' is the ASCII name of the shift step.  Exponents may be
negative only where the value is an invertible scalar (in practice: powers
of q); generator powers must be non-negative.  Parse errors carry line,
column and the expected token set.  Parentheses and comm(...) nest at most
MAX_NESTING levels deep; long flat sums and products have no such limit.

Statements layer on top of expressions:

    normalize EXPR
    verify EXPR == EXPR        (a bare EXPR == EXPR also verifies)
    expand EXPR
    with NAME=RATIONAL, ...    (parameter bindings for later statements)
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .identities import NotExpressibleError, expand_in_ab_powers
from .scalar import Poly1, Scalar, qnum, zero
from .weyl import NormalForm, Relation, WordError, commutator

__all__ = [
    "ParseError",
    "EvalError",
    "parse",
    "evaluate",
    "eval_scalar",
    "eval_npoly",
    "print_canonical",
    "Statement",
    "parse_bindings",
    "parse_statement",
    "parse_script",
    "run_statement",
    "run_script",
]


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected=()):
        super().__init__("%s at line %d, column %d" % (message, line, col))
        self.line = line
        self.col = col
        self.expected = frozenset(expected)


class EvalError(Exception):
    """Well-formed input that does not evaluate (N without the extended relation, ...)."""


_GEN = ("a", "b", "N")
_SYM = ("p", "q", "A", "d")
_KEYWORDS = ("qnum", "comm")

# Each nesting level costs the recursive parser and evaluators a few stack
# frames; this bound keeps them far below Python's default recursion limit.
MAX_NESTING = 100


def _int_literal(digits: str, line: int, col: int) -> int:
    try:
        return int(digits)
    except ValueError:  # CPython's cap on decimal-to-int conversion
        raise ParseError(
            "integer literal too long: more than %d decimal digits" % sys.get_int_max_str_digits(), line, col
        ) from None


def _tokenize(text: str, line: int, col: int):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isdecimal():  # exactly the digits int() reads
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            num = _int_literal(text[i:j], line, col)
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdecimal():
                k = j + 1
                while k < n and text[k].isdecimal():
                    k += 1
                den = _int_literal(text[j + 1 : k], line, col + j + 1 - i)
                if den == 0:
                    raise ParseError("zero denominator in %r" % text[i:k], line, col)
                toks.append(("NUMBER", Fraction(num, den), line, col))
                col += k - i
                i = k
            else:
                toks.append(("NUMBER", Fraction(num), line, col))
                col += j - i
                i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            toks.append(("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch == "=" and i + 1 < n and text[i + 1] == "=":
            toks.append(("OP", "==", line, col))
            i += 2
            col += 2
            continue
        if ch in "+-*^(),=":
            toks.append(("OP", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    toks.append(("EOF", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str, line: int, col: int):
        self.toks = _tokenize(text, line, col)
        self.pos = 0
        self.depth = -1  # parentheses and comm( around the expr being parsed

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        kind, value, line, col = self.peek()
        shown = value if kind != "EOF" else "end of input"
        raise ParseError("unexpected %r" % shown, line, col, expected)

    def eat(self, value):
        kind, val, _l, _c = self.peek()
        if kind == "OP" and val == value:
            return self.advance()
        self.fail({value})

    def expr(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            _kind, _value, line, col = self.peek()
            raise ParseError("expression nested more than %d levels deep" % MAX_NESTING, line, col)
        if self._at_op("-"):
            self.advance()
            node = ("neg", self.term())
        else:
            node = self.term()
        while self._at_op("+") or self._at_op("-"):
            op = self.advance()[1]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        self.depth -= 1
        return node

    def term(self):
        node = self.factor()
        while self._at_op("*"):
            self.advance()
            node = ("mul", node, self.factor())
        return node

    def factor(self):
        node = self.atom()
        if self._at_op("^"):
            self.advance()
            sign = 1
            if self._at_op("-"):
                self.advance()
                sign = -1
            kind, value, line, col = self.peek()
            if kind != "NUMBER" or value.denominator != 1:
                self.fail({"integer exponent"})
            self.advance()
            node = ("pow", node, sign * value.numerator)
        return node

    def atom(self):
        kind, value, line, col = self.peek()
        if kind == "NUMBER":
            self.advance()
            return ("num", value)
        if kind == "NAME":
            if value in _GEN:
                self.advance()
                return ("gen", value)
            if value in _SYM:
                self.advance()
                return ("sym", value)
            if value == "qnum":
                self.advance()
                self.eat("(")
                k, v, line2, col2 = self.peek()
                if k != "NUMBER" or v.denominator != 1 or v < 0:
                    self.fail({"natural number"})
                self.advance()
                self.eat(")")
                return ("qnum", v.numerator)
            if value == "comm":
                self.advance()
                self.eat("(")
                lhs = self.expr()
                self.eat(",")
                rhs = self.expr()
                self.eat(")")
                return ("comm", lhs, rhs)
            self.fail(set(_GEN) | set(_SYM) | set(_KEYWORDS))
        if kind == "OP" and value == "(":
            self.advance()
            node = self.expr()
            self.eat(")")
            return node
        self.fail(set(_GEN) | set(_SYM) | set(_KEYWORDS) | {"number", "("})

    def _at_op(self, value):
        kind, val, _l, _c = self.peek()
        return kind == "OP" and val == value

    def done(self):
        if self.peek()[0] != "EOF":
            self.fail({"end of input"})


def parse(text: str, line: int = 1, col: int = 1):
    """Parse an expression into an Ast (nested tuples).

    ``line`` and ``col`` are the position of ``text[0]`` in the input it was
    cut from; error positions count from there.
    """
    p = _Parser(text, line, col)
    node = p.expr()
    p.done()
    return node


# --- evaluation ----------------------------------------------------------------

_CHAIN = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def _fold(ast, leaf):
    """Evaluate a chain of add/sub/mul nodes, applying ``leaf`` to its operands.

    Sums and products parse into left-deep trees as long as the input; walking
    the left spine in a loop keeps the recursion depth independent of length.
    """
    spine = []
    while ast[0] in _CHAIN:
        spine.append(ast)
        ast = ast[1]
    acc = leaf(ast)
    for node in reversed(spine):
        acc = _CHAIN[node[0]](acc, leaf(node[2]))
    return acc


def evaluate(ast, rel: Relation) -> NormalForm:
    """Bottom-up evaluation into the algebra."""
    kind = ast[0]
    if kind == "gen":
        try:
            return rel.gen(ast[1])
        except WordError as exc:
            raise EvalError(str(exc)) from None
    if kind == "sym":
        return rel.scalar_nf(Scalar.variable(ast[1]))
    if kind == "num":
        return rel.scalar_nf(Scalar.of(ast[1]))
    if kind == "qnum":
        return rel.scalar_nf(qnum(ast[1]))
    if kind in _CHAIN:
        return _fold(ast, lambda x: evaluate(x, rel))
    if kind == "neg":
        return -evaluate(ast[1], rel)
    if kind == "comm":
        return commutator(evaluate(ast[1], rel), evaluate(ast[2], rel))
    if kind == "pow":
        base = evaluate(ast[1], rel)
        n = ast[2]
        if n >= 0:
            return base**n
        c = _as_scalar(base)
        if c is None:
            raise EvalError("negative powers need an invertible scalar base")
        return rel.scalar_nf(c**n)
    raise EvalError("unknown node %r" % (kind,))


def _as_scalar(nf: NormalForm):
    if nf.is_zero():
        return zero
    items = list(nf.items())
    if len(items) == 1 and items[0][0] == (0, 0, 0):
        return items[0][1]
    return None


def eval_scalar(ast) -> Scalar:
    """Evaluate a generator-free expression in the coefficient field."""
    kind = ast[0]
    if kind == "gen":
        raise EvalError("generators are not scalars")
    if kind == "sym":
        return Scalar.variable(ast[1])
    if kind == "num":
        return Scalar.of(ast[1])
    if kind == "qnum":
        return qnum(ast[1])
    if kind in _CHAIN:
        return _fold(ast, eval_scalar)
    if kind == "neg":
        return -eval_scalar(ast[1])
    if kind == "pow":
        return eval_scalar(ast[1]) ** ast[2]
    raise EvalError("not a scalar expression")


def eval_npoly(ast) -> Poly1:
    """Evaluate an expression in N (no a, b) as a polynomial in N."""
    kind = ast[0]
    if kind == "gen":
        if ast[1] == "N":
            return Poly1([0, 1], "N")
        raise EvalError("only N may appear in a remainder polynomial")
    if kind in ("sym", "num", "qnum"):
        return Poly1([eval_scalar(ast)], "N")
    if kind in _CHAIN:
        return _fold(ast, eval_npoly)
    if kind == "neg":
        return -eval_npoly(ast[1])
    if kind == "pow":
        if ast[2] < 0:
            return Poly1([eval_scalar(ast)], "N")
        return eval_npoly(ast[1]) ** ast[2]
    raise EvalError("not a polynomial in N")


def print_canonical(x: NormalForm) -> str:
    return x.render()


# --- statements ------------------------------------------------------------------


@dataclass
class Statement:
    kind: str  # normalize | verify | expand | with
    exprs: tuple = ()
    bindings: dict = field(default_factory=dict)


def _position(text: str, i: int, line: int, col: int) -> tuple[int, int]:
    """The (line, column) of ``text[i]`` when ``text[0]`` sits at (line, col)."""
    newlines = text.count("\n", 0, i)
    if newlines:
        return line + newlines, i - text.rfind("\n", 0, i)
    return line, col + i


def parse_statement(text: str, line: int = 1, col: int = 1) -> Statement:
    """One statement; error positions count from (line, col), the position of ``text[0]``."""
    start = len(text) - len(text.lstrip())
    stripped = text.strip()
    head = stripped.split(None, 1)[0] if stripped else ""
    if head == "with":
        return Statement("with", (), parse_bindings(stripped[len("with") :], *_position(text, start, line, col)))
    if head in ("normalize", "expand", "verify"):
        body_at = _position(text, start + len(head), line, col)
        body = stripped[len(head) :]
        if head == "verify":
            return _parse_verify(body, *body_at)
        return Statement(head, (parse(body, *body_at),))
    if "==" in stripped:
        return _parse_verify(stripped, *_position(text, start, line, col))
    return Statement("normalize", (parse(stripped, *_position(text, start, line, col)),))


def _parse_verify(body: str, line: int, col: int) -> Statement:
    left, sep, right = body.partition("==")
    if not sep:
        raise ParseError("verify needs '=='", *_position(body, max(0, len(body) - 1), line, col), {"=="})
    return Statement("verify", (parse(left, line, col), parse(right, *_position(body, len(left) + 2, line, col))))


def parse_bindings(text: str, line: int = 1, col: int = 1) -> dict:
    """``NAME=RATIONAL, ...`` as written in with-clauses and ``--params``.

    NAME is one of p, q, A, d; RATIONAL is anything ``Fraction`` reads.  A
    malformed binding is reported at (line, col), where the clause starts.
    """
    bindings = {}
    for piece in text.split(","):
        piece = piece.strip().rstrip(":")
        if not piece:
            continue
        name, sep, value = piece.partition("=")
        name = name.strip()
        if not sep or name not in _SYM:
            raise ParseError("a binding is NAME=RATIONAL with NAME one of p, q, A, d", line, col, set(_SYM))
        try:
            bindings[name] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ParseError("binding value must be rational", line, col, {"rational"}) from None
    return bindings


def parse_script(text: str) -> list[Statement]:
    """Newline/semicolon separated statements; blank ones are skipped.

    Error positions are the script's line and the column within that line.
    """
    out = []
    for line, text_line in enumerate(text.splitlines(), 1):
        col = 1
        for chunk in text_line.split(";"):
            if chunk.strip():
                out.append(parse_statement(chunk, line, col))
            col += len(chunk) + 1
    return out


def run_statement(stmt: Statement, rel: Relation, bindings: dict) -> dict:
    """Execute one normalize, verify or expand statement under ``bindings``.

    The result row is {"kind", "status", "result"}: normalize rows carry the
    canonical text, verify rows the residual text ("" on pass), expand rows
    the coefficient list (or the reason the expansion fails).
    """
    bound_rel = rel.bind(bindings) if bindings else rel
    values = [evaluate(e, bound_rel) for e in stmt.exprs]
    if bindings:
        values = [v.substitute(bindings) for v in values]
    if stmt.kind == "normalize":
        return {"kind": "normalize", "status": "pass", "result": values[0].render()}
    if stmt.kind == "verify":
        residual = values[0] - values[1]
        return {"kind": "verify", "status": "fail" if residual else "pass", "result": residual.render() if residual else ""}
    try:
        exp = expand_in_ab_powers(values[0])
    except NotExpressibleError as exc:
        return {"kind": "expand", "status": "fail", "result": str(exc)}
    coeffs = [c.text() if hasattr(c, "text") else c.compact() for c in exp.coeffs]
    return {"kind": "expand", "status": "pass", "result": coeffs}


def run_script(text: str, rel: Relation) -> list[dict]:
    """Execute a statement sequence; with-clauses bind parameters for the rest.

    Each non-with statement yields one ``run_statement`` row.
    """
    bindings: dict = {}
    rows: list[dict] = []
    for stmt in parse_script(text):
        if stmt.kind == "with":
            bindings.update(stmt.bindings)
        else:
            rows.append(run_statement(stmt, rel, bindings))
    return rows
