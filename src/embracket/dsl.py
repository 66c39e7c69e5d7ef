"""Parser for the expression DSL.

Grammar (phase-space and field-space contexts)::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' ['-'] integer)?
    base   := integer | 'e'|'m'|'c' | var | '(' expr ')'
    var    := ('q'|'v'|'x')('1'|'2'|'3') | 't'

Phase-space context admits q, v, t; field-space context admits x, t.
Exponents are at most 64 in absolute value, and in no product (each step
of a power included) may the two factors' term counts multiply to more than
_MAX_TERMS, so a short input cannot ask for an unbounded number of products
or an unbounded expansion.
Vector fields are three expressions joined by ';'.

The 'extended' context additionally accepts everything the canonical
printer can emit, so printed forms parse back exactly: symbolic indices
(q[i], v[j], x[k], a[s]), acceleration symbols a1..a3, opaque field
components E[i], B[i], A[i], scalars A0, U, f, Kronecker deltas
delta(i,j), Levi-Civita symbols eps(i,j,k), and derivative heads
d(expr, var, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as ex
from .expr import Expr, VectorField

CONTEXTS = ("phase-space", "field-space", "extended")


@dataclass
class ParseError(Exception):
    """A rejected input, with the byte offset of the offending token."""

    position: int
    message: str
    token: str | None = None

    def __str__(self) -> str:
        tok = f" near {self.token!r}" if self.token else ""
        return f"{self.message}{tok} (offset {self.position})"


_OPS = set("+-*/^()[],;")

_MAX_EXPONENT = 64
_MAX_TERMS = 5_000  # bound on len(left.terms) * len(right.terms) per product


@dataclass
class _Token:
    kind: str  # 'int' | 'name' | 'op' | 'end'
    value: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ParseError(i, "unexpected character", ch)
    end = max(0, n - 1) if n else 0
    tokens.append(_Token("end", "", end))
    return tokens


def _check_product(left: Expr, right: Expr, op: _Token) -> None:
    if len(left.terms) * len(right.terms) > _MAX_TERMS:
        raise ParseError(op.pos, f"product of more than {_MAX_TERMS} term pairs", op.value)


class _Parser:
    def __init__(self, tokens: list[_Token], context: str):
        self.tokens = tokens
        self.pos = 0
        self.context = context

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.next()
        if tok.kind != "op" or tok.value != op:
            raise ParseError(tok.pos, f"expected {op!r}", tok.value or None)
        return tok

    # expr := ['+'|'-'] term (('+'|'-') term)*
    def parse_expr(self) -> Expr:
        tok = self.peek()
        negate = False
        if tok.kind == "op" and tok.value in "+-":
            self.next()
            negate = tok.value == "-"
        first = self.parse_term()
        terms = [-first if negate else first]
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value in "+-":
                self.next()
                rhs = self.parse_term()
                terms.append(rhs if tok.value == "+" else -rhs)
            else:
                return ex._sum(terms)

    def parse_term(self) -> Expr:
        result = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value in "*/":
                self.next()
                rhs = self.parse_factor()
                _check_product(result, rhs, tok)
                if tok.value == "*":
                    result = result * rhs
                else:
                    try:
                        result = result / rhs
                    except ex.NonPolynomialError:
                        raise ParseError(
                            tok.pos, "division only by rational/e/m/c constants"
                        ) from None
            else:
                return result

    def parse_factor(self) -> Expr:
        base_tok = self.peek()
        base = self.parse_base()
        tok = self.peek()
        if tok.kind == "op" and tok.value == "^":
            self.next()
            sign = 1
            stok = self.peek()
            if stok.kind == "op" and stok.value == "-":
                self.next()
                sign = -1
            etok = self.next()
            if etok.kind != "int":
                raise ParseError(etok.pos, "exponent must be an integer", etok.value or None)
            digits = etok.value.lstrip("0") or "0"
            if len(digits) > len(str(_MAX_EXPONENT)) or int(digits) > _MAX_EXPONENT:
                raise ParseError(
                    etok.pos, f"exponent larger than {_MAX_EXPONENT}", etok.value
                )
            count = int(digits)
            try:
                factor = base ** -1 if sign < 0 and count else base
            except ex.NonPolynomialError:
                raise ParseError(
                    base_tok.pos, "negative powers only on rational/e/m/c constants"
                ) from None
            result = ex.ONE  # the product loop of Expr.__pow__, checked per factor
            for _ in range(count):
                _check_product(result, factor, tok)
                result = result * factor
            return result
        return base

    def parse_base(self) -> Expr:
        tok = self.next()
        if tok.kind == "int":
            return ex.rational(int(tok.value))
        if tok.kind == "op" and tok.value == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if tok.kind == "name":
            return self.resolve_name(tok)
        raise ParseError(tok.pos, "expected a value", tok.value or None)

    def resolve_name(self, tok: _Token) -> Expr:
        name = tok.value
        if name == "e":
            return ex.E_SYM
        if name == "m":
            return ex.M_SYM
        if name == "c":
            return ex.C_SYM
        if name == "t":
            return ex.t()
        extended = self.context == "extended"
        if extended:
            special = self.resolve_extended(tok)
            if special is not None:
                return special
        if len(name) >= 2 and name[0] in "qvxa" and name[1:].isdigit():
            return self.make_var(tok, name[0], int(name[1:]))
        if name in "qvxa" and self.peek().kind == "op" and self.peek().value == "[":
            kind = name
            self.expect_op("[")
            idx = self.parse_index()
            self.expect_op("]")
            return self.make_var(tok, kind, idx)
        raise ParseError(tok.pos, "unknown symbol", name)

    def make_var(self, tok: _Token, kind: str, idx) -> Expr:
        if isinstance(idx, int) and not 1 <= idx <= 3:
            raise ParseError(tok.pos, "index out of range 1..3", tok.value)
        if isinstance(idx, str) and self.context != "extended":
            raise ParseError(tok.pos, "symbolic indices need the extended context", tok.value)
        allowed = {
            "phase-space": "qv",
            "field-space": "x",
            "extended": "qvxa",
        }[self.context]
        if kind not in allowed:
            raise ParseError(
                tok.pos,
                f"variable kind {kind!r} not allowed in {self.context} context",
                tok.value,
            )
        maker = {"q": ex.q, "v": ex.v, "x": ex.x, "a": ex.accel}[kind]
        try:
            return maker(idx)
        except ex.IndexConventionError as err:
            raise ParseError(tok.pos, str(err), tok.value) from None

    def parse_index(self):
        tok = self.next()
        if tok.kind == "int":
            val = int(tok.value)
            if not 1 <= val <= 3:
                raise ParseError(tok.pos, "index out of range 1..3", tok.value)
            return val
        if tok.kind == "name":
            return tok.value
        raise ParseError(tok.pos, "expected an index", tok.value or None)

    def resolve_extended(self, tok: _Token) -> Expr | None:
        name = tok.value
        if name in ex.VECTOR_FAMILIES:
            self.expect_op("[")
            idx = self.parse_index()
            self.expect_op("]")
            return ex.field_component(name, idx)
        if name in ex.SCALAR_FAMILIES:
            return ex.scalar_field(name)
        if name == "delta":
            self.expect_op("(")
            i = self.parse_index()
            self.expect_op(",")
            j = self.parse_index()
            self.expect_op(")")
            return ex.delta(i, j)
        if name == "eps":
            self.expect_op("(")
            i = self.parse_index()
            self.expect_op(",")
            j = self.parse_index()
            self.expect_op(",")
            k = self.parse_index()
            self.expect_op(")")
            return ex.eps(i, j, k)
        if name == "d":
            nxt = self.peek()
            if not (nxt.kind == "op" and nxt.value == "("):
                raise ParseError(tok.pos, "unknown symbol", name)
            self.next()
            inner = self.parse_expr()
            dvars = []
            while self.peek().kind == "op" and self.peek().value == ",":
                self.next()
                dvars.append(self.parse_deriv_var())
            self.expect_op(")")
            if not dvars:
                raise ParseError(tok.pos, "derivative needs at least one variable")
            for dv in dvars:
                inner = ex.partial(inner, dv)
            return inner
        return None

    def parse_deriv_var(self):
        tok = self.next()
        if tok.kind != "name":
            raise ParseError(tok.pos, "expected a derivative variable", tok.value or None)
        name = tok.value
        if name == "t":
            return ("t", None)
        if len(name) >= 2 and name[0] in "qx" and name[1:].isdigit():
            idx = int(name[1:])
            if not 1 <= idx <= 3:
                raise ParseError(tok.pos, "index out of range 1..3", name)
            return (name[0], idx)
        if name in "qx" and self.peek().kind == "op" and self.peek().value == "[":
            self.expect_op("[")
            idx = self.parse_index()
            self.expect_op("]")
            return (name, idx)
        raise ParseError(tok.pos, "derivatives only with respect to q, x, or t", name)


def parse(text: str, context: str = "phase-space") -> Expr:
    """Parse a DSL string into a canonical expression.

    Raises :class:`ParseError` carrying the byte offset of the problem.
    """
    if context not in CONTEXTS:
        raise ValueError(f"unknown context {context!r}")
    if not text.strip():
        raise ParseError(0, "empty expression")
    parser = _Parser(_tokenize(text), context)
    result = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(trailing.pos, "trailing input", trailing.value or None)
    return result


def parse_vector_field(text: str, context: str = "field-space") -> VectorField:
    """Parse 'e1;e2;e3' into a vector field of canonical components."""
    chunks = text.split(";")
    if len(chunks) != 3:
        raise ParseError(
            min(len(text), max(len(text) - 1, 0)),
            f"a vector field needs 3 components, got {len(chunks)}",
        )
    comps = []
    offset = 0
    for chunk in chunks:
        try:
            comps.append(parse(chunk, context))
        except ParseError as err:
            raise ParseError(offset + err.position, err.message, err.token) from None
        offset += len(chunk) + 1
    try:
        return VectorField(comps)
    except ex.ExprError as err:
        raise ParseError(0, str(err)) from None
