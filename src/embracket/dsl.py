"""Parser for the expression DSL.

Grammar (every context)::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' ['-'] integer)?
    base   := integer | 'e'|'m'|'c'|'t' | var | '(' expr ')'
    var    := ('q'|'v'|'x'|'a') (integer | '[' (integer | name) ']')

Tokens are ASCII: integers are digits 0-9, names start with a letter or '_'.
A concrete index is 1, 2 or 3, leading zeros allowed (q01 is q1).
Phase-space context admits q, v, t; field-space context admits x, t.
Exponents are at most 64 in absolute value, and in no product (each step
of a power included) may the two factors' term counts multiply to more than
_MAX_TERMS, so a short input cannot ask for an unbounded number of products
or an unbounded expansion.  Vector fields and forces are three expressions
joined by ';'.

The 'extended' context additionally accepts everything the canonical
printer can emit, so printed forms parse back exactly: symbolic indices
(q[i], v[j], x[k], a[s]), acceleration symbols a1..a3, opaque field
components E[i], B[i], A[i], scalars A0, U, f, Kronecker deltas
delta(i,j), Levi-Civita symbols eps(i,j,k), and derivative heads
d(expr, var, ...) with var one of t, qN, xN, q[i], x[i].
"""

from __future__ import annotations

import functools
import re
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


# the unnamed last branch is a character no token may hold
_TOKEN = re.compile(
    r"(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()\[\],;])|(?P<space>\s+)|.",
    re.DOTALL,
)

_MAX_EXPONENT = 64
_MAX_TERMS = 5_000  # bound on len(left.terms) * len(right.terms) per product

_CONSTANTS = {"e": ex.E_SYM, "m": ex.M_SYM, "c": ex.C_SYM, "t": ex.t()}
_MAKERS = {"q": ex.q, "v": ex.v, "x": ex.x, "a": ex.accel}
_KINDS = {"phase-space": ("q", "v"), "field-space": ("x",), "extended": ("q", "v", "x", "a")}
_DERIV_KINDS = ("q", "x")
_TENSORS = {"delta": (ex.delta, 2), "eps": (ex.eps, 3)}


@dataclass
class _Token:
    kind: str  # 'int' | 'name' | 'op' | 'end'
    value: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind is None:
            raise ParseError(match.start(), "unexpected character", match.group())
        if kind != "space":
            tokens.append(_Token(kind, match.group(), match.start()))
    tokens.append(_Token("end", "", max(0, len(text) - 1)))
    return tokens


def _integer(tok: _Token, digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than the interpreter converts
        raise ParseError(tok.pos, "integer too long") from None


def _index(tok: _Token, digits: str) -> int:
    """The concrete index 1..3 that a digit string names."""
    idx = _integer(tok, digits)
    if idx not in ex.SPATIAL_RANGE:
        raise ParseError(tok.pos, "index out of range 1..3", tok.value)
    return idx


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

    def accept(self, ops: str) -> _Token | None:
        """Consume and return the next token if it is one of the operators in ops."""
        tok = self.tokens[self.pos]
        if tok.kind == "op" and tok.value in ops:
            self.pos += 1
            return tok
        return None

    def expect(self, op: str) -> None:
        if not self.accept(op):
            tok = self.peek()
            raise ParseError(tok.pos, f"expected {op!r}", tok.value or None)

    # expr := ['+'|'-'] term (('+'|'-') term)*
    def parse_expr(self) -> Expr:
        sign = self.accept("+-")
        first = self.parse_term()
        terms = [-first if sign and sign.value == "-" else first]
        while op := self.accept("+-"):
            rhs = self.parse_term()
            terms.append(rhs if op.value == "+" else -rhs)
        return ex._sum(terms)

    def parse_term(self) -> Expr:
        result = self.parse_factor()
        while op := self.accept("*/"):
            rhs = self.parse_factor()
            _check_product(result, rhs, op)
            try:
                result = result * rhs if op.value == "*" else result / rhs
            except ex.NonPolynomialError:
                raise ParseError(op.pos, "division only by rational/e/m/c constants") from None
        return result

    def parse_factor(self) -> Expr:
        base_tok = self.peek()
        base = self.parse_base()
        op = self.accept("^")
        if not op:
            return base
        negative = self.accept("-")
        etok = self.next()
        if etok.kind != "int":
            raise ParseError(etok.pos, "exponent must be an integer", etok.value or None)
        digits = etok.value.lstrip("0") or "0"
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits) > _MAX_EXPONENT:
            raise ParseError(etok.pos, f"exponent larger than {_MAX_EXPONENT}", etok.value)
        count = int(digits)
        try:
            factor = base ** -1 if negative and count else base
        except ex.NonPolynomialError:
            raise ParseError(
                base_tok.pos, "negative powers only on rational/e/m/c constants"
            ) from None
        result = ex.ONE  # the product loop of Expr.__pow__, checked per factor
        for _ in range(count):
            _check_product(result, factor, op)
            result = result * factor
        return result

    def parse_base(self) -> Expr:
        if self.accept("("):
            inner = self.parse_expr()
            self.expect(")")
            return inner
        tok = self.next()
        if tok.kind == "int":
            return ex.rational(_integer(tok, tok.value))
        if tok.kind == "name":
            return self.parse_name(tok)
        raise ParseError(tok.pos, "expected a value", tok.value or None)

    def parse_name(self, tok: _Token) -> Expr:
        name = tok.value
        if name in _CONSTANTS:
            return _CONSTANTS[name]
        special = self.parse_extended(tok) if self.context == "extended" else None
        if special is not None:
            return special
        # any kind first, the context after: x[4] in phase-space is an index error
        var = self.parse_var(tok, _KINDS["extended"])
        if var is None:
            raise ParseError(tok.pos, "unknown symbol", name)
        kind, idx = var
        if isinstance(idx, str) and self.context != "extended":
            raise ParseError(tok.pos, "symbolic indices need the extended context", name)
        if kind not in _KINDS[self.context]:
            raise ParseError(
                tok.pos, f"variable kind {kind!r} not allowed in {self.context} context", name
            )
        return _MAKERS[kind](idx)

    def parse_var(self, tok: _Token, kinds: tuple[str, ...]) -> tuple | None:
        """(kind, index) of a name kN or k[index] with k one of kinds, else None."""
        kind, digits = tok.value[0], tok.value[1:]
        if kind not in kinds:
            return None
        if digits.isdigit():
            return kind, _index(tok, digits)
        if not digits and self.accept("["):
            return kind, *self.parse_indices(1, "]")
        return None

    def parse_indices(self, count: int, close: str) -> list:
        """count ','-separated indices, concrete or symbolic, and the closing bracket."""
        indices = []
        while len(indices) < count:
            if indices:
                self.expect(",")
            tok = self.next()
            if tok.kind == "int":
                indices.append(_index(tok, tok.value))
            elif tok.kind == "name":
                indices.append(tok.value)
            else:
                raise ParseError(tok.pos, "expected an index", tok.value or None)
        self.expect(close)
        return indices

    def parse_extended(self, tok: _Token) -> Expr | None:
        name = tok.value
        if name in ex.VECTOR_FAMILIES:
            self.expect("[")
            return ex.field_component(name, *self.parse_indices(1, "]"))
        if name in ex.SCALAR_FAMILIES:
            return ex.scalar_field(name)
        if name in _TENSORS:
            make, count = _TENSORS[name]
            self.expect("(")
            return make(*self.parse_indices(count, ")"))
        if name == "d" and self.accept("("):
            inner = self.parse_expr()
            dvars = []
            while self.accept(","):
                dvars.append(self.parse_deriv_var())
            self.expect(")")
            if not dvars:
                raise ParseError(tok.pos, "derivative needs at least one variable")
            return functools.reduce(ex.partial, dvars, inner)
        return None

    def parse_deriv_var(self) -> tuple:
        tok = self.next()
        if tok.kind != "name":
            raise ParseError(tok.pos, "expected a derivative variable", tok.value or None)
        if tok.value == "t":
            return ("t", None)
        var = self.parse_var(tok, _DERIV_KINDS)
        if var is None:
            raise ParseError(tok.pos, "derivatives only with respect to q, x, or t", tok.value)
        return var


def parse(text: str, context: str = "phase-space") -> Expr:
    """Parse a DSL string into a canonical expression.

    Raises :class:`ParseError` carrying the byte offset of the problem.
    """
    if context not in CONTEXTS:
        raise ValueError(f"unknown context {context!r}")
    if not text.strip():
        raise ParseError(0, "empty expression")
    parser = _Parser(_tokenize(text), context)
    try:
        result = parser.parse_expr()
    except ex.ExprError as err:
        # an index convention the expression layer enforces, e.g. eps(i,i,i)
        tok = parser.tokens[parser.pos - 1]
        raise ParseError(tok.pos, str(err), tok.value) from None
    except RecursionError:
        tok = parser.peek()
        raise ParseError(tok.pos, "expression nested too deeply", tok.value or None) from None
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(trailing.pos, "trailing input", trailing.value or None)
    return result


def parse_components(text: str, context: str) -> tuple[Expr, Expr, Expr]:
    """Parse 'e1;e2;e3' into three expressions.

    A :class:`ParseError` carries its offset within the whole text.
    """
    chunks = text.split(";")
    if len(chunks) != 3:
        raise ParseError(
            max(len(text) - 1, 0), f"3 ';'-separated components needed, got {len(chunks)}"
        )
    comps = []
    offset = 0
    for chunk in chunks:
        try:
            comps.append(parse(chunk, context))
        except ParseError as err:
            raise ParseError(offset + err.position, err.message, err.token) from None
        offset += len(chunk) + 1
    return tuple(comps)


def parse_vector_field(text: str) -> VectorField:
    """Parse field-space 'e1;e2;e3' into a vector field of canonical components."""
    return VectorField(parse_components(text, "field-space"))
