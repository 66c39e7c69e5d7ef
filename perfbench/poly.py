"""Exact sparse polynomials for the benchmark's own generator and oracle.

This module imports nothing from ``embracket``: the fields, potentials,
violating variants and expected verdicts are all computed here, and the
program's printed output is parsed back with :func:`parse` and compared
exactly.

A polynomial maps an exponent tuple over ``VARS`` to a ``Fraction``.  The
constants ``e``, ``m`` and ``c`` may carry negative exponents (the program
divides by them); the coordinates ``x1..x3``, ``t`` and ``v1..v3`` may not.
"""

from __future__ import annotations

from fractions import Fraction

VARS = ("x1", "x2", "x3", "t", "v1", "v2", "v3", "e", "m", "c")
_POS = {name: k for k, name in enumerate(VARS)}
_CONSTS = frozenset(("e", "m", "c"))
_ZERO_EXP = (0,) * len(VARS)
X = ("x1", "x2", "x3")
V = ("v1", "v2", "v3")


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    @staticmethod
    def const(value) -> "Poly":
        return Poly({_ZERO_EXP: Fraction(value)})

    @staticmethod
    def var(name: str, power: int = 1) -> "Poly":
        exp = list(_ZERO_EXP)
        exp[_POS[name]] = power
        return Poly({tuple(exp): Fraction(1)})

    @staticmethod
    def monomial(coeff, **powers) -> "Poly":
        exp = list(_ZERO_EXP)
        for name, p in powers.items():
            exp[_POS[name]] = p
        return Poly({tuple(exp): Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return Poly({k: v * other for k, v in self.terms.items()})
        out: dict = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                k = tuple(a + b for a, b in zip(ka, kb))
                out[k] = out.get(k, 0) + va * vb
        return Poly(out)

    __rmul__ = __mul__

    def diff(self, name: str) -> "Poly":
        pos = _POS[name]
        out: dict = {}
        for k, v in self.terms.items():
            if k[pos]:
                nk = list(k)
                nk[pos] -= 1
                nk = tuple(nk)
                out[nk] = out.get(nk, 0) + v * k[pos]
        return Poly(out)

    def inverse_monomial(self) -> "Poly":
        """1/p for a single constant monomial (rational times e, m, c powers)."""
        if len(self.terms) != 1:
            raise ValueError("can only divide by a single monomial")
        (k, v), = self.terms.items()
        if any(p for name, p in zip(VARS, k) if name not in _CONSTS):
            raise ValueError("can only divide by constants")
        return Poly({tuple(-p for p in k): 1 / v})

    def has(self, name: str) -> bool:
        return any(k[_POS[name]] for k in self.terms)

    def dsl(self, position: str = "x") -> str:
        """DSL text; ``position='q'`` prints coordinates as q1..q3."""
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms, reverse=True):
            coeff = self.terms[k]
            num, den = [], []
            for name, p in zip(VARS, k):
                shown = position + name[1] if name in X else name
                if p > 0:
                    num.append(shown if p == 1 else f"{shown}^{p}")
                elif p < 0:
                    den.append(shown if p == -1 else f"{shown}^{-p}")
            mag = abs(coeff)
            lead = [str(mag.numerator)] if mag.numerator != 1 or not num else []
            body = "*".join(lead + num)
            if mag.denominator != 1:
                body += f"/{mag.denominator}"
            for d in den:
                body += f"/{d}"
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, body))
        first_sign, first = parts[0]
        text = ("-" if first_sign == "-" else "") + first
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


ZERO = Poly()


def curl(f):
    return (
        f[2].diff("x2") - f[1].diff("x3"),
        f[0].diff("x3") - f[2].diff("x1"),
        f[1].diff("x1") - f[0].diff("x2"),
    )


def div(f) -> Poly:
    return f[0].diff("x1") + f[1].diff("x2") + f[2].diff("x3")


def grad(p: Poly):
    return tuple(p.diff(n) for n in X)


def cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def field_dsl(f, position: str = "x") -> str:
    return ";".join(p.dsl(position) for p in f)


# ---------------------------------------------------------------------------
# parsing the program's printed forms back into polynomials

_NAMES = {"e": "e", "m": "m", "c": "c", "t": "t"}
for _k in "123":
    _NAMES["x" + _k] = "x" + _k
    _NAMES["q" + _k] = "x" + _k
    _NAMES["v" + _k] = "v" + _k


def _tokens(text: str):
    out, i = [], 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(("int", text[i:j]))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            out.append(("name", text[i:j]))
            i = j
        elif ch in "+-*/^()":
            out.append(("op", ch))
            i += 1
        else:
            raise ValueError(f"unexpected character {ch!r} in {text!r}")
    out.append(("end", ""))
    return out


class _Reader:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        tok = self.toks[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok

    def sum(self) -> Poly:
        negate = self.peek() == ("op", "-")
        if self.peek()[0] == "op" and self.peek()[1] in "+-":
            self.take()
        out = self.product()
        if negate:
            out = -out
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            sign = self.take()[1]
            rhs = self.product()
            out = out + rhs if sign == "+" else out - rhs
        return out

    def product(self) -> Poly:
        out = self.power()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            op = self.take()[1]
            rhs = self.power()
            out = out * rhs if op == "*" else out * rhs.inverse_monomial()
        return out

    def power(self) -> Poly:
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, text = self.take()
            if kind != "int":
                raise ValueError("exponent must be an integer")
            out = Poly.const(1)
            for _ in range(int(text)):
                out = out * base
            return out
        return base

    def atom(self) -> Poly:
        kind, text = self.take()
        if kind == "int":
            return Poly.const(int(text))
        if kind == "name" and text in _NAMES:
            return Poly.var(_NAMES[text])
        if (kind, text) == ("op", "("):
            inner = self.sum()
            if self.take() != ("op", ")"):
                raise ValueError("unbalanced parenthesis")
            return inner
        raise ValueError(f"unexpected token {text!r}")


def parse(text: str) -> Poly:
    """Parse printed output such as ``e*q1*v2/(2*c) - m*v1^2/2``; q reads as x."""
    reader = _Reader(text)
    out = reader.sum()
    if reader.peek()[0] != "end":
        raise ValueError(f"trailing input in {text!r}")
    return out


def parse_field(text: str):
    parts = text.split(";")
    if len(parts) != 3:
        raise ValueError(f"not a vector field: {text!r}")
    return tuple(parse(p) for p in parts)
