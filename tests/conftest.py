"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's canonicalization: raw
index enumeration with concrete delta/epsilon value tables, and random
value tables for opaque atoms.  Agreement between an expression and its
canonical form under these evaluators is evidence the rewrites preserved
the tensor value.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from embracket import expr as ex

EPS_TABLE = {}
for perm, sign in (
    ((1, 2, 3), 1), ((2, 3, 1), 1), ((3, 1, 2), 1),
    ((1, 3, 2), -1), ((3, 2, 1), -1), ((2, 1, 3), -1),
):
    EPS_TABLE[perm] = sign


def eps_value(i, j, k) -> int:
    return EPS_TABLE.get((i, j, k), 0)


def delta_value(i, j) -> int:
    return 1 if i == j else 0


class ValueTable:
    """Reproducible random values for every opaque atom slot."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.values: dict = {}

    def get(self, key) -> float:
        if key not in self.values:
            self.values[key] = self.rng.uniform(-2.0, 2.0)
        return self.values[key]


def _assign(idx, assignment):
    if isinstance(idx, str):
        return assignment[idx]
    return idx


def raw_term_value(term, assignment, table: ValueTable) -> float:
    """Evaluate one raw term under a full index assignment.

    Every symbolic index must be assigned; deltas and epsilons use concrete
    value tables, all other atoms draw reproducible random values.
    """
    coeff, cpow, atoms = term
    if any(cpow):
        raise AssertionError("value oracle expects unit constants")
    value = float(coeff)
    for atom in atoms:
        if isinstance(atom, ex.Delta):
            value *= delta_value(_assign(atom.a, assignment), _assign(atom.b, assignment))
        elif isinstance(atom, ex.Eps):
            value *= eps_value(
                _assign(atom.a, assignment),
                _assign(atom.b, assignment),
                _assign(atom.c, assignment),
            )
        elif isinstance(atom, ex.Var):
            if atom.kind == "t":
                value *= table.get(("t",))
            else:
                value *= table.get((atom.kind, _assign(atom.index, assignment)))
        elif isinstance(atom, ex.Field):
            derivs = tuple((d[0], _assign(d[1], assignment)) for d in atom.derivs)
            value *= table.get((atom.family, _assign(atom.index, assignment), tuple(sorted(derivs))))
        elif isinstance(atom, ex.Scalar):
            derivs = tuple((d[0], _assign(d[1], assignment)) for d in atom.derivs)
            value *= table.get((atom.family, tuple(sorted(derivs))))
        else:
            raise AssertionError(f"unhandled atom {atom!r}")
    return value


def brute_value(terms, free_assignment, table: ValueTable) -> float:
    """Sum a term list over all dummy assignments, frees fixed."""
    total = 0.0
    for term in terms:
        counts = ex._name_counts(term[2])
        dummies = sorted(n for n, k in counts.items() if k == 2)
        frees = [n for n, k in counts.items() if k == 1]
        assert set(frees) <= set(free_assignment), (frees, free_assignment)
        for combo in itertools.product((1, 2, 3), repeat=len(dummies)):
            assignment = dict(free_assignment)
            assignment.update(zip(dummies, combo))
            total += raw_term_value(term, assignment, table)
    return total


def assert_same_tensor(raw_terms, expr: ex.Expr, free_names, seed=7, tol=1e-9):
    """Raw terms and canonical expression agree under brute enumeration."""
    table = ValueTable(seed)
    free_names = sorted(free_names)
    for combo in itertools.product((1, 2, 3), repeat=len(free_names)):
        assignment = dict(zip(free_names, combo))
        lhs = brute_value(raw_terms, assignment, table)
        rhs = brute_value(expr.terms, assignment, table)
        assert abs(lhs - rhs) < tol, (assignment, lhs, rhs)


def reference_canonical_term(coeff, cpow, atoms):
    """The factorial relabeling search that ``expr._canonical_term`` replaced.

    Tries every assignment of the dummy pool to the summed indices and keeps
    the lexicographically minimal normalized form; two signs among the
    minimizers mean the term vanishes (None).
    """
    counts = ex._name_counts(atoms)
    dummies = sorted(n for n, k in counts.items() if k == 2)
    frees = {n for n, k in counts.items() if k == 1}

    def normalized(ats):
        sign = 1
        norm = []
        for a in ats:
            s, na = ex._normalize_atom(a)
            sign *= s
            norm.append(na)
        norm.sort(key=lambda a: a.key())
        return sign, tuple(norm)

    if not dummies:
        sign, norm = normalized(atoms)
        return (coeff * sign, cpow, norm)

    pool = ex._dummy_pool(len(dummies), frees)
    best_key = None
    best_atoms = None
    best_signs: set[int] = set()
    for perm in itertools.permutations(pool):
        mapping = dict(zip(dummies, perm))
        sign, norm = normalized(ex._rename_atom(a, mapping) for a in atoms)
        key = tuple(a.key() for a in norm)
        if best_key is None or key < best_key:
            best_key = key
            best_atoms = norm
            best_signs = {sign}
        elif key == best_key:
            best_signs.add(sign)
    if len(best_signs) == 2:
        return None
    return (coeff * best_signs.pop(), cpow, best_atoms)


def reference_norms(values) -> tuple[float, float]:
    """The generator-and-fsum body that ``numeric._norms`` replaced."""
    flat = np.ravel(np.asarray(values, dtype=float))
    if flat.size == 0:
        return 0.0, 0.0
    return float(np.max(np.abs(flat))), float(
        math.sqrt(math.fsum(float(x) * float(x) for x in flat) / flat.size)
    )


# ---------------------------------------------------------------------------
# random generators


def random_concrete_expr(rng: random.Random, depth: int = 4) -> ex.Expr:
    """Random phase-space expression over concretely indexed atoms."""
    if depth <= 0 or rng.random() < 0.3:
        choice = rng.randrange(8)
        if choice == 0:
            return ex.rational(rng.randint(-4, 4), rng.randint(1, 3))
        if choice == 1:
            return ex.q(rng.randint(1, 3))
        if choice == 2:
            return ex.v(rng.randint(1, 3))
        if choice == 3:
            return ex.t()
        if choice == 4:
            return ex.field_component(rng.choice(("E", "B", "A")), rng.randint(1, 3))
        if choice == 5:
            return ex.scalar_field(rng.choice(("A0", "U", "f")))
        if choice == 6:
            return [ex.E_SYM, ex.M_SYM, ex.C_SYM][rng.randrange(3)]
        return ex.q(rng.randint(1, 3)) * ex.v(rng.randint(1, 3))
    op = rng.randrange(4)
    a = random_concrete_expr(rng, depth - 1)
    b = random_concrete_expr(rng, depth - 1)
    if op == 0:
        return a + b
    if op == 1:
        return a - b
    if op == 2:
        return a * b
    return a ** rng.randint(0, 2)


def random_polynomial(
    rng: random.Random,
    variables=("x1", "x2", "x3", "t"),
    max_degree: int = 2,
    terms: int = 3,
) -> ex.Expr:
    """Random field-space polynomial with small rational coefficients."""
    makers = {
        "x1": lambda: ex.x(1),
        "x2": lambda: ex.x(2),
        "x3": lambda: ex.x(3),
        "t": ex.t,
    }
    total = ex.ZERO
    for _ in range(terms):
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if coeff == 0:
            continue
        mono = ex.rational(coeff)
        for _ in range(rng.randint(0, max_degree)):
            mono = mono * makers[rng.choice(variables)]()
        total = total + mono
    return total


@pytest.fixture
def rng():
    return random.Random(20240817)
