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
from typing import Iterable, Sequence

import numpy as np
import pytest

from embracket import expr as ex
from embracket import numeric as nm

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


def reference_reduce_term(coeff: Fraction, cpow: tuple, atoms: Sequence[ex.Atom]) -> list[ex.Term]:
    """Apply delta/epsilon rewrites until a term is stable, expanding where needed.

    Returns a list of terms (the rewrites on epsilon pairs and on epsilons
    with mixed concrete/summed indices turn one term into several).
    """
    out: list[ex.Term] = []
    work: list[tuple[Fraction, tuple, list[ex.Atom]]] = [(coeff, cpow, list(atoms))]
    while work:
        c, p, ats = work.pop()
        if c == 0:
            continue
        restart = False
        changed = True
        while changed and not restart:
            changed = False
            counts = ex._name_counts(ats)
            for name, n in counts.items():
                if n > 2:
                    raise ex.IndexConventionError(
                        f"index {name!r} appears {n} times in one monomial"
                    )
            # Kronecker deltas first: they only ever shrink the term.
            for pos, atom in enumerate(ats):
                if not isinstance(atom, ex.Delta):
                    continue
                a, b = atom.a, atom.b
                if isinstance(a, int) and isinstance(b, int):
                    if a != b:
                        c = Fraction(0)
                    del ats[pos]
                    changed = True
                    break
                if a == b:  # same symbolic name twice: the trace over 3 dims
                    c *= 3
                    del ats[pos]
                    changed = True
                    break
                contracted = False
                for first, second in ((a, b), (b, a)):
                    if isinstance(first, str) and counts.get(first, 0) == 2:
                        del ats[pos]
                        mapping = {first: second}
                        ats = [ex._rename_atom(x, mapping) for x in ats]
                        contracted = True
                        break
                if contracted:
                    changed = True
                    break
                if c == 0:
                    break
            if changed or c == 0:
                continue
            # Single-epsilon rules.
            for pos, atom in enumerate(ats):
                if not isinstance(atom, ex.Eps):
                    continue
                slots = (atom.a, atom.b, atom.c)
                if len({(s if isinstance(s, int) else ("s", s)) for s in slots}) < 3:
                    c = Fraction(0)
                    changed = True
                    break
                if all(isinstance(s, int) for s in slots):
                    c *= ex._EPS_SIGN[slots]
                    del ats[pos]
                    changed = True
                    break
                if any(isinstance(s, int) for s in slots):
                    dummy = next(
                        (s for s in slots if isinstance(s, str) and counts.get(s, 0) == 2),
                        None,
                    )
                    if dummy is not None:
                        for val in ex.SPATIAL_RANGE:
                            mapping = {dummy: val}
                            work.append((c, p, [ex._rename_atom(x, mapping) for x in ats]))
                        restart = True
                        break
            if changed or restart:
                continue
            # A summed index shared by two epsilons: rewrite via the
            # epsilon-epsilon identity (brings deltas, handled above).
            eps_positions = [i for i, a in enumerate(ats) if isinstance(a, ex.Eps)]
            for i1, i2 in itertools.combinations(eps_positions, 2):
                e1, e2 = ats[i1], ats[i2]
                shared = sorted(
                    s
                    for s in ex._atom_indices(e1)
                    if isinstance(s, str)
                    and counts.get(s, 0) == 2
                    and s in ex._atom_indices(e2)
                )
                if not shared:
                    continue
                n = shared[0]

                def rotate_front(e: ex.Eps, name: str) -> tuple:
                    slots = [e.a, e.b, e.c]
                    k = slots.index(name)
                    slots = slots[k:] + slots[:k]  # cyclic: parity even
                    return tuple(slots)

                _, a1, b1 = rotate_front(e1, n)
                _, a2, b2 = rotate_front(e2, n)
                rest = [a for i, a in enumerate(ats) if i not in (i1, i2)]
                work.append((c, p, rest + [ex.Delta(a1, a2), ex.Delta(b1, b2)]))
                work.append((-c, p, rest + [ex.Delta(a1, b2), ex.Delta(b1, a2)]))
                restart = True
                break
        if restart or c == 0:
            continue
        out.append((c, p, tuple(ats)))
    return out


def reference_canonicalize_terms(raw: Iterable[ex.Term]) -> tuple[ex.Term, ...]:
    """The ``expr._canonicalize_terms`` that the rule worklist replaced: each
    raw term goes through the flag loop of :func:`reference_reduce_term`."""
    pieces: list[ex.Term] = []
    for coeff, cpow, atoms in raw:
        for rc, rp, rats in reference_reduce_term(coeff, cpow, atoms):
            ct = ex._canonical_term(rc, rp, rats)
            if ct is not None:
                pieces.append(ct)
    return ex._collect(pieces)


def reference_collect(terms):
    """The ``expr._collect`` that re-derived every sort key in a second pass."""
    acc = {}
    for coeff, cpow, atoms in terms:
        if coeff == 0:
            continue
        key = (tuple(a.key() for a in atoms), cpow)
        prev = acc.get(key)
        if prev is None:
            acc[key] = (coeff, cpow, atoms)
        else:
            acc[key] = (prev[0] + coeff, cpow, atoms)
    final = [t for t in acc.values() if t[0] != 0]
    final.sort(key=lambda t: (tuple(a.key() for a in t[2]), t[1]))
    return tuple(final)


def reference_add(self, other):
    """``Expr.__add__`` as it was before sums were collected once, through
    :func:`reference_collect`."""
    other = ex.Expr._coerce(other)
    if other is NotImplemented:
        return NotImplemented
    return ex.Expr(reference_collect(self.terms + other.terms), _canonical=True)


def reference_atom_partial(atom, kind, idx):
    """The ``expr._atom_partial`` that returned a canonical expression; None is zero."""
    if isinstance(atom, (ex.Delta, ex.Eps)):
        return None
    if isinstance(atom, ex.Var):
        if atom.kind != kind:
            return None
        if kind == "t":
            return ex.ONE
        if isinstance(atom.index, int) and isinstance(idx, int):
            return ex.ONE if atom.index == idx else None
        return ex.delta(atom.index, idx)
    if isinstance(atom, (ex.Field, ex.Scalar)):
        if kind == "v":
            return None
        dv = ("t", None) if kind == "t" else (kind, idx)
        if isinstance(atom, ex.Field):
            return ex._atom_expr(ex.Field(atom.family, atom.index, atom.derivs + (dv,)))
        return ex._atom_expr(ex.Scalar(atom.family, atom.derivs + (dv,)))
    raise TypeError(f"not an atom: {atom!r}")


def reference_partial(expr, var):
    """``expr.partial`` as it was: one canonical ``rest * datom`` product per
    atom, added to the running total one at a time (through
    :func:`reference_add`, so no step of it uses the new summation)."""
    kind, idx = ex._as_var(var)
    total = ex.ZERO
    for term in expr.terms:
        if isinstance(idx, str):
            term = ex._rename_dummies_apart(term, {idx})
        coeff, cpow, atoms = term
        for pos, atom in enumerate(atoms):
            datom = reference_atom_partial(atom, kind, idx)
            if datom is None:
                continue
            rest = ex.Expr(((coeff, cpow, atoms[:pos] + atoms[pos + 1:]),))
            total = reference_add(total, rest * datom)
    return total


def reference_norms(values) -> tuple[float, float]:
    """The generator-and-fsum body that ``numeric._norms`` replaced."""
    flat = np.ravel(np.asarray(values, dtype=float))
    if flat.size == 0:
        return 0.0, 0.0
    return float(np.max(np.abs(flat))), float(
        math.sqrt(math.fsum(float(x) * float(x) for x in flat) / flat.size)
    )


def reference_integrate(state, fields, h, steps, method="boris", bindings=None):
    """The numpy 3-vector stepping that ``numeric.integrate`` replaced.

    Each field is evaluated per call with the term loop of
    ``CompiledExpr.__call__`` as it was (constants raised to their powers on
    every call), the cross products go through ``np.cross``; returns a
    ``numeric.Trajectory``.
    """

    def evaluate_table(table, position, velocity, time, bindings):
        values = [
            position[0], position[1], position[2],
            None if velocity is None else velocity[0],
            None if velocity is None else velocity[1],
            None if velocity is None else velocity[2],
            time,
        ]
        total = 0.0
        consts = (bindings.e, bindings.m, bindings.c)
        for coeff, cpow, slots in table:
            piece = coeff
            for base, p in zip(consts, cpow):
                if p:
                    piece = piece * base**p
            for s in slots:
                if values[s] is None:
                    raise ex.UnboundSymbolError("expression needs a velocity value")
                piece = piece * values[s]
            total = total + piece
        return total

    def _compile_field(vf, bindings):
        comps = [nm.CompiledExpr(comp).table for comp in vf]

        def at(r, t: float) -> np.ndarray:
            return np.array([evaluate_table(f, r, None, t, bindings) for f in comps])

        return at

    def _boris_step(r, v, t, h, e_at, b_at, bindings):
        r_half = r + 0.5 * h * v
        t_half = t + 0.5 * h
        half_acc = (bindings.e * h) / (2.0 * bindings.m)
        e_val = e_at(r_half, t_half)
        b_val = b_at(r_half, t_half)
        v_minus = v + half_acc * e_val
        tvec = (bindings.e * h / (2.0 * bindings.m * bindings.c)) * b_val
        v_prime = v_minus + np.cross(v_minus, tvec)
        svec = 2.0 * tvec / (1.0 + float(np.dot(tvec, tvec)))
        v_plus = v_minus + np.cross(v_prime, svec)
        v_new = v_plus + half_acc * e_val
        return r_half + 0.5 * h * v_new, v_new, t + h

    def _accel(r, v, t, e_at, b_at, bindings):
        return (bindings.e / bindings.m) * (
            e_at(r, t) + np.cross(v, b_at(r, t)) / bindings.c
        )

    def _rk4_step(r, v, t, h, e_at, b_at, bindings):
        k1r, k1v = v, _accel(r, v, t, e_at, b_at, bindings)
        k2r = v + 0.5 * h * k1v
        k2v = _accel(r + 0.5 * h * k1r, k2r, t + 0.5 * h, e_at, b_at, bindings)
        k3r = v + 0.5 * h * k2v
        k3v = _accel(r + 0.5 * h * k2r, k3r, t + 0.5 * h, e_at, b_at, bindings)
        k4r = v + h * k3v
        k4v = _accel(r + h * k3r, k4r, t + h, e_at, b_at, bindings)
        r_new = r + (h / 6.0) * (k1r + 2 * k2r + 2 * k3r + k4r)
        v_new = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        return r_new, v_new, t + h

    bindings = bindings or nm.NumericBindings()
    stepper = {"boris": _boris_step, "rk4": _rk4_step}[method]
    e_at, b_at = (_compile_field(vf, bindings) for vf in fields)
    times = np.empty(steps + 1)
    positions = np.empty((steps + 1, 3))
    velocities = np.empty((steps + 1, 3))
    r, v, t = state.r.copy(), state.v.copy(), state.t
    times[0], positions[0], velocities[0] = t, r, v
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            r, v, t = stepper(r, v, state.t + (k - 1) * h, h, e_at, b_at, bindings)
            t = state.t + k * h
            times[k], positions[k], velocities[k] = t, r, v
    finite = (
        np.isfinite(times)
        & np.isfinite(positions).all(axis=1)
        & np.isfinite(velocities).all(axis=1)
    )
    first_nonfinite = None if finite.all() else int(np.argmin(finite))
    return nm.Trajectory(times, positions, velocities, h, method, first_nonfinite)


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
