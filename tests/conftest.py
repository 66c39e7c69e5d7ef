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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
import pytest

from embracket import expr as ex
from embracket import helmholtz as hh
from embracket import numeric as nm
from embracket.bracket import _symbolic_chain
from embracket.dsl import CONTEXTS, ParseError
from embracket.expr import Expr

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


def reference_term_pairs(a, b):
    """The ``expr._term_pairs`` that rebuilt both name sets for every pair and
    renamed every pair apart, whether or not either term carried a name."""
    for ta in a.terms:
        for tb in b.terms:
            names_a = set(ex._name_counts(ta[2]))
            names_b = set(ex._name_counts(tb[2]))
            ta2 = ex._rename_dummies_apart(ta, names_b)
            tb2 = ex._rename_dummies_apart(tb, names_a | set(ex._name_counts(ta2[2])))
            cpow = tuple(x + y for x, y in zip(ta2[1], tb2[1]))
            yield ta2[0] * tb2[0], cpow, ta2[2], tb2[2]


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
    if isinstance(atom, ex.Field):
        if kind == "v":
            return None
        dv = ("t", None) if kind == "t" else (kind, idx)
        return ex._atom_expr(ex.Field(atom.family, atom.index, atom.derivs + (dv,)))
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


_REFERENCE_VV_PREFACTOR = ex.E_SYM / (ex.M_SYM**2 * ex.C_SYM)


def _reference_atom_class(atom) -> str:
    if isinstance(atom, ex.Var):
        if atom.kind in ("q", "v"):
            return atom.kind
        if atom.kind == "t":
            return "f"
        return "bad"
    if isinstance(atom, ex.Field):
        return "f"
    return "const"  # Delta / Eps


def _reference_grad_q(atom, idx) -> ex.Expr:
    """d(atom)/dq_idx for a (position, t)-function atom."""
    return ex.partial(ex._atom_expr(atom), ("q", idx))


def _reference_bracket_atoms(a, b) -> ex.Expr:
    ca, cb = _reference_atom_class(a), _reference_atom_class(b)
    if "bad" in (ca, cb):
        bad = a if ca == "bad" else b
        raise ex.UnsupportedOperandError(
            f"no bracket rule for operand {bad!r}"
        )
    if "const" in (ca, cb):
        return ex.ZERO
    if ca == "q" and cb == "q":
        return ex.ZERO
    if ca == "q" and cb == "v":
        return ex.delta(a.index, b.index) / ex.M_SYM
    if ca == "v" and cb == "q":
        return -ex.delta(a.index, b.index) / ex.M_SYM
    if ca == "v" and cb == "v":
        k = ex._fresh_name()
        return _REFERENCE_VV_PREFACTOR * ex.eps(a.index, b.index, k) * ex.field_component("B", k)
    if ca == "q" and cb == "f":
        return ex.ZERO
    if ca == "f" and cb == "q":
        return ex.ZERO
    if ca == "v" and cb == "f":
        return -_reference_grad_q(b, a.index) / ex.M_SYM
    if ca == "f" and cb == "v":
        return _reference_grad_q(a, b.index) / ex.M_SYM
    return ex.ZERO  # two (position, t)-functions commute


# Keyed by alpha-normal atom pairs, so one-off fresh dummy names neither
# miss the cache nor grow it.
_reference_mono_cache: dict = {}


def _reference_alpha_normal(atoms_a: tuple, atoms_b: tuple) -> tuple[tuple, tuple]:
    """Rename the pair's summed indices to ~s0, ~s1, ... in order of first appearance.

    The bracket keeps every summed index of the pair summed in each term of
    its canonical result, so the result does not depend on their names.
    """
    counts = ex._name_counts(atoms_a + atoms_b)
    if 2 not in counts.values():
        return atoms_a, atoms_b
    summed = dict.fromkeys(
        idx
        for atom in atoms_a + atoms_b
        for idx in ex._atom_indices(atom)
        if counts.get(idx) == 2
    )
    names = (f"~s{n}" for n in itertools.count() if counts.get(f"~s{n}") != 1)
    mapping = dict(zip(summed, names))
    return tuple(
        tuple(ex._rename_atom(a, mapping) for a in atoms) for atoms in (atoms_a, atoms_b)
    )


def _reference_bracket_mono(atoms_a: tuple, atoms_b: tuple) -> ex.Expr:
    """Bracket of two atom products, reduced by the Leibniz rule."""
    if not atoms_a or not atoms_b:
        return ex.ZERO
    atoms_a, atoms_b = key = _reference_alpha_normal(atoms_a, atoms_b)
    cached = _reference_mono_cache.get(key)
    if cached is not None:
        return cached
    if len(atoms_b) > 1:
        b0, rest = atoms_b[0], atoms_b[1:]
        result = (
            ex._atom_expr(b0) * _reference_bracket_mono(atoms_a, rest)
            + _reference_bracket_mono(atoms_a, (b0,)) * ex._atom_expr(*rest)
        )
    elif len(atoms_a) > 1:
        a0, rest = atoms_a[0], atoms_a[1:]
        result = (
            ex._atom_expr(a0) * _reference_bracket_mono(rest, atoms_b)
            + _reference_bracket_mono((a0,), atoms_b) * ex._atom_expr(*rest)
        )
    else:
        result = _reference_bracket_atoms(atoms_a[0], atoms_b[0])
    _reference_mono_cache[key] = result
    return result


def reference_bracket(a: ex.Expr, b: ex.Expr) -> ex.Expr:
    """``bracket.bracket`` as it was: the Leibniz rule applied one atom at a
    time, every sub-product memoized under an alpha-normal key."""
    pieces = []
    for coeff, cpow, atoms_a, atoms_b in ex._term_pairs(a, b):
        piece = _reference_bracket_mono(atoms_a, atoms_b)
        if not piece.is_zero:
            pieces.append(ex.Expr(((coeff, cpow, ()),), _canonical=True) * piece)
    return ex._sum(pieces)


def reference_norms(values) -> tuple[float, float]:
    """The generator-and-fsum body that ``numeric._norms`` replaced."""
    flat = np.ravel(np.asarray(values, dtype=float))
    if flat.size == 0:
        return 0.0, 0.0
    return float(np.max(np.abs(flat))), float(
        math.sqrt(math.fsum(float(x) * float(x) for x in flat) / flat.size)
    )


def _reference_grid_norms(values) -> tuple[float, float]:
    """The exact sum of squares by exponent binning, which ``numeric`` used
    before error-free extraction: per raw exponent field of the squares in a
    block of 2^16, the sums of the high and low halves of the 53-bit
    significands, folded into one integer.  It shares no step with the
    extraction, so it stays as a second, independent exact oracle for the
    grid residuals, applied to one stacked array per row."""
    flat = np.ravel(np.asarray(values, dtype=float))
    if flat.size == 0:
        return 0.0, 0.0
    peak = float(np.max(np.abs(flat)))
    if not math.isfinite(peak * peak):  # an inf square makes the sum inf, a nan nan
        return peak, math.sqrt(peak * peak)
    high = np.zeros(2047, dtype=np.int64)
    low = np.zeros(2047, dtype=np.int64)
    for start in range(0, flat.size, 1 << 16):
        block = flat[start : start + (1 << 16)]
        bits = (block * block).view(np.uint64)
        field = bits >> np.uint64(52)
        implicit = (field > 0).astype(np.uint64) << np.uint64(52)
        significand = (bits & np.uint64(2**52 - 1)) | implicit
        bins = np.maximum(field, 1).astype(np.intp)
        high += np.bincount(bins, significand >> np.uint64(27), 2047).astype(np.int64)
        low += np.bincount(bins, significand & np.uint64(2**27 - 1), 2047).astype(np.int64)
    total = sum(
        (int(high[k]) << (k + 27)) + (int(low[k]) << k)
        for k in np.flatnonzero(high | low).tolist()
    )
    try:
        mean = total / (1 << 1075) / flat.size
    except OverflowError:  # the sum overflows, the mean (at most the peak's square) does not
        mean = total / (flat.size << 1075)
    return peak, math.sqrt(mean)


@np.errstate(over="ignore", invalid="ignore")
def reference_maxwell_grid_residuals(fields, grid, bindings=None) -> nm.ResidualReport:
    """``numeric.maxwell_grid_residuals`` as it was before it streamed the
    cube in slabs: every component sampled on the three full ``np.meshgrid``
    arrays, each residual row reduced in one piece."""

    def _samples(exprs, shape, position, velocity, time, bindings):
        compiled = [nm.CompiledExpr(e) for e in exprs]
        return [
            np.broadcast_to(np.asarray(f(position, velocity, time, bindings), dtype=float), shape)
            for f in compiled
        ]

    def _central_diff(values, axis, h):
        sl_plus = [slice(1, -1)] * 3
        sl_minus = [slice(1, -1)] * 3
        sl_plus[axis] = slice(2, None)
        sl_minus[axis] = slice(0, -2)
        return (values[tuple(sl_plus)] - values[tuple(sl_minus)]) / (2.0 * h)

    def _interior(values):
        return values[1:-1, 1:-1, 1:-1]

    def _entry(name, values, h):
        return nm.ResidualEntry(name, *_reference_grid_norms(values), h)

    bindings = bindings or nm.NumericBindings()
    field_E, field_B = fields
    axis = grid.axis()
    mesh = np.meshgrid(axis, axis, axis, indexing="ij")
    at_mesh = (mesh[0].shape, mesh, None, grid.t0, bindings)
    h = grid.h
    comps = [*field_E, *field_B]
    comps += [ex.partial(c, ("t", None)) for c in comps]
    sampled = _samples(comps, *at_mesh)
    e_vals, b_vals, de_dt, db_dt = (sampled[k : k + 3] for k in (0, 3, 6, 9))

    def div_fd(vals):
        return sum(_central_diff(vals[k], k, h) for k in range(3))

    def curl_fd(vals):
        return [
            _central_diff(vals[2], 1, h) - _central_diff(vals[1], 2, h),
            _central_diff(vals[0], 2, h) - _central_diff(vals[2], 0, h),
            _central_diff(vals[1], 0, h) - _central_diff(vals[0], 1, h),
        ]

    entries = []
    entries.append(_entry("magnetic-divergence", div_fd(b_vals), h))

    curl_e = curl_fd(e_vals)
    faraday = [
        curl_e[k] + _interior(db_dt[k]) / bindings.c for k in range(3)
    ]
    entries.append(_entry("faraday-induction", faraday, h))

    entries.append(_entry("implied-charge-density", div_fd(e_vals), h))

    curl_b = curl_fd(b_vals)
    implied = [
        bindings.c * curl_b[k] - _interior(de_dt[k]) for k in range(3)
    ]
    entries.append(_entry("implied-current-density", implied, h))
    return nm.ResidualReport(entries)


def reference_canonical_bracket_check(field_B, vector_potential, state, bindings=None):
    """``numeric.canonical_bracket_check`` as it was before it read one
    Jacobian: every bracket takes its own four central differences per
    direction, through lambdas over (r, p)."""
    bindings = bindings or nm.NumericBindings()
    a_at = nm._compile_field(vector_potential, bindings)
    t0 = state.t

    def v_of(r, p, j):
        return (p[j] - (bindings.e / bindings.c) * a_at(*r, t0)[j]) / bindings.m

    p0 = bindings.m * state.v + (bindings.e / bindings.c) * np.array(a_at(*state.r, t0))

    def fd_bracket(f, g):
        total = 0.0
        for k in range(3):
            d = np.zeros(3)  # the same offset along r_k and p_k
            d[k] = nm._FD_STEP
            df_dr = (f(state.r + d, p0) - f(state.r - d, p0)) / (2 * nm._FD_STEP)
            dg_dp = (g(state.r, p0 + d) - g(state.r, p0 - d)) / (2 * nm._FD_STEP)
            df_dp = (f(state.r, p0 + d) - f(state.r, p0 - d)) / (2 * nm._FD_STEP)
            dg_dr = (g(state.r + d, p0) - g(state.r - d, p0)) / (2 * nm._FD_STEP)
            total += df_dr * dg_dp - df_dp * dg_dr
        return total

    entries = []
    diag_err, offdiag_err, qq_err = [], [], []
    for i in range(3):
        for j in range(3):
            got = fd_bracket(
                lambda r, p, i=i: r[i], lambda r, p, j=j: v_of(r, p, j)
            )
            if i == j:
                expected = 1.0 / bindings.m
                diag_err.append(abs(got - expected) * bindings.m)
            else:
                offdiag_err.append(abs(got))
            qq = fd_bracket(lambda r, p, i=i: r[i], lambda r, p, j=j: r[j])
            qq_err.append(abs(qq))
    entries.append(nm._entry("position-velocity-diagonal", diag_err, nm._FD_STEP))
    entries.append(nm._entry("position-velocity-offdiagonal", offdiag_err, nm._FD_STEP))
    entries.append(nm._entry("position-position", qq_err, nm._FD_STEP))

    vv_err = []
    for i in range(3):
        for j in range(3):
            got = fd_bracket(
                lambda r, p, i=i: v_of(r, p, i), lambda r, p, j=j: v_of(r, p, j)
            )
            rule = nm._rule_bracket(ex.v(i + 1), ex.v(j + 1))
            bound = ex.substitute_fields(rule, {"B": field_B})
            expected = float(nm.evaluate(bound, state.r, bindings, time=t0))
            scale = max(abs(expected), 1.0)
            vv_err.append(abs(got - expected) / scale)
    entries.append(nm._entry("velocity-velocity", vv_err, nm._FD_STEP))
    return nm.ResidualReport(entries)


def reference_integrate(state, fields, h, steps, method="boris", bindings=None):
    """The numpy 3-vector stepping that ``numeric.integrate`` replaced.

    Each field is evaluated per call with the term loop of
    ``CompiledExpr.__call__`` as it was (constants raised to their powers on
    every call), the cross products go through ``np.cross``, |t|^2 is the
    left-to-right sum of the squares, as in ``numeric._boris_step``; returns
    a ``numeric.Trajectory``.
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
        t1, t2, t3 = tvec.tolist()
        svec = 2.0 * tvec / (1.0 + (t1 * t1 + t2 * t2 + t3 * t3))
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
    return nm.Trajectory(times, positions, velocities, h, first_nonfinite)


# ---------------------------------------------------------------------------
# reference DSL parser: the earlier parser, which read names and indices on
# five separate paths, kept verbatim as the differential oracle for
# dsl.parse.  Its tokenizer takes Unicode digits and letters, and a
# multi-letter name such as qv followed by '[' reaches make_var's dict
# lookup (a KeyError).


_REF_OPS = set("+-*/^()[],;")

_REF_MAX_EXPONENT = 64
_REF_MAX_TERMS = 5_000  # bound on len(left.terms) * len(right.terms) per product


@dataclass
class _RefToken:
    kind: str  # 'int' | 'name' | 'op' | 'end'
    value: str
    pos: int


def _ref_tokenize(text: str) -> list[_RefToken]:
    tokens: list[_RefToken] = []
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
            tokens.append(_RefToken("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_RefToken("name", text[i:j], i))
            i = j
            continue
        if ch in _REF_OPS:
            tokens.append(_RefToken("op", ch, i))
            i += 1
            continue
        raise ParseError(i, "unexpected character", ch)
    end = max(0, n - 1) if n else 0
    tokens.append(_RefToken("end", "", end))
    return tokens


def _ref_check_product(left: Expr, right: Expr, op: _RefToken) -> None:
    if len(left.terms) * len(right.terms) > _REF_MAX_TERMS:
        raise ParseError(op.pos, f"product of more than {_REF_MAX_TERMS} term pairs", op.value)


class _RefParser:
    def __init__(self, tokens: list[_RefToken], context: str):
        self.tokens = tokens
        self.pos = 0
        self.context = context

    def peek(self) -> _RefToken:
        return self.tokens[self.pos]

    def next(self) -> _RefToken:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect_op(self, op: str) -> _RefToken:
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
                _ref_check_product(result, rhs, tok)
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
            if len(digits) > len(str(_REF_MAX_EXPONENT)) or int(digits) > _REF_MAX_EXPONENT:
                raise ParseError(
                    etok.pos, f"exponent larger than {_REF_MAX_EXPONENT}", etok.value
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
                _ref_check_product(result, factor, tok)
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

    def resolve_name(self, tok: _RefToken) -> Expr:
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

    def make_var(self, tok: _RefToken, kind: str, idx) -> Expr:
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

    def resolve_extended(self, tok: _RefToken) -> Expr | None:
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


def reference_parse(text: str, context: str = "phase-space") -> Expr:
    """Parse a DSL string into a canonical expression.

    Raises :class:`ParseError` carrying the byte offset of the problem.
    """
    if context not in CONTEXTS:
        raise ValueError(f"unknown context {context!r}")
    if not text.strip():
        raise ParseError(0, "empty expression")
    parser = _RefParser(_ref_tokenize(text), context)
    result = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(trailing.pos, "trailing input", trailing.value or None)
    return result


# ---------------------------------------------------------------------------
# Helmholtz conditions and the Euler-Lagrange round trip as they were before
# the derivative jet: repeated partials and total_time_derivative


def _reference_linearity(a) -> hh.ConditionResult:
    """da_ij/dv_k must vanish: the force is affine in the velocity."""
    return hh._nonzero(
        "linearity", (((i, j, k), ex.partial(a[i - 1][j - 1], ("v", k))) for i, j, k in hh._TRIPLES)
    )


def reference_helmholtz_check(force: hh.ForceLaw) -> hh.HelmholtzReport:
    """Evaluate the potentiality conditions symbolically.

    The velocity gradient a_ij = dF_i/dv_j is taken once and every condition
    is read off it.  The total time derivative in the mixed condition keeps
    the acceleration symbols free; for affine forces the acceleration terms
    drop out on their own.
    """
    comps = force.total_components()
    a = hh._velocity_gradient(comps)
    linearity = _reference_linearity(a)
    velocity_symmetry = hh._nonzero(
        "velocity-symmetry", (((i, j), a[i - 1][j - 1] + a[j - 1][i - 1]) for i, j in hh._PAIRS)
    )
    mixed = (
        ex._sum((
            ex.partial(comps[i - 1], ("q", j)),
            -ex.partial(comps[j - 1], ("q", i)),
            ex.total_time_derivative(a[j - 1][i - 1]),
        ))
        for i, j in hh._PAIRS
    )
    conditions = [linearity, velocity_symmetry, hh._nonzero("mixed-gradient", zip(hh._PAIRS, mixed))]

    if linearity.passed:
        b = hh._affine_offset(comps, a)
        # a_ij + a_ji over the same components: the velocity-symmetry entries
        conditions.append(hh.ConditionResult("affine-antisymmetry", velocity_symmetry.residuals))
        # The cyclic gradient condition is reported in the orientation that
        # writes the Lorentz matrix as -(e/c) eps_ijk B_k (the transpose of
        # the literal velocity gradient); its (1,2,3) entry is then exactly
        # -(e/c) div B.
        cyc = (
            ex._sum((
                ex.partial(a[s - 1][i - 1], ("q", j)),
                ex.partial(a[j - 1][s - 1], ("q", i)),
                ex.partial(a[i - 1][j - 1], ("q", s)),
            ))
            for i, s, j in hh._TRIPLES
        )
        conditions.append(hh._nonzero("affine-cyclic", zip(hh._TRIPLES, cyc)))
        tcond = (
            ex._sum((
                ex.partial(b[i - 1], ("q", j)),
                -ex.partial(b[j - 1], ("q", i)),
                -ex.partial(a[i - 1][j - 1], ("t", None)),
            ))
            for i, j in hh._PAIRS
        )
        conditions.append(hh._nonzero("affine-time", zip(hh._PAIRS, tcond)))

    hessian = tuple(tuple(ex.M_SYM if i == j else ex.ZERO for j in range(3)) for i in range(3))
    return hh.HelmholtzReport(tuple(conditions), hessian)


def reference_euler_lagrange_roundtrip(lagrangian, force: hh.ForceLaw) -> tuple[Expr, Expr, Expr]:
    """(m a_i - F_i) minus the Euler-Lagrange expression of L, per component.

    Identically zero exactly when L generates the force.
    """
    l_expr = lagrangian.L if isinstance(lagrangian, hh.LagrangianExpr) else lagrangian
    comps = force.total_components()
    out = []
    for i in (1, 2, 3):
        el = ex.total_time_derivative(ex.partial(l_expr, ("v", i))) - ex.partial(
            l_expr, ("q", i)
        )
        target = ex.M_SYM * ex.accel(i) - comps[i - 1]
        out.append(target - el)
    return tuple(out)


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


@pytest.fixture
def cold_chain():
    """An empty field-free chain cache, emptied again afterwards: a test that
    patches what the chain reads neither sees an earlier derivation nor
    leaves its own to later tests."""
    _symbolic_chain.cache_clear()
    yield
    _symbolic_chain.cache_clear()
