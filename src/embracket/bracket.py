"""Formal Poisson-bracket engine and the certified derivation chain.

The bracket is defined by a small rule table on atoms

* {q_i, q_j} = 0
* {q_i, v_j} = delta_ij / m
* {v_i, v_j} = (e/(m^2 c)) eps_ijk B_k
* {q_i, f} = 0 and {v_i, f} = -(1/m) df/dq_i for any opaque function f of
  (position, t), which covers t itself, the field components E, B, A and
  their derivatives, and the scalars A0, U, f

extended to arbitrary polynomial expressions in q, v with field-component
coefficients by bilinearity and the Leibniz (derivation) property in each
argument.  On two atom products that extension is applied one atom at a
time, each partial product canonicalized as it is formed; nothing is
cached, so :func:`bracket` is a pure function.  Antisymmetry and Leibniz
then hold identically; the Jacobi identity holds only up to expressions in
the field derivatives, and those residuals are exactly the constraints the
derivation chain extracts.

Each derivation returns a :class:`DerivationReport` whose steps name the
rule applied and carry canonical input/output strings, so the whole chain
can be re-run and compared step by step.  The chain's field-free steps are
derived once per process; concrete fields enter only through
:func:`bind_constraint`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import expr as ex
from .expr import (
    C_SYM,
    Delta,
    E_SYM,
    Eps,
    Field,
    M_SYM,
    Scalar,
    UnsupportedOperandError,
    Var,
    VectorField,
    eps,
    field_component,
    instantiate_indices,
    partial,
    q,
    substitute_fields,
    total_time_derivative,
    v,
)


def _atom_class(atom) -> str:
    if isinstance(atom, Var):
        if atom.kind in ("q", "v"):
            return atom.kind
        if atom.kind == "t":
            return "f"
        return "bad"
    if isinstance(atom, (Field, Scalar)):
        return "f"
    return "const"  # Delta / Eps


def _bracket_atoms(a, b) -> list:
    """The rule table: {a, b} for two atoms as raw (coeff, cpow, atoms) terms."""
    ca, cb = _atom_class(a), _atom_class(b)
    if "bad" in (ca, cb):
        bad = a if ca == "bad" else b
        raise UnsupportedOperandError(
            f"no bracket rule for operand {bad!r}"
        )
    pair = ca + cb
    if pair in ("qv", "vq"):
        sign = 1 if pair == "qv" else -1
        return [(Fraction(sign), (0, -1, 0), (Delta(a.index, b.index),))]
    if pair == "vv":
        k = ex._fresh_name()
        return [(Fraction(1), (1, -2, -1), (Eps(a.index, b.index, k), Field("B", k)))]
    if pair in ("vf", "fv"):
        sign, vel, fn = (-1, a, b) if pair == "vf" else (1, b, a)
        grad = ex._atom_partial(fn, "q", vel.index)
        return [] if grad is None else [(Fraction(sign), (0, -1, 0), grad)]
    return []  # constants, {q, q}, {q, f} and two (position, t)-functions


def _bracket_mono(atoms_a: tuple, atoms_b: tuple) -> Expr:
    """{A, B} for two atom products by the Leibniz rule, one atom at a time:
    {A, b0 B'} = b0 {A, B'} + {A, b0} B', then likewise in A.

    Every partial product is canonicalized as it is formed, so the
    delta/epsilon rewrites meet the atoms in the same order for every
    caller and one bracket has one canonical form.
    """
    if len(atoms_b) > 1:
        b0, rest = atoms_b[0], atoms_b[1:]
        return ex._atom_expr(b0) * _bracket_mono(atoms_a, rest) + _bracket_mono(
            atoms_a, (b0,)
        ) * ex._atom_expr(*rest)
    if len(atoms_a) > 1:
        a0, rest = atoms_a[0], atoms_a[1:]
        return ex._atom_expr(a0) * _bracket_mono(rest, atoms_b) + _bracket_mono(
            (a0,), atoms_b
        ) * ex._atom_expr(*rest)
    return ex.Expr(tuple(_bracket_atoms(atoms_a[0], atoms_b[0])))


def bracket(a: Expr, b: Expr) -> Expr:
    """Poisson bracket of two phase-space expressions, fully reduced.

    Bilinear in both arguments; shared free indices contract across the
    arguments per the Einstein convention, while each argument's internal
    summed indices are kept private.  The bracket of two atom products
    follows the Leibniz rule atom by atom (:func:`_bracket_mono`).
    """
    pieces = []
    for coeff, cpow, atoms_a, atoms_b in ex._term_pairs(a, b):
        if atoms_a and atoms_b:
            unit = ex.Expr(((coeff, cpow, ()),), _canonical=True)
            pieces.append(unit * _bracket_mono(atoms_a, atoms_b))
    return ex._sum(pieces)


def jacobi_residual(a: Expr, b: Expr, c: Expr) -> Expr:
    """{a,{b,c}} + {b,{c,a}} + {c,{a,b}} in canonical form.

    Identically zero for canonical coordinates; an expression in the field
    derivatives for velocity triples with position-dependent B.
    """
    return ex._sum(bracket(x, bracket(y, z)) for x, y, z in ((a, b, c), (b, c, a), (c, a, b)))


# ---------------------------------------------------------------------------
# the abstract force ansatz and helpers


def _field_vector(family: str) -> list[Expr]:
    return [field_component(family, i) for i in (1, 2, 3)]


def _field_dual_tensor(w: Sequence[Expr]) -> tuple[tuple[Expr, ...], ...]:
    """-(e/mc) eps_ijk w_k; with w = B, the value of {q_i, F_j} for the Lorentz ansatz."""
    scale = -E_SYM / (M_SYM * C_SYM)
    return tuple(tuple(scale * entry for entry in row) for row in ex._eps_matrix(w))


def lorentz_force() -> tuple[Expr, Expr, Expr]:
    """The velocity-affine force e*E_i + (e/c) eps_ijk v_j B_k with opaque fields."""
    return ex._lorentz(_field_vector("E"), _field_vector("B"))


def _lorentz_component_symbolic(i: str) -> Expr:
    """The same ansatz with a symbolic free component index."""
    a, b = ex._fresh_name(), ex._fresh_name()
    return E_SYM * field_component("E", i) + (E_SYM / C_SYM) * eps(i, a, b) * v(
        a
    ) * field_component("B", b)


def div_b_expression() -> Expr:
    """The contracted divergence dB_l/dq_l as a canonical phase-space form."""
    return partial(field_component("B", "l"), ("q", "l"))


def faraday_expression() -> Expr:
    """(1/c) dB_s/dt + (curl E)_s as a canonical phase-space form (free index s)."""
    curl_e = eps("s", "a", "b") * partial(field_component("E", "b"), ("q", "a"))
    return partial(field_component("B", "s"), ("t", None)) / C_SYM + curl_e


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class DerivationStep:
    name: str
    rule: str
    inputs: tuple[str, ...]
    output: str
    ok: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "rule": self.rule,
            "input": list(self.inputs),
            "output": self.output,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class Constraint:
    name: str
    expr: Expr
    verdict: Optional[bool] = None

    def to_json_dict(self) -> dict:
        return {"name": self.name, "expr": str(self.expr), "verdict": self.verdict}


@dataclass
class DerivationReport:
    """Ordered certified steps plus the constraints they emit."""

    generator: str
    params: dict = field(default_factory=dict)
    steps: list[DerivationStep] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def add(
        self,
        name: str,
        rule: str,
        inputs: Sequence[Expr | str],
        output: Expr | str,
        ok: bool = True,
    ) -> DerivationStep:
        step = DerivationStep(
            name,
            rule,
            tuple(str(i) for i in inputs),
            str(output),
            ok,
        )
        self.steps.append(step)
        return step

    @property
    def passed(self) -> bool:
        steps_ok = all(s.ok for s in self.steps)
        verdicts_ok = all(c.verdict is not False for c in self.constraints)
        return steps_ok and verdicts_ok

    def step(self, name: str) -> DerivationStep:
        for s in self.steps:
            if s.name == name:
                return s
        raise KeyError(name)

    def constraint(self, name: str) -> Constraint:
        for c in self.constraints:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "generator": self.generator,
            "params": dict(self.params),
            "steps": [s.to_json_dict() for s in self.steps],
            "constraints": [c.to_json_dict() for c in self.constraints],
            "notes": dict(self.notes),
            "pass": self.passed,
        }


def reverify(report: DerivationReport) -> bool:
    """Re-run the derivation that produced a report and compare its steps,
    its constraints with their verdicts, and its notes."""
    fresh = _GENERATORS[report.generator](**report.params)
    return (fresh.steps, fresh.constraints, fresh.notes) == (
        report.steps, report.constraints, report.notes
    )


# ---------------------------------------------------------------------------
# derivations


def _joined(exprs) -> str:
    return "; ".join(str(e) for e in exprs)


def _joined_distinct(exprs) -> str:
    """Each distinct printed form once, "0" first."""
    return _joined(sorted({str(p) for p in exprs}, key=lambda s: (s != "0", s)))


def _multiple(expr: Expr, reference: Expr) -> Fraction:
    """The k for which k * reference is expr's term on the monomial of the
    single-term reference; 0 when expr has no such term."""
    ((ref_coeff, ref_cpow, ref_atoms),) = reference.terms
    for coeff, cpow, atoms in expr.terms:
        if (cpow, atoms) == (ref_cpow, ref_atoms):
            return coeff / ref_coeff
    return Fraction(0)


def derive_qF_antisymmetry(force: Sequence[Expr]) -> DerivationReport:
    """Certify that {q_i, F_j} is a position-only antisymmetric tensor.

    Works for any polynomial phase-space force; each failed property is
    recorded with its nonzero witness expression.
    """
    comps = tuple(force)
    report = DerivationReport(
        "qF-antisymmetry", {"force": [str(f) for f in comps]}
    )
    g = [[bracket(q(i), comps[j - 1]) for j in (1, 2, 3)] for i in (1, 2, 3)]
    g_text = _joined(g[i][j] for i in range(3) for j in range(3))
    report.add(
        "force-bracket-matrix",
        "Leibniz expansion of {q_i, F_j} by the base bracket rules",
        comps,
        g_text,
    )
    sym = [
        [(g[i][j] + g[j][i]) / 2 for j in range(3)] for i in range(3)
    ]
    sym_flat = [sym[i][j] for i in range(3) for j in range(3)]
    report.add(
        "force-bracket-antisymmetry",
        "symmetric part of {q_i, F_j} must vanish",
        [g_text],
        _joined(sym_flat),
        ok=all(s.is_zero for s in sym_flat),
    )
    pos_only = [
        bracket(q(k), g[i][j]) for k in (1, 2, 3) for i in range(3) for j in range(3)
    ]
    report.add(
        "force-bracket-position-only",
        "{q_k, {q_i, F_j}} must vanish, so {q_i, F_j} depends on (q, t) alone",
        [g_text],
        _joined_distinct(pos_only),
        ok=all(p.is_zero for p in pos_only),
    )
    dual = [-(M_SYM * C_SYM / (2 * E_SYM)) * d for d in ex._axial_dual(g)]
    report.add(
        "force-bracket-dual-form",
        "axial-vector dual of the antisymmetric tensor: "
        "B_s = -(mc/2e) eps_sij {q_i, F_j}",
        [g_text],
        _joined(dual),
    )
    dual_tensor = _field_dual_tensor(dual)
    recon = [g[i][j] - dual_tensor[i][j] for i in range(3) for j in range(3)]
    report.add(
        "force-bracket-dual-reconstruction",
        "{q_i, F_j} + (e/mc) eps_ijk B_k must vanish for the dual pair",
        [_joined(dual)],
        _joined(recon),
        ok=all(r.is_zero for r in recon),
    )
    return report


def verify_E_bracket() -> DerivationReport:
    """Replay the Leibniz expansion of {q_i, F_j} for the velocity-affine ansatz
    and certify that {q_i, E_j} = 0 follows from matching the dual form."""
    ansatz = lorentz_force()
    report = DerivationReport("E-bracket", {})
    b_vec = _field_vector("B")
    v_vec = [v(a) for a in (1, 2, 3)]
    vel_flat, fld_flat = [], []  # row-major in (i, j)
    for i in (1, 2, 3):
        q_v = [bracket(q(i), va) for va in v_vec]
        q_b = [bracket(q(i), bk) for bk in b_vec]
        vel_flat += [(E_SYM / C_SYM) * c for c in ex._cross(q_v, b_vec)]
        fld_flat += [(E_SYM / C_SYM) * c for c in ex._cross(v_vec, q_b)]
    expected = [entry for row in _field_dual_tensor(b_vec) for entry in row]
    report.add(
        "electric-expansion-velocity-term",
        "(e/c) eps_jak {q_i, v_a} B_k reduces by the position-velocity rule "
        "to (e/mc) eps_jik B_k",
        [_joined(ansatz)],
        _joined(vel_flat),
        ok=vel_flat == expected,
    )
    report.add(
        "electric-expansion-field-term",
        "(e/c) eps_jak v_a {q_i, B_k} vanishes because B depends on (q, t) alone",
        [_joined(ansatz)],
        _joined_distinct(fld_flat),
        ok=all(p.is_zero for p in fld_flat),
    )
    solved_flat = [
        (want - vel - fld) / E_SYM for want, vel, fld in zip(expected, vel_flat, fld_flat)
    ]
    report.add(
        "electric-bracket-vanishes",
        "matching the expansion against the dual form leaves e {q_i, E_j} = 0, "
        "so E depends on (q, t) alone",
        [_joined(vel_flat)],
        _joined_distinct(solved_flat),
        ok=all(p.is_zero for p in solved_flat),
    )
    return report


def derive_divB() -> DerivationReport:
    """Contract the velocity Jacobi residual into the magnetic divergence
    constraint, with the rational multiple computed by the engine."""
    report = DerivationReport("divB", {})
    dual = (M_SYM**2 * C_SYM / (2 * E_SYM)) * eps("s", "i", "j") * bracket(
        v("i"), v("j")
    )
    report.add(
        "velocity-bracket-dual",
        "(m^2 c / 2e) eps_sij {v_i, v_j} recovers B_s by epsilon contraction",
        ["eps(s,i,j)", "{v_i, v_j}"],
        dual,
        ok=dual == field_component("B", "s"),
    )
    jac = jacobi_residual(v("l"), v("j"), v("k"))
    report.add(
        "velocity-jacobi-cyclic",
        "cyclic sum {v_l,{v_j,v_k}} + {v_j,{v_k,v_l}} + {v_k,{v_l,v_j}} "
        "reduced through the bracket rules",
        ["v[l]", "v[j]", "v[k]"],
        jac,
    )
    contracted = eps("l", "j", "k") * jac
    report.add(
        "velocity-jacobi-contraction",
        "contract the cyclic residual with eps_ljk",
        [jac],
        contracted,
    )
    div_b = div_b_expression()
    scaled = (E_SYM / (M_SYM**3 * C_SYM)) * div_b
    kappa = _multiple(contracted, scaled)
    ok = kappa != 0 and contracted == ex.rational(kappa) * scaled
    report.add(
        "divergence-extraction",
        "the contracted residual is a single rational multiple of "
        "(e/m^3 c) dB_l/dq_l; enforcing the Jacobi identity makes it vanish",
        [contracted],
        div_b,
        ok=ok,
    )
    report.notes["velocity-jacobi-multiple"] = str(kappa)
    report.constraints.append(Constraint("magnetic-divergence", div_b))
    return report


def derive_faraday() -> DerivationReport:
    """Differentiate the velocity-bracket dual of B along the flow, expand by
    Leibniz, and extract the induction constraint."""
    report = DerivationReport("faraday", {})
    b_s = field_component("B", "s")
    lhs = total_time_derivative(b_s)
    report.add(
        "induction-chain-rule",
        "total time derivative of B_s along the flow: del_t + v_j del_qj",
        [b_s],
        lhs,
    )
    f_i = _lorentz_component_symbolic("i")
    f_j = _lorentz_component_symbolic("j")
    rhs = (M_SYM * C_SYM / (2 * E_SYM)) * eps("s", "i", "j") * (
        bracket(f_i, v("j")) + bracket(v("i"), f_j)
    )
    report.add(
        "induction-bracket-form",
        "(m^2 c / 2e) eps_sij d/dt {v_i, v_j} with accelerations replaced "
        "through the equations of motion and expanded by the Leibniz rule",
        [f_i, f_j],
        rhs,
    )
    sym_zero = eps("s", "j", "k") * field_component("B", "j") * field_component("B", "k")
    report.add(
        "induction-zero-by-symmetry",
        "the B_j B_k piece of the expansion contracts an antisymmetric "
        "symbol with a symmetric product and cancels",
        ["eps(s,j,k)", "B[j]*B[k]"],
        sym_zero,
        ok=sym_zero.is_zero,
    )
    residual = lhs - rhs
    div_b = div_b_expression()
    div_term = v("s") * div_b
    kappa = _multiple(residual, div_term)
    reduced = residual - ex.rational(kappa) * div_term
    report.notes["divergence-coupling"] = str(kappa)
    expected = C_SYM * faraday_expression()
    report.add(
        "induction-residual",
        "equating both total derivatives of B_s leaves "
        "dB_s/dt + c (curl E)_s + kappa v_s (div B)",
        [lhs, rhs],
        residual,
        ok=reduced == expected,
    )
    constraint = reduced / C_SYM
    report.add(
        "induction-constraint",
        "substitute the magnetic-divergence constraint and divide by c",
        [residual],
        constraint,
        ok=constraint == faraday_expression(),
    )
    report.constraints.append(Constraint("faraday-induction", constraint))
    return report


def bind_constraint(constraint: Constraint, bindings: dict) -> Constraint:
    """Attach a pass/fail verdict by instantiating free indices and binding fields."""
    needed = {
        a.family
        for a in constraint.expr.atoms()
        if isinstance(a, (Field, Scalar))
    }
    if not needed.issubset(bindings):
        return constraint
    frees = sorted(constraint.expr.free_indices())
    verdict = True
    for combo in itertools.product((1, 2, 3), repeat=len(frees)):
        inst = instantiate_indices(constraint.expr, dict(zip(frees, combo)))
        bound = substitute_fields(inst, bindings)
        if not bound.is_zero:
            verdict = False
            break
    return Constraint(constraint.name, constraint.expr, verdict)


@functools.cache
def _symbolic_chain() -> tuple[tuple[DerivationStep, ...], tuple, tuple[Constraint, ...]]:
    """The field-free chain's steps, note items and unbound constraints, all immutable."""
    report = DerivationReport("chain")

    ansatz = lorentz_force()
    anti = derive_qF_antisymmetry(ansatz)
    report.steps.extend(anti.steps)

    g = tuple(tuple(bracket(q(i), f) for f in ansatz) for i in (1, 2, 3))
    g_expected = _field_dual_tensor(_field_vector("B"))
    consistency = [
        g[i - 1][j - 1] + M_SYM * bracket(v(i), v(j)) for i in (1, 2, 3) for j in (1, 2, 3)
    ]
    report.add(
        "velocity-bracket-consistency",
        "differentiating m {q_i, v_j} = delta_ij in time gives "
        "{q_i, F_j} = -m {v_i, v_j} on shell",
        [_joined(ansatz)],
        _joined_distinct(consistency),
        ok=all(p.is_zero for p in consistency),
    )
    report.add(
        "dual-form-matches-field",
        "for the ansatz the dual tensor is exactly -(e/mc) eps_ijk B_k",
        [_joined(ansatz)],
        _joined(g_expected[i][j] for i in range(3) for j in range(3)),
        ok=g == g_expected,
    )

    report.steps.extend(verify_E_bracket().steps)
    div_rep = derive_divB()
    report.steps.extend(div_rep.steps)
    report.notes.update(div_rep.notes)
    far_rep = derive_faraday()
    report.steps.extend(far_rep.steps)
    report.notes.update(far_rep.notes)
    constraints = div_rep.constraints + far_rep.constraints
    return tuple(report.steps), tuple(report.notes.items()), tuple(constraints)


def run_chain(
    field_E: Optional[VectorField] = None,
    field_B: Optional[VectorField] = None,
) -> DerivationReport:
    """Execute the whole derivation chain on the velocity-affine ansatz.

    Emits the magnetic-divergence and induction constraints; when concrete
    fields are supplied every constraint gets a pass/fail verdict.  The
    field-free steps come from :func:`_symbolic_chain`, derived once per
    process; the fields enter only through :func:`bind_constraint`, and each
    call returns a fresh report.
    """
    steps, notes, constraints = _symbolic_chain()
    params: dict = {}
    bindings: dict = {}
    if field_E is not None:
        params["field_E"] = str(field_E)
        bindings["E"] = field_E
    if field_B is not None:
        params["field_B"] = str(field_B)
        bindings["B"] = field_B
    bound = [bind_constraint(c, bindings) for c in constraints]
    return DerivationReport("chain", params, list(steps), bound, dict(notes))


def _chain_from_params(field_E: str | None = None, field_B: str | None = None):
    from .dsl import parse_vector_field

    e_vf = parse_vector_field(field_E) if field_E is not None else None
    b_vf = parse_vector_field(field_B) if field_B is not None else None
    return run_chain(e_vf, b_vf)


def _qf_from_params(force: list[str]):
    from .dsl import parse

    return derive_qF_antisymmetry(tuple(parse(f, "extended") for f in force))


_GENERATORS = {
    "chain": _chain_from_params,
    "qF-antisymmetry": _qf_from_params,
    "E-bracket": verify_E_bracket,
    "divB": derive_divB,
    "faraday": derive_faraday,
}
