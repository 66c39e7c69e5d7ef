"""Inverse problem of the calculus of variations for velocity-dependent forces.

Given a force F(t, q, v) this module decides whether it derives from a
Lagrangian with Hessian m * delta_ij, using the two classical conditions

    dF_i/dv_j + dF_j/dv_i = 0
    dF_i/dq_j - dF_j/dq_i + d/dt (dF_j/dv_i) = 0

plus the equivalent triple on the affine decomposition F_i = a_ij v_j + b_i
(a antisymmetric, cyclic gradient sum of a vanishing, curl b matching the
time derivative of a).  Passing forces are decomposed into electric and
magnetic fields.  From fields, identified or given, the star-shaped homotopy
integral builds the potentials and ``minimal_coupling`` the Lagrangian,
which is round-tripped through its Euler-Lagrange equations.

The conditions read one derivative jet, each first partial taken once: a =
dF/dv, its v, q and t partials, dF/dq and db/dq.  d/dt is the chain rule
del_t + v_k del_q_k + a_k del_v_k over concrete k, in the mixed condition
and in the round trip alike.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import expr as ex
from .expr import (
    C_SYM,
    E_SYM,
    Expr,
    M_SYM,
    VectorField,
    ZERO,
    accel,
    curl,
    divergence,
    gradient,
    partial,
    phase_space,
    rational,
    time_derivative_field,
    v,
    x,
)

class NotVariationalError(Exception):
    """The force fails the potentiality conditions; carries the report."""

    def __init__(self, report: "HelmholtzReport"):
        super().__init__("force does not derive from a Lagrangian")
        self.report = report


class SymmetricPartError(Exception):
    """The velocity-gradient matrix has a symmetric part; carries a witness."""

    def __init__(self, witness: Expr, indices: tuple[int, int]):
        super().__init__(
            f"symmetric part nonzero at {indices}: {witness}"
        )
        self.witness = witness
        self.indices = indices


class PotentialConstructionError(Exception):
    """No potential exists; carries the obstruction residual(s)."""

    def __init__(self, message: str, residual):
        super().__init__(f"{message}: {residual}")
        self.residual = residual


@dataclass(frozen=True)
class ForceLaw:
    """Three phase-space force components plus an optional conservative term.

    The scalar potential contributes -dU/dq_i on top of the stored
    components; it never enters the field identification.
    """

    components: tuple[Expr, Expr, Expr]
    potential: Optional[Expr] = None

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) != 3:
            raise ex.ExprError("a force law needs exactly three components")
        object.__setattr__(self, "components", comps)
        if self.potential is not None and self.potential.has_kind("v"):
            raise ex.ExprError("the conservative potential may not depend on v")

    @classmethod
    def lorentz(cls, field_E: VectorField, field_B: VectorField) -> "ForceLaw":
        """e E + (e/c) v x B built from concrete fields, moved onto the trajectory."""
        return cls(ex._lorentz(field_E.to_phase(), field_B.to_phase()))

    def total_components(self) -> tuple[Expr, Expr, Expr]:
        if self.potential is None:
            return self.components
        return tuple(
            comp - partial(self.potential, ("q", i))
            for i, comp in zip((1, 2, 3), self.components)
        )


@dataclass(frozen=True)
class AffineDecomposition:
    """F_i = a_ij v_j + b_i with a, b functions of (q, t)."""

    a: tuple[tuple[Expr, ...], ...]
    b: tuple[Expr, ...]

    def reconstruct(self) -> tuple[Expr, Expr, Expr]:
        return tuple(
            ex._sum([*(self.a[i][j] * v(j + 1) for j in range(3)), self.b[i]])
            for i in range(3)
        )


@dataclass(frozen=True)
class ConditionResult:
    name: str
    residuals: tuple[tuple[tuple[int, ...], Expr], ...]  # nonzero entries only

    @property
    def passed(self) -> bool:
        return not self.residuals

    def residual_at(self, *indices: int) -> Expr:
        for idx, value in self.residuals:
            if idx == indices:
                return value
        return ZERO

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "residuals": [
                {"indices": list(idx), "expr": str(value)}
                for idx, value in self.residuals
            ],
        }


@dataclass(frozen=True)
class HelmholtzReport:
    """Outcome of the potentiality test, condition by condition."""

    conditions: tuple[ConditionResult, ...]
    hessian: tuple[tuple[Expr, ...], ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def condition(self, name: str) -> ConditionResult:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "conditions": [c.to_json_dict() for c in self.conditions],
            "hessian": [[str(h) for h in row] for row in self.hessian],
            "pass": self.passed,
        }


def _velocity_gradient(comps) -> tuple[tuple[Expr, ...], ...]:
    """a_ij = dF_i/dv_j."""
    return tuple(
        tuple(partial(comps[i - 1], ("v", j)) for j in (1, 2, 3)) for i in (1, 2, 3)
    )


def _affine_offset(comps, a) -> tuple[Expr, ...]:
    """b_i = F_i - a_ij v_j for the velocity gradient a of the components."""
    return tuple(
        ex._sum([comps[i - 1], *(-(a[i - 1][j - 1] * v(j)) for j in (1, 2, 3))])
        for i in (1, 2, 3)
    )


def _nonzero(name: str, entries) -> ConditionResult:
    return ConditionResult(
        name, tuple((idx, value) for idx, value in entries if not value.is_zero)
    )


_PAIRS = tuple(itertools.product((1, 2, 3), repeat=2))
_TRIPLES = tuple(itertools.product((1, 2, 3), repeat=3))
# m delta_ij: the velocity Hessian of every Lagrangian this module builds
_MASS_HESSIAN = tuple(tuple(M_SYM if i == j else ZERO for j in range(3)) for i in range(3))


def _grad(e: Expr, kind: str) -> tuple[Expr, Expr, Expr]:
    """(de/dkind_1, de/dkind_2, de/dkind_3) for kind q or v."""
    return tuple(partial(e, (kind, k)) for k in (1, 2, 3))


def _gradients(a, kind: str) -> tuple:
    """da_ij/dkind_k, indexed [i][j][k], for kind q or v."""
    return tuple(tuple(_grad(aij, kind) for aij in row) for row in a)


def _linearity(a_v) -> ConditionResult:
    """da_ij/dv_k must vanish: the force is affine in the velocity."""
    return _nonzero("linearity", (((i, j, k), a_v[i - 1][j - 1][k - 1]) for i, j, k in _TRIPLES))


def check_linearity(force: ForceLaw) -> ConditionResult:
    """Second velocity derivatives of every component must vanish."""
    return _linearity(_gradients(_velocity_gradient(force.total_components()), "v"))


def _flow_derivative(d_t: Expr, d_q, d_v) -> Expr:
    """d/dt = del_t + v_k del_q_k + a_k del_v_k from the partials, k = 1, 2, 3."""
    pairs = [*zip(map(v, (1, 2, 3)), d_q), *zip(map(accel, (1, 2, 3)), d_v)]
    return ex._sum((d_t, *(s * d for s, d in pairs if not d.is_zero)))


def _checked_gradient(force: ForceLaw) -> tuple[HelmholtzReport, tuple]:
    """The potentiality report and the velocity gradient it was read from."""
    comps = force.total_components()
    a = _velocity_gradient(comps)
    # the jet: every first partial the conditions need, each taken once
    a_v, a_q = _gradients(a, "v"), _gradients(a, "q")
    a_t = tuple(tuple(partial(aij, ("t", None)) for aij in row) for row in a)
    f_q = tuple(_grad(comp, "q") for comp in comps)

    linearity = _linearity(a_v)
    velocity_symmetry = _nonzero(
        "velocity-symmetry", (((i, j), a[i - 1][j - 1] + a[j - 1][i - 1]) for i, j in _PAIRS)
    )
    mixed = (
        ex._sum((
            f_q[i - 1][j - 1],
            -f_q[j - 1][i - 1],
            _flow_derivative(a_t[j - 1][i - 1], a_q[j - 1][i - 1], a_v[j - 1][i - 1]),
        ))
        for i, j in _PAIRS
    )
    conditions = [linearity, velocity_symmetry, _nonzero("mixed-gradient", zip(_PAIRS, mixed))]

    if linearity.passed:
        b_q = tuple(_grad(bi, "q") for bi in _affine_offset(comps, a))
        # a_ij + a_ji over the same components: the velocity-symmetry entries
        conditions.append(ConditionResult("affine-antisymmetry", velocity_symmetry.residuals))
        # The cyclic gradient condition is reported in the orientation that
        # writes the Lorentz matrix as -(e/c) eps_ijk B_k (the transpose of
        # the literal velocity gradient); its (1,2,3) entry is then exactly
        # -(e/c) div B.
        cyc = (
            ex._sum((a_q[s - 1][i - 1][j - 1], a_q[j - 1][s - 1][i - 1], a_q[i - 1][j - 1][s - 1]))
            for i, s, j in _TRIPLES
        )
        conditions.append(_nonzero("affine-cyclic", zip(_TRIPLES, cyc)))
        tcond = (
            ex._sum((b_q[i - 1][j - 1], -b_q[j - 1][i - 1], -a_t[i - 1][j - 1]))
            for i, j in _PAIRS
        )
        conditions.append(_nonzero("affine-time", zip(_PAIRS, tcond)))

    return HelmholtzReport(tuple(conditions), _MASS_HESSIAN), a


def helmholtz_check(force: ForceLaw) -> HelmholtzReport:
    """Evaluate the potentiality conditions symbolically.

    Every first partial the conditions use is taken once (the jet): the
    velocity gradient a_ij = dF_i/dv_j, its v, q and t partials, dF_i/dq_j,
    and for affine forces db_i/dq_j.  The total time derivative in the mixed
    condition is the chain rule over concrete k, with acceleration symbols
    kept free; for affine forces they drop out on their own.
    """
    return _checked_gradient(force)[0]


def decompose(force: ForceLaw) -> AffineDecomposition:
    """Split the (electromagnetic) components as a_ij v_j + b_i.

    Only the stored components enter; the conservative potential is kept
    separate so the field identification stays clean.
    """
    a = _velocity_gradient(force.components)
    lin = _linearity(_gradients(a, "v"))
    if not lin.passed:
        idx, witness = lin.residuals[0]
        raise PotentialConstructionError(
            f"force is not affine in velocity at {idx}", witness
        )
    deco = AffineDecomposition(a, _affine_offset(force.components, a))
    if not all((orig - back).is_zero for orig, back in zip(force.components, deco.reconstruct())):
        raise AssertionError("a_ij v_j + b_i does not give the force back")
    return deco


def identify_fields(
    deco: AffineDecomposition,
) -> tuple[tuple[Expr, Expr, Expr], tuple[Expr, Expr, Expr]]:
    """Recover (E, B) from an affine decomposition of a Lorentz-type force.

    The symmetric part of a must vanish.  The axial dual is taken as
    B_k = -(c/2e) eps_kij a_ji: the contraction runs over the transposed
    (velocity-reversal) orientation, which is the one that writes the
    matrix as -(e/c) eps_ijk B_k, so the fields of e E + (e/c) v x B come
    back exactly.  E_i = b_i / e.  Components come back as (q, t)
    expressions.
    """
    for i, j in itertools.product((1, 2, 3), repeat=2):
        sym = (deco.a[i - 1][j - 1] + deco.a[j - 1][i - 1]) / 2
        if not sym.is_zero:
            raise SymmetricPartError(sym, (i, j))
    transposed = tuple(zip(*deco.a))
    b_field = [-(C_SYM / (2 * E_SYM)) * d for d in ex._axial_dual(transposed)]
    e_field = tuple(bi / E_SYM for bi in deco.b)
    return tuple(e_field), tuple(b_field)


# ---------------------------------------------------------------------------
# potentials by the star-shaped homotopy


def _scale_degree_integral(component: Expr, shift: int) -> Expr:
    """Integrate s^(shift-1) f(s x, t) ds over [0, 1] monomial by monomial.

    A monomial of spatial degree d turns into s^(d + shift - 1) f(x, t), so
    it just picks up the exact rational weight 1/(d + shift).
    """
    def weighted(coeff, cpow, atoms) -> Expr:
        degree = sum(1 for a in atoms if isinstance(a, ex.Var) and a.kind == "x")
        return Expr(((coeff / (degree + shift), cpow, atoms),), _canonical=True)

    return ex._sum(weighted(*term) for term in component.terms)


def poincare_vector_potential(field_B: VectorField) -> VectorField:
    """A vector potential for a divergence-free polynomial field.

    Uses the homotopy A(x, t) = integral_0^1 s B(s x, t) x x ds, which for
    polynomial B evaluates to exact rational coefficients and satisfies
    curl A = B identically.
    """
    div_b = divergence(field_B)
    if not div_b.is_zero:
        raise PotentialConstructionError("magnetic field has nonzero divergence", div_b)
    weighted = [_scale_degree_integral(b_i, 2) for b_i in field_B]
    result = VectorField(ex._cross(weighted, [x(i) for i in (1, 2, 3)]))
    if not all((ci - bi).is_zero for ci, bi in zip(curl(result), field_B)):
        raise AssertionError("curl A does not give B back")
    return result


def scalar_potential(field_E: VectorField, vec_potential: VectorField) -> Expr:
    """A scalar potential with E = -grad A0 - (1/c) dA/dt.

    The curl-free combination G = E + (1/c) dA/dt is integrated radially:
    A0(x, t) = -integral_0^1 G(s x, t) . x ds.
    """
    g = VectorField(
        tuple(
            ei + ai / C_SYM
            for ei, ai in zip(field_E, time_derivative_field(vec_potential))
        )
    )
    curl_g = curl(g)
    if not all(ci.is_zero for ci in curl_g):
        raise PotentialConstructionError(
            "electric field is not compatible with the vector potential",
            curl_g,
        )
    a0 = -ex._sum(_scale_degree_integral(g[i - 1], 1) * x(i) for i in (1, 2, 3))
    if not all((gi + ai).is_zero for gi, ai in zip(gradient(a0), g)):
        raise AssertionError("-grad A0 does not give E + (1/c) dA/dt back")
    return a0


# ---------------------------------------------------------------------------
# the Lagrangian


@dataclass(frozen=True)
class LagrangianExpr:
    """A reconstructed phase-space Lagrangian plus the potentials it came from."""

    L: Expr
    vector_potential: VectorField
    scalar_pot: Expr
    conservative: Optional[Expr] = None

    def hessian(self) -> tuple[tuple[Expr, ...], ...]:
        momenta = [partial(self.L, ("v", i)) for i in (1, 2, 3)]
        return tuple(tuple(partial(p, ("v", j)) for j in (1, 2, 3)) for p in momenta)

    def to_json_dict(self) -> dict:
        return {
            "lagrangian": str(self.L),
            "vector_potential": str(self.vector_potential),
            "scalar_potential": str(self.scalar_pot),
            "conservative_potential": (
                str(self.conservative) if self.conservative is not None else None
            ),
        }


def _require_concrete(parts, what: str) -> None:
    for p in parts:
        if p.has_fields():
            raise PotentialConstructionError(
                f"{what} contains opaque field components; potentials need "
                "concrete polynomials",
                p,
            )


def minimal_coupling(
    field_E: VectorField, field_B: VectorField, potential: Optional[Expr]
) -> LagrangianExpr:
    """L = m v^2/2 + (e/c) v.A - e A0 - U straight from concrete fields, U may be None.

    Raises :class:`PotentialConstructionError` when div B or Faraday's law fails.
    """
    vec_pot = poincare_vector_potential(field_B)
    a0 = scalar_potential(field_E, vec_pot)
    a_phase = vec_pot.to_phase()
    lagrangian = ex._sum([
        *(M_SYM * v(i) * v(i) / 2 for i in (1, 2, 3)),
        *((E_SYM / C_SYM) * v(i) * a_phase[i - 1] for i in (1, 2, 3)),
        -(E_SYM * phase_space(a0)),
        -potential if potential is not None else ZERO,
    ])
    result = LagrangianExpr(lagrangian, vec_pot, a0, potential)
    if result.hessian() != _MASS_HESSIAN:
        raise AssertionError("the Lagrangian's velocity Hessian is not m delta_ij")
    return result


def reconstruct_lagrangian(force: ForceLaw) -> LagrangianExpr:
    """Rebuild L = m v^2/2 + (e/c) v.A - e A0 - U for a potential force.

    Raises :class:`NotVariationalError` when the potentiality conditions
    fail and :class:`PotentialConstructionError` when no polynomial
    potentials exist.
    """
    report, a = _checked_gradient(force)
    if not report.passed:
        raise NotVariationalError(report)
    # linearity passed, and the potential has no v: a is the stored components' gradient
    e_q, b_q = identify_fields(AffineDecomposition(a, _affine_offset(force.components, a)))
    _require_concrete(e_q + b_q, "identified field")
    field_e, field_b = (VectorField(tuple(map(ex._field_space, f))) for f in (e_q, b_q))
    return minimal_coupling(field_e, field_b, force.potential)


def euler_lagrange_roundtrip(
    lagrangian: LagrangianExpr | Expr, force: ForceLaw
) -> tuple[Expr, Expr, Expr]:
    """(m a_i - F_i) minus the Euler-Lagrange expression of L, per component.

    Identically zero exactly when L generates the force.
    """
    l_expr = lagrangian.L if isinstance(lagrangian, LagrangianExpr) else lagrangian
    comps = force.total_components()
    out = []
    for i in (1, 2, 3):
        p_i = partial(l_expr, ("v", i))
        dp_i = _flow_derivative(partial(p_i, ("t", None)), _grad(p_i, "q"), _grad(p_i, "v"))
        out.append(M_SYM * accel(i) - comps[i - 1] - (dp_i - partial(l_expr, ("q", i))))
    return tuple(out)


# ---------------------------------------------------------------------------
# duality and parity


def duality_transform(
    field_E: VectorField, field_B: VectorField
) -> tuple[VectorField, VectorField]:
    """(E, B) -> (B, -E); four applications are the identity."""
    return field_B, -field_E


def duality_map(expression: Expr) -> Expr:
    """Apply E -> B, B -> -E to the opaque field atoms of a constraint."""
    return ex.map_field_families(expression, {"E": ("B", 1), "B": ("E", -1)})


def normalize_sign(expression: Expr) -> Expr:
    """Flip an overall sign so the leading canonical coefficient is positive."""
    if expression.terms and expression.terms[0][0] < 0:
        return -expression
    return expression


@dataclass(frozen=True)
class FieldLagrangianSpec:
    """Coefficients of the candidate field functional alpha E^2 + beta B^2 + gamma E.B."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def integrand(self) -> Expr:
        e_sq = ex.field_component("E", "i") * ex.field_component("E", "i")
        b_sq = ex.field_component("B", "i") * ex.field_component("B", "i")
        e_dot_b = ex.field_component("E", "i") * ex.field_component("B", "i")
        return (
            rational(self.alpha) * e_sq
            + rational(self.beta) * b_sq
            + rational(self.gamma) * e_dot_b
        )


CANONICAL_FIELD_SPEC = FieldLagrangianSpec(Fraction(1, 2), Fraction(1, 2), Fraction(0))


@dataclass(frozen=True)
class ParityVerdict:
    passed: bool
    odd_part: Expr
    canonical: FieldLagrangianSpec
    note: str


def parity_audit(spec: FieldLagrangianSpec) -> ParityVerdict:
    """Check that the field functional is parity even.

    E is a vector and B an axial vector, so the mixed E.B term flips sign
    under inversion and the functional is even exactly when gamma = 0.
    """
    integrand = spec.integrand()
    flipped = ex.parity_transform(integrand)
    odd = (integrand - flipped) / 2
    return ParityVerdict(
        passed=odd.is_zero,
        odd_part=odd,
        canonical=CANONICAL_FIELD_SPEC,
        note=(
            "canonical normalization alpha = beta = 1/2; the free-field "
            "action conventionally carries (E^2 - B^2)/2, the relative sign "
            "is reported, not altered"
        ),
    )
