"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Symbolic criteria are exact (canonical-form equality); numerical
criteria use the tolerances stated inline.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from embracket import expr as ex
from embracket.bracket import (
    bracket,
    derive_divB,
    jacobi_residual,
    reverify,
    run_chain,
)
from embracket.dsl import parse, parse_vector_field
from embracket.expr import (
    C_SYM,
    E_SYM,
    M_SYM,
    VectorField,
    ZERO,
    curl,
    divergence,
    gradient,
    partial,
    substitute_fields,
    time_derivative_field,
)
from embracket.helmholtz import (
    FieldLagrangianSpec,
    ForceLaw,
    LagrangianExpr,
    duality_map,
    euler_lagrange_roundtrip,
    helmholtz_check,
    normalize_sign,
    parity_audit,
    poincare_vector_potential,
    reconstruct_lagrangian,
    scalar_potential,
)
from embracket.numeric import (
    GridSpec,
    ParticleState,
    canonical_bracket_check,
    convergence_order,
    el_residual,
    integrate,
    maxwell_grid_residuals,
    measured_rotation_frequency,
)

from conftest import random_polynomial

ZERO_FIELD = VectorField.zero()
UNIFORM_B = parse_vector_field("0;0;1")


def finish(number: int, title: str, checks: list):
    failing = [label for label, ok in checks if not ok]
    verdict = "PASS" if not failing else "FAIL"
    print(f"[acceptance {number:02d}] {title}: {verdict}")
    assert not failing, f"{title}: failing checks {failing}"


# ---------------------------------------------------------------------------
# shared randomized potential pairs (criteria 3, 4, 5)


def _potential_cases(count=20):
    cases = []
    rng = random.Random(88412)
    while len(cases) < count:
        vec_pot = VectorField(
            tuple(random_polynomial(rng, max_degree=2, terms=3) for _ in range(3))
        )
        scal_pot = random_polynomial(rng, max_degree=2, terms=3)
        field_b = curl(vec_pot)
        field_e = VectorField(
            tuple(
                -gi - ai / C_SYM
                for gi, ai in zip(gradient(scal_pot), time_derivative_field(vec_pot))
            )
        )
        if all(c.is_zero for c in field_b) and all(c.is_zero for c in field_e):
            continue
        cases.append((vec_pot, scal_pot, field_e, field_b))
    return cases


@pytest.fixture(scope="module")
def potential_cases():
    return _potential_cases()


def test_01_symbolic_derivation_chain():
    checks = []
    report = run_chain()
    checks.append(("all symbolic steps pass", report.passed))
    checks.append(("exactly two constraints", len(report.constraints) == 2))
    div_expected = parse("d(B[l],q[l])", "extended")
    far_expected = parse("1/c*d(B[s],t) + eps(s,a,b)*d(E[b],q[a])", "extended")
    checks.append(
        (
            "magnetic divergence canonical form",
            report.constraint("magnetic-divergence").expr == div_expected,
        )
    )
    checks.append(
        (
            "induction canonical form",
            report.constraint("faraday-induction").expr == far_expected,
        )
    )
    required_steps = (
        "velocity-bracket-consistency",       # the time-derivative of m{q,v}
        "force-bracket-dual-form",            # the axial dual tensor
        "dual-form-matches-field",
        "electric-expansion-velocity-term",   # the Leibniz expansion terms
        "electric-expansion-field-term",
        "electric-bracket-vanishes",
        "induction-zero-by-symmetry",         # the cancelling B.B piece
    )
    names = [s.name for s in report.steps]
    for step in required_steps:
        checks.append((f"step {step} present", step in names))
        checks.append((f"step {step} verified", report.step(step).ok))
    checks.append(("report re-verifies", reverify(report)))
    finish(1, "symbolic derivation chain", checks)


def test_02_bracket_axioms_exhaustive():
    checks = []
    gens = [ex.q(i) for i in (1, 2, 3)] + [ex.v(i) for i in (1, 2, 3)]
    monomials = list(gens)
    for a in range(6):
        for b in range(a, 6):
            monomials.append(gens[a] * gens[b])
    assert len(monomials) == 27

    antisym_ok = all(
        (bracket(a, b) + bracket(b, a)).is_zero
        for a in monomials
        for b in monomials
    )
    checks.append(("antisymmetry over all pairs", antisym_ok))

    rng = random.Random(5)
    leibniz_ok = True
    bilinear_ok = True
    jacobi_ok = True
    constant_b = parse_vector_field("5;-3;2")
    triples = list(itertools.combinations_with_replacement(range(27), 3))
    for ia, ib, ic in triples:
        a, b, c = monomials[ia], monomials[ib], monomials[ic]
        if not (bracket(a, b * c) - b * bracket(a, c) - bracket(a, b) * c).is_zero:
            leibniz_ok = False
            break
        weight = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        lhs = bracket(a, ex.rational(weight) * b + c)
        rhs = ex.rational(weight) * bracket(a, b) + bracket(a, c)
        if not (lhs - rhs).is_zero:
            bilinear_ok = False
            break
        residual = jacobi_residual(a, b, c)
        if not residual.is_zero:
            if not substitute_fields(residual, {"B": constant_b}).is_zero:
                jacobi_ok = False
                break
    checks.append((f"Leibniz over {len(triples)} triples", leibniz_ok))
    checks.append(("bilinearity over the same triples", bilinear_ok))
    checks.append(("Jacobi with constant B over the same triples", jacobi_ok))

    report = derive_divB()
    kappa = Fraction(report.notes["velocity-jacobi-multiple"])
    contracted = ex.eps("l", "j", "k") * jacobi_residual(
        ex.v("l"), ex.v("j"), ex.v("k")
    )
    target = (
        ex.rational(kappa)
        * (E_SYM / (M_SYM**3 * C_SYM))
        * partial(ex.field_component("B", "l"), ("q", "l"))
    )
    checks.append(("contracted residual is a multiple of div B", contracted == target))
    checks.append(("the multiple is nonzero", kappa != 0))
    finish(2, "bracket axioms", checks)


def test_03_helmholtz_soundness(potential_cases):
    checks = []
    perturbation = parse_vector_field("x1;0;0")
    for n, (vec_pot, scal_pot, field_e, field_b) in enumerate(potential_cases):
        force = ForceLaw.lorentz(field_e, field_b)
        report = helmholtz_check(force)
        checks.append((f"case {n} passes all conditions", report.passed))

        perturbed = VectorField(
            tuple(bi + pi for bi, pi in zip(field_b, perturbation))
        )
        bad = helmholtz_check(ForceLaw.lorentz(field_e, perturbed))
        cyc = bad.condition("affine-cyclic")
        others_pass = (
            bad.condition("linearity").passed
            and bad.condition("velocity-symmetry").passed
            and bad.condition("affine-antisymmetry").passed
            and bad.condition("affine-time").passed
        )
        checks.append(
            (
                f"case {n} perturbation hits exactly the cyclic condition",
                others_pass and not cyc.passed,
            )
        )
        checks.append(
            (
                f"case {n} cyclic residual is -(e/c)",
                cyc.residual_at(1, 2, 3) == -(E_SYM / C_SYM),
            )
        )
    drag = ForceLaw(tuple(-ex.v(i) for i in (1, 2, 3)))
    drag_report = helmholtz_check(drag)
    checks.append(
        (
            "isotropic drag fails the velocity-symmetry condition",
            not drag_report.condition("velocity-symmetry").passed
            and drag_report.condition("velocity-symmetry").residual_at(1, 1)
            == ex.rational(-2),
        )
    )
    finish(3, "Helmholtz soundness and completeness", checks)


def test_04_lagrangian_roundtrip(potential_cases):
    checks = []
    for n, (vec_pot, scal_pot, field_e, field_b) in enumerate(potential_cases):
        force = ForceLaw.lorentz(field_e, field_b)
        lag = reconstruct_lagrangian(force)
        residual = euler_lagrange_roundtrip(lag, force)
        checks.append(
            (f"case {n} round-trip residual vanishes", all(r.is_zero for r in residual))
        )
        hessian_ok = all(
            lag.hessian()[i][j] == (M_SYM if i == j else ZERO)
            for i in range(3)
            for j in range(3)
        )
        checks.append((f"case {n} Hessian equals m delta", hessian_ok))
    finish(4, "Lagrangian round-trip", checks)


def test_05_potential_identities(potential_cases):
    checks = []
    for n, (vec_pot, scal_pot, field_e, field_b) in enumerate(potential_cases):
        rebuilt = poincare_vector_potential(field_b)
        curl_ok = all((ci - bi).is_zero for ci, bi in zip(curl(rebuilt), field_b))
        checks.append((f"case {n} curl of homotopy potential equals B", curl_ok))
        a0 = scalar_potential(field_e, rebuilt)
        target = [
            ei + ai / C_SYM
            for ei, ai in zip(field_e, time_derivative_field(rebuilt))
        ]
        grad_ok = all((gi + ti).is_zero for gi, ti in zip(gradient(a0), target))
        checks.append((f"case {n} gradient of scalar potential matches", grad_ok))
    finish(5, "potential construction identities", checks)


def test_06_cyclotron_numerics():
    checks = []
    state = ParticleState([0, 0, 0], [1, 0, 0])
    traj = integrate(state, (ZERO_FIELD, UNIFORM_B), 0.05, 10_000, "boris")
    speeds = np.linalg.norm(traj.velocities, axis=1)
    drift = float(np.max(np.abs(speeds - 1.0)))
    checks.append((f"speed drift {drift:.2e} < 1e-12 over 1e4 steps", drift < 1e-12))

    errors = {}
    for h in (0.04, 0.02):
        run = integrate(state, (ZERO_FIELD, UNIFORM_B), h, int(round(16 / h)), "boris")
        errors[h] = abs(measured_rotation_frequency(run) - 1.0)
    ratio = errors[0.04] / errors[0.02]
    checks.append(
        (f"frequency error ratio {ratio:.2f} within 4 +/- 1", 3.0 <= ratio <= 5.0)
    )
    finish(6, "cyclotron integration", checks)


def test_07_el_residual_convergence():
    checks = []
    force = ForceLaw.lorentz(ZERO_FIELD, UNIFORM_B)
    lagrangian = reconstruct_lagrangian(force)
    state = ParticleState([0, 0, 0], [1, 0, 0])
    maxes = {}
    for h in (0.02, 0.01):
        traj = integrate(state, (ZERO_FIELD, UNIFORM_B), h, int(round(4 / h)), "rk4")
        maxes[h] = el_residual(traj, lagrangian).entry("euler-lagrange").max
    ratio = maxes[0.02] / maxes[0.01]
    checks.append(
        (f"residual max ratio {ratio:.2f} within 4 +/- 1", 3.0 <= ratio <= 5.0)
    )

    corrupted = LagrangianExpr(
        parse("1/2*m*(v1^2+v2^2+v3^2)"),
        lagrangian.vector_potential,
        lagrangian.scalar_pot,
    )
    force_scale = 1.0  # e B0 |v| / c with unit values
    floors = []
    for h in (0.02, 0.01):
        traj = integrate(state, (ZERO_FIELD, UNIFORM_B), h, int(round(4 / h)), "rk4")
        floors.append(el_residual(traj, corrupted).entry("euler-lagrange").max)
    checks.append(
        (
            "corrupted Lagrangian residual stays at the magnetic-force scale",
            all(f > 0.5 * force_scale for f in floors),
        )
    )
    finish(7, "Euler-Lagrange residual convergence", checks)


def test_08_canonical_bracket_spot_check():
    checks = []
    field_b = parse_vector_field("3+x2^2;2+x3^2;4+x1^2")
    assert divergence(field_b).is_zero
    vec_pot = poincare_vector_potential(field_b)
    rng = random.Random(4242)
    for n in range(10):
        state = ParticleState(
            [rng.uniform(-1, 1) for _ in range(3)],
            [rng.uniform(-1, 1) for _ in range(3)],
        )
        report = canonical_bracket_check(field_b, vec_pot, state)
        vv = report.entry("velocity-velocity").max
        qv_diag = report.entry("position-velocity-diagonal").max
        qv_off = report.entry("position-velocity-offdiagonal").max
        checks.append((f"point {n} velocity-velocity within 1e-6", vv < 1e-6))
        checks.append(
            (f"point {n} position-velocity within 1e-6", qv_diag < 1e-6 and qv_off < 1e-6)
        )
    finish(8, "canonical bracket spot check", checks)


def test_09_grid_maxwell():
    checks = []
    vec_pot = parse_vector_field("x2*x3^4;x3*x1^4*t;x1*x2^4")
    scal_pot = parse("x1^2*x2", "field-space")
    field_b = curl(vec_pot)
    field_e = VectorField(
        tuple(
            -gi - ai / C_SYM
            for gi, ai in zip(gradient(scal_pot), time_derivative_field(vec_pot))
        )
    )
    coarse_spec, fine_spec = GridSpec(1.0, 9, t0=0.3), GridSpec(1.0, 17, t0=0.3)
    coarse = maxwell_grid_residuals((field_e, field_b), coarse_spec)
    fine = maxwell_grid_residuals((field_e, field_b), fine_spec)
    for name in ("magnetic-divergence", "faraday-induction"):
        order = convergence_order(
            coarse.entry(name).max, fine.entry(name).max, coarse_spec.h, fine_spec.h
        )
        checks.append(
            (f"{name} converges at order {order:.2f} in 2 +/- 0.5", 1.5 <= order <= 2.5)
        )

    linear = maxwell_grid_residuals(
        (ZERO_FIELD, parse_vector_field("x1;0;0")), GridSpec(1.0, 9)
    )
    entry = linear.entry("magnetic-divergence")
    checks.append(
        (
            "linear field divergence residual is exactly 1",
            abs(entry.max - 1.0) < 1e-12 and abs(entry.rms - 1.0) < 1e-12,
        )
    )
    finish(9, "grid Maxwell residuals", checks)


def test_10_duality_and_parity():
    checks = []
    report = run_chain()
    div_mapped = normalize_sign(
        duality_map(report.constraint("magnetic-divergence").expr)
    )
    checks.append(
        (
            "divergence constraint maps to sourceless electric divergence",
            div_mapped == parse("d(E[l],q[l])", "extended"),
        )
    )
    far_mapped = normalize_sign(
        duality_map(report.constraint("faraday-induction").expr)
    )
    ampere = normalize_sign(
        parse("eps(s,a,b)*d(B[b],q[a]) - 1/c*d(E[s],t)", "extended")
    )
    checks.append(("induction constraint maps to sourceless Ampere form", far_mapped == ampere))

    half = Fraction(1, 2)
    verdict = parity_audit(FieldLagrangianSpec(half, half, Fraction(0)))
    checks.append(("gamma = 0 passes", verdict.passed))
    checks.append(
        (
            "canonical coefficients recorded as one half",
            verdict.canonical.alpha == half
            and verdict.canonical.beta == half
            and verdict.canonical.gamma == 0,
        )
    )
    for gamma in (Fraction(1), Fraction(-2), Fraction(1, 3)):
        bad = parity_audit(FieldLagrangianSpec(half, half, gamma))
        checks.append((f"gamma = {gamma} fails", not bad.passed))
    finish(10, "duality and parity", checks)
