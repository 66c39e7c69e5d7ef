"""Inverse variational problem: conditions, potentials, Lagrangian, duality."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import embracket
from embracket import expr as ex
from embracket import helmholtz as hh
from embracket.bracket import div_b_expression, faraday_expression, lorentz_force
from embracket.dsl import parse, parse_components, parse_vector_field
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
    time_derivative_field,
)
from embracket.helmholtz import (
    CANONICAL_FIELD_SPEC,
    FieldLagrangianSpec,
    ForceLaw,
    LagrangianExpr,
    NotVariationalError,
    PotentialConstructionError,
    SymmetricPartError,
    check_linearity,
    decompose,
    duality_map,
    duality_transform,
    euler_lagrange_roundtrip,
    helmholtz_check,
    identify_fields,
    normalize_sign,
    parity_audit,
    poincare_vector_potential,
    reconstruct_lagrangian,
    scalar_potential,
)

from conftest import (
    delta_value,
    eps_value,
    random_polynomial,
    reference_euler_lagrange_roundtrip,
    reference_helmholtz_check,
)

ZERO_FIELD = VectorField.zero()


def random_potential_pair(rng, max_degree=2):
    vec = VectorField(
        tuple(random_polynomial(rng, max_degree=max_degree) for _ in range(3))
    )
    scal = random_polynomial(rng, max_degree=max_degree)
    return vec, scal


def fields_from_potentials(vec_pot, scal_pot):
    field_b = curl(vec_pot)
    field_e = VectorField(
        tuple(
            -gi - ai / C_SYM
            for gi, ai in zip(gradient(scal_pot), time_derivative_field(vec_pot))
        )
    )
    return field_e, field_b


class TestLinearity:
    def test_lorentz_passes(self):
        force = ForceLaw.lorentz(ZERO_FIELD, parse_vector_field("0;0;1"))
        assert check_linearity(force).passed

    def test_quadratic_fails_with_residual(self):
        force = ForceLaw((parse("v1^2"), ZERO, ZERO))
        result = check_linearity(force)
        assert not result.passed
        assert result.residual_at(1, 1, 1) == ex.rational(2)

    def test_zero_force(self):
        assert check_linearity(ForceLaw((ZERO, ZERO, ZERO))).passed


class TestHelmholtzCheck:
    def test_uniform_field_lorentz_passes(self):
        force = ForceLaw.lorentz(ZERO_FIELD, parse_vector_field("0;0;1"))
        assert helmholtz_check(force).passed

    def test_isotropic_drag_fails_velocity_symmetry(self):
        k = Fraction(3, 2)
        force = ForceLaw(tuple(-ex.rational(k) * ex.v(i) for i in (1, 2, 3)))
        report = helmholtz_check(force)
        assert not report.passed
        cond = report.condition("velocity-symmetry")
        for i, j in itertools.product((1, 2, 3), repeat=2):
            expected = ex.rational(-2 * k) if i == j else ZERO
            assert cond.residual_at(i, j) == expected
        with pytest.raises(KeyError):
            report.condition("no-such-condition")

    def test_divergence_violation_hits_cyclic_condition(self):
        force = ForceLaw.lorentz(ZERO_FIELD, parse_vector_field("x1;0;0"))
        report = helmholtz_check(force)
        assert not report.passed
        assert report.condition("affine-cyclic").residual_at(1, 2, 3) == parse("-e/c")
        assert report.condition("affine-antisymmetry").passed
        assert report.condition("affine-time").passed
        assert report.condition("velocity-symmetry").passed

    def test_abstract_lorentz_cyclic_identity(self):
        report = helmholtz_check(ForceLaw(lorentz_force()))
        got = report.condition("affine-cyclic").residual_at(1, 2, 3)
        div_b = sum(
            (partial(ex.field_component("B", l), ("q", l)) for l in (1, 2, 3)),
            start=ZERO,
        )
        assert got == -(E_SYM / C_SYM) * div_b

    def test_hessian_record(self):
        report = helmholtz_check(ForceLaw((ZERO, ZERO, ZERO)))
        for i in range(3):
            for j in range(3):
                expected = M_SYM if i == j else ZERO
                assert report.hessian[i][j] == expected

    def test_time_dependent_magnetic_field(self):
        # fields from potentials always pass, even with time dependence
        pot = parse_vector_field("t*x2^2;x3*t;x1^2")
        field_e, field_b = fields_from_potentials(pot, parse("x1*x2", "field-space"))
        force = ForceLaw.lorentz(field_e, field_b)
        assert helmholtz_check(force).passed


class TestDecompose:
    def test_rotation_force(self):
        force = ForceLaw((parse("v2"), parse("-v1"), ZERO))
        deco = decompose(force)
        expected = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
        for i in range(3):
            for j in range(3):
                assert deco.a[i][j] == ex.rational(expected[i][j])
            assert deco.b[i].is_zero

    def test_constant_force(self):
        force = ForceLaw((ZERO, ZERO, parse("-9")))
        deco = decompose(force)
        assert all(deco.a[i][j].is_zero for i in range(3) for j in range(3))
        assert [str(b) for b in deco.b] == ["0", "0", "-9"]

    def test_lorentz_matrix(self):
        force = ForceLaw.lorentz(ZERO_FIELD, parse_vector_field("0;0;1"))
        deco = decompose(force)
        assert deco.a[0][1] == E_SYM / C_SYM
        assert deco.a[1][0] == -E_SYM / C_SYM

    def test_reconstruction_identity_random(self, rng):
        # decompose then recompose is the identity on affine forces
        for _ in range(15):
            a = [[ex.phase_space(random_polynomial(rng)) for _ in range(3)] for _ in range(3)]
            b = [ex.phase_space(random_polynomial(rng)) for _ in range(3)]
            comps = tuple(
                sum((a[i][j] * ex.v(j + 1) for j in range(3)), start=ZERO) + b[i]
                for i in range(3)
            )
            deco = decompose(ForceLaw(comps))
            for i in range(3):
                for j in range(3):
                    assert deco.a[i][j] == a[i][j]
                assert deco.b[i] == b[i]

    def test_nonlinear_rejected(self):
        with pytest.raises(PotentialConstructionError):
            decompose(ForceLaw((parse("v1^2"), ZERO, ZERO)))


class TestIdentifyFields:
    def test_epsilon_contraction_oracle(self):
        # supporting identity: eps_kij eps_ijm = 2 delta_km by enumeration
        for k, m in itertools.product((1, 2, 3), repeat=2):
            total = sum(
                eps_value(k, i, j) * eps_value(i, j, m)
                for i in (1, 2, 3)
                for j in (1, 2, 3)
            )
            assert total == 2 * delta_value(k, m)

    def test_uniform_recovery(self):
        force = ForceLaw.lorentz(ZERO_FIELD, parse_vector_field("0;0;7"))
        e_f, b_f = identify_fields(decompose(force))
        assert [str(c) for c in b_f] == ["0", "0", "7"]
        assert all(c.is_zero for c in e_f)

    def test_electric_part(self):
        force = ForceLaw.lorentz(parse_vector_field("x1;0;0"), ZERO_FIELD)
        e_f, b_f = identify_fields(decompose(force))
        assert e_f[0] == ex.q(1)
        assert all(c.is_zero for c in b_f)

    def test_round_trip_through_force(self, rng):
        for _ in range(10):
            vec_pot, scal_pot = random_potential_pair(rng)
            field_e, field_b = fields_from_potentials(vec_pot, scal_pot)
            force = ForceLaw.lorentz(field_e, field_b)
            e_f, b_f = identify_fields(decompose(force))
            assert tuple(e_f) == force_components_expected(field_e)
            assert tuple(b_f) == force_components_expected(field_b)

    def test_symmetric_part_rejected(self):
        from embracket.helmholtz import AffineDecomposition

        a = tuple(
            tuple(ex.rational(v) for v in row)
            for row in ((0, 1, 0), (1, 0, 0), (0, 0, 0))
        )
        deco = AffineDecomposition(a, (ZERO, ZERO, ZERO))
        with pytest.raises(SymmetricPartError) as err:
            identify_fields(deco)
        assert err.value.witness == ex.ONE


def force_components_expected(field: VectorField):
    return field.to_phase()


class TestPotentials:
    def test_uniform_field_potential(self):
        vec = poincare_vector_potential(parse_vector_field("0;0;7"))
        assert str(vec) == "-7*x2/2;7*x1/2;0"

    def test_zero_field(self):
        assert str(poincare_vector_potential(ZERO_FIELD)) == "0;0;0"

    def test_divergence_obstruction(self):
        with pytest.raises(PotentialConstructionError) as err:
            poincare_vector_potential(parse_vector_field("x1;0;0"))
        assert err.value.residual == ex.ONE

    def test_curl_identity_random(self, rng):
        # the homotopy potential is an exact right inverse of curl
        for _ in range(15):
            seed_field, _ = random_potential_pair(rng, max_degree=3)
            field_b = curl(seed_field)
            assert divergence(field_b).is_zero
            vec = poincare_vector_potential(field_b)
            assert all((ci - bi).is_zero for ci, bi in zip(curl(vec), field_b))

    def test_static_scalar_potential(self):
        a0 = scalar_potential(parse_vector_field("5;0;0"), ZERO_FIELD)
        assert a0 == -5 * ex.x(1)

    def test_zero_scalar_potential(self):
        assert scalar_potential(ZERO_FIELD, ZERO_FIELD).is_zero

    def test_curl_obstruction(self):
        with pytest.raises(PotentialConstructionError) as err:
            scalar_potential(parse_vector_field("x2;0;0"), ZERO_FIELD)
        assert str(err.value) == (
            "electric field is not compatible with the vector potential: 0;0;-1"
        )

    def test_gradient_identity_random(self, rng):
        for _ in range(15):
            vec_pot, scal_pot = random_potential_pair(rng)
            field_e, _ = fields_from_potentials(vec_pot, scal_pot)
            a0 = scalar_potential(field_e, vec_pot)
            target = [
                ei + ai / C_SYM
                for ei, ai in zip(field_e, time_derivative_field(vec_pot))
            ]
            assert all(
                (gi + ti).is_zero for gi, ti in zip(gradient(a0), target)
            )


class TestReconstruction:
    def test_uniform_magnetic_lagrangian(self):
        force = ForceLaw.lorentz(ZERO_FIELD, parse_vector_field("0;0;1"))
        lag = reconstruct_lagrangian(force)
        expected = parse("1/2*m*(v1^2+v2^2+v3^2) + e/(2*c)*(q1*v2 - q2*v1)")
        assert lag.L == expected

    def test_free_particle(self):
        lag = reconstruct_lagrangian(ForceLaw((ZERO, ZERO, ZERO)))
        assert lag.L == parse("1/2*m*(v1^2+v2^2+v3^2)")

    def test_uniform_electric_lagrangian(self):
        force = ForceLaw.lorentz(parse_vector_field("5;0;0"), ZERO_FIELD)
        lag = reconstruct_lagrangian(force)
        assert lag.L == parse("1/2*m*(v1^2+v2^2+v3^2) + 5*e*q1")

    def test_hessian_invariant(self, rng):
        vec_pot, scal_pot = random_potential_pair(rng)
        field_e, field_b = fields_from_potentials(vec_pot, scal_pot)
        lag = reconstruct_lagrangian(ForceLaw.lorentz(field_e, field_b))
        for i, row in enumerate(lag.hessian()):
            for j, entry in enumerate(row):
                assert entry == (M_SYM if i == j else ZERO)

    def test_failing_force_raises(self):
        with pytest.raises(NotVariationalError) as err:
            reconstruct_lagrangian(ForceLaw((parse("-v1"), parse("-v2"), parse("-v3"))))
        assert not err.value.report.passed

    def test_conservative_term(self):
        # the route of the CLI's --potential-U: U joins the Lorentz components
        lorentz = ForceLaw.lorentz(ZERO_FIELD, parse_vector_field("0;0;1"))
        force = ForceLaw(lorentz.components, parse("q1^2"))
        lag = reconstruct_lagrangian(force)
        assert partial(lag.L, ("q", 1)) == parse("e/(2*c)*v2 - 2*q1")
        residual = euler_lagrange_roundtrip(lag, force)
        assert all(r.is_zero for r in residual)

    def test_potential_with_velocity_rejected(self):
        with pytest.raises(ex.ExprError):
            ForceLaw((ZERO, ZERO, ZERO), potential=parse("v1^2"))

    def test_two_components_rejected(self):
        with pytest.raises(ex.ExprError, match="three components"):
            ForceLaw((ZERO, ZERO))

    def test_opaque_potentiality_is_not_constructed(self):
        # the gradient of an opaque scalar passes every Helmholtz condition,
        # but its potentials need concrete polynomials
        force = ForceLaw(tuple(parse(s, "extended") for s in ("d(f,q1)", "d(f,q2)", "d(f,q3)")))
        assert helmholtz_check(force).passed
        with pytest.raises(PotentialConstructionError, match="opaque field components"):
            reconstruct_lagrangian(force)


def _lagrangian_or_refusal(build):
    try:
        lag = build()
    except (NotVariationalError, PotentialConstructionError):
        return None
    return str(lag.L), str(lag.vector_potential), str(lag.scalar_pot)


class TestMinimalCoupling:
    """Given fields, the Lagrangian comes from their potentials alone; the
    inverse problem on their Lorentz force is the reference route."""

    def test_matches_inverse_problem(self, rng):
        def random_field():
            return VectorField(tuple(random_polynomial(rng) for _ in range(3)))

        outcomes = []
        for n in range(120):
            # odd n: compatible; else a random E beside a random B or a divergence-free one
            field_e, field_b = fields_from_potentials(*random_potential_pair(rng))
            if n % 2 == 0:
                field_e = random_field()
                field_b = random_field() if n % 4 == 0 else field_b
            direct = _lagrangian_or_refusal(lambda: hh.minimal_coupling(field_e, field_b, None))
            inverse = _lagrangian_or_refusal(
                lambda: reconstruct_lagrangian(ForceLaw.lorentz(field_e, field_b))
            )
            assert direct == inverse, (str(field_e), str(field_b))
            outcomes.append(direct is None)
        # both branches ran: some pairs have a Lagrangian, some have none
        assert 0 < sum(outcomes) < len(outcomes)

    def test_hessian_postcondition_trips(self):
        # a velocity-dependent U adds -2 to the (1, 1) entry of m delta_ij
        field_e, field_b = parse_vector_field("x1;x2;-2*x3"), parse_vector_field("x2;x3;x1")
        with pytest.raises(AssertionError, match="Hessian"):
            hh.minimal_coupling(field_e, field_b, parse("v1^2"))


class TestEulerLagrangeRoundtrip:
    def test_free_matches_zero_force(self):
        lag = LagrangianExpr(parse("1/2*m*(v1^2+v2^2+v3^2)"), ZERO_FIELD, ZERO)
        residual = euler_lagrange_roundtrip(lag, ForceLaw((ZERO, ZERO, ZERO)))
        assert all(r.is_zero for r in residual)

    def test_sign_convention(self):
        lag = LagrangianExpr(parse("1/2*m*(v1^2+v2^2+v3^2)"), ZERO_FIELD, ZERO)
        residual = euler_lagrange_roundtrip(
            lag, ForceLaw((ex.ONE, ZERO, ZERO))
        )
        assert [str(r) for r in residual] == ["-1", "0", "0"]

    def test_reconstructed_forces_roundtrip(self, rng):
        for _ in range(8):
            vec_pot, scal_pot = random_potential_pair(rng)
            field_e, field_b = fields_from_potentials(vec_pot, scal_pot)
            force = ForceLaw.lorentz(field_e, field_b)
            lag = reconstruct_lagrangian(force)
            residual = euler_lagrange_roundtrip(lag, force)
            assert all(r.is_zero for r in residual)


_POSITION_FACTORS = (ex.q(1), ex.q(2), ex.q(3), ex.t(), E_SYM, M_SYM, C_SYM, 1 / C_SYM)
_VELOCITIES = (ex.v(1), ex.v(2), ex.v(3))


@st.composite
def phase_polynomials(draw, max_v_degree):
    """An index-free phase-space polynomial of velocity degree at most max_v_degree."""
    total = ZERO
    for _ in range(draw(st.integers(0, 3))):
        mono = ex.rational(draw(st.sampled_from([-3, -1, 1, 2])), draw(st.integers(1, 3)))
        for factor in draw(st.lists(st.sampled_from(_POSITION_FACTORS), max_size=3)):
            mono = mono * factor
        for factor in draw(st.lists(st.sampled_from(_VELOCITIES), max_size=max_v_degree)):
            mono = mono * factor
        total = total + mono
    return total


@st.composite
def index_free_forces(draw):
    """Affine or nonlinear in v, zero components allowed, with or without a
    conservative potential; or a Lorentz force from random potentials."""
    potential = draw(st.one_of(st.none(), phase_polynomials(0)))
    if draw(st.booleans()):
        comps = tuple(draw(phase_polynomials(draw(st.sampled_from([1, 1, 2])))) for _ in range(3))
        return ForceLaw(comps, potential)
    rng = random.Random(draw(st.integers(0, 2**32)))
    force = ForceLaw.lorentz(*fields_from_potentials(*random_potential_pair(rng)))
    return ForceLaw(force.components, potential)


class TestHelmholtzJet:
    """The conditions and the round trip read one derivative jet and take
    the flow derivative by the chain rule over concrete k."""

    @settings(max_examples=150, deadline=None)
    @given(index_free_forces())
    def test_check_matches_reference(self, force):
        got, want = helmholtz_check(force), reference_helmholtz_check(force)
        assert got.to_json_dict() == want.to_json_dict()
        assert [c.residuals for c in got.conditions] == [c.residuals for c in want.conditions]

    @settings(max_examples=100, deadline=None)
    @given(index_free_forces(), phase_polynomials(2))
    def test_roundtrip_matches_reference(self, force, lagrangian):
        got = euler_lagrange_roundtrip(lagrangian, force)
        assert got == reference_euler_lagrange_roundtrip(lagrangian, force)
        if helmholtz_check(force).passed:
            lag = reconstruct_lagrangian(force)
            got = euler_lagrange_roundtrip(lag, force)
            assert got == reference_euler_lagrange_roundtrip(lag, force)
            assert all(r.is_zero for r in got)

    def test_opaque_ansatz_mixed_residual(self):
        """-(e/c) eps_ijk (dB_k/dt + c (curl E)_k + v_k div B), fully concrete."""
        mixed = helmholtz_check(ForceLaw(lorentz_force())).condition("mixed-gradient")
        e_comp = lambda k: ex.field_component("E", k)  # noqa: E731
        b_comp = lambda k: ex.field_component("B", k)  # noqa: E731
        div_b = ex._sum(partial(b_comp(l), ("q", l)) for l in (1, 2, 3))
        curl_e = [
            ex._sum(ex.eps(k, a, b) * partial(e_comp(b), ("q", a)) for a, b in itertools.product((1, 2, 3), repeat=2))
            for k in (1, 2, 3)
        ]
        for i, j in itertools.product((1, 2, 3), repeat=2):
            expected = -(E_SYM / C_SYM) * ex._sum(
                ex.eps(i, j, k) * (partial(b_comp(k), ("t", None)) + C_SYM * curl_e[k - 1] + ex.v(k) * div_b)
                for k in (1, 2, 3)
            )
            assert mixed.residual_at(i, j) == expected

    def test_partial_counts(self, monkeypatch):
        force = ForceLaw(parse_components("e*q1 + e/c*v2*q1;-e/c*v1*q1;0", "phase-space"))
        calls = {"partial": 0, "total_time_derivative": 0, "_velocity_gradient": 0}

        def counted(name, fn):
            def shim(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(hh, name, shim, raising=False)

        counted("partial", hh.partial)
        counted("total_time_derivative", ex.total_time_derivative)
        counted("_velocity_gradient", hh._velocity_gradient)
        helmholtz_check(force)
        assert calls["partial"] <= 90
        assert calls["total_time_derivative"] == 0
        calls["_velocity_gradient"] = 0
        reconstruct_lagrangian(force)
        assert calls["_velocity_gradient"] == 1


class TestChecksUnderOptimize:
    """The internal consistency checks raise AssertionError under python -O too."""

    def test_wrong_curl_raises(self):
        code = (
            "import embracket.helmholtz as hh\n"
            "from embracket.dsl import parse_vector_field\n"
            "assert not __debug__\n"
            "hh.curl = lambda vf: hh.VectorField.zero()\n"
            "try:\n"
            "    hh.poincare_vector_potential(parse_vector_field('0;0;1'))\n"
            "except AssertionError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(3)\n"
        )
        src = str(Path(embracket.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestDuality:
    def test_swap(self):
        field_e = ZERO_FIELD
        field_b = parse_vector_field("0;0;1")
        new_e, new_b = duality_transform(field_e, field_b)
        assert str(new_e) == "0;0;1" and str(new_b) == "0;0;0"

    def test_four_applications_identity(self):
        field_e = parse_vector_field("x1;0;t")
        field_b = parse_vector_field("0;x2;1")
        pair = (field_e, field_b)
        twice = duality_transform(*duality_transform(*pair))
        assert twice[0] == -field_e and twice[1] == -field_b
        four = duality_transform(*duality_transform(*twice))
        assert four[0] == field_e and four[1] == field_b

    def test_divergence_constraint_maps_to_gauss(self):
        mapped = normalize_sign(duality_map(div_b_expression()))
        assert mapped == parse("d(E[l],q[l])", "extended")
        assert normalize_sign(mapped) is mapped  # a positive leading term stays

    def test_faraday_maps_to_ampere(self):
        mapped = normalize_sign(duality_map(faraday_expression()))
        ampere = normalize_sign(
            parse("eps(s,a,b)*d(B[b],q[a]) - 1/c*d(E[s],t)", "extended")
        )
        assert mapped == ampere


class TestParityAudit:
    def test_canonical_choice_passes(self):
        verdict = parity_audit(FieldLagrangianSpec(Fraction(1, 2), Fraction(1, 2), Fraction(0)))
        assert verdict.passed and verdict.odd_part.is_zero
        assert verdict.canonical == CANONICAL_FIELD_SPEC

    def test_mixed_term_fails(self):
        verdict = parity_audit(FieldLagrangianSpec(Fraction(1, 2), Fraction(1, 2), Fraction(1)))
        assert not verdict.passed
        e_dot_b = ex.field_component("E", "i") * ex.field_component("B", "i")
        assert verdict.odd_part == e_dot_b

    def test_trivial_spec_passes(self):
        verdict = parity_audit(FieldLagrangianSpec(Fraction(0), Fraction(0), Fraction(0)))
        assert verdict.passed
