"""Numerical layer: integrators, finite-difference brackets, grids, energy."""

import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from embracket import expr as ex
from embracket import numeric as nm
from embracket.dsl import parse, parse_vector_field
from embracket.expr import VectorField, ZERO, curl, gradient, time_derivative_field
from embracket.helmholtz import (
    ForceLaw,
    LagrangianExpr,
    poincare_vector_potential,
    reconstruct_lagrangian,
    scalar_potential,
)
from embracket.numeric import (
    CompiledExpr,
    GridSpec,
    NumericBindings,
    ParticleState,
    Trajectory,
    canonical_bracket_check,
    convergence_order,
    el_residual,
    energy_check,
    evaluate,
    integrate,
    maxwell_grid_residuals,
    measured_rotation_frequency,
    step_boris,
    step_rk4,
)

from conftest import (
    random_polynomial,
    reference_canonical_bracket_check,
    reference_integrate,
    reference_maxwell_grid_residuals,
    reference_norms,
)

ZERO_FIELD = VectorField.zero()
UNIFORM_B = parse_vector_field("0;0;1")


class TestEvaluate:
    def test_phase_space_value(self):
        state = ParticleState([2, 0, 0], [0, 3, 0])
        assert evaluate(parse("q1^2+v2"), state) == pytest.approx(7.0)

    def test_constants_and_bound_field(self):
        expr = ex.E_SYM * ex.field_component("B", 3) / (ex.M_SYM**2 * ex.C_SYM)
        bound = ex.substitute_fields(expr, {"B": parse_vector_field("0;0;5")})
        assert evaluate(bound, np.zeros(3)) == pytest.approx(5.0)
        scaled = evaluate(bound, np.zeros(3), NumericBindings(e=2.0, m=3.0, c=4.0))
        assert scaled == pytest.approx(2.0 * 5.0 / (9.0 * 4.0))

    def test_delta_trace_evaluates(self):
        assert evaluate(ex.delta("i", "i"), np.zeros(3)) == pytest.approx(3.0)

    def test_unbound_symbols_rejected(self):
        with pytest.raises(ex.UnboundSymbolError):
            evaluate(ex.field_component("B", 1), np.zeros(3))
        with pytest.raises(ex.UnboundSymbolError):
            evaluate(ex.accel(1), np.zeros(3))
        with pytest.raises(ex.UnboundSymbolError):
            evaluate(ex.delta(1, "k"), np.zeros(3))

    def test_velocity_needed(self):
        with pytest.raises(ex.UnboundSymbolError):
            evaluate(parse("v1"), np.zeros(3))

    def test_point_must_be_a_3_vector(self):
        with pytest.raises(ValueError, match="3-vectors"):
            evaluate(parse("x1", "field-space"), np.zeros(2))


class TestValidation:
    def test_bindings(self):
        with pytest.raises(ValueError):
            NumericBindings(m=0.0)
        with pytest.raises(ValueError):
            NumericBindings(c=-1.0)

    @pytest.mark.parametrize(
        "values", [(math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, math.nan)]
    )
    def test_bindings_must_be_finite(self, values):
        with pytest.raises(ValueError, match="e, m and c must be finite"):
            NumericBindings(*values)

    def test_grid(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 4)
        for extent, t0 in ((math.inf, 0.0), (1.0, math.nan), (1.0, -math.inf)):
            with pytest.raises(ValueError, match="finite"):
                GridSpec(extent, 9, t0)
        assert GridSpec(1.0, 9).h == pytest.approx(0.25)
        with pytest.raises(ValueError, match="underflows"):
            GridSpec(5e-324, 5)  # 2 extent / 4 rounds to 0

    def test_state_finite(self):
        with pytest.raises(ValueError):
            ParticleState([0, 0, float("nan")], [0, 0, 0])
        with pytest.raises(ValueError, match="3-vectors"):
            ParticleState([0, 0], [0, 0, 0])

    def test_trajectory_uniformity(self):
        times = np.array([0.0, 0.1, 0.25])
        with pytest.raises(ValueError):
            Trajectory(times, np.zeros((3, 3)), np.zeros((3, 3)), 0.1)


class TestIntegrators:
    def test_boris_speed_preservation(self):
        state = ParticleState([0, 0, 0], [1, 0, 0])
        traj = integrate(state, (ZERO_FIELD, UNIFORM_B), 0.05, 2000, "boris")
        speeds = np.linalg.norm(traj.velocities, axis=1)
        assert np.max(np.abs(speeds - 1.0)) < 1e-13

    def test_boris_uniform_electric_is_exact(self):
        field_e = parse_vector_field("2;0;0")
        state = ParticleState([0, 0, 0], [0, 0, 0])
        traj = integrate(state, (field_e, ZERO_FIELD), 0.1, 50, "boris")
        assert np.allclose(traj.velocities[:, 0], 2.0 * traj.times, atol=1e-13)

    def test_cyclotron_frequency_second_order(self):
        state = ParticleState([0, 0, 0], [1, 0, 0])
        errors = {}
        for h in (0.04, 0.02):
            traj = integrate(state, (ZERO_FIELD, UNIFORM_B), h, int(round(16 / h)), "boris")
            errors[h] = abs(measured_rotation_frequency(traj) - 1.0)
        ratio = errors[0.04] / errors[0.02]
        assert 3.0 < ratio < 5.0

    def test_rotation_frequency_needs_two_states(self):
        one = Trajectory(np.zeros(1), np.zeros((1, 3)), np.array([[1.0, 0.0, 0.0]]), 0.1)
        with pytest.raises(ValueError, match="two states"):
            measured_rotation_frequency(one)

    @pytest.mark.parametrize("v0", [(1, 0, 0), (1, 0, 0.5)])
    @pytest.mark.parametrize("h", [0.04, 0.02])
    def test_boris_rotation_angle_is_exact(self, v0, h):
        # in B = (0, 0, 1) each Boris step turns (v1, v2) by 2 atan(h/2);
        # the helix's v3 stays out of the measured rotation
        state = ParticleState([0, 0, 0], list(v0))
        traj = integrate(state, (ZERO_FIELD, UNIFORM_B), h, int(round(16 / h)), "boris")
        expected = 2 * math.atan(h / 2) / h
        assert measured_rotation_frequency(traj) == pytest.approx(expected, rel=1e-12)

    def test_rk4_free_particle_exact(self):
        state = ParticleState([1, 2, 3], [0.5, -0.25, 2.0])
        traj = integrate(state, (ZERO_FIELD, ZERO_FIELD), 0.1, 40, "rk4")
        expected = state.r + np.outer(traj.times, state.v)
        assert np.allclose(traj.positions, expected, atol=1e-12)

    def test_rk4_fourth_order_vs_closed_form(self):
        state = ParticleState([0, 0, 0], [1, 0, 0])
        errors = {}
        for h in (0.02, 0.01):
            traj = integrate(state, (ZERO_FIELD, UNIFORM_B), h, int(round(2 / h)), "rk4")
            tf = traj.times[-1]
            closed = np.array([math.sin(tf), math.cos(tf) - 1.0, 0.0])
            errors[h] = np.linalg.norm(traj.positions[-1] - closed)
        ratio = errors[0.02] / errors[0.01]
        assert 16 * 0.7 < ratio < 16 * 1.3

    def test_boris_and_rk4_agree_at_second_order(self):
        state = ParticleState([0, 0, 0], [1, 0.5, 0.25])
        field_e = parse_vector_field("x2/4;0;0")
        gaps = {}
        for h in (0.02, 0.01):
            steps = int(round(1.0 / h))
            tb = integrate(state, (field_e, UNIFORM_B), h, steps, "boris")
            tr = integrate(state, (field_e, UNIFORM_B), h, steps, "rk4")
            gaps[h] = np.max(np.abs(tb.positions - tr.positions))
        ratio = gaps[0.02] / gaps[0.01]
        assert 4 * 0.6 < ratio < 4 * 1.6

    def test_single_steps_match_integrate(self):
        state = ParticleState([0.1, 0.2, 0.3], [1, 0, 0])
        one = step_boris(state, (ZERO_FIELD, UNIFORM_B), 0.05)
        traj = integrate(state, (ZERO_FIELD, UNIFORM_B), 0.05, 1, "boris")
        assert np.allclose(one.r, traj.positions[-1])
        one_rk = step_rk4(state, (ZERO_FIELD, UNIFORM_B), 0.05)
        traj_rk = integrate(state, (ZERO_FIELD, UNIFORM_B), 0.05, 1, "rk4")
        assert np.allclose(one_rk.v, traj_rk.velocities[-1])

    def test_bad_parameters(self):
        state = ParticleState([0, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError):
            integrate(state, (ZERO_FIELD, ZERO_FIELD), -0.1, 10)
        with pytest.raises(ValueError):
            integrate(state, (ZERO_FIELD, ZERO_FIELD), 0.1, 10, "euler")

    def test_csv_format(self):
        state = ParticleState([0, 0, 0], [1, 0, 0])
        traj = integrate(state, (ZERO_FIELD, ZERO_FIELD), 0.5, 2)
        lines = list(traj.csv_lines())
        assert lines[0] == "t,x1,x2,x3,v1,v2,v3"
        assert len(lines) == 4
        assert lines[1].startswith("0,0,0,0,1,0,0")


@st.composite
def particle_runs(draw):
    """Random time-dependent fields carrying e, m, c powers, constants, step and state."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    degree = draw(st.sampled_from([1, 2]))

    def component():
        total = ZERO
        for _ in range(2):
            powers = [rng.randint(-2, 2) for _ in range(3)]
            consts = ex.E_SYM ** powers[0] * ex.M_SYM ** powers[1] * ex.C_SYM ** powers[2]
            total = total + consts * random_polynomial(rng, max_degree=degree, terms=3)
        return total

    fields = tuple(VectorField([component() for _ in range(3)]) for _ in range(2))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    bindings = NumericBindings(
        sign * draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 4.0)), draw(st.floats(0.2, 4.0))
    )
    coord = st.floats(-2.0, 2.0)
    state = ParticleState(
        draw(st.tuples(coord, coord, coord)),
        draw(st.tuples(coord, coord, coord)),
        draw(st.floats(-1.0, 1.0)),
    )
    return fields, bindings, state, draw(st.floats(1e-3, 0.3)), draw(st.integers(1, 25))


def assert_same_trajectory(got, want):
    # byte equality: stricter than np.array_equal, it also tells -0.0 from 0.0
    for name in ("times", "positions", "velocities"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.first_nonfinite == want.first_nonfinite


class TestFloatSteppers:
    """The float steppers reproduce the numpy 3-vector stepping bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(particle_runs())
    # signed zeros: a zero field component is +0.0, and v + 0.0 turns -0.0 into +0.0
    @example(
        (
            (ZERO_FIELD, UNIFORM_B), NumericBindings(),
            ParticleState([-0.0, 0, 0], [1, -0.0, -0.0]), 0.1, 3,
        )
    )
    def test_matches_reference(self, run):
        fields, bindings, state, h, steps = run
        for method in ("boris", "rk4"):
            assert_same_trajectory(
                integrate(state, fields, h, steps, method, bindings),
                reference_integrate(state, fields, h, steps, method, bindings),
            )

    @pytest.mark.parametrize("method", ["boris", "rk4"])
    def test_overflow_matches_reference(self, method):
        state = ParticleState([0, 0, 0], [1e200, 0, 0])
        fields = (parse_vector_field("x2;t;1"), parse_vector_field("x3;0;1"))
        got = integrate(state, fields, 1e200, 5, method)
        assert got.first_nonfinite is not None
        assert_same_trajectory(got, reference_integrate(state, fields, 1e200, 5, method))

    @pytest.mark.parametrize("method", ["boris", "rk4"])
    def test_velocity_atom_rejected(self, method):
        state = ParticleState([0, 0, 0], [1, 0, 0])
        fields = ((ex.v(1), ZERO, ZERO), ZERO_FIELD)
        for run in (integrate, reference_integrate):
            with pytest.raises(ex.UnboundSymbolError):
                run(state, fields, 0.1, 3, method)

    def test_no_blas_call(self, monkeypatch):
        def dot(*args, **kwargs):
            raise AssertionError("np.dot called while stepping")

        monkeypatch.setattr(np, "dot", dot)
        fields = (parse_vector_field("x2;0;t"), parse_vector_field("x2;x3;x1"))
        state = ParticleState([0.1, 0.2, 0.3], [1, 0.5, 0.25])
        assert integrate(state, fields, 0.01, 50, "boris").first_nonfinite is None

    def test_memory_is_one_table(self):
        # 7 floats per state; a Python list of row tuples took about 4.9x as much
        steps = 100_000
        state = ParticleState([0, 0, 0], [1, 0, 0])
        tracemalloc.start()
        try:
            traj = integrate(state, (ZERO_FIELD, UNIFORM_B), 0.01, steps, "boris")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj) == steps + 1
        assert peak < 2 * (steps + 1) * 7 * 8

    def test_boris_steps_are_not_numpy_bound(self):
        fields = (parse_vector_field("x2/4+t/3;-x1/5;t/7"), parse_vector_field("x3/3;1/2;1+t/5"))
        state = ParticleState([0.1, 0.2, 0.3], [1, 0.5, 0.25])
        start = time.process_time()
        integrate(state, fields, 2**-7, 20_000, "boris")  # exact times pass the uniformity check
        # numpy 3-vector stepping took about 2.8 s here, float stepping 0.2 s
        assert time.process_time() - start < 1.5


class TestElResidual:
    def setup_method(self):
        self.force = ForceLaw.lorentz(ZERO_FIELD, UNIFORM_B)
        self.lagrangian = reconstruct_lagrangian(self.force)
        self.state = ParticleState([0, 0, 0], [1, 0, 0])

    def test_straight_line_free_particle(self):
        lag = LagrangianExpr(parse("1/2*m*(v1^2+v2^2+v3^2)"), ZERO_FIELD, ZERO)
        traj = integrate(self.state, (ZERO_FIELD, ZERO_FIELD), 0.05, 50, "rk4")
        report = el_residual(traj, lag)
        assert report.entry("euler-lagrange").max < 1e-12
        with pytest.raises(KeyError):
            report.entry("no-such-entry")

    def test_second_order_convergence(self):
        maxes = {}
        for h in (0.02, 0.01):
            traj = integrate(self.state, (ZERO_FIELD, UNIFORM_B), h, int(round(2 / h)), "rk4")
            maxes[h] = el_residual(traj, self.lagrangian).entry("euler-lagrange").max
        ratio = maxes[0.02] / maxes[0.01]
        assert 3.2 < ratio < 4.8

    def test_corrupted_lagrangian_floor(self):
        # dropping the coupling term leaves the full magnetic force behind
        corrupted = LagrangianExpr(
            parse("1/2*m*(v1^2+v2^2+v3^2)"),
            self.lagrangian.vector_potential,
            self.lagrangian.scalar_pot,
        )
        traj = integrate(self.state, (ZERO_FIELD, UNIFORM_B), 0.01, 200, "rk4")
        report = el_residual(traj, corrupted)
        force_scale = 1.0  # e |v| B0 / c with unit values
        assert report.entry("euler-lagrange").max > 0.5 * force_scale

    def test_too_short(self):
        traj = integrate(self.state, (ZERO_FIELD, ZERO_FIELD), 0.1, 3)
        with pytest.raises(ValueError):
            el_residual(traj, self.lagrangian)


class TestEnergyCheck:
    def test_boris_uniform_field(self):
        state = ParticleState([0, 0, 0], [1, 0, 0])
        traj = integrate(state, (ZERO_FIELD, UNIFORM_B), 0.05, 5000, "boris")
        report = energy_check(traj, ZERO)
        assert report.entry("energy-drift").max < 1e-12

    def test_free_particle(self):
        state = ParticleState([0, 0, 0], [1, 1, 0])
        traj = integrate(state, (ZERO_FIELD, ZERO_FIELD), 0.1, 30)
        assert energy_check(traj, ZERO).entry("energy-drift").max < 1e-14

    def test_rk4_drift_shrinks_at_least_sixteenfold(self):
        # anharmonic restoring field; RK4 energy drift shrinks at least as
        # fast as the fourth-order trajectory error (measured: faster, the
        # per-step energy defect is one order beyond the local truncation)
        field_e = parse_vector_field("-x1^3;0;0")
        a0 = scalar_potential(field_e, ZERO_FIELD)
        state = ParticleState([1.2, 0, 0], [0, 0, 0])
        drifts = {}
        for h in (0.1, 0.05):
            traj = integrate(state, (field_e, ZERO_FIELD), h, int(round(6 / h)), "rk4")
            drifts[h] = energy_check(traj, a0).entry("energy-drift").max
        assert drifts[0.1] / drifts[0.05] > 16 * 0.7

    def test_rk4_exact_on_uniform_electric_field(self):
        # constant acceleration is a polynomial flow, integrated exactly
        field_e = parse_vector_field("5;0;0")
        a0 = scalar_potential(field_e, ZERO_FIELD)
        state = ParticleState([0, 0, 0], [0.3, 0.2, 0])
        traj = integrate(state, (field_e, ZERO_FIELD), 0.05, 100, "rk4")
        assert energy_check(traj, a0).entry("energy-drift").max < 1e-11

    def test_time_dependent_potential_rejected(self):
        state = ParticleState([0, 0, 0], [1, 0, 0])
        traj = integrate(state, (ZERO_FIELD, ZERO_FIELD), 0.1, 10)
        with pytest.raises(ValueError):
            energy_check(traj, parse("t*x1", "field-space"))


@st.composite
def bracket_requests(draw):
    """B = curl A for a random polynomial A, with a random state, time and
    constants."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    vec_pot = _polynomial_field(rng)
    coords = st.floats(-2, 2)
    state = ParticleState(
        draw(st.tuples(coords, coords, coords)), draw(st.tuples(coords, coords, coords)), draw(coords)
    )
    bindings = NumericBindings(
        draw(st.floats(-10, 10)), draw(st.floats(1e-2, 1e2)), draw(st.floats(1e-2, 1e2))
    )
    return curl(vec_pot), vec_pot, state, bindings


class TestCanonicalBrackets:
    def test_uniform_field_rules(self):
        vec_pot = poincare_vector_potential(UNIFORM_B)
        state = ParticleState([0.3, -0.2, 0.5], [0.1, 0.2, -0.3])
        report = canonical_bracket_check(UNIFORM_B, vec_pot, state)
        assert report.entry("position-velocity-diagonal").max < 1e-8
        assert report.entry("position-velocity-offdiagonal").max < 1e-8
        assert report.entry("position-position").max < 1e-10
        assert report.entry("velocity-velocity").max < 1e-6

    def test_polynomial_field_rules(self, rng):
        field_b = parse_vector_field("3+x2^2;2+x3^2;4+x1^2")
        vec_pot = poincare_vector_potential(field_b)
        for _ in range(5):
            state = ParticleState(
                [rng.uniform(-1, 1) for _ in range(3)],
                [rng.uniform(-1, 1) for _ in range(3)],
            )
            report = canonical_bracket_check(field_b, vec_pot, state)
            assert report.entry("velocity-velocity").max < 1e-6
            assert report.entry("position-velocity-diagonal").max < 1e-6

    def test_nonunit_constants(self):
        bindings = NumericBindings(e=2.0, m=3.0, c=1.5)
        vec_pot = poincare_vector_potential(UNIFORM_B)
        state = ParticleState([0.1, 0.4, -0.2], [0.3, 0.1, 0.2])
        report = canonical_bracket_check(UNIFORM_B, vec_pot, state, bindings)
        assert report.entry("velocity-velocity").max < 1e-6
        assert report.entry("position-velocity-diagonal").max < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(bracket_requests())
    def test_matches_reference(self, args):
        got = canonical_bracket_check(*args)
        want = reference_canonical_bracket_check(*args)
        assert [repr(e) for e in got.entries] == [repr(e) for e in want.entries]

    def test_vector_potential_read_once_per_point(self, monkeypatch):
        # p at the state, then both ends of one central difference along
        # each of r1, r2, r3, p1, p2, p3
        calls = []
        compile_field = nm._compile_field

        def counting(vf, bindings):
            at = compile_field(vf, bindings)

            def counted(*point):
                calls.append(point)
                return at(*point)

            return counted

        monkeypatch.setattr(nm, "_compile_field", counting)
        field_b = parse_vector_field("3+x2^2;2+x3^2;4+x1^2")
        state = ParticleState([0.3, -0.2, 0.5], [0.1, 0.2, -0.3])
        canonical_bracket_check(field_b, poincare_vector_potential(field_b), state)
        assert len(calls) == 13


@st.composite
def residual_arrays(draw):
    """Seeded arrays of magnitudes 1e-320..1e150 with zeros and both signs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(
        st.one_of(
            st.integers(3, 300),
            st.integers(nm._BLOCK - 3, nm._BLOCK + 3),
            st.integers(2 * nm._BLOCK + 1, 3 * nm._BLOCK),
        )
    )
    lo = draw(st.floats(-320.0, 150.0))
    hi = draw(st.floats(lo, 150.0))
    values = 10.0 ** rng.uniform(lo, hi, size) * rng.choice([-1.0, 0.0, 1.0], size)
    if draw(st.booleans()):  # the Faraday rows arrive as a list of equal arrays
        return list(values[: 3 * (size // 3)].reshape(3, -1))
    return values


@st.composite
def partitioned_arrays(draw):
    """An array as consecutive pieces: empty ones, all-zero and all -0.0 ones
    (whole blocks the sum skips), ones with subnormal squares, finite ones of
    up to a block and a half, and maybe an inf or nan in a piece after them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ("empty", "zero", "negzero", "subnormal", "finite", "finite")
    pieces = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=6)):
        size = draw(st.sampled_from((1, 2, 7, 40, nm._BLOCK - 1, nm._BLOCK, nm._BLOCK + 1)))
        if kind == "empty":
            pieces.append(np.zeros(0))
        elif kind in ("zero", "negzero"):
            pieces.append(np.full(size, 0.0 if kind == "zero" else -0.0))
        else:
            lo, hi = (-161.6, -154.2) if kind == "subnormal" else (-200.0, 150.0)
            pieces.append(10.0 ** rng.uniform(lo, hi, size) * rng.choice([-1.0, 0.0, 1.0], size))
    if draw(st.booleans()):
        special = draw(st.sampled_from((math.inf, -math.inf, math.nan)))
        piece = rng.uniform(-1.0, 1.0, draw(st.integers(1, 20)))
        piece[draw(st.integers(0, piece.size - 1))] = special
        pieces.insert(draw(st.integers(1, len(pieces))), piece)
    return pieces


class TestNorms:
    @settings(max_examples=150, deadline=None)
    @given(residual_arrays())
    @example(np.geomspace(1e-165, 1e-150, 999))  # subnormal and smallest normal squares
    @example(np.geomspace(-1e-320, -1e150, 2 * nm._BLOCK + 7))
    def test_matches_reference_on_arrays(self, values):
        assert repr(nm._norms(values)) == repr(reference_norms(values))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e150, 1e150), max_size=40))
    @example([])
    def test_matches_reference_on_edge_floats(self, values):
        # hypothesis favours 0, -0, subnormals and the largest floats
        assert repr(nm._norms(values)) == repr(reference_norms(values))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=30),
        st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), min_size=1, max_size=3),
        st.randoms(use_true_random=False),
    )
    def test_non_finite_inputs(self, finite, special, rnd):
        values = finite + special
        rnd.shuffle(values)
        assert repr(nm._norms(values)) == repr(reference_norms(values))

    def test_overflowing_square(self):
        values = [1.0, -1e200]
        assert repr(nm._norms(values)) == repr(reference_norms(values)) == "(1e+200, inf)"

    def test_overflowing_sum_has_finite_mean(self):
        values = [1.3e154, -1.2e154, 1.1e154, 0.5]
        with pytest.raises(OverflowError):
            reference_norms(values)
        exact = sum(Fraction(x * x) for x in values) / len(values)
        assert nm._norms(values) == (1.3e154, math.sqrt(float(exact)))

    def test_extraction_is_exact_over_every_binade(self):
        """One full block whose squares run from the smallest subnormal to
        the largest float, with zeros and both signs: the sum is exact, and
        the passes stay within the module docstring's bound, which such a
        block reaches."""
        rng = np.random.default_rng(3)
        exponents = rng.integers(-1073, 1025, nm._BLOCK)
        values = np.sqrt(np.ldexp(rng.uniform(0.5, 1.0, nm._BLOCK), exponents))
        values[:2] = math.sqrt(np.finfo(float).max)  # squares the first pass rounds to 2^1024
        values *= rng.choice([-1.0, 0.0, 1.0], values.size)
        squares = values * values
        assert squares[squares > 0].min() == 5e-324 and squares.max() > 2.0**1023
        acc = nm._SumOfSquares()
        acc.add(values)
        assert Fraction(acc.total, 1 << 1075) == sum(map(Fraction, squares.tolist()))
        top = float(squares.max())
        parts = list(nm._extractions(squares, np.empty_like(squares), top))
        assert sum(parts) == acc.total and not squares.any()
        e, b = math.frexp(top)[1], squares.size.bit_length()
        assert len(parts) == 1 + math.ceil((e + 1023 + b) / (51 - b)) == 62

    def test_huge_squares_beside_subnormal_ones(self):
        """Squares of 2^980 and up put sigma past the largest float, so the
        first pass runs scaled by 2^-256; the subnormal squares beside them
        keep their last bits, and no piece rounds to 2^1024."""
        big = math.sqrt(np.finfo(float).max)
        values = np.array([big, -np.nextafter(big, 0), 2.0**490, -3e-162, 1e-160, 0.0, 7.5e-162])
        squares = values * values
        assert math.frexp(squares.max())[1] + values.size.bit_length() + 1 > 1023
        acc = nm._SumOfSquares()
        acc.add(values)
        exact = sum(map(Fraction, squares.tolist()))
        assert Fraction(acc.total, 1 << 1075) == exact
        assert acc.result() == (big, math.sqrt(float(exact / values.size)))

    @settings(max_examples=60, deadline=None)
    @given(partitioned_arrays())
    @example([np.geomspace(3e-162, 1e-155, 50), np.zeros(nm._BLOCK), np.array([-2e-160])])
    def test_any_split_matches_whole(self, pieces):
        acc = nm._SumOfSquares()
        for piece in pieces:
            acc.add(piece)
        assert repr(acc.result()) == repr(reference_norms(np.concatenate(pieces)))

    def test_trailing_non_finite_piece(self):
        for special in (math.inf, -math.inf, math.nan):
            pieces = [np.full(5, 3.0), np.zeros(0), np.array([1.0, special, 2.0])]
            acc = nm._SumOfSquares()
            for piece in pieces:
                acc.add(piece)
            assert repr(acc.result()) == repr(reference_norms(np.concatenate(pieces)))


def _split_n() -> int:
    """The smallest grid whose interior planes fill three slabs or more, the
    last one short."""
    for n in range(5, nm.MAX_GRID_N + 1):
        planes = max(1, nm._SLAB // (n - 2) ** 2)
        if n - 2 > 2 * planes and (n - 2) % planes:
            return n
    raise AssertionError("no grid splits into slabs")


SPLIT_N = _split_n()


def _polynomial_field(rng) -> VectorField:
    return VectorField(
        tuple(
            random_polynomial(rng, max_degree=3, terms=rng.randint(0, 4))
            for _ in range(3)
        )
    )


@st.composite
def grid_requests(draw):
    """Random polynomial fields, grid and constants; some fields overflow on
    the outer planes (x1^64 at extent 1e5) or give nan there."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    field_e, field_b = _polynomial_field(rng), _polynomial_field(rng)
    extent = draw(st.floats(1e-3, 1e3))
    special = draw(st.sampled_from((None, None, "overflow", "nan")))
    if special == "overflow":
        field_b = VectorField((field_b[0] + parse("x1^64", "field-space"), field_b[1], field_b[2]))
        extent = 1e5
    elif special == "nan":  # inf - inf where |x1 x2| and |x1 x3| pass 6.6e4
        blowup = parse("x1^64*x2^64 - x1^64*x3^64", "field-space")
        field_e = VectorField((field_e[0], field_e[1] + blowup, field_e[2]))
        extent = 1e3
    n = draw(st.one_of(st.integers(5, 45), st.just(SPLIT_N)))
    grid = GridSpec(extent, n, draw(st.floats(-10, 10)))
    bindings = NumericBindings(
        draw(st.floats(-10, 10)), draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3))
    )
    return (field_e, field_b), grid, bindings


class TestGridResiduals:
    @settings(max_examples=60, deadline=None)
    @given(grid_requests())
    def test_matches_reference(self, args):
        got = maxwell_grid_residuals(*args)
        want = reference_maxwell_grid_residuals(*args)
        assert [repr(e) for e in got.entries] == [repr(e) for e in want.entries]

    def test_overflow_on_outer_slabs_only(self):
        # x1^64 passes the largest float beyond |x1| = 6.6e4: at extent 6.7e4
        # only the two outermost planes, halo planes of the first and the
        # last slab, overflow
        grid = GridSpec(6.7e4, SPLIT_N, 0.5)
        with np.errstate(over="ignore"):
            powers = grid.axis() ** 64
        assert np.isinf(powers[[0, -1]]).all() and np.isfinite(powers[1:-1]).all()
        args = ((parse_vector_field("x1*t;x2^2;0"), parse_vector_field("x1^64;x3*x1;x2")), grid)
        got = maxwell_grid_residuals(*args)
        want = reference_maxwell_grid_residuals(*args)
        assert [repr(e) for e in got.entries] == [repr(e) for e in want.entries]
        assert got.entry("magnetic-divergence").max == math.inf
        assert got.entry("faraday-induction").max == 0.0

    def test_memory_bounded_by_slab(self):
        # the cube at n = 129 holds 2.1M points; the whole-cube version
        # peaked at 444 MiB here
        fields = (parse_vector_field("x1*t;x2^2;0"), parse_vector_field("x2^2*x3;x3*x1;x1^3"))
        tracemalloc.start()
        try:
            maxwell_grid_residuals(fields, GridSpec(1.0, 129))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_linear_field_divergence_exact(self):
        report = maxwell_grid_residuals(
            (ZERO_FIELD, parse_vector_field("x1;0;0")), GridSpec(1.0, 9)
        )
        entry = report.entry("magnetic-divergence")
        assert entry.max == pytest.approx(1.0, abs=1e-12)
        assert entry.rms == pytest.approx(1.0, abs=1e-12)

    def test_implied_sources(self):
        report = maxwell_grid_residuals(
            (parse_vector_field("x1;x2;x3"), ZERO_FIELD), GridSpec(1.0, 9)
        )
        assert report.entry("implied-charge-density").max == pytest.approx(3.0, abs=1e-12)
        assert report.entry("implied-current-density").max == pytest.approx(0.0, abs=1e-12)

    def test_potential_fields_second_order(self):
        # curl components carry degree >= 3 in their own variable, so the
        # divergence stencil error is nonzero pointwise and cancels only in
        # the exact sum
        vec_pot = parse_vector_field("x2*x3^4;x3*x1^4*t;x1*x2^4")
        scal_pot = parse("x1^2*x2", "field-space")
        field_b = curl(vec_pot)
        field_e = VectorField(
            tuple(
                -gi - ai / ex.C_SYM
                for gi, ai in zip(gradient(scal_pot), time_derivative_field(vec_pot))
            )
        )
        coarse = maxwell_grid_residuals((field_e, field_b), GridSpec(1.0, 9, t0=0.3))
        fine = maxwell_grid_residuals((field_e, field_b), GridSpec(1.0, 17, t0=0.3))
        for name in ("magnetic-divergence", "faraday-induction"):
            order = convergence_order(
                coarse.entry(name).max,
                fine.entry(name).max,
                GridSpec(1.0, 9).h,
                GridSpec(1.0, 17).h,
            )
            assert 1.5 < order < 2.5

    @pytest.mark.parametrize(
        "args, expected",
        [((1e-3, 0.0, 0.25, 0.125), math.inf), ((0.0, 1e-3, 0.25, 0.125), -math.inf), ((4.0, 1.0, 0.2, 0.1), 2.0)],
    )
    def test_convergence_order_values(self, args, expected):
        assert convergence_order(*args) == pytest.approx(expected)

    @pytest.mark.parametrize("norm_coarse, norm_fine", [(1.0, -1.0), (-1.0, 1.0), (0, 0)])
    def test_convergence_order_needs_usable_norms(self, norm_coarse, norm_fine):
        with pytest.raises(ValueError, match="two non-negative norms, not both 0"):
            convergence_order(norm_coarse, norm_fine, 0.25, 0.125)

    @pytest.mark.parametrize("h_coarse, h_fine", [(0.1, 0.1), (0.1, 0.0), (-0.2, 0.1)])
    def test_convergence_order_needs_two_positive_steps(self, h_coarse, h_fine):
        with pytest.raises(ValueError, match="two different positive step sizes"):
            convergence_order(1.0, 0.5, h_coarse, h_fine)

    def test_stencils_exact_on_quadratics(self, rng):
        # central differences reproduce symbolic derivatives on degree <= 2
        poly = random_polynomial(rng, variables=("x1", "x2", "x3"), max_degree=2, terms=4)
        grid = GridSpec(1.0, 7)
        axis = grid.axis()
        mesh = np.meshgrid(axis, axis, axis, indexing="ij")
        values = CompiledExpr(poly)((mesh[0], mesh[1], mesh[2]), None, 0.0, NumericBindings())
        values = np.broadcast_to(np.asarray(values, float), mesh[0].shape)
        sym = CompiledExpr(ex.partial(poly, ("x", 1)))(
            (mesh[0], mesh[1], mesh[2]), None, 0.0, NumericBindings()
        )
        sym = np.broadcast_to(np.asarray(sym, float), mesh[0].shape)[1:-1, 1:-1, 1:-1]
        fd = (values[2:, 1:-1, 1:-1] - values[:-2, 1:-1, 1:-1]) / (2 * grid.h)
        assert np.allclose(fd, sym, atol=1e-11)

    def test_symbolic_numeric_consistency(self, rng):
        # identities certified symbolically hold numerically: both sides are
        # evaluated separately at 100 random points and compared
        from embracket.bracket import run_chain
        from embracket.helmholtz import poincare_vector_potential, scalar_potential

        vec_pot = parse_vector_field("x2^2*t;x3*x1;x1^2")
        scal_pot = parse("x1*x2*x3", "field-space")
        field_b = curl(vec_pot)
        field_e = VectorField(
            tuple(
                -gi - ai / ex.C_SYM
                for gi, ai in zip(gradient(scal_pot), time_derivative_field(vec_pot))
            )
        )
        assert run_chain(field_e, field_b).passed

        rebuilt = poincare_vector_potential(field_b)
        a0 = scalar_potential(field_e, rebuilt)
        curl_a = curl(rebuilt)
        grad_a0 = gradient(a0)
        da_dt = time_derivative_field(rebuilt)
        for _ in range(100):
            point = np.array([rng.uniform(-1, 1) for _ in range(3)])
            tval = rng.uniform(0, 1)
            for k in range(3):
                lhs = evaluate(curl_a[k], point, time=tval)
                rhs = evaluate(field_b[k], point, time=tval)
                assert abs(lhs - rhs) < 1e-10
                minus_grad = -evaluate(grad_a0[k], point, time=tval)
                e_plus = evaluate(field_e[k], point, time=tval) + evaluate(
                    da_dt[k], point, time=tval
                )
                assert abs(minus_grad - e_plus) < 1e-10
