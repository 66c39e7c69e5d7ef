"""Bracket engine: rule table, axioms, and the certified derivation chain."""

import dataclasses
import importlib
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embracket import expr as ex
from embracket.bracket import (
    Constraint,
    bracket,
    derive_divB,
    derive_faraday,
    derive_qF_antisymmetry,
    jacobi_residual,
    lorentz_force,
    reverify,
    run_chain,
    verify_E_bracket,
)
from embracket.dsl import parse, parse_vector_field
from embracket.expr import (
    C_SYM,
    E_SYM,
    M_SYM,
    ZERO,
    UnsupportedOperandError,
    eps,
    field_component,
    instantiate_indices,
    partial,
    substitute_fields,
)

from conftest import random_polynomial, reference_bracket

B = lambda i: field_component("B", i)
E = lambda i: field_component("E", i)


def phase_polynomial(rng, terms=3, max_degree=2):
    poly = random_polynomial(rng, variables=("x1", "x2", "x3", "t"), terms=terms, max_degree=max_degree)
    return ex.phase_space(poly)


class TestBaseRules:
    def test_position_velocity(self):
        assert bracket(ex.q(1), ex.v(1)) == ex.ONE / M_SYM
        assert bracket(ex.q(1), ex.v(2)).is_zero

    def test_positions_commute(self):
        for i, j in itertools.product((1, 2, 3), repeat=2):
            assert bracket(ex.q(i), ex.q(j)).is_zero

    def test_velocity_velocity(self):
        expected = (E_SYM / (M_SYM**2 * C_SYM)) * B(3)
        assert bracket(ex.v(1), ex.v(2)) == expected
        assert bracket(ex.v(2), ex.v(1)) == -expected
        assert bracket(ex.v(1), ex.v(1)).is_zero

    def test_velocity_velocity_symbolic(self):
        got = bracket(ex.v("i"), ex.v("j"))
        expected = (E_SYM / (M_SYM**2 * C_SYM)) * eps("i", "j", "k") * B("k")
        assert got == expected

    def test_chain_rule_on_square(self):
        # oracle: {v_1, q_1^2} = 2 q_1 {v_1, q_1} = -2 q_1 / m
        assert bracket(ex.v(1), ex.q(1) ** 2) == -2 * ex.q(1) / M_SYM

    def test_field_rules(self):
        assert bracket(ex.q(1), B(2)).is_zero
        got = bracket(ex.v(1), B(2))
        assert got == -partial(B(2), ("q", 1)) / M_SYM
        assert bracket(B(2), ex.v(1)) == -got

    def test_time_commutes(self):
        assert bracket(ex.t(), ex.v(1)).is_zero
        assert bracket(ex.q(2), ex.t()).is_zero

    def test_unsupported_operands(self):
        with pytest.raises(UnsupportedOperandError):
            bracket(ex.accel(1), ex.q(1))
        with pytest.raises(UnsupportedOperandError):
            bracket(ex.q(1), ex.x(1))

    def test_position_functions_commute(self, rng):
        for _ in range(20):
            f = phase_polynomial(rng)
            g = phase_polynomial(rng)
            assert bracket(ex.q(rng.randint(1, 3)), f).is_zero
            assert bracket(f, g).is_zero

    def test_velocity_against_position_function(self, rng):
        # {v_i, f(q, t)} = -(1/m) df/dq_i on random polynomials
        for _ in range(20):
            f = phase_polynomial(rng)
            i = rng.randint(1, 3)
            assert bracket(ex.v(i), f) == -partial(f, ("q", i)) / M_SYM


@st.composite
def bracket_terms(draw, frees: list):
    """One raw term: the given free names once, up to two summed names twice
    and concrete indices, cut into q/v variables, opaque fields with
    derivative slots, deltas and epsilons; then a few q, v, t and scalar
    atoms and, rarely, an x or acceleration atom the bracket has no rule for."""
    dummies = ["d0", "d1"][: draw(st.integers(0, 2))]
    concrete = draw(st.lists(st.integers(1, 3), max_size=2))
    slots = list(draw(st.permutations(frees + dummies * 2 + concrete)))
    ints = st.integers(1, 3)
    atoms = []
    while slots:
        kind = draw(st.sampled_from(["var", "var", "field", "grad", "delta", "eps"]))
        width = {"grad": 2, "delta": 2, "eps": 3}.get(kind, 1)
        if width > len(slots):
            kind, width = "var", 1
        cut, slots = slots[:width], slots[width:]
        if kind == "var":
            atoms.append(ex.Var(draw(st.sampled_from("qv")), cut[0]))
        elif kind == "field":
            atoms.append(ex.Field(draw(st.sampled_from("EBA")), cut[0]))
        elif kind == "grad":
            derivs = draw(st.sampled_from([(("q", cut[1]),), (("q", cut[1]), ("t", None))]))
            atoms.append(ex.Field(draw(st.sampled_from("EBA")), cut[0], derivs))
        elif kind == "delta":
            atoms.append(ex.Delta(*cut))
        else:
            atoms.append(ex.Eps(*cut))
    for kind in draw(st.lists(st.sampled_from(["q", "v", "v", "t", "scalar"]), max_size=2)):
        if kind == "t":
            atoms.append(ex.Var("t", None))
        elif kind == "scalar":
            derivs = draw(st.sampled_from([(), (("q", draw(ints)),), (("t", None),)]))
            atoms.append(ex.Scalar(draw(st.sampled_from(["A0", "U", "f"])), derivs))
        else:
            atoms.append(ex.Var(kind, draw(ints)))
    if draw(st.integers(0, 19)) == 10:
        atoms.append(ex.Var(draw(st.sampled_from("xa")), draw(ints)))
    coeff = draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 3)]))
    cpow = draw(st.sampled_from([(0, 0, 0), (1, 0, 0), (0, 1, -1)]))
    return coeff, cpow, tuple(draw(st.permutations(atoms)))


@st.composite
def bracket_operands(draw):
    """Two expressions whose free indices i and j, when drawn, are shared
    and contract across the bracket; p and r stay free in one each."""
    shared = draw(st.lists(st.sampled_from(["i", "j"]), unique=True))
    operands = []
    for own in ("p", "r"):
        frees = shared + ([own] if draw(st.booleans()) else [])
        terms = draw(st.lists(bracket_terms(frees), min_size=1, max_size=2))
        operands.append(ex.Expr(tuple(terms)))
    return tuple(operands)


def _bracket_or_raise(fn, a, b):
    try:
        return fn(a, b)
    except UnsupportedOperandError:
        return UnsupportedOperandError


def biderivation(f, g):
    """The bracket in closed form, from partial derivatives and products:
    (1/m)(df/dq_i dg/dv_i - df/dv_i dg/dq_i) + (e/m^2 c) eps_ijk B_k df/dv_i dg/dv_j,
    with fresh summed names for i, j and k."""
    i, j, k = (ex._fresh_name() for _ in range(3))
    df_dq, df_dv = partial(f, ("q", i)), partial(f, ("v", i))
    dg_dq, dg_dv = partial(g, ("q", i)), partial(g, ("v", i))
    canonical = df_dq * dg_dv - df_dv * dg_dq
    magnetic = eps(i, j, k) * B(k) * df_dv * partial(g, ("v", j))
    return canonical / M_SYM + (E_SYM / (M_SYM**2 * C_SYM)) * magnetic


def same_components(x, y) -> bool:
    """x and y agree in every component once their summed indices are
    expanded; canonical forms with a free index beside concrete epsilon
    slots can differ for equal tensors."""
    diff = x - y
    frees = sorted(diff.free_indices())
    return all(
        ex.expand_dummies(instantiate_indices(diff, dict(zip(frees, combo)))).is_zero
        for combo in itertools.product((1, 2, 3), repeat=len(frees))
    )


def _free_beside_concrete(expr) -> bool:
    """A delta or epsilon holding both a concrete and a free slot: there
    eps(1,2,p) and delta(3,p) are equal tensors with two canonical forms."""
    return any(
        isinstance(a, (ex.Delta, ex.Eps))
        and {type(i) for i in ex._atom_indices(a)} == {int, str}
        for a in expr.atoms()
    )


class TestFlatBracket:
    """The bracket against the recursive, memoized bracket kept as a
    reference and against the closed-form biderivation."""

    @settings(max_examples=150, deadline=None)
    @given(bracket_operands())
    def test_matches_reference(self, operands):
        a, b = operands
        got = _bracket_or_raise(bracket, a, b)
        want = _bracket_or_raise(reference_bracket, a, b)
        if UnsupportedOperandError in (got, want):
            assert got is want
            return
        assert same_components(got, want)
        assert same_components(got, biderivation(a, b))
        if not (_free_beside_concrete(got) or _free_beside_concrete(want)):
            assert got == want

    @pytest.mark.parametrize(
        "a, b",
        [
            ("q[i]*q[p]*v[j]", "-delta(1,j)*eps(i,k,l)*v[k]*d(E[l],q1) + q[i]*q[j]"),
            ("q[i]*q[j]*q[p]*v1", "-delta(1,i)*eps(j,k,l)*v[k]*d(E[l],q1) + q[i]*q[j]"),
        ],
    )
    def test_delta_meets_epsilon_pair(self, a, b):
        # a delta makes an epsilon slot concrete while the epsilon pair it
        # sits in shares a summed index: summing every raw term at once
        # expanded B[i]*d(E[i],q1) where the Leibniz order keeps it summed
        a, b = parse(a, "extended"), parse(b, "extended")
        assert bracket(a, b) == reference_bracket(a, b)
        assert same_components(bracket(a, b), biderivation(a, b))

    def test_shared_free_and_private_summed_indices(self):
        # shared free names contract, summed names stay private per argument
        a = ex.v("i") * ex.v("d0") * E("d0")
        b = ex.q("d0") * partial(B("i"), ("q", "d0"))
        assert bracket(a, b) == reference_bracket(a, b)
        assert same_components(bracket(a, b), biderivation(a, b))
        assert not bracket(a, b).is_zero


class TestAxioms:
    def setup_method(self):
        gens = [ex.q(i) for i in (1, 2, 3)] + [ex.v(i) for i in (1, 2, 3)]
        self.monomials = list(gens)
        for a in range(6):
            for b in range(a, 6):
                self.monomials.append(gens[a] * gens[b])
        self.field_weighted = [B(1) * ex.v(2), E(3) * ex.q(1), B(2)]

    def test_antisymmetry_exhaustive(self):
        pool = self.monomials + self.field_weighted
        for a in pool:
            for b in pool:
                assert (bracket(a, b) + bracket(b, a)).is_zero

    def test_leibniz_sample(self, rng):
        pool = self.monomials + self.field_weighted
        for _ in range(300):
            a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            lhs = bracket(a, b * c)
            rhs = b * bracket(a, c) + bracket(a, b) * c
            assert (lhs - rhs).is_zero

    def test_bilinearity(self, rng):
        pool = self.monomials
        for _ in range(100):
            a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            alpha = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            lhs = bracket(a, alpha * b + c)
            rhs = ex.rational(alpha) * bracket(a, b) + bracket(a, c)
            assert (lhs - rhs).is_zero

    def test_jacobi_linear_generators_constant_field(self):
        # all 56 multiset triples of the coordinate generators
        gens = [ex.q(i) for i in (1, 2, 3)] + [ex.v(i) for i in (1, 2, 3)]
        constant_b = parse_vector_field("5;-3;2")
        count = 0
        for ia in range(6):
            for ib in range(ia, 6):
                for ic in range(ib, 6):
                    residual = jacobi_residual(gens[ia], gens[ib], gens[ic])
                    if not residual.is_zero:
                        bound = substitute_fields(residual, {"B": constant_b})
                        assert bound.is_zero
                    count += 1
        assert count == 56


class TestJacobi:
    def test_canonical_triple(self):
        assert jacobi_residual(ex.q(1), ex.q(2), ex.v(3)).is_zero

    def test_velocity_triple_is_divergence(self):
        # oracle: each cyclic term contributes -(e/m^3 c) dB_l/dq_l once
        got = jacobi_residual(ex.v(1), ex.v(2), ex.v(3))
        expected = -(E_SYM / (M_SYM**3 * C_SYM)) * sum(
            (partial(B(l), ("q", l)) for l in (1, 2, 3)), start=ZERO
        )
        assert got == expected

    def test_mixed_field_triple(self):
        assert jacobi_residual(ex.q(1), ex.v(1), B(2)).is_zero


class TestQFAntisymmetry:
    def test_lorentz_ansatz(self):
        report = derive_qF_antisymmetry(lorentz_force())
        assert report.passed
        dual = report.step("force-bracket-dual-form")
        assert dual.output == "; ".join(str(B(s)) for s in (1, 2, 3))
        # the bracket matrix is the axial dual -(e/mc) eps_ijk B_k
        for i, j in itertools.product((1, 2, 3), repeat=2):
            got = bracket(ex.q(i), lorentz_force()[j - 1])
            expected = sum(
                (
                    -ex.rational(sign) * (E_SYM / (M_SYM * C_SYM)) * B(c)
                    for (a, b, c), sign in [
                        (p, s)
                        for p, s in {
                            (1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
                            (1, 3, 2): -1, (3, 2, 1): -1, (2, 1, 3): -1,
                        }.items()
                    ]
                    if (a, b) == (i, j)
                ),
                start=ZERO,
            )
            assert got == expected

    def test_velocity_square_force_fails(self):
        report = derive_qF_antisymmetry((parse("v1^2"), ZERO, ZERO))
        assert not report.passed
        witness = report.step("force-bracket-antisymmetry")
        assert not witness.ok
        # symmetric-part witness at (1,1) is {q_1, F_1} itself
        assert witness.output.split("; ")[0] == str(2 * ex.v(1) / M_SYM)

    def test_zero_force(self):
        report = derive_qF_antisymmetry((ZERO, ZERO, ZERO))
        assert report.passed
        assert report.step("force-bracket-dual-form").output == "0; 0; 0"

    def test_reverify(self):
        report = derive_qF_antisymmetry((parse("v1^2"), ZERO, ZERO))
        assert reverify(report)


class TestEBracket:
    def test_ansatz_replay(self):
        report = verify_E_bracket()
        assert report.passed
        names = [s.name for s in report.steps]
        assert "electric-expansion-velocity-term" in names
        assert "electric-expansion-field-term" in names
        assert "electric-bracket-vanishes" in names

    def test_middle_term_value(self):
        # (e/c) eps_jak {q_i, v_a} B_k at (i, j) = (1, 2) gives (e/mc) eps_21k B_k
        total = ZERO
        signs = {
            (1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
            (1, 3, 2): -1, (3, 2, 1): -1, (2, 1, 3): -1,
        }
        i, j = 1, 2
        for (a, b, c), sign in signs.items():
            if a == j:
                total = total + ex.rational(sign) * (E_SYM / C_SYM) * bracket(
                    ex.q(i), ex.v(b)
                ) * B(c)
        expected = sum(
            (
                ex.rational(sign) * (E_SYM / (M_SYM * C_SYM)) * B(c)
                for (a, b, c), sign in signs.items()
                if (a, b) == (j, i)
            ),
            start=ZERO,
        )
        assert total == expected == -(E_SYM / (M_SYM * C_SYM)) * B(3)

    def test_field_term_vanishes(self):
        total = sum(
            (ex.v(a) * bracket(ex.q(1), B(a)) for a in (1, 2, 3)), start=ZERO
        )
        assert total.is_zero


class TestDivB:
    def test_constraint_form(self):
        report = derive_divB()
        assert report.passed
        constraint = report.constraint("magnetic-divergence")
        assert constraint.expr == parse("d(B[l],q[l])", "extended")
        assert constraint.verdict is None

    def test_inversion_step(self):
        report = derive_divB()
        step = report.step("velocity-bracket-dual")
        assert step.ok
        assert parse(step.output, "extended") == B("s")

    def test_multiple_matches_concrete_enumeration(self):
        # independent oracle: contract the cyclic residual concretely
        report = derive_divB()
        kappa = Fraction(report.notes["velocity-jacobi-multiple"])
        assert kappa != 0
        concrete = ZERO
        signs = {
            (1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
            (1, 3, 2): -1, (3, 2, 1): -1, (2, 1, 3): -1,
        }
        for (l, j, k), sign in signs.items():
            concrete = concrete + ex.rational(sign) * jacobi_residual(
                ex.v(l), ex.v(j), ex.v(k)
            )
        expected = ex.rational(kappa) * (E_SYM / (M_SYM**3 * C_SYM)) * sum(
            (partial(B(l), ("q", l)) for l in (1, 2, 3)), start=ZERO
        )
        assert concrete == expected

    def test_bound_verdicts(self):
        good = parse_vector_field("x2;x3;x1")
        bad = parse_vector_field("x1;0;0")
        constraint = derive_divB().constraint("magnetic-divergence")
        assert substitute_fields(constraint.expr, {"B": good}).is_zero
        assert substitute_fields(constraint.expr, {"B": bad}) == ex.ONE


class TestFaraday:
    def test_constraint_form(self):
        report = derive_faraday()
        assert report.passed
        expected = parse("1/c*d(B[s],t) + eps(s,a,b)*d(E[b],q[a])", "extended")
        assert report.constraint("faraday-induction").expr == expected

    def test_divergence_coupling_documented(self):
        report = derive_faraday()
        assert Fraction(report.notes["divergence-coupling"]) == 1

    def test_residual_keeps_divergence_term(self):
        # the unreduced induction form, before div B = 0 is substituted
        output = run_chain().step("induction-residual").output
        expected = parse(
            "d(B[s],t) + c*eps(s,a,b)*d(E[b],q[a]) + v[s]*d(B[l],q[l])", "extended"
        )
        assert parse(output, "extended") == expected

    def test_zero_by_symmetry_step(self):
        report = derive_faraday()
        step = report.step("induction-zero-by-symmetry")
        assert step.ok and step.output == "0"

    def test_bound_pass_case(self):
        # direct-differentiation oracle for B=(0,0,c t), E=(x2/2,-x1/2,0)
        field_b = parse_vector_field("0;0;c*t")
        field_e = parse_vector_field("x2/2;-x1/2;0")
        constraint = derive_faraday().constraint("faraday-induction").expr
        for s in (1, 2, 3):
            inst = instantiate_indices(constraint, {"s": s})
            assert substitute_fields(inst, {"B": field_b, "E": field_e}).is_zero
        # the oracle route: curl E + (1/c) dB/dt by field calculus
        residual = [
            ci + bi / C_SYM
            for ci, bi in zip(
                ex.curl(field_e), ex.time_derivative_field(field_b)
            )
        ]
        assert all(r.is_zero for r in residual)

    def test_bound_violation(self):
        field_b = parse_vector_field("0;0;c*t")
        field_e = ex.VectorField.zero()
        constraint = derive_faraday().constraint("faraday-induction").expr
        residuals = [
            substitute_fields(
                instantiate_indices(constraint, {"s": s}),
                {"B": field_b, "E": field_e},
            )
            for s in (1, 2, 3)
        ]
        assert [str(r) for r in residuals] == ["0", "0", "1"]


class TestRunChain:
    def test_symbolic_chain(self):
        report = run_chain()
        assert report.passed
        assert [c.name for c in report.constraints] == [
            "magnetic-divergence",
            "faraday-induction",
        ]
        assert all(c.verdict is None for c in report.constraints)
        assert reverify(report)

    def test_uniform_field_passes(self):
        report = run_chain(ex.VectorField.zero(), parse_vector_field("0;0;1"))
        assert report.passed
        assert all(c.verdict is True for c in report.constraints)

    def test_divergence_violation_fails(self):
        report = run_chain(ex.VectorField.zero(), parse_vector_field("x1;0;0"))
        assert not report.passed
        assert report.constraint("magnetic-divergence").verdict is False
        assert report.constraint("faraday-induction").verdict is True

    def test_json_schema(self):
        report = run_chain()
        payload = report.to_json_dict()
        blob = json.loads(json.dumps(payload))
        assert set(blob) >= {"steps", "constraints", "pass"}
        for step in blob["steps"]:
            assert set(step) >= {"name", "rule", "input", "output"}
            assert isinstance(step["input"], list)
        for constraint in blob["constraints"]:
            assert set(constraint) >= {"expr", "verdict"}
        assert blob["pass"] is True

    def test_qF_matrix_bracketed_twice(self, cold_chain, monkeypatch):
        # once in the qF-antisymmetry steps, once for the consistency and
        # dual-form steps; a warm chain brackets nothing
        positions = {ex.q(i) for i in (1, 2, 3)}
        ansatz = set(lorentz_force())
        pairs, calls = [], []

        def counted(a, b):
            calls.append((a, b))
            if a in positions and b in ansatz:
                pairs.append((a, b))
            return bracket(a, b)

        # the package exports the function under the module's name
        monkeypatch.setattr(importlib.import_module("embracket.bracket"), "bracket", counted)
        assert run_chain().passed
        assert len(pairs) == 18
        calls.clear()
        assert run_chain().passed
        assert not run_chain(ex.VectorField.zero(), parse_vector_field("x1;0;0")).passed
        assert len(calls) == 0

    def test_expressions_reparse(self):
        report = run_chain()
        for constraint in report.constraints:
            assert parse(str(constraint.expr), "extended") == constraint.expr


def _bound_chain():
    return run_chain(ex.VectorField.zero(), parse_vector_field("x1;0;0"))


def _qf_report():
    return derive_qF_antisymmetry((parse("v1^2"), ZERO, ZERO))


class TestChainCache:
    """The field-free chain is derived once per process; each report is fresh."""

    def test_mutating_a_report_leaves_the_next_unchanged(self):
        want = run_chain().to_json_dict()
        for report in (run_chain(), _bound_chain()):
            report.steps[0] = dataclasses.replace(report.steps[0], output="0", ok=False)
            report.steps.reverse()
            report.notes["velocity-jacobi-multiple"] = "0"
            report.constraints[0] = Constraint("magnetic-divergence", ex.ONE, False)
            report.constraints.pop()
            assert run_chain().to_json_dict() == want

    def test_bound_constraints_do_not_stick(self):
        uniform = run_chain(ex.VectorField.zero(), parse_vector_field("0;0;1"))
        assert _bound_chain().constraints[0].verdict is False
        assert all(c.verdict is None for c in run_chain().constraints)
        assert all(c.verdict is True for c in uniform.constraints)


class TestReverify:
    """reverify rejects a report that differs from the derivation's output."""

    @pytest.mark.parametrize("make", [run_chain, _bound_chain, _qf_report])
    @pytest.mark.parametrize("where", [0, -1])
    def test_altered_step_output(self, make, where):
        report = make()
        assert reverify(report)
        step = report.steps[where]
        report.steps[where] = dataclasses.replace(step, output=step.output + " + 1")
        assert not reverify(report)

    @pytest.mark.parametrize("make", [run_chain, _bound_chain])
    @pytest.mark.parametrize("where", [0, -1])
    def test_altered_constraint_expr(self, make, where):
        report = make()
        c = report.constraints[where]
        report.constraints[where] = dataclasses.replace(c, expr=c.expr + ex.ONE)
        assert not reverify(report)

    def test_altered_verdict_or_note(self):
        report = _bound_chain()
        report.constraints = [dataclasses.replace(c, verdict=True) for c in report.constraints]
        assert report.passed and not reverify(report)
        report = _bound_chain()
        report.notes["divergence-coupling"] = "0"
        assert not reverify(report)
