"""The package's public names: the same set whether or not numpy is loaded yet."""

import pytest

import embracket

# what `from embracket import *` bound when every module was imported eagerly
PUBLIC_NAMES = {
    "AffineDecomposition", "CANONICAL_FIELD_SPEC", "C_SYM", "CompiledExpr", "Constraint",
    "DerivationReport", "DerivationStep", "E_SYM", "Expr", "ExprError",
    "FieldLagrangianSpec", "ForceLaw", "GridSpec", "HelmholtzReport",
    "IndexConventionError", "LagrangianExpr", "M_SYM", "NonPolynomialError",
    "NotVariationalError", "NumericBindings", "ONE", "ParityVerdict", "ParseError",
    "ParticleState", "PotentialConstructionError", "ResidualEntry", "ResidualReport",
    "SymmetricPartError", "Trajectory", "UnboundSymbolError", "UnsupportedOperandError",
    "VectorField", "ZERO", "accel", "bracket", "canonical_bracket_check", "canonicalize",
    "check_linearity", "convergence_order", "curl", "decompose", "delta", "derive_divB",
    "derive_faraday", "derive_qF_antisymmetry", "div_b_expression", "divergence", "dsl",
    "duality_map", "duality_transform", "el_residual", "energy_check", "eps",
    "euler_lagrange_roundtrip", "evaluate", "expand_dummies", "expr", "faraday_expression",
    "field_component", "gradient", "helmholtz", "helmholtz_check", "identify_fields",
    "instantiate_indices", "integrate", "jacobi_residual", "lorentz_force",
    "map_field_families", "maxwell_grid_residuals", "measured_rotation_frequency",
    "normalize_sign", "numeric", "parity_audit", "parity_transform", "parse",
    "parse_vector_field", "partial", "phase_space", "poincare_vector_potential", "q",
    "rational", "reconstruct_lagrangian", "reverify", "run_chain", "scalar_field",
    "scalar_potential", "step_boris", "step_rk4", "substitute_fields", "t",
    "time_derivative_field", "total_time_derivative", "v", "verify_E_bracket", "x",
}
NUMERIC_NAMES = {
    "CompiledExpr", "GridSpec", "NumericBindings", "ParticleState", "ResidualEntry",
    "ResidualReport", "Trajectory", "canonical_bracket_check", "convergence_order",
    "el_residual", "energy_check", "evaluate", "integrate", "maxwell_grid_residuals",
    "measured_rotation_frequency", "step_boris", "step_rk4",
}


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from embracket import *", namespace)
    assert len(PUBLIC_NAMES) == 95
    assert namespace.keys() - {"__builtins__"} == PUBLIC_NAMES


def test_dir_lists_the_numeric_names():
    assert NUMERIC_NAMES | {"numeric"} <= set(dir(embracket))


@pytest.mark.parametrize("name", sorted(NUMERIC_NAMES))
def test_numeric_names_are_the_submodule_objects(name):
    assert getattr(embracket, name) is getattr(embracket.numeric, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError) as err:
        embracket.no_such_name
    assert str(err.value) == "module 'embracket' has no attribute 'no_such_name'"
