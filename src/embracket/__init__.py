"""Symbolic and numerical toolkit for bracket-based electromagnetism.

The package replays the Poisson-bracket route to the Lorentz force and the
sourceless Maxwell constraints, tests forces against the inverse problem of
the calculus of variations, rebuilds the minimally coupled Lagrangian with
its potentials, and cross-checks every symbolic identity numerically.
The ``numeric`` submodule and its names load, with numpy, on first access.
"""

import importlib.util as _importlib_util
import sys as _sys

from .expr import (
    C_SYM,
    E_SYM,
    Expr,
    ExprError,
    IndexConventionError,
    M_SYM,
    NonPolynomialError,
    ONE,
    UnboundSymbolError,
    UnsupportedOperandError,
    VectorField,
    ZERO,
    accel,
    canonicalize,
    curl,
    delta,
    divergence,
    eps,
    expand_dummies,
    field_component,
    gradient,
    instantiate_indices,
    map_field_families,
    parity_transform,
    partial,
    phase_space,
    q,
    rational,
    scalar_field,
    substitute_fields,
    t,
    time_derivative_field,
    total_time_derivative,
    v,
    x,
)
from .dsl import ParseError, parse, parse_vector_field
from .bracket import (
    Constraint,
    DerivationReport,
    DerivationStep,
    bracket,
    derive_divB,
    derive_faraday,
    derive_qF_antisymmetry,
    div_b_expression,
    faraday_expression,
    jacobi_residual,
    lorentz_force,
    reverify,
    run_chain,
    verify_E_bracket,
)
from .helmholtz import (
    AffineDecomposition,
    CANONICAL_FIELD_SPEC,
    FieldLagrangianSpec,
    ForceLaw,
    HelmholtzReport,
    LagrangianExpr,
    NotVariationalError,
    ParityVerdict,
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


# numeric needs numpy, which costs more to load than the whole symbolic side:
# the submodule is bound now but runs on first attribute access, and its names
# resolve through it (PEP 562)
_spec = _importlib_util.find_spec(f"{__name__}.numeric")
_spec.loader = _importlib_util.LazyLoader(_spec.loader)
numeric = _sys.modules[_spec.name] = _importlib_util.module_from_spec(_spec)
_spec.loader.exec_module(numeric)

_NUMERIC_NAMES = frozenset(
    {
        "CompiledExpr",
        "GridSpec",
        "NumericBindings",
        "ParticleState",
        "ResidualEntry",
        "ResidualReport",
        "Trajectory",
        "canonical_bracket_check",
        "convergence_order",
        "el_residual",
        "energy_check",
        "evaluate",
        "integrate",
        "maxwell_grid_residuals",
        "measured_rotation_frequency",
        "step_boris",
        "step_rk4",
    }
)


def __getattr__(name: str):
    if name in _NUMERIC_NAMES:
        return getattr(numeric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _NUMERIC_NAMES)


__version__ = "0.1.0"
__all__ = sorted({n for n in globals() if not n.startswith("_")} | _NUMERIC_NAMES)
