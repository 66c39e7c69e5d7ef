"""Independent numerical checks: trajectory integration, finite-difference
brackets, grid Maxwell residuals, and energy conservation.

Everything here deliberately avoids the symbolic engine's own reductions:
derivatives along trajectories and on grids come from central differences,
so agreement with the symbolic layer is a genuine cross-check.

A single particle is stepped in Python floats, not numpy 3-vectors: each
field is compiled once into a function of (x1, x2, x3, t) whose terms carry
e, m and c folded into their coefficients, multiplied in the order
``CompiledExpr`` uses, and the cross products are written out by component
as ``np.cross`` computes them.  |t|^2 in the Boris rotation stays
``np.dot``: the BLAS kernel may fuse its multiply-adds, a plain sum does
not, and the two differ in the last bit often enough to change trajectories.
Kept, every trajectory is bit-identical to the numpy stepping.

Reductions are max and an exact sum of squares, so results do not depend on
evaluation order.  A finite square is s * 2^(k - 1075), with s its 53-bit
significand (implicit bit included) and k = max(exponent field, 1), which
also places subnormals.  Splitting s into a high 26-bit and a low 27-bit
half and summing each half per exponent bin over blocks of 2^16 squares
keeps every partial sum an integer below 2^53, exact in float64 and in any
order; the blocks add up in int64.  The bins fold into one integer
T = sum of s * 2^k, and T / 2^1075 is a correctly rounded integer division:
the value ``math.fsum`` returns, divided by the count as before.  Where that
sum overflows a float, T / (count * 2^1075) still gives the finite mean.  An
inf or nan square makes the mean inf or nan, as it does in ``math.fsum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np

from . import expr as ex
from .expr import Expr, UnboundSymbolError, Var, VectorField
from .bracket import bracket as _rule_bracket


@dataclass(frozen=True)
class NumericBindings:
    """Values for the symbolic constants e, m, c."""

    e: float = 1.0
    m: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if not (self.m > 0 and self.c > 0):
            raise ValueError("m and c must be positive")


@dataclass(frozen=True)
class ParticleState:
    r: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.r.shape != (3,) or self.v.shape != (3,):
            raise ValueError("position and velocity must be 3-vectors")
        if not (np.all(np.isfinite(self.r)) and np.all(np.isfinite(self.v))):
            raise ValueError("state components must be finite")


@dataclass(frozen=True)
class Trajectory:
    """Uniformly spaced states produced by one integrator."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    h: float
    method: str
    first_nonfinite: Optional[int] = None  # index of the first state with inf or nan

    def __post_init__(self):
        n = len(self.times)
        if n >= 2:
            # overflowed times (inf - inf is nan) are flagged by first_nonfinite, not warned about
            with np.errstate(over="ignore", invalid="ignore"):
                steps = np.diff(self.times)
                # t0 + k h rounds to within a few ulps of the largest |t|
                scale = max(abs(self.h), float(np.max(np.abs(self.times))), 1e-300)
                if np.any(steps <= 0) or np.max(np.abs(steps - self.h)) > 1e-12 * scale:
                    raise ValueError("trajectory times must increase uniformly")

    def __len__(self) -> int:
        return len(self.times)

    def state(self, n: int) -> ParticleState:
        return ParticleState(self.positions[n], self.velocities[n], float(self.times[n]))

    def csv_lines(self):
        yield "t,x1,x2,x3,v1,v2,v3"
        for ti, r, v in zip(self.times, self.positions, self.velocities):
            vals = [ti, r[0], r[1], r[2], v[0], v[1], v[2]]
            yield ",".join(f"{val:.17g}" for val in vals)


@dataclass(frozen=True)
class GridSpec:
    """Sampling cube [-extent, extent]^3 with n points per axis at time t0."""

    extent: float
    n: int
    t0: float = 0.0

    def __post_init__(self):
        if self.n < 5:
            raise ValueError("grids need at least 5 points per axis")
        if not self.extent > 0:
            raise ValueError("extent must be positive")

    @property
    def h(self) -> float:
        return 2.0 * self.extent / (self.n - 1)

    def axis(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.n)


@dataclass(frozen=True)
class ResidualEntry:
    name: str
    max: float
    rms: float
    h: Optional[float] = None
    order: Optional[float] = None

    def to_json_dict(self) -> dict:
        out = {"name": self.name, "max": self.max, "rms": self.rms}
        if self.h is not None:
            out["h"] = self.h
        if self.order is not None:
            out["order"] = self.order
        return out


@dataclass
class ResidualReport:
    entries: list[ResidualEntry] = dc_field(default_factory=list)

    def entry(self, name: str) -> ResidualEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {"entries": [e.to_json_dict() for e in self.entries]}


_BLOCK = 1 << 16  # squares per bincount; bounds the temporaries, keeps sums < 2^53


def _norms(values) -> tuple[float, float]:
    """Max modulus and root mean square, the latter from the exact sum of squares."""
    flat = np.ravel(np.asarray(values, dtype=float))
    if flat.size == 0:
        return 0.0, 0.0
    peak = float(np.max(np.abs(flat)))
    if not math.isfinite(peak * peak):  # an inf square makes the sum inf, a nan nan
        return peak, math.sqrt(peak * peak)
    high = np.zeros(2047, dtype=np.int64)
    low = np.zeros(2047, dtype=np.int64)
    for start in range(0, flat.size, _BLOCK):
        block = flat[start : start + _BLOCK]
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


def _entry(name: str, values, h: float) -> ResidualEntry:
    return ResidualEntry(name, *_norms(values), h)


def convergence_order(
    norm_coarse: float, norm_fine: float, h_coarse: float, h_fine: float
) -> float:
    """Observed order from two refinement levels."""
    if norm_fine <= 0 or norm_coarse <= 0:
        return float("inf")
    return math.log(norm_coarse / norm_fine) / math.log(h_coarse / h_fine)


# ---------------------------------------------------------------------------
# expression evaluation


_SLOTS = {
    ("q", 1): 0, ("q", 2): 1, ("q", 3): 2,
    ("x", 1): 0, ("x", 2): 1, ("x", 3): 2,
    ("v", 1): 3, ("v", 2): 4, ("v", 3): 5,
    ("t", None): 6,
}


def _constant(coeff: float, cpow, bindings: NumericBindings) -> float:
    """coeff * e^a * m^b * c^k, multiplied left to right; ValueError if it has no float."""
    value = coeff
    for name, base, p in zip("emc", (bindings.e, bindings.m, bindings.c), cpow):
        if p:
            try:
                value = value * base**p
            except (OverflowError, ZeroDivisionError):
                raise ValueError(f"{name}^{p} has no float value at {name} = {base!r}") from None
    return value


class CompiledExpr:
    """A term-table evaluator over (position, velocity, time) slots.

    Accepts scalars or broadcastable numpy arrays in every slot, so the same
    compiled object serves single states and whole grids.
    """

    def __init__(self, expr: Expr):
        table = []
        for coeff, cpow, atoms in expr.terms:
            slots = []
            for atom in atoms:
                if not isinstance(atom, Var):
                    raise UnboundSymbolError(
                        f"cannot evaluate symbolic atom {atom!r}; bind fields first"
                    )
                key = (atom.kind, atom.index)
                if key not in _SLOTS:
                    raise UnboundSymbolError(f"no numeric value for {atom!r}")
                slots.append(_SLOTS[key])
            try:
                value = float(coeff)
            except OverflowError:
                raise ValueError("a coefficient is too large for a float") from None
            table.append((value, cpow, tuple(slots)))
        self.table = tuple(table)
        self.needs_velocity = any(3 <= s < 6 for _, _, slots in table for s in slots)

    def folded(self, bindings: NumericBindings) -> tuple:
        """The (coefficient, slots) terms with e, m and c folded in by ``_constant``."""
        return tuple((_constant(c, cpow, bindings), slots) for c, cpow, slots in self.table)

    def __call__(self, position, velocity, time, bindings: NumericBindings):
        if velocity is None and self.needs_velocity:
            raise UnboundSymbolError("expression needs a velocity value")
        vel = (None, None, None) if velocity is None else velocity
        values = (position[0], position[1], position[2], vel[0], vel[1], vel[2], time)
        return _sums((self.folded(bindings),), values)[0]


def _sums(tables: Sequence[tuple], values: Sequence) -> list:
    """For each folded table, every coefficient times its slot values, left to
    right, summed in term order."""
    out = []
    for terms in tables:
        total = 0.0
        for piece, slots in terms:
            for s in slots:
                piece = piece * values[s]
            total = total + piece
        out.append(total)
    return out


def _samples(exprs, shape, position, velocity, time, bindings) -> list[np.ndarray]:
    """Each expression over the sample arrays as a read-only float array of the
    given shape (a broadcast view: only sliced and read, ``np.stack`` copies).
    All are compiled before any is evaluated."""
    compiled = [CompiledExpr(e) for e in exprs]
    return [
        np.broadcast_to(np.asarray(f(position, velocity, time, bindings), dtype=float), shape)
        for f in compiled
    ]


def evaluate(expr: Expr, state, bindings: Optional[NumericBindings] = None, time: float = 0.0):
    """Evaluate a fully concrete expression at a state or spatial point."""
    bindings = bindings or NumericBindings()
    if isinstance(state, ParticleState):
        pos, vel, tval = state.r, state.v, state.t
    else:
        pos = np.asarray(state, dtype=float)
        if pos.shape != (3,):
            raise ValueError("spatial points must be 3-vectors")
        vel, tval = None, time
    return CompiledExpr(expr)(pos, vel, tval, bindings)


def _compile_field(vf: VectorField, bindings: NumericBindings):
    """Compile a vector field once into a function (x1, x2, x3, t) -> three floats,
    each summed as ``CompiledExpr`` sums, with e, m and c folded in once."""
    comps = []
    for comp in vf:
        compiled = CompiledExpr(comp)
        if compiled.needs_velocity:
            raise UnboundSymbolError("expression needs a velocity value")
        comps.append(compiled.folded(bindings))

    def at(x1: float, x2: float, x3: float, t: float) -> list[float]:
        return _sums(comps, (x1, x2, x3, None, None, None, t))

    return at


# ---------------------------------------------------------------------------
# integrators


def _boris_constants(h: float, bindings: NumericBindings) -> tuple[float, float]:
    """The half kick e h / 2m and the rotation scale e h / 2mc of one run."""
    two_mc = 2.0 * bindings.m * bindings.c
    if two_mc == 0:
        raise ValueError("2 m c underflows to 0; the Boris rotation is undefined")
    return (bindings.e * h) / (2.0 * bindings.m), bindings.e * h / two_mc


def _boris_step(r, v, t, h, e_at, b_at, consts: tuple[float, float]):
    # drift-kick-drift: half position drift, Boris velocity update with the
    # fields at the midpoint, half drift; time-symmetric, hence second order
    # with synchronized states, and exactly norm-preserving when E = 0.
    half = 0.5 * h
    x1, x2, x3 = r[0] + half * v[0], r[1] + half * v[1], r[2] + half * v[2]
    half_acc, scale = consts
    e1, e2, e3 = e_at(x1, x2, x3, t + half)
    b1, b2, b3 = b_at(x1, x2, x3, t + half)
    # v- = v + half kick, t = (e h / 2 m c) B, v' = v- + v- x t
    m1, m2, m3 = v[0] + half_acc * e1, v[1] + half_acc * e2, v[2] + half_acc * e3
    t1, t2, t3 = scale * b1, scale * b2, scale * b3
    p1, p2, p3 = m1 + (m2 * t3 - m3 * t2), m2 + (m3 * t1 - m1 * t3), m3 + (m1 * t2 - m2 * t1)
    # s = 2 t / (1 + |t|^2); v+ = v- + v' x s, then the second half kick
    tvec = np.array((t1, t2, t3))
    norm = 1.0 + float(np.dot(tvec, tvec))
    s1, s2, s3 = 2.0 * t1 / norm, 2.0 * t2 / norm, 2.0 * t3 / norm
    n1 = m1 + (p2 * s3 - p3 * s2) + half_acc * e1
    n2 = m2 + (p3 * s1 - p1 * s3) + half_acc * e2
    n3 = m3 + (p1 * s2 - p2 * s1) + half_acc * e3
    return (x1 + half * n1, x2 + half * n2, x3 + half * n3), (n1, n2, n3)


def _accel(r, v, t, e_at, b_at, consts: tuple[float, float]):
    e1, e2, e3 = e_at(r[0], r[1], r[2], t)
    b1, b2, b3 = b_at(r[0], r[1], r[2], t)
    q, c = consts
    return (
        q * (e1 + (v[1] * b3 - v[2] * b2) / c),
        q * (e2 + (v[2] * b1 - v[0] * b3) / c),
        q * (e3 + (v[0] * b2 - v[1] * b1) / c),
    )


def _axpy(y, a: float, x):
    return (y[0] + a * x[0], y[1] + a * x[1], y[2] + a * x[2])


def _rk4_sum(k1, k2, k3, k4):
    return tuple(a + 2 * b + 2 * c + d for a, b, c, d in zip(k1, k2, k3, k4))


def _rk4_step(r, v, t, h, e_at, b_at, consts: tuple[float, float]):
    k1r, k1v = v, _accel(r, v, t, e_at, b_at, consts)
    k2r = _axpy(v, 0.5 * h, k1v)
    k2v = _accel(_axpy(r, 0.5 * h, k1r), k2r, t + 0.5 * h, e_at, b_at, consts)
    k3r = _axpy(v, 0.5 * h, k2v)
    k3v = _accel(_axpy(r, 0.5 * h, k2r), k3r, t + 0.5 * h, e_at, b_at, consts)
    k4r = _axpy(v, h, k3v)
    k4v = _accel(_axpy(r, h, k3r), k4r, t + h, e_at, b_at, consts)
    r_new = _axpy(r, h / 6.0, _rk4_sum(k1r, k2r, k3r, k4r))
    v_new = _axpy(v, h / 6.0, _rk4_sum(k1v, k2v, k3v, k4v))
    return r_new, v_new


# each stepper with its per-run constants, computed once in integrate
_STEPPERS = {
    "boris": (_boris_step, _boris_constants),
    "rk4": (_rk4_step, lambda h, bindings: (bindings.e / bindings.m, bindings.c)),
}


def step_boris(
    state: ParticleState,
    fields: tuple[VectorField, VectorField],
    h: float,
    bindings: Optional[NumericBindings] = None,
) -> ParticleState:
    """One drift / half-kick / rotation / half-kick / drift update of
    m dv/dt = eE + (e/c) v x B.

    With E = 0 the rotation preserves the speed exactly up to rounding.
    """
    return integrate(state, fields, h, 1, "boris", bindings).state(1)


def step_rk4(
    state: ParticleState,
    fields: tuple[VectorField, VectorField],
    h: float,
    bindings: Optional[NumericBindings] = None,
) -> ParticleState:
    """One classical fourth-order step of the same equations of motion."""
    return integrate(state, fields, h, 1, "rk4", bindings).state(1)


def integrate(
    state: ParticleState,
    fields: tuple[VectorField, VectorField],
    h: float,
    steps: int,
    method: str = "boris",
    bindings: Optional[NumericBindings] = None,
) -> Trajectory:
    """Integrate for a fixed number of uniform steps."""
    bindings = bindings or NumericBindings()
    if method not in _STEPPERS:
        raise ValueError(f"unknown integrator {method!r}")
    if not h > 0 or steps < 1:
        raise ValueError("need h > 0 and steps >= 1")
    stepper, constants = _STEPPERS[method]
    consts = constants(h, bindings)
    e_at, b_at = (_compile_field(vf, bindings) for vf in fields)
    times = np.empty(steps + 1)
    positions = np.empty((steps + 1, 3))
    velocities = np.empty((steps + 1, 3))
    r, v = state.r.tolist(), state.v.tolist()
    times[0], positions[0], velocities[0] = state.t, r, v
    # overflow is not warned about but recorded below as the first bad state
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            r, v = stepper(r, v, state.t + (k - 1) * h, h, e_at, b_at, consts)
            # uniform grid, no accumulated rounding
            times[k], positions[k], velocities[k] = state.t + k * h, r, v
    finite = (
        np.isfinite(times)
        & np.isfinite(positions).all(axis=1)
        & np.isfinite(velocities).all(axis=1)
    )
    first_nonfinite = None if finite.all() else int(np.argmin(finite))
    return Trajectory(times, positions, velocities, h, method, first_nonfinite)


def measured_rotation_frequency(traj: Trajectory, axis: Sequence[float] = (0, 0, 1)) -> float:
    """Angular frequency of the velocity rotation in the plane normal to axis."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    vel = traj.velocities - np.outer(traj.velocities @ n, n)
    total = 0.0
    for a, b in zip(vel[:-1], vel[1:]):
        cross = np.dot(np.cross(a, b), n)
        dot = float(np.dot(a, b))
        total += math.atan2(cross, dot)
    span = float(traj.times[-1] - traj.times[0])
    return abs(total) / span


# ---------------------------------------------------------------------------
# trajectory residuals


def el_residual(
    traj: Trajectory,
    lagrangian,
    bindings: Optional[NumericBindings] = None,
) -> ResidualReport:
    """Finite-difference Euler-Lagrange residual along a trajectory.

    Momenta dL/dv are differentiated in time by central differences and
    compared against dL/dq at the interior points; on an exact trajectory of
    the matching force the residual shrinks at second order in the step.
    """
    bindings = bindings or NumericBindings()
    if len(traj) < 5:
        raise ValueError("need at least 5 trajectory points")
    l_expr = lagrangian.L if hasattr(lagrangian, "L") else lagrangian
    derivs = [ex.partial(l_expr, (kind, i)) for kind in "vq" for i in (1, 2, 3)]
    pos = tuple(traj.positions[:, k] for k in range(3))
    vel = tuple(traj.velocities[:, k] for k in range(3))
    sampled = _samples(derivs, (len(traj),), pos, vel, traj.times, bindings)
    p = np.stack(sampled[:3], axis=1)
    dl_dq = np.stack(sampled[3:], axis=1)
    dp_dt = (p[2:] - p[:-2]) / (2.0 * traj.h)
    residual = dp_dt - dl_dq[1:-1]
    return ResidualReport([_entry("euler-lagrange", residual, traj.h)])


# non-finite values are reported as such, not warned about
@np.errstate(over="ignore", invalid="ignore")
def energy_check(
    traj: Trajectory,
    scalar_pot: Expr,
    conservative: Optional[Expr] = None,
    bindings: Optional[NumericBindings] = None,
) -> ResidualReport:
    """Drift of H = m v^2/2 + e A0(r) + U(r) along a trajectory.

    Static potentials only: a time-dependent A0 or U is rejected, because
    then H is not conserved to begin with.
    """
    bindings = bindings or NumericBindings()
    for name, pot in (("A0", scalar_pot), ("U", conservative)):
        if pot is not None and pot.has_kind("t"):
            raise ValueError(f"{name} must be static for the energy check")
    pos = tuple(traj.positions[:, k] for k in range(3))
    kinetic = 0.5 * bindings.m * np.sum(traj.velocities**2, axis=1)
    pots = [scalar_pot] if conservative is None else [scalar_pot, conservative]
    sampled = _samples(pots, (len(traj),), pos, None, traj.times, bindings)
    h_series = kinetic + bindings.e * sampled[0]
    if conservative is not None:
        h_series = h_series + sampled[1]
    h0 = float(h_series[0])
    scale = abs(h0) if abs(h0) > 1e-300 else 1.0
    drift = np.abs(h_series - h0) / scale
    return ResidualReport([_entry("energy-drift", drift, traj.h)])


# ---------------------------------------------------------------------------
# canonical brackets by finite differences


def canonical_bracket_check(
    fields: tuple[VectorField, VectorField],
    potentials: tuple[VectorField, Expr],
    state: ParticleState,
    bindings: Optional[NumericBindings] = None,
    fd_step: float = 1e-4,
) -> ResidualReport:
    """Central-difference canonical brackets versus the symbolic rule table.

    Builds p = m v + (e/c) A(r, t), treats v(r, p) as a function on phase
    space, and forms {f, g} = df/dr.dg/dp - df/dp.dg/dr numerically.  The
    reference values are the symbolic rules with the magnetic field bound,
    evaluated at the same point, so the two routes are fully independent.
    """
    bindings = bindings or NumericBindings()
    field_E, field_B = fields
    vec_pot, _ = potentials
    a_at = _compile_field(vec_pot, bindings)
    t0 = state.t

    def v_of(r, p, j):
        return (p[j] - (bindings.e / bindings.c) * a_at(*r, t0)[j]) / bindings.m

    p0 = bindings.m * state.v + (bindings.e / bindings.c) * np.array(a_at(*state.r, t0))

    def fd_bracket(f, g):
        total = 0.0
        for k in range(3):
            d = np.zeros(3)  # the same offset along r_k and p_k
            d[k] = fd_step
            df_dr = (f(state.r + d, p0) - f(state.r - d, p0)) / (2 * fd_step)
            dg_dp = (g(state.r, p0 + d) - g(state.r, p0 - d)) / (2 * fd_step)
            df_dp = (f(state.r, p0 + d) - f(state.r, p0 - d)) / (2 * fd_step)
            dg_dr = (g(state.r + d, p0) - g(state.r - d, p0)) / (2 * fd_step)
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
    entries.append(_entry("position-velocity-diagonal", diag_err, fd_step))
    entries.append(_entry("position-velocity-offdiagonal", offdiag_err, fd_step))
    entries.append(_entry("position-position", qq_err, fd_step))

    vv_err = []
    for i in range(3):
        for j in range(3):
            got = fd_bracket(
                lambda r, p, i=i: v_of(r, p, i), lambda r, p, j=j: v_of(r, p, j)
            )
            rule = _rule_bracket(ex.v(i + 1), ex.v(j + 1))
            bound = ex.substitute_fields(rule, {"B": field_B})
            expected = float(evaluate(bound, state.r, bindings, time=t0))
            scale = max(abs(expected), 1.0)
            vv_err.append(abs(got - expected) / scale)
    entries.append(_entry("velocity-velocity", vv_err, fd_step))
    return ResidualReport(entries)


# ---------------------------------------------------------------------------
# grid Maxwell residuals


def _central_diff(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    sl_plus = [slice(1, -1)] * 3
    sl_minus = [slice(1, -1)] * 3
    sl_plus[axis] = slice(2, None)
    sl_minus[axis] = slice(0, -2)
    return (values[tuple(sl_plus)] - values[tuple(sl_minus)]) / (2.0 * h)


def _interior(values: np.ndarray) -> np.ndarray:
    return values[1:-1, 1:-1, 1:-1]


# non-finite values are reported as such, not warned about
@np.errstate(over="ignore", invalid="ignore")
def maxwell_grid_residuals(
    fields: tuple[VectorField, VectorField],
    grid: GridSpec,
    bindings: Optional[NumericBindings] = None,
    charge_density: Optional[Expr] = None,
    current_density: Optional[VectorField] = None,
) -> ResidualReport:
    """Four central-difference Maxwell residuals on a cubic grid.

    Time derivatives are taken symbolically and sampled; space derivatives
    are second-order central stencils on interior points.  Without source
    expressions, the Gauss and Ampere-Maxwell rows report the implied
    sources div E and c curl B - dE/dt instead of residuals.
    """
    bindings = bindings or NumericBindings()
    field_E, field_B = fields
    axis = grid.axis()
    mesh = np.meshgrid(axis, axis, axis, indexing="ij")
    at_mesh = (mesh[0].shape, mesh, None, grid.t0, bindings)
    h = grid.h
    comps = [*field_E, *field_B]
    comps += [ex.partial(c, ("t", None)) for c in comps]
    sampled = _samples(comps, *at_mesh)
    e_vals, b_vals, de_dt, db_dt = (sampled[k : k + 3] for k in (0, 3, 6, 9))

    def div_fd(vals) -> np.ndarray:
        return sum(_central_diff(vals[k], k, h) for k in range(3))

    def curl_fd(vals) -> list[np.ndarray]:
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

    div_e = div_fd(e_vals)
    if charge_density is not None:
        rho = _interior(_samples([charge_density], *at_mesh)[0])
        entries.append(_entry("gauss-electric", div_e - rho, h))
    else:
        entries.append(_entry("implied-charge-density", div_e, h))

    curl_b = curl_fd(b_vals)
    if current_density is not None:
        j_vals = [_interior(v) for v in _samples(current_density, *at_mesh)]
        ampere = [
            curl_b[k] - (j_vals[k] + _interior(de_dt[k])) / bindings.c
            for k in range(3)
        ]
        entries.append(_entry("ampere-maxwell", ampere, h))
    else:
        implied = [
            bindings.c * curl_b[k] - _interior(de_dt[k]) for k in range(3)
        ]
        entries.append(_entry("implied-current-density", implied, h))
    return ResidualReport(entries)
