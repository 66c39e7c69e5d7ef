"""Independent numerical checks: trajectory integration, finite-difference
brackets, grid Maxwell residuals, and energy conservation.

Everything here deliberately avoids the symbolic engine's own reductions:
derivatives along trajectories and on grids come from central differences,
so agreement with the symbolic layer is a genuine cross-check.

A single particle is stepped in Python floats, not numpy 3-vectors: each
field is compiled once into a function of (x1, x2, x3, t) whose terms carry
e, m and c folded into their coefficients, multiplied in the order
``CompiledExpr`` uses, and the cross products are written out by component
as ``np.cross`` computes them.  |t|^2 in the Boris rotation is the
left-to-right sum of the three squares, so no BLAS kernel decides the last
bit of a trajectory.  Each state is one row (t, x1, x2, x3, v1, v2, v3) of a
table allocated before the first step.

Reductions are max and an exact sum of squares, so results do not depend on
evaluation order or on how the values are split into pieces.  Every finite
square is a multiple of 2^-1074, so the sum is one integer T in units of
2^-1075, and T / 2^1075 is a correctly rounded integer division: the value
``math.fsum`` returns, divided by the count as before.  The squares are
summed in blocks of 2^16 by error-free extraction (Rump, Ogita & Oishi,
"Accurate floating-point summation part I", SIAM J. Sci. Comput. 31(1),
2008).  Let a pass take n values p, each below 2^e in modulus, and
sigma = 2^(e + b + 1) with b the bit length of n.  Then p + sigma lies within
a quarter of sigma, so q = (p + sigma) - sigma is exact (Sterbenz), a
multiple of u = 2^(e + b - 52), and the remainder p - q is the rounding error
of p + sigma: exact, and at most u in modulus.  The n pieces q add up to
less than 2^(e + b) + n u < sigma = 2^53 u, so every partial sum is exact and
``q.sum()`` is exact in any order; its integer ratio goes into T, and the
remainders make the next pass.  Each pass lowers e by at least 51 - b, and
a pass with sigma <= 2^-1022 leaves no remainder, as u is then below the
spacing of the floats.  A block whose largest square is below 2^e therefore
takes at most 1 + ceil((e + 1023 + b) / (51 - b)) passes: 62 for a full
block at worst, 2 or 3 when its squares span a few binades.  A pass whose
sigma would overflow runs on the values times 2^-256, which is exact for
every value it leaves a nonzero piece of; the others keep their remainder
unscaled.  A block whose largest square is 0 adds nothing.  Where the sum
overflows a float, T / (count * 2^1075) still gives the finite mean.  An inf
or nan square makes the mean inf or nan, as it does in ``math.fsum``.

Grid residuals stream through this sum: ``maxwell_grid_residuals`` works
through the cube in slabs of whole x1-planes, about 2^16 points each plus
one halo plane on either side, samples every component on the slab's open
mesh of axis slices, and adds each residual row of the slab to its sum.
Its memory is bounded by the slab, not by the n^3 points of the cube.
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
        if not all(math.isfinite(value) for value in (self.e, self.m, self.c)):
            raise ValueError("e, m and c must be finite")
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
        for row in np.column_stack((self.times, self.positions, self.velocities)).tolist():
            yield ",".join(f"{val:.17g}" for val in row)


# Upper bounds on the problem size, checked before anything is allocated.  A
# grid is streamed in slabs of about 2^16 points, so its memory does not grow
# with n^3 (about 5 MiB traced at n = 129 and at n = 257); its time does.  A
# trajectory stores 7 floats per step.
MAX_GRID_N = 257
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class GridSpec:
    """Sampling cube [-extent, extent]^3 with n points per axis at time t0."""

    extent: float
    n: int
    t0: float = 0.0

    def __post_init__(self):
        if not 5 <= self.n <= MAX_GRID_N:
            raise ValueError(f"grids need 5 to {MAX_GRID_N} points per axis")
        if not self.extent > 0:
            raise ValueError("extent must be positive")
        if not (math.isfinite(self.extent) and math.isfinite(self.t0)):
            raise ValueError("extent and t0 must be finite")
        if not 0 < self.h < math.inf:
            fault = "underflows to 0" if self.h == 0 else "overflows"
            raise ValueError(f"the grid spacing 2 extent / (n - 1) {fault}")

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
    h: float

    def to_json_dict(self) -> dict:
        return {"name": self.name, "max": self.max, "rms": self.rms, "h": self.h}


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


_BLOCK = 1 << 16  # squares per extraction: bounds the scratch buffers and b <= 17 in the pass bound
_SCALE = 256  # a pass whose sigma would overflow runs on the values times 2^-256


def _extractions(p: np.ndarray, q: np.ndarray, top: float):
    """Split the finite values p into exact pieces, one per pass: each pass
    yields the sum of its piece as an integer multiple of 2^-1075 and leaves
    what is left in p.  ``top`` is max |p|; q is scratch of p's size."""
    shift = p.size.bit_length() + 1
    while top:
        k = math.frexp(top)[1] + shift  # sigma = 2^k
        scale = _SCALE if k > 1023 else 0
        sigma = math.ldexp(1.0, k - scale)
        if scale:
            np.multiply(p, 2.0**-scale, out=q)
            q += sigma
        else:
            np.add(p, sigma, out=q)
        q -= sigma
        num, den = float(q.sum()).as_integer_ratio()
        yield (num << 1075 + scale) // den
        if scale:  # q times 2^256 may round to 2^1024, so the remainder is taken at scale
            kept = q != 0
            np.multiply(p, 2.0**-scale, out=p, where=kept)
            p -= q
            np.multiply(p, 2.0**scale, out=p, where=kept)
        else:
            p -= q
        top = max(p.max(), -p.min())


class _SumOfSquares:
    """Max modulus and exact sum of squares of every value added, whatever
    the order and the split of the values into pieces."""

    def __init__(self):
        self.size = 0
        self.peak = 0.0
        self.total = 0  # the sum of squares in units of 2^-1075

    def add(self, values) -> None:
        flat = np.ravel(np.asarray(values, dtype=float))
        self.size += flat.size
        width = min(flat.size, _BLOCK)
        square, scratch = np.empty(width), np.empty(width)
        for start in range(0, flat.size, _BLOCK):
            block = flat[start : start + _BLOCK]
            self._block(block, square[: block.size], scratch[: block.size])

    def _block(self, block, square, scratch) -> None:
        peak = float(np.abs(block, out=square).max())
        if peak > self.peak or peak != peak:  # a nan stays
            self.peak = peak
        if peak * peak == 0 or not math.isfinite(self.peak * self.peak):
            return  # nothing to add, or the sum is inf or nan whatever else comes
        np.multiply(square, square, out=square)
        self.total += sum(_extractions(square, scratch, peak * peak))

    def result(self) -> tuple[float, float]:
        """The max modulus and the root mean square."""
        if self.size == 0:
            return 0.0, 0.0
        peak = self.peak
        if not math.isfinite(peak * peak):  # an inf square makes the sum inf, a nan nan
            return peak, math.sqrt(peak * peak)
        try:
            mean = self.total / (1 << 1075) / self.size
        except OverflowError:  # the sum overflows, the mean (at most the peak's square) does not
            mean = self.total / (self.size << 1075)
        return peak, math.sqrt(mean)


def _norms(values) -> tuple[float, float]:
    """Max modulus and root mean square, the latter from the exact sum of squares."""
    acc = _SumOfSquares()
    acc.add(values)
    return acc.result()


def _entry(name: str, values, h: float) -> ResidualEntry:
    return ResidualEntry(name, *_norms(values), h)


def convergence_order(
    norm_coarse: float, norm_fine: float, h_coarse: float, h_fine: float
) -> float:
    """Observed order from two refinement levels."""
    if h_coarse <= 0 or h_fine <= 0 or h_coarse == h_fine:
        raise ValueError("the convergence order needs two different positive step sizes")
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

    def folded(self, bindings: NumericBindings, velocity: bool) -> tuple:
        """The (coefficient, slots) terms with e, m and c folded in by ``_constant``;
        without velocity values, an expression that needs them is refused."""
        if self.needs_velocity and not velocity:
            raise UnboundSymbolError("expression needs a velocity value")
        return tuple((_constant(c, cpow, bindings), slots) for c, cpow, slots in self.table)

    def __call__(self, position, velocity, time, bindings: NumericBindings):
        vel = (None, None, None) if velocity is None else velocity
        values = (position[0], position[1], position[2], vel[0], vel[1], vel[2], time)
        return _sums((self.folded(bindings, velocity is not None),), values)[0]


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


def _tables(exprs, bindings: NumericBindings, velocity: bool = False) -> list[tuple]:
    """Every expression compiled, then each folded by ``CompiledExpr.folded`` in turn."""
    return [f.folded(bindings, velocity) for f in [CompiledExpr(e) for e in exprs]]


def _samples(tables, shape, values) -> list[np.ndarray]:
    """Each folded table summed by ``_sums`` over the seven slot values as a
    read-only float array of the given shape.

    The slots may be arrays of any shapes that broadcast to it, such as the
    open-mesh axis slices of a grid slab: each point sees the same products
    in the same order as on full arrays.  The result is a broadcast view,
    only sliced and read; ``np.stack`` copies."""
    return [np.broadcast_to(np.asarray(v, dtype=float), shape) for v in _sums(tables, values)]


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
    comps = _tables(vf, bindings)

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
    norm = 1.0 + (t1 * t1 + t2 * t2 + t3 * t3)
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
    if not h > 0 or not 1 <= steps <= MAX_STEPS:
        raise ValueError(f"need h > 0 and 1 <= steps <= {MAX_STEPS}")
    stepper, constants = _STEPPERS[method]
    consts = constants(h, bindings)
    e_at, b_at = (_compile_field(vf, bindings) for vf in fields)
    # one row (t, x1, x2, x3, v1, v2, v3) per state; Python floats overflow to
    # inf without a warning, recorded below as the first bad state
    table = np.empty((steps + 1, 7))
    t0, r, v = float(state.t), state.r.tolist(), state.v.tolist()
    table[0] = (t0, *r, *v)
    for k in range(1, steps + 1):
        r, v = stepper(r, v, t0 + (k - 1) * h, h, e_at, b_at, consts)
        table[k] = (t0 + k * h, *r, *v)  # uniform grid, no accumulated rounding
    finite = np.isfinite(table).all(axis=1)
    first_nonfinite = None if finite.all() else int(np.argmin(finite))
    return Trajectory(table[:, 0], table[:, 1:4], table[:, 4:], h, first_nonfinite)


def measured_rotation_frequency(traj: Trajectory) -> float:
    """Angular frequency of the velocity rotation in the (v1, v2) plane."""
    if len(traj) < 2:
        raise ValueError("the rotation frequency needs at least two states")
    vel = traj.velocities[:, :2].tolist()
    total = 0.0
    for (a1, a2), (b1, b2) in zip(vel[:-1], vel[1:]):
        total += math.atan2(a1 * b2 - a2 * b1, a1 * b1 + a2 * b2)
    span = float(traj.times[-1] - traj.times[0])
    return abs(total) / span


# ---------------------------------------------------------------------------
# trajectory residuals


# non-finite values are reported as such, not warned about
@np.errstate(over="ignore", invalid="ignore")
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
    tables = _tables(derivs, bindings, velocity=True)
    sampled = _samples(tables, (len(traj),), (*pos, *vel, traj.times))
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
    bindings: Optional[NumericBindings] = None,
) -> ResidualReport:
    """Drift of H = m v^2/2 + e A0(r) along a trajectory.

    Static potentials only: a time-dependent A0 is rejected, because then H
    is not conserved to begin with.
    """
    bindings = bindings or NumericBindings()
    if scalar_pot.has_kind("t"):
        raise ValueError("A0 must be static for the energy check")
    pos = tuple(traj.positions[:, k] for k in range(3))
    v1, v2, v3 = (traj.velocities[:, k] for k in range(3))
    kinetic = 0.5 * bindings.m * (v1 * v1 + v2 * v2 + v3 * v3)
    values = (*pos, None, None, None, traj.times)
    (a0,) = _samples(_tables([scalar_pot], bindings), (len(traj),), values)
    h_series = kinetic + bindings.e * a0
    h0 = float(h_series[0])
    scale = abs(h0) if abs(h0) > 1e-300 else 1.0
    drift = np.abs(h_series - h0) / scale
    return ResidualReport([_entry("energy-drift", drift, traj.h)])


# ---------------------------------------------------------------------------
# canonical brackets by finite differences


_FD_STEP = 1e-4  # central-difference offset along each r_k and p_k


def canonical_bracket_check(
    field_B: VectorField,
    vector_potential: VectorField,
    state: ParticleState,
    bindings: Optional[NumericBindings] = None,
) -> ResidualReport:
    """Central-difference canonical brackets versus the symbolic rule table.

    Builds p = m v + (e/c) A(r, t), treats (r, v) as a function of
    z = (r, p), takes one central difference along each z_k for its Jacobian,
    and forms {f, g} = df/dr.dg/dp - df/dp.dg/dr from two of its rows.  The
    reference values are the symbolic rules with the magnetic field bound,
    evaluated at the same point, so the two routes are fully independent.
    """
    bindings = bindings or NumericBindings()
    a_at = _compile_field(vector_potential, bindings)
    t0, charge = state.t, bindings.e / bindings.c

    def phase(z):  # (r, v) at z = (r, p)
        return np.concatenate((z[:3], (z[3:] - charge * np.array(a_at(*z[:3], t0))) / bindings.m))

    z0 = np.concatenate((state.r, bindings.m * state.v + charge * np.array(a_at(*state.r, t0))))
    # jac[a][k] = d(r, v)_a / dz_k, the same offset along each r_k and p_k
    jac = np.column_stack(
        [(phase(z0 + d) - phase(z0 - d)) / (2 * _FD_STEP) for d in _FD_STEP * np.eye(6)]
    ).tolist()

    def fd_bracket(a, b):  # rows a and b of the Jacobian: r_i is row i, v_j row 3 + j
        total = 0.0
        for k in range(3):
            total += jac[a][k] * jac[b][k + 3] - jac[a][k + 3] * jac[b][k]
        return total

    entries = []
    diag_err, offdiag_err, qq_err = [], [], []
    for i in range(3):
        for j in range(3):
            got = fd_bracket(i, 3 + j)
            if i == j:
                expected = 1.0 / bindings.m
                diag_err.append(abs(got - expected) * bindings.m)
            else:
                offdiag_err.append(abs(got))
            qq_err.append(abs(fd_bracket(i, j)))
    entries.append(_entry("position-velocity-diagonal", diag_err, _FD_STEP))
    entries.append(_entry("position-velocity-offdiagonal", offdiag_err, _FD_STEP))
    entries.append(_entry("position-position", qq_err, _FD_STEP))

    vv_err = []
    for i in range(3):
        for j in range(3):
            got = fd_bracket(3 + i, 3 + j)
            rule = _rule_bracket(ex.v(i + 1), ex.v(j + 1))
            bound = ex.substitute_fields(rule, {"B": field_B})
            expected = float(evaluate(bound, state.r, bindings, time=t0))
            scale = max(abs(expected), 1.0)
            vv_err.append(abs(got - expected) / scale)
    entries.append(_entry("velocity-velocity", vv_err, _FD_STEP))
    return ResidualReport(entries)


# ---------------------------------------------------------------------------
# grid Maxwell residuals


def _central_diff(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    sl_plus = [slice(1, -1)] * 3
    sl_minus = [slice(1, -1)] * 3
    sl_plus[axis] = slice(2, None)
    sl_minus[axis] = slice(0, -2)
    diff = values[tuple(sl_plus)] - values[tuple(sl_minus)]
    diff /= 2.0 * h
    return diff


_SLAB = 1 << 16  # grid points per slab of interior x1-planes, before the halo


# non-finite values are reported as such, not warned about
@np.errstate(over="ignore", invalid="ignore")
def maxwell_grid_residuals(
    fields: tuple[VectorField, VectorField],
    grid: GridSpec,
    bindings: Optional[NumericBindings] = None,
) -> ResidualReport:
    """Two central-difference Maxwell residuals and two implied sources on a
    cubic grid.

    Time derivatives are taken symbolically and sampled; space derivatives
    are second-order central stencils on interior points.  The rows are
    div B, Faraday's curl E + (1/c) dB/dt, and the sources the fields imply:
    div E and c curl B - dE/dt.

    The cube is worked through in slabs of about ``_SLAB`` interior points,
    whole x1-planes each.  E and B are sampled on the slab with one halo
    plane on each side, everything else on its interior points only, and
    every residual row goes straight into its exact sum of squares.
    """
    bindings = bindings or NumericBindings()
    field_E, field_B = fields
    comps = [*field_E, *field_B]
    tables = _tables(comps + [ex.partial(comp, ("t", None)) for comp in comps], bindings)
    names = (
        "magnetic-divergence",
        "faraday-induction",
        "implied-charge-density",
        "implied-current-density",
    )
    rows = [_SumOfSquares() for _ in names]
    n, h, c, x = grid.n, grid.h, bindings.c, grid.axis()

    def div_fd(vals) -> np.ndarray:
        div = _central_diff(vals[0], 0, h)
        div += _central_diff(vals[1], 1, h)
        div += _central_diff(vals[2], 2, h)
        return div

    def curl_fd(vals, out: np.ndarray) -> np.ndarray:
        for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):  # d_i v_j - d_j v_i
            np.subtract(_central_diff(vals[j], i, h), _central_diff(vals[i], j, h), out=out[k])
        return out

    planes = max(1, _SLAB // (n - 2) ** 2)
    for a in range(1, n - 1, planes):
        b = min(a + planes, n - 1)
        halo = (x[a - 1 : b + 1, None, None], x[None, :, None], x[None, None, :])
        inner = (x[a:b, None, None], x[None, 1:-1, None], x[None, None, 1:-1])
        at_inner = ((b - a, n - 2, n - 2), (*inner, None, None, None, grid.t0))
        fields_at = _samples(tables[:6], (b - a + 2, n, n), (*halo, None, None, None, grid.t0))
        rates_at = _samples(tables[6:], *at_inner)
        e_vals, b_vals, de_dt, db_dt = fields_at[:3], fields_at[3:], rates_at[:3], rates_at[3:]
        rows[0].add(div_fd(b_vals))
        curl = curl_fd(e_vals, np.empty((3, *at_inner[0])))
        for k in range(3):
            curl[k] += db_dt[k] / c
        rows[1].add(curl)
        rows[2].add(div_fd(e_vals))
        curl = curl_fd(b_vals, curl)
        for k in range(3):
            curl[k] *= c
            curl[k] -= de_dt[k]
        rows[3].add(curl)
    return ResidualReport([ResidualEntry(name, *row.result(), h) for name, row in zip(names, rows)])
