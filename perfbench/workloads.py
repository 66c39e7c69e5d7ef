"""Seeded workload generators and their oracles.

Nothing here imports ``embracket``.  Each generator builds its inputs from
random potentials with :mod:`poly` and fixes the expected verdict at the
same time; :func:`verify` later judges the program's answer against that
verdict.  The program under test never decides what counts as correct.

A workload is an endless sequence of *cycles*.  Every cycle holds the same
multiset of request kinds, so the mix (and with it the latency percentiles)
is the same in every run.  Each request draws from two random streams (see
:class:`Draw`): the *shape* stream fixes how much work it asks for (monomial
degrees, index counts, which variant) and depends only on the workload and
the request's place in the run; the *value* stream picks coefficients,
signs, field families, initial states and the order of the cycle, and
depends on the seed.  So every seed asks for the same amount of work with
different inputs.  The first request of the first cycle has a fixed kind so
that the set-up probe always pays for the same cold request.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import poly as P
from poly import Poly

NAMES = ("symbolic", "tensor", "trajectory", "grid")

TRAJ_STEPS = 200
TRAJ_DT = "0.01"


@dataclass
class Request:
    kind: str
    argv: list | None = None  # a cli.main request
    spec: dict | None = None  # a library request (tensor workload)
    expect: dict = field(default_factory=dict)

    def describe(self) -> str:
        if self.argv is not None:
            return json.dumps(self.argv)
        return json.dumps(self.spec)


class Draw:
    """The shape and value random streams of one request."""

    def __init__(self, shape: random.Random, value: random.Random):
        self.shape = shape
        self.value = value


# ---------------------------------------------------------------------------
# random polynomials and Maxwell-compatible fields

_C_INV = Poly.var("c", -1)
_E = Poly.var("e")


def _coeff(rng: random.Random, nums=(1, 2, 3, 4, 5), dens=(1, 2, 3, 4)) -> Fraction:
    return Fraction(rng.choice(nums) * rng.choice((-1, 1)), rng.choice(dens))


def _rand_poly(d: Draw, nterms, lo, hi, t=0, scale=Fraction(1)) -> Poly:
    out = P.ZERO
    for _ in range(nterms):
        exps = [0, 0, 0]
        for _ in range(d.shape.randint(lo, hi)):
            exps[d.shape.randrange(3)] += 1
        coeff = _coeff(d.value) * scale
        out = out + Poly.monomial(coeff, x1=exps[0], x2=exps[1], x3=exps[2], t=t)
    return out


def compatible_fields(d: Draw, degree: int, scale=Fraction(1), time_dependent=None):
    """E, B of spatial degree <= ``degree`` with B = curl A, E = -grad phi - (1/c) dA/dt.

    Time-dependent fields have A and phi linear in t; unless the caller
    says, half the draws are.
    """
    if time_dependent is None:
        time_dependent = d.shape.random() < 0.5
    while True:
        a = []
        for _ in range(3):
            comp = _rand_poly(d, 2, 1, degree + 1, scale=scale)
            if time_dependent and d.shape.random() < 0.5:
                comp = comp + _rand_poly(d, 1, 1, degree, t=1, scale=scale)
            a.append(comp)
        phi = _rand_poly(d, 2, 1, degree + 1, scale=scale)
        if time_dependent:
            phi = phi + _rand_poly(d, 1, 1, degree + 1, t=1, scale=scale)
        field_b = P.curl(a)
        if not all(c.is_zero() for c in field_b):
            break
    field_e = tuple(-g - da.diff("t") * _C_INV for g, da in zip(P.grad(phi), a))
    return field_e, field_b


def uniform_fields(rng):
    b = tuple(Poly.const(_coeff(rng, nums=(1, 2, 3), dens=(2, 4))) for _ in range(3))
    return (P.ZERO, P.ZERO, P.ZERO), b


def divergence_violation(rng: random.Random):
    """A static linear field a x_j e_j: constant divergence a, no curl."""
    j = rng.randrange(3)
    comps = [P.ZERO, P.ZERO, P.ZERO]
    comps[j] = Poly.var(P.X[j]) * _coeff(rng)
    return tuple(comps)


def curl_violation(rng):
    """A static linear field b x_k e_j (j != k): constant curl, no divergence."""
    j, k = rng.sample(range(3), 2)
    comps = [P.ZERO, P.ZERO, P.ZERO]
    comps[j] = Poly.var(P.X[k]) * _coeff(rng)
    return tuple(comps)


def _add(f, g):
    return tuple(a + b for a, b in zip(f, g))


def maxwell_oracle(field_e, field_b):
    """(div B, curl E + (1/c) dB/dt) computed by the benchmark itself."""
    faraday = tuple(ce + db.diff("t") * _C_INV for ce, db in zip(P.curl(field_e), field_b))
    return P.div(field_b), faraday


def lorentz_force(field_e, field_b):
    """e E + (e/c) v x B in phase space (positions print as q)."""
    vel = tuple(Poly.var(n) for n in P.V)
    vxb = P.cross(vel, field_b)
    return tuple(_E * ei + _E * _C_INV * w for ei, w in zip(field_e, vxb))


# ---------------------------------------------------------------------------
# symbolic: check / reconstruct / derive / duality through cli.main


def _field_args(field_e, field_b) -> list:
    return ["--field-E", P.field_dsl(field_e), "--field-B", P.field_dsl(field_b)]


def _force_request(d: Draw, command: str, variant: str) -> Request:
    rng = d.value
    field_e, field_b = compatible_fields(d, 3)
    extra = [P.ZERO, P.ZERO, P.ZERO]
    if variant == "divB":
        field_b = _add(field_b, divergence_violation(rng))
    force = list(lorentz_force(field_e, field_b))
    if variant == "drag":
        k = abs(_coeff(rng))
        extra = [Poly.var(n) * -k for n in P.V]
    elif variant == "symmetric":
        a, b = rng.sample(range(3), 2)
        s = _coeff(rng)
        extra[a] = Poly.var(P.V[b]) * s
        extra[b] = Poly.var(P.V[a]) * s
    force = [f + g for f, g in zip(force, extra)]
    div_b, faraday = maxwell_oracle(field_e, field_b)
    potential = (
        all(g.is_zero() for g in extra)
        and div_b.is_zero()
        and all(f.is_zero() for f in faraday)
    )
    argv = [command, "--force", ";".join(f.dsl("q") for f in force), "--json"]
    return Request(
        f"{command}-{variant}",
        argv=argv,
        expect={"rc": 0 if potential else 1, "E": field_e, "B": field_b},
    )


def _derive_request(d: Draw, variant: str) -> Request:
    field_e, field_b = compatible_fields(d, 3)
    if variant == "divB":
        field_b = _add(field_b, divergence_violation(d.value))
    div_b, faraday = maxwell_oracle(field_e, field_b)
    verdicts = [div_b.is_zero(), all(f.is_zero() for f in faraday)]
    argv = ["derive"] + _field_args(field_e, field_b) + ["--json"]
    return Request(
        f"derive-{variant}",
        argv=argv,
        expect={"rc": 0 if all(verdicts) else 1, "verdicts": verdicts},
    )


def _duality_request(d: Draw) -> Request:
    field_e, field_b = compatible_fields(d, 3)
    argv = ["duality"] + _field_args(field_e, field_b) + ["--json"]
    return Request(
        "duality", argv=argv, expect={"rc": 0, "E": field_b, "B": tuple(-c for c in field_e)}
    )


# Each corruption turns a valid value into a parse error (exit 2).
_CORRUPTIONS = (
    lambda s, pos: s.rsplit(";", 1)[0],  # two components
    lambda s, pos: "(" + s,  # unbalanced parenthesis
    lambda s, pos: s + " *",  # dangling operator
    lambda s, pos: s + " + y2",  # unknown symbol
    lambda s, pos: s + f" + {pos}4",  # index out of range
    lambda s, pos: s + " # 2",  # illegal character
    lambda s, pos: s + f" + 1/{pos}1",  # division by a coordinate
    lambda s, pos: s.replace(";", ";;", 1),  # empty component
    lambda s, pos: s + (" + x1" if pos == "q" else " + v1"),  # wrong context
)


def _malformed_request(d: Draw) -> Request:
    base_kind = d.shape.choice(("derive-pass", "check-pass", "reconstruct-pass", "duality"))
    base = _symbolic_request(d, base_kind)
    argv = list(base.argv)
    flags = [a for a in argv if a.startswith("--") and a != "--json"]
    slot = argv.index(d.value.choice(flags)) + 1
    pos = "q" if argv[0] in ("check", "reconstruct") else "x"
    argv[slot] = d.value.choice(_CORRUPTIONS)(argv[slot], pos)
    return Request("malformed", argv=argv, expect={"rc": 2})


# Sorted by cost: malformed and duality (20 %), check (35 %), derive and a
# failing reconstruct (25 %), passing reconstruct (20 %); p50 and p90 fall
# inside a group, not on the edge between two.
_SYMBOLIC_CYCLE = (
    ["malformed"] * 2
    + ["duality"] * 2
    + ["check-pass"] * 4
    + ["check-drag", "check-symmetric", "check-divB"]
    + ["derive-pass"] * 3
    + ["derive-divB"]
    + ["reconstruct-fail"]
    + ["reconstruct-pass"] * 4
)


def _symbolic_request(d: Draw, kind: str) -> Request:
    if kind.startswith("derive-"):
        return _derive_request(d, kind.split("-", 1)[1])
    if kind.startswith("check-"):
        return _force_request(d, "check", kind.split("-", 1)[1])
    if kind == "reconstruct-pass":
        return _force_request(d, "reconstruct", "pass")
    if kind == "reconstruct-fail":
        return _force_request(d, "reconstruct", d.shape.choice(("drag", "symmetric", "divB")))
    if kind == "duality":
        return _duality_request(d)
    return _malformed_request(d)


# ---------------------------------------------------------------------------
# tensor: library requests from public expr constructors

_VECTORS = ("v", "q", "E", "B", "A", "vgradE")


def _trace_spec(d: Draw, k: int, equal: bool) -> dict:
    """Closed trace d_{i2}F1_{i1} d_{i3}F2_{i2} ... with k summed indices, built twice."""
    rng = d.value
    fams = [rng.choice("EBA") for _ in range(k)]
    first = [f"i{n}" for n in range(k)]
    second = [f"p{n}" for n in range(k)]
    rng.shuffle(second)
    build1 = [["grad", fams[m], first[m], first[(m + 1) % k]] for m in range(k)]
    build2 = [["grad", fams[m], second[m], second[(m + 1) % k]] for m in range(k)]
    if not equal:
        flip = d.shape.randrange(k)
        g = build2[flip]
        build2[flip] = ["grad", g[1], g[3], g[2]]
    # the factor order sets how many summed indices the partial products
    # carry, and so the cost of the second build
    d.shape.shuffle(build2)
    return {"op": "trace", "k": k, "lhs": [[1, build1, []]], "rhs": [[1, build2, []]]}


def _vec(name: str, idx: str, fresh: str) -> list:
    if name == "vgradE":
        return [["grad", "E", idx, fresh], ["vec", "v", fresh]]
    return [["vec", name, idx]]


def _identity_spec(draw: Draw, equal: bool) -> dict:
    rng = draw.shape
    a, b, c, d = rng.sample(_VECTORS, 4)
    form = rng.choice(("lagrange", "binet-cauchy", "bac-cab", "eps-eps", "div-curl", "curl-grad"))

    def dot(x, y, i, f1, f2):
        return _vec(x, i, f1) + _vec(y, i, f2)

    if form == "lagrange":
        lhs = [[1, [["eps", "i", "j", "k"]] + _vec(a, "j", "f1") + _vec(b, "k", "f2")
                + [["eps", "i", "l", "n"]] + _vec(a, "l", "f3") + _vec(b, "n", "f4"), []]]
        rhs = [[1, dot(a, a, "r", "f5", "f6") + dot(b, b, "s", "f7", "f8"), []],
               [-1, dot(a, b, "r", "f5", "f6") + dot(a, b, "s", "f7", "f8"), []]]
    elif form == "binet-cauchy":
        lhs = [[1, [["eps", "i", "j", "k"]] + _vec(a, "j", "f1") + _vec(b, "k", "f2")
                + [["eps", "i", "l", "n"]] + _vec(c, "l", "f3") + _vec(d, "n", "f4"), []]]
        rhs = [[1, dot(a, c, "r", "f5", "f6") + dot(b, d, "s", "f7", "f8"), []],
               [-1, dot(a, d, "r", "f5", "f6") + dot(b, c, "s", "f7", "f8"), []]]
    elif form == "bac-cab":
        lhs = [[1, [["eps", "i", "j", "k"]] + _vec(a, "j", "f1") + [["eps", "k", "l", "n"]]
                + _vec(b, "l", "f2") + _vec(c, "n", "f3"), []]]
        rhs = [[1, _vec(b, "i", "f4") + dot(a, c, "r", "f5", "f6"), []],
               [-1, _vec(c, "i", "f4") + dot(a, b, "r", "f5", "f6"), []]]
    elif form == "eps-eps":
        lhs = [[1, [["eps", "i", "j", "k"], ["eps", "i", "j", "l"]]
                + _vec(a, "k", "f1") + _vec(b, "l", "f2"), []]]
        rhs = [[2, dot(a, b, "r", "f3", "f4"), []]]
    elif form == "div-curl":
        fam = draw.value.choice("EBA")
        lhs = [[1, [["eps", "i", "j", "k"], ["vec", fam, "k"]], ["j", "i"]]]
        rhs = []
    else:
        fam = draw.value.choice("EBA")
        lhs = [[1, [["eps", "i", "j", "k"], ["vec", fam, "n"]], ["k", "j"]]]
        rhs = []
    if not equal:
        if rhs:
            rhs[-1][0] = -rhs[-1][0]
        else:
            rhs = [[1, _vec(a, "r", "f9") + _vec(b, "r", "f10"), []]]
    return {"op": "identity", "form": form, "lhs": lhs, "rhs": rhs}


# Sorted by cost: identities and 3-index traces (40 %), 4-index traces
# (30 %, holds p50), 5 (15 %), 6 (10 %, holds p90), 7 (5 %).
_TENSOR_CYCLE = (
    ["identity"] * 4
    + ["identity-unequal"] * 2
    + ["trace3", "trace3-unequal"]
    + ["trace4"] * 5 + ["trace4-unequal"]
    + ["trace5"] * 2 + ["trace5-unequal"]
    + ["trace6"] * 2
    + ["trace7"]
)


def _tensor_request(d: Draw, kind: str) -> Request:
    equal = not kind.endswith("-unequal")
    if kind.startswith("identity"):
        spec = _identity_spec(d, equal)
    else:
        spec = _trace_spec(d, int(kind[5]), equal)
    return Request(kind, spec=spec, expect={"equal": equal, "closed": spec["op"] == "trace"})


# ---------------------------------------------------------------------------
# trajectory: simulate through cli.main

# Sorted by cost: Boris (60 %, p50 among the time-dependent runs), RK4 in a
# uniform field (20 %), RK4 in polynomial fields (20 %, holds p90).
_TRAJ_CYCLE = (
    ["boris-uniform"] * 2 + ["boris-static"] * 2 + ["boris-timedep"] * 2
    + ["rk4-uniform"] * 2 + ["rk4-static", "rk4-timedep"]
)


def _num(rng, lo, hi) -> str:
    return f"{rng.uniform(lo, hi):.4f}"


def _trajectory_request(d: Draw, kind: str, slot: int, workdir: str) -> Request:
    rng = d.value
    method, fields = kind.split("-")
    if fields == "uniform":
        field_e, field_b = uniform_fields(rng)
    else:
        # linear fields keep the one symbolic reconstruction per request small
        # next to the 200 integrator steps
        field_e, field_b = compatible_fields(
            d, 1, scale=Fraction(1, 4), time_dependent=fields == "timedep"
        )
    x0 = ",".join(_num(rng, -0.5, 0.5) for _ in range(3))
    v0 = ",".join(_num(rng, -1, 1) for _ in range(3))
    csv = f"{workdir}/traj-{slot}.csv"
    argv = (
        ["simulate"] + _field_args(field_e, field_b)
        + ["--x0", x0, "--v0", v0, "--dt", TRAJ_DT, "--steps", str(TRAJ_STEPS),
           "--method", method, "--out", csv, "--json"]
    )
    return Request(
        kind,
        argv=argv,
        expect={
            "rc": 0, "E": field_e, "B": field_b, "csv": csv,
            "static": fields != "timedep", "speed": kind == "boris-uniform",
        },
    )


# ---------------------------------------------------------------------------
# grid: central-difference residuals through cli.main

# 55 % small (17-25, holds p50), 25 % mid (29-33), 15 % at 41 (holds p90)
# and 5 % at 81, whose arrays (4.2 MB each) exceed the 2 MB per-core L2.
_GRID_CYCLE = [17] * 4 + [21] * 4 + [25] * 3 + [29] * 2 + [33] * 3 + [41] * 3 + [81]


def _grid_request(d: Draw, n: int) -> Request:
    rng = d.value
    field_e, field_b = compatible_fields(d, 2)
    variant = d.shape.choice(("pass", "pass", "divB", "faraday"))
    if variant == "divB":
        field_b = _add(field_b, divergence_violation(rng))
    elif variant == "faraday":
        field_e = _add(field_e, curl_violation(rng))
    extent = rng.choice(("0.5", "0.75", "1", "1.25"))
    t0 = rng.choice(("0", "0.25", "0.5", "-0.5"))
    div_b, faraday = maxwell_oracle(field_e, field_b)
    div_val = _constant_value(div_b)
    far_vals = [_constant_value(f) for f in faraday]
    expect = {
        "rc": 0,
        "n": n,
        "h": 2 * float(extent) / (n - 1),
        "magnetic-divergence": (abs(div_val), abs(div_val)),
        "faraday-induction": (
            max(abs(v) for v in far_vals),
            math.sqrt(sum(v * v for v in far_vals) / 3),
        ),
    }
    argv = (
        ["grid"] + _field_args(field_e, field_b)
        + ["--n", str(n), "--extent", extent, "--t0", t0, "--json"]
    )
    return Request(f"grid-{n}-{variant}", argv=argv, expect=expect)


def _constant_value(p: Poly) -> float:
    """Value of a spatially constant residual with e = m = c = 1."""
    total = Fraction(0)
    for k, v in p.terms.items():
        if any(k[:7]):
            raise ValueError(f"residual is not constant: {p.dsl()}")
        total += v
    return float(total)


# ---------------------------------------------------------------------------
# cycles


_FIRST = {"symbolic": "derive-pass", "tensor": "trace3", "trajectory": "boris-uniform", "grid": 17}
_CYCLES = {
    "symbolic": _SYMBOLIC_CYCLE,
    "tensor": _TENSOR_CYCLE,
    "trajectory": _TRAJ_CYCLE,
    "grid": _GRID_CYCLE,
}


def cycle(workload: str, seed: int, index: int, workdir: str) -> list[Request]:
    """The index-th cycle of a workload; the same (seed, index) gives the same requests."""
    kinds = list(_CYCLES[workload])
    random.Random(f"{workload}:{seed}:{index}").shuffle(kinds)
    if index == 0:
        first = kinds.index(_FIRST[workload])
        kinds[0], kinds[first] = kinds[first], kinds[0]
    seen: dict = {}
    out = []
    for slot, kind in enumerate(kinds):
        seen[kind] = seen.get(kind, 0) + 1
        d = Draw(
            random.Random(f"{workload}:{index}:{kind}:{seen[kind]}"),
            random.Random(f"{workload}:{seed}:{index}:{slot}"),
        )
        if workload == "symbolic":
            out.append(_symbolic_request(d, kind))
        elif workload == "tensor":
            out.append(_tensor_request(d, kind))
        elif workload == "trajectory":
            out.append(_trajectory_request(d, kind, slot, workdir))
        else:
            out.append(_grid_request(d, kind))
    return out


# ---------------------------------------------------------------------------
# oracles


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=reject)


def _all_finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    return True


def _check_potentials(vec_pot, scalar_pot, field_e, field_b) -> str | None:
    if tuple(P.curl(vec_pot)) != tuple(field_b):
        return "curl A != B"
    e_back = tuple(
        -g - a.diff("t") * _C_INV for g, a in zip(P.grad(scalar_pot), vec_pot)
    )
    if e_back != tuple(field_e):
        return "-grad A0 - (1/c) dA/dt != E"
    return None


def _potentials_from_lagrangian(lag: Poly):
    """Read A and A0 off L = m v^2/2 + (e/c) v.A - e A0."""
    m = Poly.var("m")
    c_over_e = Poly.var("c") * Poly.var("e", -1)
    vel = [Poly.var(n) for n in P.V]
    vec_pot = tuple((lag.diff(n) - m * vi) * c_over_e for n, vi in zip(P.V, vel))
    kinetic = P.ZERO
    for vi in vel:
        kinetic = kinetic + m * vi * vi * Fraction(1, 2)
    coupling = P.ZERO
    for vi, ai in zip(vel, vec_pot):
        coupling = coupling + _E * _C_INV * vi * ai
    scalar_pot = (lag - kinetic - coupling) * (-Poly.var("e", -1))
    if any(p.has(n) for p in vec_pot + (scalar_pot,) for n in P.V):
        return None
    return vec_pot, scalar_pot


def _verify_lagrangian(text: str, field_e, field_b) -> str | None:
    pots = _potentials_from_lagrangian(P.parse(text))
    if pots is None:
        return "Lagrangian is not of minimal-coupling form"
    return _check_potentials(pots[0], pots[1], field_e, field_b)


def verify(req: Request, result) -> str | None:
    """None when the answer matches the generator's verdict, else the reason."""
    if req.spec is not None:
        equal, closed = result
        if equal != req.expect["equal"]:
            return f"builds compare {'equal' if equal else 'unequal'}"
        if req.expect["closed"] and not closed:
            return "trace is not a single closed monomial"
        return None
    rc, out, err = result
    if rc != req.expect["rc"]:
        return f"exit code {rc}, expected {req.expect['rc']}: {err.strip()[:200]}"
    if rc == 2:
        return None
    try:
        doc = _strict_json(out)
    except ValueError as exc:
        return f"bad JSON: {exc}"
    if not _all_finite(doc):
        return "non-finite number in JSON"
    try:
        return _VERIFIERS[req.argv[0]](req, doc)
    except Exception as exc:  # a report of the wrong shape fails the request, not the run
        return f"unexpected report: {exc!r}"


def _verify_check(req, doc):
    passed = all(c["pass"] is not False for c in doc["conditions"])
    if passed != (req.expect["rc"] == 0):
        return "conditions disagree with the exit code"
    return None


def _verify_reconstruct(req, doc):
    if req.expect["rc"] == 1:
        return None if "error" in doc else "failing force without an error"
    if doc["pass"] is not True or any(r != "0" for r in doc["el_residual"]):
        return "Euler-Lagrange round trip not zero"
    vec_pot = P.parse_field(doc["vector_potential"])
    scalar_pot = P.parse(doc["scalar_potential"])
    bad = _check_potentials(vec_pot, scalar_pot, req.expect["E"], req.expect["B"])
    if bad:
        return bad
    if _potentials_from_lagrangian(P.parse(doc["lagrangian"])) != (vec_pot, scalar_pot):
        return "Lagrangian does not match the reported potentials"
    return None


def _verify_derive(req, doc):
    verdicts = [c["verdict"] for c in doc["constraints"]]
    if verdicts != req.expect["verdicts"]:
        return f"constraint verdicts {verdicts}, expected {req.expect['verdicts']}"
    return None


def _verify_duality(req, doc):
    if P.parse_field(doc["E"]) != req.expect["E"] or P.parse_field(doc["B"]) != req.expect["B"]:
        return "duality image differs from (B, -E)"
    return None


def _verify_simulate(req, doc):
    exp = req.expect
    names = [e["name"] for e in doc["entries"]]
    want = ["euler-lagrange"] + (["energy-drift"] if exp["static"] else [])
    if names != want:
        return f"residual entries {names}, expected {want}"
    bad = _verify_lagrangian(doc["lagrangian"], exp["E"], exp["B"])
    if bad:
        return bad
    with open(exp["csv"]) as fh:
        lines = fh.read().splitlines()
    if len(lines) != TRAJ_STEPS + 2 or lines[0] != "t,x1,x2,x3,v1,v2,v3":
        return f"CSV has {len(lines) - 1} rows, expected {TRAJ_STEPS + 1}"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    if not all(math.isfinite(x) for row in rows for x in row):
        return "non-finite value in CSV"
    argv = req.argv
    start = [0.0] + [float(x) for x in argv[argv.index("--x0") + 1].split(",")]
    start += [float(x) for x in argv[argv.index("--v0") + 1].split(",")]
    if rows[0] != start:
        return "first CSV row is not the initial state"
    if abs(rows[-1][0] - TRAJ_STEPS * float(TRAJ_DT)) > 1e-9:
        return "final time is not steps * dt"
    if exp["speed"]:
        speeds = [math.sqrt(r[4] ** 2 + r[5] ** 2 + r[6] ** 2) for r in rows]
        if max(abs(s - speeds[0]) for s in speeds) > 1e-12 * max(speeds[0], 1.0):
            return "Boris in a uniform B does not preserve the speed"
    return None


def _verify_grid(req, doc):
    entries = {e["name"]: e for e in doc["entries"]}
    if doc["n"] != req.expect["n"]:
        return "grid size differs"
    for name in ("magnetic-divergence", "faraday-induction"):
        entry = entries[name]
        if abs(entry["h"] - req.expect["h"]) > 1e-9 * req.expect["h"]:
            return f"{name}: spacing {entry['h']}"
        for got, want in zip((entry["max"], entry["rms"]), req.expect[name]):
            if abs(got - want) > 1e-8 + 1e-8 * want:
                return f"{name}: residual {got:.6g}, expected {want:.6g}"
    return None


_VERIFIERS = {
    "check": _verify_check,
    "reconstruct": _verify_reconstruct,
    "derive": _verify_derive,
    "duality": _verify_duality,
    "simulate": _verify_simulate,
    "grid": _verify_grid,
}
