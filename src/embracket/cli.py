"""Command-line interface: batch verification with machine-readable reports.

Subcommands
-----------
derive       replay the bracket derivation chain, optionally binding fields
check        test a force against the potentiality conditions
reconstruct  rebuild the Lagrangian and potentials for a passing force
simulate     integrate a trajectory and attach residual reports
grid         central-difference Maxwell residuals on a cube
duality      swap the fields and map the kinematic constraints

Exit codes: 0 pass, 1 verified-and-failed, 2 usage or parse error, an
invalid numeric value or an --out path that cannot be written.
Reports are JSON with expressions serialized as canonical DSL strings;
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional

from . import expr as ex
from . import helmholtz as hh
from . import numeric as nm  # bound now, run (with numpy) on first use: see __init__
from .bracket import div_b_expression, faraday_expression, run_chain
from .dsl import ParseError, parse, parse_components, parse_vector_field

PASS, FAIL, USAGE = 0, 1, 2


def _round_floats(obj, nonfinite: list):
    """Round floats to 12 digits; inf and nan become None and are listed in nonfinite."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            nonfinite.append(obj)
            return None
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, nonfinite) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v, nonfinite) for v in obj]
    return obj


def _emit(
    report_dict: dict,
    summary_lines: list[str],
    as_json: bool,
    out: Optional[str],
    passed: bool = True,
) -> int:
    """Print (and write) the report; the exit code fails a non-finite one too."""
    nonfinite: list = []
    report = _round_floats(report_dict, nonfinite)
    if nonfinite:
        report["finite"] = False
        summary_lines = summary_lines + ["non-finite values in the report: FAIL"]
    payload = json.dumps(report, indent=2, allow_nan=False)
    if out:
        with open(out, "w") as fh:
            fh.write(payload + "\n")
    if as_json:
        print(payload)
    else:
        for line in summary_lines:
            print(line)
    return PASS if passed and not nonfinite else FAIL


def _bindings(args) -> nm.NumericBindings:
    return nm.NumericBindings(args.e, args.m, args.c)


def _fields(args) -> tuple[ex.VectorField, ex.VectorField]:
    """--field-E and --field-B, each zero when omitted."""
    return tuple(
        parse_vector_field(text) if text else ex.VectorField.zero()
        for text in (args.field_E, args.field_B)
    )


def _parse_triple(text: str, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError(0, f"{what} needs three comma-separated numbers", text)
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ParseError(0, f"{what} needs numbers", text) from None


def cmd_derive(args) -> int:
    field_e = parse_vector_field(args.field_E) if args.field_E else None
    field_b = parse_vector_field(args.field_B) if args.field_B else None
    report = run_chain(field_e, field_b)
    lines = []
    for c in report.constraints:
        verdict = {True: "pass", False: "fail", None: "symbolic"}[c.verdict]
        lines.append(f"constraint {c.name}: {c.expr} = 0 [{verdict}]")
    lines.append(f"derivation chain: {'PASS' if report.passed else 'FAIL'}")
    return _emit(report.to_json_dict(), lines, args.json, args.out, report.passed)


def _force_from_args(args) -> hh.ForceLaw:
    force = parse_components(args.force, "phase-space")
    potential = None
    if args.potential_U:
        potential = ex.phase_space(parse(args.potential_U, "field-space"))
    return hh.ForceLaw(force, potential)


def cmd_check(args) -> int:
    force = _force_from_args(args)
    report = hh.helmholtz_check(force)
    lines = [
        f"condition {c.name}: {'pass' if c.passed else 'fail'}"
        for c in report.conditions
    ]
    lines.append(f"potentiality: {'PASS' if report.passed else 'FAIL'}")
    return _emit(report.to_json_dict(), lines, args.json, args.out, report.passed)


def cmd_reconstruct(args) -> int:
    force = _force_from_args(args)
    try:
        lag = hh.reconstruct_lagrangian(force)
    except hh.NotVariationalError as err:
        payload = {
            "error": "force is not potential",
            "report": err.report.to_json_dict(),
        }
        return _emit(
            payload,
            ["reconstruction: FAIL (force is not potential)"],
            args.json,
            args.out,
            passed=False,
        )
    except hh.PotentialConstructionError as err:
        payload = {"error": str(err)}
        return _emit(
            payload, [f"reconstruction: FAIL ({err})"], args.json, args.out, passed=False
        )
    residual = hh.euler_lagrange_roundtrip(lag, force)
    ok = all(r.is_zero for r in residual)
    payload = lag.to_json_dict()
    payload["el_residual"] = [str(r) for r in residual]
    payload["pass"] = ok
    lines = [
        f"lagrangian: {lag.L}",
        f"vector potential: {lag.vector_potential}",
        f"scalar potential: {lag.scalar_pot}",
        f"euler-lagrange round trip: {'PASS' if ok else 'FAIL'}",
    ]
    return _emit(payload, lines, args.json, args.out, ok)


def cmd_simulate(args) -> int:
    field_e, field_b = _fields(args)
    x0 = _parse_triple(args.x0, "--x0")
    v0 = _parse_triple(args.v0, "--v0")
    bindings = _bindings(args)
    state = nm.ParticleState(x0, v0)
    traj = nm.integrate(state, (field_e, field_b), args.dt, args.steps, args.method, bindings)
    out_path = args.out or "trajectory.csv"
    payload: dict = {
        "method": args.method,
        "steps": args.steps,
        "dt": args.dt,
        "csv": out_path,
        "entries": [],
    }
    lines = [f"trajectory: {len(traj)} states -> {out_path}"]
    finite = traj.first_nonfinite is None
    if not finite:
        payload["finite"] = False
        payload["first_nonfinite_step"] = traj.first_nonfinite
        lines.append(f"trajectory: FAIL (first non-finite state at step {traj.first_nonfinite})")
    try:
        # given fields need no inverse problem: their potentials settle div B and Faraday
        lag = hh.minimal_coupling(field_e, field_b, None)
    except hh.PotentialConstructionError as err:
        payload["lagrangian"] = None
        payload["note"] = f"no Lagrangian: {err}"
        lines.append("no reconstructable Lagrangian; residual checks skipped")
    else:
        payload["lagrangian"] = str(lag.L)
        entries = nm.el_residual(traj, lag, bindings).entries
        if field_e.is_static() and field_b.is_static():
            entries = entries + nm.energy_check(traj, lag.scalar_pot, bindings).entries
        payload["entries"] = [e.to_json_dict() for e in entries]
        for e in entries:
            lines.append(f"{e.name}: max {e.max:.3e} rms {e.rms:.3e}")
    # the CSV only once the checks ran: a rejected input leaves no file
    with open(out_path, "w") as fh:
        for line in traj.csv_lines():
            fh.write(line + "\n")
    # emit after computing so --json prints one document; --out named the CSV
    return _emit(payload, lines, args.json, None, finite)


def cmd_grid(args) -> int:
    field_e, field_b = _fields(args)
    grid = nm.GridSpec(args.extent, args.n, args.t0)
    report = nm.maxwell_grid_residuals((field_e, field_b), grid, _bindings(args))
    payload = report.to_json_dict()
    payload["n"] = args.n
    payload["extent"] = args.extent
    lines = [
        f"{e.name}: max {e.max:.6e} rms {e.rms:.6e} (h={e.h:.4g})"
        for e in report.entries
    ]
    return _emit(payload, lines, args.json, args.out)


def cmd_duality(args) -> int:
    field_e, field_b = _fields(args)
    new_e, new_b = hh.duality_transform(field_e, field_b)
    div_b = div_b_expression()
    faraday = faraday_expression()
    mapping = [
        {
            "from": str(div_b),
            "to": str(hh.normalize_sign(hh.duality_map(div_b))),
            "name": "magnetic-divergence -> electric-divergence",
        },
        {
            "from": str(faraday),
            "to": str(hh.normalize_sign(hh.duality_map(faraday))),
            "name": "faraday-induction -> ampere-maxwell (sourceless)",
        },
    ]
    payload = {
        "E": str(new_e),
        "B": str(new_b),
        "constraint_map": mapping,
    }
    lines = [
        f"E -> {new_e}",
        f"B -> {new_b}",
    ] + [f"{m['name']}: {m['to']} = 0" for m in mapping]
    return _emit(payload, lines, args.json, args.out)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="embracket",
        description="Poisson-bracket electromagnetism verification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="write the report (or CSV) here")
        p.add_argument("--json", action="store_true", help="print full JSON to stdout")

    def constants(p):
        # only the numeric subcommands evaluate e, m and c
        p.add_argument("--e", type=float, default=1.0, help="charge value")
        p.add_argument("--m", type=float, default=1.0, help="mass value")
        p.add_argument("--c", type=float, default=1.0, help="light-speed value")

    p = sub.add_parser("derive", help="replay the bracket derivation chain")
    p.add_argument("--field-E", default=None, help='electric field "ex;ey;ez"')
    p.add_argument("--field-B", default=None, help='magnetic field "bx;by;bz"')
    common(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("check", help="potentiality conditions for a force")
    p.add_argument("--force", required=True, help='force "F1;F2;F3" in q, v, t')
    p.add_argument("--potential-U", default=None, help="conservative potential U(x, t)")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("reconstruct", help="rebuild Lagrangian and potentials")
    p.add_argument("--force", required=True, help='force "F1;F2;F3" in q, v, t')
    p.add_argument("--potential-U", default=None, help="conservative potential U(x, t)")
    common(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("simulate", help="integrate a charged-particle trajectory")
    p.add_argument("--field-E", default=None)
    p.add_argument("--field-B", default=None)
    p.add_argument("--x0", default="0,0,0", help="initial position")
    p.add_argument("--v0", default="0,0,0", help="initial velocity")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--method", choices=("boris", "rk4"), default="boris")
    constants(p)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("grid", help="grid Maxwell residuals")
    p.add_argument("--field-E", default=None)
    p.add_argument("--field-B", default=None)
    p.add_argument("--n", type=int, default=9, help="points per axis (5 to 257)")
    p.add_argument("--extent", type=float, default=1.0, help="half-width of the cube")
    p.add_argument("--t0", type=float, default=0.0, help="sample time")
    constants(p)
    common(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("duality", help="field swap and constraint mapping")
    p.add_argument("--field-E", default=None)
    p.add_argument("--field-B", default=None)
    common(p)
    p.set_defaults(func=cmd_duality)

    return parser


# Flags whose values may start with '-' (expressions like "-v1;-v2;-v3");
# they are glued into --flag=value form so argparse does not mistake the
# value for an option.
_VALUE_FLAGS = (
    "--force",
    "--field-E",
    "--field-B",
    "--potential-U",
    "--x0",
    "--v0",
    "--out",
)


def _glue_values(argv: list[str]) -> list[str]:
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_glue_values(list(argv)))
    except SystemExit as err:
        return USAGE if err.code else PASS
    try:
        return args.func(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return USAGE
    except (ValueError, ex.ExprError, OSError) as err:
        # invalid numeric values (non-finite states, m <= 0, dt <= 0, too few
        # steps), symbolic inputs the expression layer rejects, and an --out
        # path that cannot be written
        print(f"{args.command}: {err}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
