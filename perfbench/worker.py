"""One workload in one fresh interpreter, as a single-client closed loop.

Started by ``run.py``; not meant to be run by hand.  Modes:

* ``setup``: import the program, build the first cycle, run its first
  request, print ``ready`` at once (the parent stops its set-up clock on
  that line), then print the verdict on that request and the set-up time
  scaled to the reference speed: the interpreter's CPU time until then,
  scaled by the host-speed probes it took meanwhile.
* ``run``: the untraced closed loop; prints latencies, failures and the
  interpreter's peak RSS.
* ``trace``: an untraced loop that fixes the number of cycles, then the same
  cycles again with spans on every layer; prints the per-layer totals and
  the traced-against-untraced slowdown.

The last line on stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import speed
import workloads as W

# Every loop stops at the first cycle boundary after this much wall time
# since the interpreter started, whatever --seconds and the request minimum
# ask for, so a much slower program still ends well inside 180 s.
DEADLINE_S = 120.0
_STARTED = time.perf_counter()
MAX_REPORTED_FAILURES = 20


def load_program(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import embracket
    from embracket import cli, expr

    if not Path(embracket.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"embracket was imported from {embracket.__file__}, not {src}")
    return cli, expr


def _build_side(expr, terms):
    """Sum of coeff * product(factors), each product differentiated by q_idx in turn."""
    total = None
    for coeff, factors, derivs in terms:
        prod = None
        for f in factors:
            if f[0] == "grad":
                atom = expr.partial(expr.field_component(f[1], f[2]), ("q", f[3]))
            elif f[0] == "eps":
                atom = expr.eps(f[1], f[2], f[3])
            elif f[1] == "v":
                atom = expr.v(f[2])
            elif f[1] == "q":
                atom = expr.q(f[2])
            else:
                atom = expr.field_component(f[1], f[2])
            prod = atom if prod is None else prod * atom
        for idx in derivs:
            prod = expr.partial(prod, ("q", idx))
        term = prod if coeff == 1 else coeff * prod
        total = term if total is None else total + term
    return total if total is not None else expr.ZERO


def make_executor(cli, expr):
    def execute(req: W.Request):
        if req.spec is not None:
            lhs = _build_side(expr, req.spec["lhs"])
            rhs = _build_side(expr, req.spec["rhs"])
            return lhs == rhs, len(lhs.terms) == 1 and not lhs.free_indices()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(req.argv))
        return rc, out.getvalue(), err.getvalue()

    return execute


def closed_loop(workload, seed, seconds, min_requests, workdir, execute, clock, cycles=None):
    """Run whole cycles back to back; input generation and checking stay off the clock.

    ``clock`` (a :class:`speed.Clock`) times each request; ``latencies`` and
    ``throughput`` are scaled to the reference speed, ``wall_latencies`` and
    ``wall_throughput`` are as measured.
    """
    latencies, wall_latencies, failures, rates, wall_rates = [], [], [], [], []
    failed = busy = 0
    done = 0
    while True:
        reqs = W.cycle(workload, seed, done, workdir)
        results = []
        cycle_wall = cycle_scaled = 0.0
        for req in reqs:
            # a traceback from the program comes back as the result: a failed request
            res, wall, scaled = clock.time(execute, req)
            results.append(res)
            wall_latencies.append(wall)
            latencies.append(scaled)
            cycle_wall += wall
            cycle_scaled += scaled
        busy += cycle_wall
        rates.append(len(reqs) / cycle_scaled)
        wall_rates.append(len(reqs) / cycle_wall)
        for req, res in zip(reqs, results):
            reason = f"raised {res!r}" if isinstance(res, Exception) else W.verify(req, res)
            if reason is not None:
                failed += 1
                if len(failures) < MAX_REPORTED_FAILURES:
                    failures.append({"kind": req.kind, "input": req.describe(), "reason": reason})
        done += 1
        if cycles is not None:
            if done >= cycles:
                break
        elif busy >= seconds and len(latencies) >= min_requests:
            break
        if time.perf_counter() - _STARTED > DEADLINE_S:
            break
    return {
        "cycles": done,
        "attempted": len(latencies),
        "failed": failed,
        "failures": failures,
        "busy_s": busy,
        "latencies": latencies,
        "wall_latencies": wall_latencies,
        "throughput": statistics.median(rates),
        "wall_throughput": statistics.median(wall_rates),
        "host_speed": clock.host_speed(),
    }


def mode_setup(args, root):
    clock = speed.Clock()
    first = {}

    def first_request():
        cli, expr = load_program(root)
        first["req"] = W.cycle(args.workload, args.seed, 0, args.workdir)[0]
        return make_executor(cli, expr)(first["req"])

    result, _, _ = clock.time(first_request)
    # CPU time since the interpreter started, less the sampler's
    cpu = time.process_time() - clock.sampler_cpu_s
    print("ready", flush=True)
    if "req" not in first:  # the program could not be loaded
        raise result
    req = first["req"]
    reason = f"raised {result!r}" if isinstance(result, Exception) else W.verify(req, result)
    return {
        "ok": reason is None, "kind": req.kind, "input": req.describe(), "reason": reason,
        "setup_s": speed.at_reference(cpu, statistics.fmean(clock.all_samples)),
    }


def mode_run(args, root):
    cli, expr = load_program(root)
    import numpy

    out = closed_loop(
        args.workload, args.seed, args.seconds, args.min_requests, args.workdir,
        make_executor(cli, expr), speed.Clock(),
    )
    for key, prefix in (("latencies", ""), ("wall_latencies", "wall_")):
        lat_ms = [x * 1000.0 for x in out.pop(key)]
        out[prefix + "latency_p50_ms"] = statistics.median(lat_ms)
        out[prefix + "latency_p90_ms"] = statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["python"] = platform.python_version()
    out["numpy"] = numpy.__version__
    return out


def mode_trace(args, root):
    import tracing

    cli, expr = load_program(root)
    execute = make_executor(cli, expr)
    clock = speed.Clock()
    # one untimed cycle first, so neither pass pays for cold caches
    closed_loop(args.workload, args.seed, 0, 0, args.workdir, execute, clock, cycles=1)
    plain = closed_loop(
        args.workload, args.seed, args.seconds, args.min_requests, args.workdir, execute, clock
    )
    rec = tracing.Recorder()
    tracing.install(rec)
    traced = closed_loop(
        args.workload, args.seed, args.seconds, args.min_requests, args.workdir,
        rec.wrap(tracing.ROOT, execute), clock, cycles=plain["cycles"],
    )
    layers = tracing.layer_metrics(rec, traced["attempted"])
    layers["bench.tracing_overhead"] = plain["throughput"] / traced["throughput"]
    return {
        "cycles": traced["cycles"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "failures": (plain["failures"] + traced["failures"])[:MAX_REPORTED_FAILURES],
        "layers": layers,
        "spans": len(rec.start),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", choices=W.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-requests", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--root", required=True)
    args = parser.parse_args()
    os.chdir(args.workdir)
    handler = {"setup": mode_setup, "run": mode_run, "trace": mode_trace}[args.mode]
    print(json.dumps(handler(args, Path(args.root))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
