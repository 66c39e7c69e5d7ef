"""The embracket benchmark: one command, four seeded workloads.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 20 --trace 0

``--workload`` is one of symbolic, tensor, trajectory, grid, or ``all``.
Each workload runs in fresh interpreters (``worker.py``) as a closed loop
with one client and no extra threads or processes.  Every answer is checked
against the verdict the benchmark's own generator fixed (``workloads.py``).

With ``--trace 0`` the end-to-end metrics are printed: throughput, latency
p50/p90, set-up time (median over fresh interpreters, from launch until the
first request has completed), peak RSS, and the error ratio.  Times are
CPU times scaled to a reference host speed sampled before, during and after
every timed interval (``speed.py``); the context line carries the wall-clock
times as measured.  With
``--trace 1`` a separate run prints the per-layer metrics of ``tracing.py``.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 9
MIN_REQUESTS = 100
CHILD_TIMEOUT_S = 170.0

END_TO_END = (
    ("throughput_ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("error_ratio", "ratio"),
)
# error_ratio is 0 on a healthy program, so the JSON carries it as
# failed/attempted rather than as a metric with a relative bound.
JSON_END_TO_END = tuple(name for name, _ in END_TO_END if name != "error_ratio")


def _worker(mode, workload, args, workdir):
    return [
        sys.executable, str(HERE / "worker.py"), "--mode", mode,
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--min-requests", str(args.min_requests),
        "--workdir", str(workdir), "--root", str(ROOT),
    ]


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _run_worker(cmd) -> dict:
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return _last_json(proc.stdout)


def _setup_probe(cmd) -> tuple[float, float, dict]:
    """Seconds from launching a fresh interpreter until its first request is done.

    Returns that time at the reference speed as the interpreter measured it
    (see :mod:`speed`), the wall time, and the verdict on the request.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        out = proc.stdout.read()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {(first + out)[-2000:]}")
    verdict = _last_json(out)
    return verdict["setup_s"], elapsed, verdict


def machine_context() -> dict:
    caches = {}
    try:
        lines = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=30
        ).stdout.splitlines()
    except (OSError, subprocess.SubprocessError):
        lines = []
    for line in lines:
        key, _, value = line.partition(":")
        if "cache" in key.lower():
            caches[key.strip()] = value.strip()
    return {"nproc": os.cpu_count(), "caches": caches}


def end_to_end(workload, args, workdir) -> dict:
    probe = _worker("setup", workload, args, workdir)
    # half the set-up probes before the loop and half after, so one slow
    # stretch of the machine does not decide the median
    probes = [_setup_probe(probe) for _ in range(SETUP_PROBES // 2)]
    run = _run_worker(_worker("run", workload, args, workdir))
    probes += [_setup_probe(probe) for _ in range(SETUP_PROBES - len(probes))]
    probe_failures = [p for _, _, p in probes if not p["ok"]]
    metrics = {
        "throughput_ops_per_s": run["throughput"],
        "latency_p50_ms": run["latency_p50_ms"],
        "latency_p90_ms": run["latency_p90_ms"],
        "setup_s": statistics.median(t for t, _, _ in probes),
        "peak_rss_mb": run["peak_rss_mb"],
        "error_ratio": run["failed"] / run["attempted"],
    }
    return {
        "metrics": metrics,
        "units": dict(END_TO_END),
        "json_metrics": JSON_END_TO_END,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failures": run["failures"] + probe_failures,
        "context": {
            "busy_s": round(run["busy_s"], 3), "cycles": run["cycles"],
            "python": run["python"], "numpy": run["numpy"],
            "host_speed": round(run["host_speed"], 4),
            "wall": {
                "throughput_ops_per_s": round(run["wall_throughput"], 4),
                "latency_p50_ms": round(run["wall_latency_p50_ms"], 4),
                "latency_p90_ms": round(run["wall_latency_p90_ms"], 4),
                "setup_s": round(statistics.median(w for _, w, _ in probes), 4),
            },
        },
    }


def per_layer(workload, args, workdir) -> dict:
    run = _run_worker(_worker("trace", workload, args, workdir))
    return {
        "metrics": run["layers"],
        "units": dict(tracing.METRICS),
        "json_metrics": tuple(name for name, _ in tracing.METRICS),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failures": run["failures"],
        "context": {"cycles": run["cycles"], "spans": run["spans"]},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=W.NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--min-requests", type=int, default=MIN_REQUESTS,
        help="keep the loop going until this many requests are done",
    )
    args = parser.parse_args()

    if not (ROOT / "src" / "embracket" / "__init__.py").is_file():
        print(f"error: no embracket sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = W.NAMES if args.workload == "all" else (args.workload,)
    context = dict(machine_context(), seed=args.seed, trace=args.trace, requests={})
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    results = {}
    try:
        measure = per_layer if args.trace else end_to_end
        for name in names:
            results[name] = measure(name, args, workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    for name, res in results.items():
        context["requests"][name] = res["attempted"]
        context[name] = res["context"]
    print("context " + json.dumps(context, sort_keys=True))
    final_metrics = {}
    for name, res in results.items():
        for metric, value in res["metrics"].items():
            print(f"{name:<10} {metric:<42} {value:>16.6f} {res['units'][metric]}")
        print(f"{name:<10} {'requests':<42} {res['attempted']:>16d} count")
        for failure in res["failures"]:
            print(f"FAILED {name} {failure['kind']}: {failure['reason']} input={failure['input']}")
        prefix = "" if len(results) == 1 else f"{name}."
        for metric in res["json_metrics"]:
            final_metrics[prefix + metric] = {
                "value": res["metrics"][metric], "unit": res["units"][metric],
            }
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0 and all(not r["failures"] for r in results.values())
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": final_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
