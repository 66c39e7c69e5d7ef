"""Fast self-check of the benchmark harness.

Runs every workload at a tiny size, untraced and traced, and asserts that
each end-to-end and per-layer metric is printed by name with its unit, that
the final JSON line has the contracted shape and matches ``BENCHMARK.json``,
and that ``error_ratio`` is 0.  It also checks that the benchmark refuses to
run, without printing a result, where there are no sources to measure.

Run from the root of the checkout::

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run as bench
import tracing
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script)] + args,
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_workload(name: str, spec: dict) -> None:
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = _run([
            "--workload", name, "--seed", "3", "--seconds", "0.1",
            "--trace", str(trace), "--min-requests", "1",
        ])
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
        assert set(result["metrics"]) == {m["name"] for m in listed}, result["metrics"]
        for metric in listed:
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"], (metric, got)
        printed = {}
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) == 4 and parts[0] == name:
                printed[parts[1]] = (float(parts[2]), parts[3])
        units = dict(bench.END_TO_END) if trace == 0 else dict(tracing.METRICS)
        for metric, unit in units.items():
            assert printed.get(metric, (None, None))[1] == unit, (name, metric, printed.get(metric))
        if trace == 0:
            assert printed["error_ratio"][0] == 0.0, lines
        print(f"ok {name} trace={trace}: {len(printed)} metrics, {result['attempted']} requests")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".bench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(["--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
                    cwd=bare, script=bare / HERE.name / "run.py")
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok refuses to run without sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.NAMES)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in tracing.METRICS]
    check_refuses_without_sources()
    for name in W.NAMES:
        check_workload(name, spec)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
