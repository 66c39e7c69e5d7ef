"""Nested spans around the public entry points of each ``embracket`` layer.

Nothing under ``src/`` changes: :func:`install` rebinds each traced name in
every ``embracket`` module namespace that holds it, and the class methods
on ``Expr`` and ``CompiledExpr``.  Spans (layer, start, end, parent) go into
flat arrays during the run; :func:`layer_metrics` derives self time from
them once the run is over.  A layer's self time is its span's duration
minus the time covered by the spans it caused.

Every per-layer number is a mean per request of the traced run, so runs
that complete different numbers of requests compare directly.  The
host-speed sampler of ``speed.py`` also runs during the traced run; its
ticks land in whichever span is open, well under 1 % of the traced time.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, function, layer).  Several functions may share one layer.
FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("dsl", "parse", "dsl.parse"),
    ("dsl", "parse_vector_field", "dsl.parse"),
    ("expr", "partial", "expr.partial"),
    ("expr", "total_time_derivative", "expr.total_time_derivative"),
    ("expr", "substitute_fields", "expr.substitute_fields"),
    ("bracket", "bracket", "bracket.bracket"),
    ("bracket", "run_chain", "bracket.run_chain"),
    ("helmholtz", "helmholtz_check", "helmholtz.helmholtz_check"),
    ("helmholtz", "reconstruct_lagrangian", "helmholtz.reconstruct_lagrangian"),
    ("helmholtz", "poincare_vector_potential", "helmholtz.potentials"),
    ("helmholtz", "scalar_potential", "helmholtz.potentials"),
    ("helmholtz", "euler_lagrange_roundtrip", "helmholtz.euler_lagrange_roundtrip"),
    ("numeric", "integrate", "numeric.integrate"),
    ("numeric", "el_residual", "numeric.residuals"),
    ("numeric", "energy_check", "numeric.residuals"),
    ("numeric", "maxwell_grid_residuals", "numeric.maxwell_grid_residuals"),
)

# (module, class, method, layer)
METHODS = (
    ("expr", "Expr", "__mul__", "expr.mul"),
    ("expr", "Expr", "__rmul__", "expr.mul"),
    ("expr", "Expr", "__add__", "expr.add"),
    ("expr", "Expr", "__radd__", "expr.add"),
    ("numeric", "CompiledExpr", "__call__", "numeric.compiled_eval"),
)

ROOT = "bench.request"


def _steps(args, kwargs):
    return kwargs["steps"] if "steps" in kwargs else args[3]


# Work counted at a layer boundary: layer -> (counter, f(args, kwargs, result)).
_COUNTERS = {
    "expr.mul": ("expr.mul.terms_out", lambda a, k, r: len(r.terms) if r is not NotImplemented else 0),
    "numeric.integrate": ("numeric.integrate.steps", lambda a, k, r: _steps(a, k)),
    "numeric.compiled_eval": ("numeric.compiled_eval.points", lambda a, k, r: np.size(a[1][0])),
    "numeric.maxwell_grid_residuals": (
        "numeric.maxwell_grid_residuals.points",
        lambda a, k, r: a[1].n ** 3,
    ),
}
_COUNTER_NAMES = frozenset(c for c, _ in _COUNTERS.values())

# The per-layer metrics the traced run reports, with their units.
METRICS = (
    ("cli.main.calls", "1/req"),
    ("cli.main.self_s", "s/req"),
    ("dsl.parse.calls", "1/req"),
    ("dsl.parse.self_s", "s/req"),
    ("expr.mul.calls", "1/req"),
    ("expr.mul.self_s", "s/req"),
    ("expr.mul.terms_out", "1/req"),
    ("expr.add.calls", "1/req"),
    ("expr.add.self_s", "s/req"),
    ("expr.partial.calls", "1/req"),
    ("expr.partial.self_s", "s/req"),
    ("expr.total_time_derivative.self_s", "s/req"),
    ("expr.substitute_fields.calls", "1/req"),
    ("expr.substitute_fields.self_s", "s/req"),
    ("bracket.bracket.calls", "1/req"),
    ("bracket.bracket.self_s", "s/req"),
    ("bracket.run_chain.s", "s/req"),
    ("helmholtz.helmholtz_check.self_s", "s/req"),
    ("helmholtz.reconstruct_lagrangian.self_s", "s/req"),
    ("helmholtz.potentials.self_s", "s/req"),
    ("helmholtz.euler_lagrange_roundtrip.self_s", "s/req"),
    ("numeric.integrate.calls", "1/req"),
    ("numeric.integrate.self_s", "s/req"),
    ("numeric.integrate.steps", "1/req"),
    ("numeric.integrate.steps_per_s", "1/s"),
    ("numeric.compiled_eval.calls", "1/req"),
    ("numeric.compiled_eval.self_s", "s/req"),
    ("numeric.compiled_eval.points", "1/req"),
    ("numeric.residuals.self_s", "s/req"),
    ("numeric.maxwell_grid_residuals.self_s", "s/req"),
    ("numeric.maxwell_grid_residuals.points", "1/req"),
    ("bench.wall_s", "s/req"),
    ("bench.unattributed_s", "s/req"),
    ("bench.tracing_overhead", "ratio"),
)


class Recorder:
    """Spans kept in memory as parallel arrays, indexed by span number."""

    def __init__(self):
        self.layers: list[str] = []
        self.layer: array = array("H")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.current = -1
        self.counts: dict = defaultdict(int)

    def layer_id(self, name: str) -> int:
        if name not in self.layers:
            self.layers.append(name)
        return self.layers.index(name)

    def wrap(self, layer: str, fn):
        lid = self.layer_id(layer)
        counter = _COUNTERS.get(layer)
        layer_a, parent_a, start_a, end_a = self.layer, self.parent, self.start, self.end
        clock = time.perf_counter
        rec = self

        def traced(*args, **kwargs):
            idx = len(start_a)
            outer = rec.current
            layer_a.append(lid)
            parent_a.append(outer)
            end_a.append(0.0)
            rec.current = idx
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[idx] = clock()
                rec.current = outer
            if counter is not None:
                rec.counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


def install(rec: Recorder) -> None:
    """Route every traced entry point of the loaded ``embracket`` through ``rec``."""
    mods = {
        name: mod
        for name, mod in sys.modules.items()
        if name == "embracket" or name.startswith("embracket.")
    }
    for module, func, layer in FUNCTIONS:
        original = getattr(mods[f"embracket.{module}"], func)
        wrapped = rec.wrap(layer, original)
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    for module, cls_name, method, layer in METHODS:
        cls = getattr(mods[f"embracket.{module}"], cls_name)
        setattr(cls, method, rec.wrap(layer, cls.__dict__[method]))


def layer_metrics(rec: Recorder, requests: int) -> dict:
    """Calls, self seconds and counted work per layer, as means per request."""
    n = len(rec.start)
    layer = np.frombuffer(rec.layer, dtype=np.uint16).astype(np.int64) if n else np.zeros(0, np.int64)
    parent = np.frombuffer(rec.parent, dtype=np.int32).astype(np.int64) if n else np.zeros(0, np.int64)
    dur = (np.frombuffer(rec.end) - np.frombuffer(rec.start)) if n else np.zeros(0)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=n)
    self_time = dur - covered
    k = len(rec.layers)
    calls = np.bincount(layer, minlength=k)
    self_by_layer = np.bincount(layer, weights=self_time, minlength=k)
    # inclusive time: spans whose parent belongs to another layer
    outer = np.ones(n, dtype=bool)
    outer[nested] = layer[parent[nested]] != layer[nested]
    incl_by_layer = np.bincount(layer[outer], weights=dur[outer], minlength=k)

    def get(arr, name):
        return float(arr[rec.layers.index(name)]) if name in rec.layers else 0.0

    out = {}
    for name, _unit in METRICS:
        base, _, what = name.rpartition(".")
        if what == "calls":
            out[name] = int(get(calls, base))
        elif what == "self_s":
            out[name] = get(self_by_layer, base)
        elif name in _COUNTER_NAMES:
            out[name] = int(rec.counts.get(name, 0))
    out["bracket.run_chain.s"] = get(incl_by_layer, "bracket.run_chain")
    integrate_s = get(incl_by_layer, "numeric.integrate")
    steps = out["numeric.integrate.steps"]
    out["numeric.integrate.steps_per_s"] = steps / integrate_s if integrate_s else 0.0
    out["bench.wall_s"] = get(incl_by_layer, ROOT)
    out["bench.unattributed_s"] = get(self_by_layer, ROOT)
    return {
        name: value if name == "numeric.integrate.steps_per_s" else value / requests
        for name, value in out.items()
    }

