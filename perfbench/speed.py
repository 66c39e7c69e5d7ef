"""Host-speed calibration for the timed metrics.

The benchmark runs on a few vCPUs of a shared host.  Two things there move
wall-clock times by far more than a change to the program would: the host
takes the vCPU away for stretches (steal time, at times a fifth of all
time), and the speed of the vCPU it gives back drifts, so a fixed
pure-Python loop takes anywhere from 1.0x to 1.7x its fastest time, in
stretches lasting from a fraction of a second to minutes.  Neither longer
runs nor medians remove either.  So :class:`Clock` times each call in
process CPU time, which leaves out stolen time, and samples the host's speed
with :func:`probe`, a tiny fixed reference task, just before and just after
the call and, from a ``SIGPROF`` handler in the same thread, every
``TICK_S`` of CPU time while it runs.  The call is reported scaled to the
reference speed::

    scaled = (CPU time - CPU time in the handler) * REFERENCE_S / mean(samples)

The reference task is the geometric mean of two small loops: integer
arithmetic, which tracks the clock, and exact rational arithmetic with tuple
keys in a dict, which also slows when neighbours contend for caches and
memory, as the program's own ``Fraction``- and dict-heavy work does.  On
the reference host (2 vCPU Intel Xeon, 2 MB L2 per core, 105 MB L3,
Python 3.11) at its fastest, :func:`probe` takes ``REFERENCE_S``, so the
scaled numbers read as wall-clock time on that host, unloaded, at full
speed.  The raw wall-clock numbers are printed next to them in the run
context.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 3.8e-5
TICK_S = 0.02
_ARITH_N = 600
_RATIONAL_N = 12
_RATIONALS = [Fraction(i % 7 + 1, i % 5 + 2) for i in range(16)]


def _arith() -> int:
    s = 0
    for i in range(_ARITH_N):
        s += i * i % 7
    return s


def _rational() -> Fraction:
    counts: dict = {}
    acc = Fraction(0)
    for i in range(_RATIONAL_N):
        acc += _RATIONALS[i % 16] * _RATIONALS[i * 7 % 16]
        key = (i % 17, i % 5)
        counts[key] = counts.get(key, 0) + 1
    return acc


def _fastest(task) -> float:
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        task()
        best = min(best, time.perf_counter() - t0)
    return best


def probe() -> float:
    """Seconds the reference task takes now, each loop the faster of two runs."""
    return math.sqrt(_fastest(_arith) * _fastest(_rational))


def at_reference(cpu_s: float, probe_s: float) -> float:
    """``cpu_s`` at the reference speed, given the mean probe time over it."""
    return cpu_s * REFERENCE_S / probe_s


class Clock:
    """Times calls in seconds at the reference speed; one per process."""

    def __init__(self):
        self._samples: list[float] = []
        self.all_samples: list[float] = []
        self.sampler_cpu_s = 0.0
        signal.signal(signal.SIGPROF, self._on_tick)

    def _on_tick(self, signum, frame):
        c0 = time.process_time()
        self._samples.append(probe())
        self.sampler_cpu_s += time.process_time() - c0

    def time(self, fn, *args):
        """Call ``fn(*args)``; return (result or raised exception, wall s, scaled s)."""
        self._samples = [probe()]
        sampler0 = self.sampler_cpu_s
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            result = fn(*args)
        except Exception as exc:  # the caller judges a raised exception
            result = exc
        finally:
            cpu = time.process_time() - c0
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_PROF, 0)
        sampler = self.sampler_cpu_s - sampler0
        self._samples.append(probe())
        self.all_samples += self._samples
        return result, wall - sampler, at_reference(cpu - sampler, statistics.fmean(self._samples))

    def host_speed(self) -> float:
        """Reference speed over the median speed seen so far (1.0 = full speed)."""
        return REFERENCE_S / statistics.median(self.all_samples)
