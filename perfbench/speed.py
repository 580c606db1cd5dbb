"""Machine-speed probe: wall times expressed at a fixed reference speed.

The benchmark runs on a shared host whose speed changes with other
tenants' load: a fixed piece of Python code takes up to 1.6 times as long
in a slow phase as in a fast one, and a phase lasts from under a second
to several minutes, so a whole run can fall into one.  Medians within a
run cannot remove that, so every timed step (a solve, a set-up round) is
bracketed by `probe()` calls, and its wall time is divided by the
machine's slowdown around it (`Bracket`).  The result is the step's
time at the reference speed, in the same unit.

The probe is fixed code that does not use qmproute, so a change to
qmproute never changes the probe's time: it moves the normalised figures
exactly as it moves the wall times.  It is two kernels: `_mixed` does the
kind of work the solver does (tuples, frozensets, dict lookups, a heap,
`Fraction` arithmetic), and `_ints` is a plain integer loop.  A slow
phase slows the solver by less than `_mixed` and by more than `_ints`;
the geometric mean of the two slowdowns tracks it (slope 0.92-0.98 in a
log-log fit of per-solve times against it, on both workloads).
"""

from __future__ import annotations

import heapq
import math
import time
from fractions import Fraction

# Each kernel's time at the reference speed: about its median time on the
# 2-core virtual machine the benchmark was defined on.
MIXED_REF_S = 3.5e-3
INTS_REF_S = 1.1e-3


def _mixed(n: int = 250) -> int:
    heap: list = []
    seen: dict = {}
    x = 12345
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x % 97, x % 89, frozenset((x % 5, x % 7)))
        f = Fraction(x % 13, 1 + x % 7) + Fraction(1, 1 + x % 3)
        old = seen.get(key)
        if old is None or f < old:
            seen[key] = f
            heapq.heappush(heap, (f, i, key))
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(seen)


def _ints(n: int = 12000) -> int:
    x = 1
    for i in range(n):
        x = (x * 3 + i) % 1000003
    return x


def probe() -> float:
    """The machine's slowdown now: 1.0 at reference speed, 1.5 when the
    probe takes 1.5 times its reference time.  About 5 ms."""
    t0 = time.perf_counter()
    _mixed()
    t1 = time.perf_counter()
    _ints()
    t2 = time.perf_counter()
    return math.sqrt((t1 - t0) / MIXED_REF_S * (t2 - t1) / INTS_REF_S)


class Bracket:
    """Probes between timed steps: probe, step, probe, step, ..., probe."""

    def __init__(self):
        self._last = probe()

    def after_step(self) -> float:
        """Probe again, and return the slowdown around the step just timed:
        the geometric mean of the probes before and after it."""
        now = probe()
        around = math.sqrt(self._last * now)
        self._last = now
        return around
