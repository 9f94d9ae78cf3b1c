"""Machine-speed probe: rescales measured times to a nominal machine speed.

On a shared host this process slows down by up to half for tens of seconds
at a time, while other tenants run.  The probe measures that.  An interval
timer runs two fixed reference tasks every PROBE_INTERVAL_S of wall time:
an interpreter-bound one and a NumPy one on arrays that fit in L2.  A task
slows down with the process, so

    nominal seconds = wall seconds * REF_NOMINAL_S[kind] / mean task time

is the time the same work would take at nominal speed.  Each workload
names the task that resembles its bottleneck ("python" or "numpy").
Python runs the handler between bytecodes, so a long NumPy call delays the
next reading.  The tasks allocate no container objects, so they never
trigger the cyclic garbage collector.  They use nothing from taxicassini,
so a change to the package cannot change them.  Their own time is
subtracted from the wall time.
"""

from __future__ import annotations

import signal
import time
from typing import Optional

import numpy as np

PROBE_INTERVAL_S = 0.05
# Task times on an uncontended core of a shared 2-vCPU x86-64 host (105 MB
# L3, Python 3.11, NumPy 2.4), where the bounds were set: a speed factor of 1.
REF_NOMINAL_S = {"python": 0.00013, "numpy": 0.00018}


class _Slot:
    __slots__ = ("x1", "x2")

    def __init__(self, x1: float, x2: float) -> None:
        self.x1 = x1
        self.x2 = x2


def _distance(a: _Slot, b: _Slot) -> float:
    return abs(a.x1 - b.x1) + abs(a.x2 - b.x2)


class SpeedProbe:
    """Interval-timer probe; use as a context manager around the timed work."""

    def __init__(self) -> None:
        self._points = [_Slot(0.5 * k, -0.25 * k) for k in range(64)]
        self._origin = _Slot(1.0, 2.0)
        self._a = np.linspace(0.0, 1.0, 1 << 15)
        self._b = np.empty_like(self._a)
        self._seconds = dict.fromkeys(REF_NOMINAL_S, 0.0)
        self._runs = 0
        self._lap_start = 0.0
        self._lap_own = 0.0

    def _python_task(self) -> float:
        total = 0.0
        origin = self._origin
        for _ in range(8):
            for point in self._points:
                total += _distance(point, origin) * _distance(origin, point)
        return total

    def _numpy_task(self) -> None:
        a, b = self._a, self._b
        for _ in range(4):
            np.subtract(a, 0.5, out=b)
            np.abs(b, out=b)
            np.multiply(b, a, out=b)

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self._python_task()
        t1 = time.perf_counter()
        self._numpy_task()
        t2 = time.perf_counter()
        self._seconds["python"] += t1 - t0
        self._seconds["numpy"] += t2 - t1
        self._runs += 1

    def _own(self) -> float:
        return sum(self._seconds.values())

    def begin(self, start: Optional[float] = None) -> None:
        """Start a lap at `start` (default now) with one fresh reading."""
        self._seconds = dict.fromkeys(REF_NOMINAL_S, 0.0)
        self._runs = 0
        self._tick()
        self._lap_start = time.perf_counter() if start is None else start
        self._lap_own = 0.0 if start is not None else self._own()

    def end(self, kind: str) -> tuple[float, float]:
        """Wall seconds of the lap less the probe's own time, and nominal seconds."""
        wall = time.perf_counter() - self._lap_start - (self._own() - self._lap_own)
        return wall, wall * REF_NOMINAL_S[kind] * self._runs / self._seconds[kind]

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
