"""Host-speed calibration.

On a shared machine the speed of one core drifts by tens of percent within
seconds and over minutes, as neighbours load its sibling threads.  While a
run measures, a timer interrupts it every INTERVAL_S and runs a fixed piece
of pure-Python work that shares no code with swapeq (all-pairs BFS on one
fixed graph, from ``inputs``).  A measured wall time, less the calibration
time spent inside it, is scaled by REFERENCE_S / (median calibration time
inside it): that restates it at the host speed at which the calibration
takes REFERENCE_S.

The scaling assumes the program does not compete with the calibration for
cores; under that assumption the factor does not depend on the program, so
a program change still moves the scaled figures in full.  Hence:

- no calibration runs while a multiprocessing child (a survey's worker
  pool) is alive: on two cores the workers and this process would compete;
  a pass with a pool is scaled by the calibrations taken in its other parts;
- calibrations run with the garbage collector off, so no collection of the
  program's heap is charged to them.
"""

from __future__ import annotations

import gc
import multiprocessing
import random
import signal
import statistics
from time import perf_counter

import inputs

REFERENCE_S = 0.001
INTERVAL_S = 0.05
_N = 48


def _fixed_graph():
    rng = random.Random(0)
    while True:
        edges = inputs.gnp(rng, _N, 0.08)
        if inputs.connected(_N, edges):
            return edges


class HostSpeed:
    def __init__(self):
        self.edges = _fixed_graph()
        self.samples: list[float] = []  # calibration times, in order
        self.spent = 0.0  # total time the calibrations took

    def _calibrate(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            inputs.diameter(_N, self.edges)
            t = perf_counter() - t0
        finally:
            if collecting:
                gc.enable()
        self.samples.append(t)
        self.spent += t

    def _tick(self, *_signal) -> None:
        if not multiprocessing.active_children():
            self._calibrate()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """perf_counter less the calibration time so far."""
        return perf_counter() - self.spent

    def mark(self):
        """Start of a measured interval, for elapsed() and scale()."""
        return len(self.samples), self.clock()

    def elapsed(self, mark) -> float:
        """Wall time since mark, less the calibration time inside it."""
        return self.clock() - mark[1]

    def scale(self, mark) -> float:
        """REFERENCE_S over the median calibration since mark (one is taken
        now if none fell inside the interval)."""
        n = mark[0]
        if len(self.samples) == n:
            self._calibrate()
        return REFERENCE_S / statistics.median(self.samples[n:])
