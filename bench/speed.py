"""Machine-speed probes: seconds at a reference speed instead of raw seconds.

On a shared host the processor's speed swings by up to 1.8x within a
minute, and CPU time follows wall time, so raw seconds from two runs a
minute apart do not compare. ``SpeedGauge`` therefore times a short fixed
workload, the probe, that shares nothing with slsnet:

- five times before and after every measurement;
- inside an in-process measurement, from a SIGPROF handler every
  ``PROBE_PERIOD_S`` of CPU time. The handler's time is taken out of the
  measured time.

A measurement of t seconds is reported as t x ``PROBE_REF_S`` / the median
probe time around and inside it. ``PROBE_REF_S`` is the probe's time in
the machine's slower state, so reported figures stay close to that state's
seconds, and a change in slsnet moves them as before.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

PROBE_REF_S = 0.0043
PROBE_PERIOD_S = 0.2
PROBES_AT_EDGE = 5

_rng = random.Random("speed-probe")
_MATRIX = [[_rng.randint(-3, 3) for _ in range(11)] for _ in range(11)]


def probe() -> float:
    """Seconds a fixed piece of exact elimination and dictionary traffic
    takes now, the same kinds of work slsnet does.

    The elimination is written out here rather than borrowed from
    ``reference.rank``: the probe's work must stay fixed for PROBE_REF_S to
    keep its meaning, whatever later happens to the checking code."""
    started = time.perf_counter()
    grid = [[Fraction(v) for v in row] for row in _MATRIX]
    for c in range(len(grid)):
        pivot = next((i for i in range(c, len(grid)) if grid[i][c] != 0), None)
        if pivot is None:
            continue
        grid[c], grid[pivot] = grid[pivot], grid[c]
        for i in range(c + 1, len(grid)):
            f = grid[i][c] / grid[c][c]
            grid[i] = [x - f * y for x, y in zip(grid[i], grid[c])]
    counts = {}
    for i in range(3000):
        key = (i * 7919) % 1021
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - started


class SpeedGauge:
    def __init__(self):
        self._edge = self._probe_edge()
        self._inside: list[float] = []
        self.spent = 0.0  # seconds the in-measurement probes took
        signal.signal(signal.SIGPROF, self._on_timer)

    @staticmethod
    def _probe_edge() -> list[float]:
        return [probe() for _ in range(PROBES_AT_EDGE)]

    def _on_timer(self, signum, frame):
        seconds = probe()
        self._inside.append(seconds)
        self.spent += seconds

    @contextmanager
    def measuring(self):
        """Probe periodically while the body runs; ``spent`` then holds the
        probes' share of the body's time."""
        self._inside, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)

    def factor(self) -> float:
        """After a measurement: probe again and return the factor that turns
        its seconds into seconds at the reference speed."""
        edge = self._probe_edge()
        factor = PROBE_REF_S / statistics.median(self._edge + self._inside + edge)
        self._edge = edge
        return factor
