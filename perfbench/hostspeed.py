"""Host-speed sampling: a fixed probe that times the machine, not the program.

On a shared 2-vCPU virtual machine the host runs the same code at two
speeds about 1.7x apart, switching within seconds, and the share of time
in the slow state changes from one minute to the next, so raw wall times
of the same code spread past any useful bound.  The probe is a short loop
of exact ``Fraction`` arithmetic, the kind of work the program does, that
never calls the program, so no change to the program can move it.

While a ``Sampler`` runs, SIGALRM runs the probe every ``INTERVAL_S`` of
wall time, in the middle of whatever the program is doing.  The probe's
own time is taken out of the op it interrupted (``Sampler.probe_s``), and
the probes around an op give the host's speed while it ran.  An op's time
scaled by ``PROBE_REF_MS / speed_ms`` is its time on a host where the
probe takes ``PROBE_REF_MS``: the reference host speed.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

INTERVAL_S = 0.02
# Shortest wall time of one probe on an idle 2-vCPU Intel Xeon host
# (Python 3.11); the host's fast state.
PROBE_REF_MS = 0.7
# The probes that give an op's host speed cover at least this much time.
WINDOW_S = 1.0


def probe_ms() -> float:
    """Wall time of one probe, in ms."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 301):
        total += Fraction(1, i % 97 + 1)
    return (time.perf_counter() - start) * 1000


class Sampler:
    """Probes the host from SIGALRM while ``running()`` is active."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter, ms)
        self.probe_s = 0.0  # total time spent in probes

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        ms = probe_ms()
        self.samples.append((start, ms))
        self.probe_s += time.perf_counter() - start

    @contextmanager
    def running(self):
        """Probe once now, so that even a short op has a sample near it,
        then every ``INTERVAL_S`` until the block ends."""
        self._tick(None, None)
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def speed_ms(self, start: float, end: float) -> float:
        """Mean probe time over [start, end], widened to ``WINDOW_S``."""
        pad = max(0.0, (WINDOW_S - (end - start)) / 2)
        return statistics.fmean(
            ms for t, ms in self.samples if start - pad <= t <= end + pad
        )
