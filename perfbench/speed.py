"""Speed factor of the CPU a worker runs on, from a fixed probe loop.

The host this benchmark was tuned on gives each container vCPUs that share
physical cores with other tenants.  Depending on what runs beside it, the
same Python code takes from 1x to about 2x as long, switching within a
fraction of a second and drifting over minutes.  Job times are therefore
scaled to a fixed reference speed: each job's time is divided by its speed
factor, the mean time of ``probe()`` around and during the job over
``PROBE_REF_S``, the probe's time on an unloaded core of that host (Intel
Xeon, Python 3.11).

The probe is pure-Python integer arithmetic and dict stores, like most of
the library's own work.  It allocates nothing the garbage collector tracks,
so its time does not depend on the size of the library's heap.  It runs
before each job and, from a SIGALRM timer, every ``PROBE_PERIOD_S`` in
between, which covers long jobs; the probes' own time is taken out of the
job's time.
"""

from __future__ import annotations

import signal
from time import perf_counter

PROBE_REF_S = 0.0002
PROBE_PERIOD_S = 0.025


def probe() -> float:
    """Seconds taken by a fixed loop of integer arithmetic and dict stores."""
    start = perf_counter()
    acc, table = 0, {}
    for i in range(1500):
        table[i & 511] = acc = (acc * 31 + i) % 1000003
    return perf_counter() - start


class SpeedLog:
    """Probe readings, in the order they were taken."""

    def __init__(self):
        self.readings: list[float] = []
        self.spent = 0.0  # seconds spent in probes so far
        self._busy = False

    def sample(self) -> int:
        """Take one reading now; return its index."""
        self._busy = True
        t = probe()
        self._busy = False
        self.readings.append(t)
        self.spent += t
        return len(self.readings) - 1

    def _tick(self, signum, frame) -> None:
        if not self._busy:  # never time a probe inside another
            self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def factor(self, first: int, last: int) -> float:
        """Speed factor over readings ``first`` to ``last``.

        The window is widened by one reading on each side, and its highest
        and lowest readings are dropped, so that one disturbed reading
        cannot set a short job's factor.  A long job's factor is then close
        to the mean over the job, which its time follows.
        """
        window = sorted(self.readings[max(first - 1, 0):last + 2])
        if len(window) > 2:
            window = window[1:-1]
        return sum(window) / len(window) / PROBE_REF_S
