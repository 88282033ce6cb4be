"""How fast the host runs Python right now, from a fixed reference loop.

The machine the benchmark was built on drifts between speed regimes: for
tens of seconds at a time the same code runs up to twice as slowly, with
CPU time equal to wall time and no steal.  Over 8 runs of 20 s, the median
postmark unit rate spread 65% between the first and third quartile.

The benchmark therefore times :func:`probe_s` -- inserts into and random
lookups in a dictionary too large for the CPU caches, the kind of work the
simulator does, independent of any code under ``src/`` -- between units, and
scales each unit's wall times to reference seconds:
``wall_s * REFERENCE_PROBE_S / probe_s``.  On a host running at the
reference speed a reference second is a wall second; on a slowed host the
probe slows with the simulator and the scaled time holds still.  A change
to the simulator moves the scaled time exactly as it moves the wall time,
because the probe does not run simulator code.  A dictionary probe tracked
the oltp workload better than a cache-resident one: six 15 s runs spread
5.0% scaled by it, 8.3% scaled by a 10k-key loop, 31.6% unscaled.
"""

from __future__ import annotations

import time

#: Time of one :func:`probe_s` (best of two) on the reference host, an
#: uncontended 2 GHz Xeon VM with CPython 3.11.
REFERENCE_PROBE_S = 0.030


def _loop() -> float:
    started = time.perf_counter()
    table = {}
    for index in range(40_000):
        table[(index * 7919) % 1_000_003] = index
    total = 0
    for index in range(40_000):
        total += table.get((index * 104729) % 1_000_003, 0)
    sorted(table.items())
    return time.perf_counter() - started


def probe_s() -> float:
    """Best-of-two time of the reference loop, in wall seconds."""
    return min(_loop(), _loop())


class ReferenceClock:
    """Converts wall seconds measured between two probes to reference seconds.

    Call :meth:`scale` after each timed piece of work: it probes the host,
    and returns the factor for the work just done, from the mean of the
    probes taken before and after it.
    """

    def __init__(self) -> None:
        self._last = probe_s()

    def scale(self) -> float:
        current = probe_s()
        factor = REFERENCE_PROBE_S / ((self._last + current) / 2)
        self._last = current
        return factor
