"""Correct timings for the speed the host lends this process while they run.

On a shared host the same pass can take up to twice as long when another
tenant loads the physical core, and such spells last longer than a run.
While a timed region runs, a SIGALRM handler times a fixed pure-Python
reference loop every INTERVAL_S.  The region's own time (its wall time
minus the handler's) is then scaled by REFERENCE_S / mean loop time,
which expresses it in seconds of a host whose loop takes REFERENCE_S.
A change to hpascal moves the region but not the loop, so it shows in
full.  Code timing a part of a region takes the handler's share out with
handler_s().
"""

from __future__ import annotations

import signal
from time import perf_counter

REFERENCE_CELLS = 100_000
REFERENCE_S = 0.003  # about the loop's time on an idle core of a 2.1 GHz Xeon, Python 3.11
INTERVAL_S = 0.25


def reference_loop() -> float:
    """Time one list build, pairwise merge and sum, like a small row step.

    Of the loops tried, this one's slow spells tracked those of row
    building, bigint recurrences and JSON export best.
    """
    start = perf_counter()
    cells = [1] * REFERENCE_CELLS
    merged = [a + b for a, b in zip(cells, cells)]
    sum(merged)
    return perf_counter() - start


class Region:
    """Times the body of a with-block and samples host speed around and during it."""

    active: Region | None = None  # the region whose timer is running

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # wall time inside the handler, taken out of the region
        self.wall_s = self.seconds = self.scale = 0.0

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(reference_loop())
        self.spent += perf_counter() - start

    def __enter__(self) -> Region:
        self.samples.append(reference_loop())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        Region.active = self
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall_s = perf_counter() - self._start
        Region.active = None
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(reference_loop())
        self.scale = REFERENCE_S * len(self.samples) / sum(self.samples)
        self.seconds = (self.wall_s - self.spent) * self.scale


def handler_s() -> float:
    """Wall time the active region's handler has taken so far; 0.0 outside a region."""
    return Region.active.spent if Region.active else 0.0
