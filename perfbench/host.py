"""Host-speed adjustment of the benchmark's wall-clock times.

The benchmark runs on shared machines, where the same code runs at very
different speeds from one second to the next: another tenant on the same
core slows it by up to half. A repetition therefore times a tiny fixed
pure-Python workload (a "tick") every ``INTERVAL`` s of wall clock, from a
SIGALRM handler, while it runs. The tick rate over a phase says how fast
the host ran during that phase, and the phase's wall time is scaled to
what it would have been at ``REFERENCE_RATE``:

    adjusted = wall * rate / REFERENCE_RATE

A slower program takes proportionally more adjusted seconds; a slower
host, with the same program, does not. The ticks cost about 1% of the
wall time, and their table adds 32 MiB to the process's memory. This
module imports nothing from the program.
"""

import array
import signal
import time
from typing import List, Tuple

#: seconds of wall clock between ticks
INTERVAL = 0.05
#: ticks per second of tick work on an uncontended core of the machine the
#: benchmark was sized on (2-core x86 VM, Python 3.11); this only sets the
#: scale, so that adjusted seconds are close to wall seconds there
REFERENCE_RATE = 2000.0


#: a table much larger than a core's share of the caches
_TABLE = array.array("q", bytes(32 << 20))
_MASK = len(_TABLE) - 1
_cursor = [1]


def _tick_work() -> None:
    # small Python objects made and freed, as the program makes them ...
    made = [{"a": i, "b": [i, i + 1], "c": (i, str(i))} for i in range(150)]
    del made
    # ... and scattered reads, which slow down with memory contention as
    # the program's large heap does; each tick reads 500 new places
    table, at = _TABLE, _cursor[0]
    for _ in range(500):
        at = (at * 2_654_435_761 + 12_345 + table[at]) & _MASK
    _cursor[0] = at


class Sampler:
    """Runs a tick every ``INTERVAL`` s between :meth:`start` and
    :meth:`stop` and keeps how long each took."""

    def __init__(self) -> None:
        #: (perf_counter when the tick began, seconds the tick took)
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _tick(self, signum, frame) -> None:
        began = time.perf_counter()
        _tick_work()
        self.samples.append((began, time.perf_counter() - began))

    def rate(self, start: float, end: float) -> float:
        """Mean ticks per second of tick work over the ticks in
        ``[start, end]``, or over all ticks if none fell in it."""
        took = [t for at, t in self.samples if start <= at <= end] or [
            t for _, t in self.samples
        ]
        return sum(1.0 / t for t in took) / len(took)


def adjust(wall_s: float, rate: float) -> float:
    """``wall_s`` scaled to the reference host speed."""
    return wall_s * rate / REFERENCE_RATE
