"""Host-speed correction for the benchmark's host-time metrics.

The benchmark runs on a few vCPUs of a shared machine whose speed moves
with its neighbours' load.  On a 2-CPU host, one replicate of
``configure`` with the same seed took 0.74–1.08 s to configure from one
process to the next, and 1.9–3.2 s in all, run after run in one
process.  A fixed loop ran 21 ms in one minute and 34 ms in another,
and on one vCPU steadily 15 % slower than on the other.  Process CPU
time moves with wall time, so the host is slower, not descheduling the
process, and no hardware counters are exposed.  Medians over a run
cannot take out a shift that lasts longer than the run.

So every host-time metric is reported in *reference seconds*: the host
seconds of its window, minus the time this module spends in that
window, scaled by :data:`REFERENCE_S` over the mean time of
:func:`burst` in that window (preempted bursts left out).  :class:`HostSpeed` runs the burst from a
``SIGALRM`` handler every :data:`PERIOD_S` host seconds (about 2 % of
the run).  The burst runs between the program's own bytecodes, in the
same process and on the same CPU, so it sees the same host speed as
the program.  It is the benchmark's own code, so a change to the
program leaves its time alone, and it creates no object the garbage
collector tracks, so it never runs a collection on the program's
behalf.  Its reads scatter over an 8 MiB table (which
``peak_rss_mb`` includes), so that it slows, as the program does, when
neighbours crowd the shared cache: a burst of arithmetic alone sped up
by a third in the host's fast spells, while the program sped up by a
fifth.  On twenty runs of one ``chaos`` replicate in one process, the
spread (CV) of the whole run's time was 0.090 raw, 0.061 corrected by
the arithmetic burst and 0.040 by one reading an 8 MiB list; on twenty
more, in a busier spell, 0.198 raw and 0.058 corrected by this burst
(0.063–0.071 by other table layouts).  The median host seconds are
printed next to the corrected metrics.

The bursts see only the process they run in.  Every workload runs a
replicate in one process; on two forked shard workers, which wait for
each other at every epoch barrier, the coordinator's bursts corrected
only about half of a host slowdown (see ``workloads``).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

__all__ = ["HostSpeed", "PERIOD_S", "REFERENCE_S", "burst"]

#: Host seconds between two bursts.
PERIOD_S = 0.025
#: Seconds one :func:`burst` takes at the reference speed, about its
#: mean on a 2-CPU host of a shared Xeon machine at normal load.
REFERENCE_S = 0.0006
#: A window with fewer bursts in it takes the nearest this many.
_MIN_BURSTS = 8
#: Bursts over this many times their window's median are left out.
_OUTLIER = 4.0

_ITERATIONS = 800


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def dot(self, other: "_Point") -> float:
        return self.x * other.x + self.y * other.y


_POINTS = [_Point(i * 0.37 % 11.0, i * 0.91 % 7.0) for i in range(64)]
#: 8 MiB, beyond a core's private caches, as the program's heap is.
_TABLE = bytearray(range(256)) * (1 << 15)
_MASK = len(_TABLE) - 1


def burst() -> float:
    """Fixed interpreter work: method calls and scattered table reads.

    It creates no object the garbage collector tracks, so no collection
    of the program's objects can start inside it.
    """
    points = _POINTS
    table = _TABLE
    key = 1
    total = 0.0
    for i in range(_ITERATIONS):
        key = (key * 7919 + i) % 1021
        total += table[(key * 40503 + i * 2654435761) & _MASK]
        total += points[i & 63].dot(points[key & 63])
    return total


class HostSpeed:
    """Samples the host's speed with :func:`burst` until :meth:`stop`."""

    def __init__(self) -> None:
        self.starts: list = []
        self.times: list = []
        burst()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        burst()
        self.starts.append(started)
        self.times.append(time.perf_counter() - started)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _window(self, start: float, end: float):
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return lo, hi

    def own_s(self, start: float, end: float) -> float:
        """Host seconds the bursts took inside ``[start, end]``."""
        lo, hi = self._window(start, end)
        return sum(self.times[lo:hi])

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per host second over ``[start, end]``.

        The mean burst, leaving out bursts over :data:`_OUTLIER` times
        the median: a burst the host preempted for milliseconds.
        """
        lo, hi = self._window(start, end)
        while hi - lo < _MIN_BURSTS and (lo > 0 or hi < len(self.times)):
            lo = max(0, lo - 1)
            hi = min(len(self.times), hi + 1)
        window = self.times[lo:hi]
        cap = _OUTLIER * statistics.median(window)
        return REFERENCE_S / statistics.fmean(t for t in window if t <= cap)
