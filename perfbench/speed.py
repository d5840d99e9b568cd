"""Machine speed, sampled all through the ops, to scale op times by.

The host this benchmark was built on switches between fast and slow phases
every few seconds, and one op (gadget35: about 4 s) can span several of
them. While a `Sampler` is entered, a SIGALRM handler times a small fixed
probe every PERIOD_S of wall time, inside the ops as well as between them.
Op times are the CPU time of the process (all its threads) and of the
children it reaps: time spent waiting for the CPU while something else ran
does not count. An op's scaled time is its CPU time, the probes that ran
inside it taken out, multiplied by the mean speed of the probes around it,
speed being PROBE_REFERENCE_S over the probe's own CPU time. A process CPU
timer (ITIMER_PROF) would spread the probes evenly over CPU time, but while
one is armed the kernel keeps the process's CPU clock only to the tick
(4 ms at 250 Hz); on a single-threaded, CPU-bound op, probes spread over wall
time are spread over its CPU time too.
"""

from __future__ import annotations

import resource
import signal
from bisect import bisect_left
from time import process_time, thread_time

PERIOD_S = 0.02
# An op's speed is the mean over at least this many probes: those inside
# it, and for a short op the nearest ones on each side.
MIN_PROBES = 16
# Scaled times are seconds on a machine where probe() takes this long.
PROBE_REFERENCE_S = 0.0005

# The Petersen graph, as neighbour lists.
_PETERSEN = (
    (1, 4, 5), (0, 2, 6), (1, 3, 7), (2, 4, 8), (0, 3, 9),
    (0, 7, 8), (1, 8, 9), (2, 5, 9), (3, 5, 6), (4, 6, 7),
)


def probe() -> int:
    """Fixed pure-Python work: counts the proper 3-colourings of the
    Petersen graph (120) by backtracking. Recursion, list indexing and bit
    tricks on ints, like the program's inner loops; it calls nothing in the
    program, so a change to the program cannot move it. Over 4 minutes its
    speed followed the program's (a 4 s gadget35 solve, a K5 decision)
    through the host's fast and slow phases to within 7%; a flat arithmetic
    loop missed by 16%."""
    color = [-1] * 10

    def extend(v: int) -> int:
        if v == 10:
            return 1
        used = 0
        for u in _PETERSEN[v]:
            if color[u] >= 0:
                used |= 1 << color[u]
        total = 0
        for c in range(3):
            if not (used >> c) & 1:
                color[v] = c
                total += extend(v + 1)
        color[v] = -1
        return total

    return extend(0)


def children_cpu_s() -> float:
    """CPU time of the child processes this process has reaped."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Sampler:
    """Probes the speed while entered; scales CPU-time intervals after."""

    def __init__(self) -> None:
        self.starts: list[float] = []    # process_time() at each probe's start
        self.speeds: list[float] = []    # PROBE_REFERENCE_S / probe CPU time
        self.spent: list[float] = [0.0]  # CPU time of the probes before each
        self._previous = None
        self._busy = False

    def sample(self) -> None:
        if self._busy:     # the timer fired during a probe
            return
        self._busy = True
        at = process_time()
        start = thread_time()
        try:
            probe()
        except RecursionError:
            # The op being sampled is at the recursion limit; the probe must
            # not be what pushes it over.
            return
        finally:
            self._busy = False
        end = thread_time()
        self.starts.append(at)
        self.speeds.append(PROBE_REFERENCE_S / max(end - start, 1e-9))
        self.spent.append(self.spent[-1] + end - start)

    def pad(self) -> None:
        """Probes enough to give every op probes on both sides."""
        for _ in range(MIN_PROBES // 2):
            self.sample()

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM,
                                       lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.pad()
        return self

    def __exit__(self, *exc) -> None:
        self.pad()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float, children_s: float = 0.0) -> float:
        """CPU time from process_time() `start` to `end`, probes taken out,
        plus `children_s`, at reference speed. A probe runs whole inside an
        op or whole outside it, so the probes inside are exactly those that
        started inside."""
        lo = bisect_left(self.starts, start)
        hi = bisect_left(self.starts, end)
        own = end - start - (self.spent[hi] - self.spent[lo]) + children_s
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.starts)):
            lo = max(0, lo - 1)
            hi = min(len(self.starts), hi + 1)
        window = self.speeds[lo:hi]
        return own * sum(window) / len(window)
