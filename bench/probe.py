"""Correction of measured times for host interference.

On a shared virtual machine the same pure-Python code runs up to twice as
slow from one moment to the next, in phases that can last tens of seconds,
and 15-second solves of one input differ by 30% between runs.  Raw times
cannot hold a bound of a few percent.

``SpeedProbe`` times a fixed loop every 5 ms (SIGALRM, so it runs in the
main thread between bytecodes).  ``window(t0, t1)`` gives the interval's own
time (without the probes), the mean probe time around it, and the own time
rescaled to a fixed probe time:

    s = own * REFERENCE_PROBE_S / mean probe time

That is the time the interval would have taken had the interpreter run
throughout at the speed at which the probe takes ``REFERENCE_PROBE_S``, its
uncontended time on the 2-core VM this benchmark was defined on.  Only the
ratio own / probe is measured; the constant turns it back into seconds of
that machine.  A change to the program moves the own time and not the probe.

The loop is a few Weiszfeld sweeps in plain floats, the instruction mix of
the placement layer that dominates the solves; interference slows such float
code far more than an integer loop.  Over ten runs of the uniqueness-square
workload (the same work on every seed), pass times spread by 14% raw and by
5% corrected (quartile distance over median).  Code inside one long native
call is not sampled until the call returns, and a change that slows the
probe (say, by evicting its data from the caches) partly hides itself.
"""
from __future__ import annotations

import math
import signal
import statistics
from bisect import bisect_left
from time import perf_counter

INTERVAL_S = 0.005
REFERENCE_PROBE_S = 55e-6
PAD_S = 0.05        # short ops borrow the probes just before and after them
TERMINALS = [(0.1 * i, 0.37 * i % 1.3) for i in range(6)]
INCIDENT = [[(1.0, 0), (0.7, 1), (0.5, 6)], [(1.0, 2), (0.7, 3), (0.5, 5)]]


def weiszfeld_sweeps() -> None:
    pos = [[0.5, 0.5], [0.8, 0.2]]
    for _ in range(25):
        for bi in range(2):
            nx = ny = den = 0.0
            x, y = pos[bi]
            for wi, other in INCIDENT[bi]:
                qx, qy = TERMINALS[other] if other < 6 else pos[other - 6]
                coef = wi / math.sqrt((x - qx) ** 2 + (y - qy) ** 2 + 1e-4)
                den += coef
                nx += coef * qx
                ny += coef * qy
            pos[bi][0] = nx / den
            pos[bi][1] = ny / den


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        t = perf_counter()
        weiszfeld_sweeps()
        self.starts.append(t)
        self.durations.append(perf_counter() - t)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted calls
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def window(self, t0: float, t1: float) -> dict[str, float]:
        """Own time of [t0, t1], the mean probe time around it, and the
        own time corrected to the reference probe time."""
        def durations(a: float, b: float) -> list[float]:
            return self.durations[bisect_left(self.starts, a):
                                  bisect_left(self.starts, b)]
        own = (t1 - t0) - sum(durations(t0, t1))
        probe = statistics.fmean(durations(t0 - PAD_S, t1 + PAD_S))
        return {"raw_s": t1 - t0, "own_s": own, "probe_s": probe,
                "s": own * REFERENCE_PROBE_S / probe}
