"""Speed calibration: express timed intervals in reference seconds.

The CPU speed of the hosts this benchmark runs on drifts by a quarter or
more, both within a second and over minutes, so raw wall times of the same
work spread by 20-40% between runs.  While intervals are timed, a timer
signal runs a short fixed kernel every PERIOD_S and records how long it
took.  An interval's time in reference seconds is its wall time, less the
probes that ran inside it, times ``REF_S / k``: ``k`` is the mean probe
time within WINDOW_S of the interval and REF_S the probe time at the
reference speed.  On a host drifting like this, that took the spread of a
repeated 3.6 s chunk of ``hessian_L`` work from 0.34 to 0.08.

The kernel mimics the program's inner loops (small numpy products and
reductions driven from Python) and uses nothing from attninv, so a change
to the program cannot move it.  Probes cost about 1% of the time.
"""
from __future__ import annotations

import signal
import time
from array import array

import numpy as np

PERIOD_S = 0.05
WINDOW_S = 0.25
REPS = 100
# Probe time at the reference speed, about the usual speed of the 2-CPU
# host the bounds were measured on; it sets the scale of reported times
# and nothing else.
REF_S = 0.00045

_A = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
_B = _A.T.copy()


def kernel() -> None:
    acc = 0.0
    for _ in range(REPS):
        acc += float(np.exp((_A @ _B) * 0.01).sum())


class Sampler:
    """Probes the speed while active and rescales the intervals timed
    with ``begin``/``end``.  Use as a context manager around all timed
    work; it keeps probing WINDOW_S past the last interval on exit."""

    def __init__(self):
        self.mid = array("d")   # probe midpoints, perf_counter seconds
        self.dur = array("d")   # probe durations
        self.intervals: list[tuple[float, float, int, int]] = []
        self._previous = None

    def _probe(self, signum, frame) -> None:
        t = time.perf_counter()
        kernel()
        e = time.perf_counter()
        self.mid.append(0.5 * (t + e))
        self.dur.append(e - t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        try:
            if self.intervals and exc[0] is None:
                rest = self.intervals[-1][1] + WINDOW_S - time.perf_counter()
                if rest > 0:
                    time.sleep(rest)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)

    def begin(self) -> tuple[int, float]:
        return len(self.dur), time.perf_counter()

    def end(self, token: tuple[int, float]) -> int:
        """Close the interval opened by ``begin``; returns its index."""
        end = time.perf_counter()
        first, start = token
        self.intervals.append((start, end, first, len(self.dur)))
        return len(self.intervals) - 1

    def rescale(self) -> list[tuple[float, float]]:
        """(reference seconds, speed factor) of every interval, in order."""
        mid = np.array(self.mid)
        dur = np.array(self.dur)
        out = []
        for start, end, first, last in self.intervals:
            near = dur[(mid >= start - WINDOW_S) & (mid <= end + WINDOW_S)]
            if near.size == 0:
                near = dur[[np.argmin(np.abs(mid - 0.5 * (start + end)))]]
            factor = REF_S / float(near.mean())
            out.append(((end - start - float(dur[first:last].sum())) * factor, factor))
        return out
