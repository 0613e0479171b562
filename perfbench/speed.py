"""Scaling timings to a reference speed on a host whose speed drifts.

The 2-core VM this benchmark was written on runs the same pure-Python code
anywhere from 1x to 1.7x slower depending on what other tenants do, and
the speed changes within seconds. Raw repetition times then vary more from
run to run than the effects a change should show.

So while a repetition runs, an interval timer interrupts it every
``INTERVAL_S`` and the signal handler times ``reference_search``: a fixed
bitmask depth-first search, written here so that no change to the library
can change it, and built like the solver's kernel so that it slows down the
way the library does. The handler's own time is subtracted from the
repetition, and the repetition is reported as ``wall * REF_S / mean
(reference samples taken before, during and after it)``: the time it would
take on a machine where the reference search takes ``REF_S``. The mean, not
the median: the repetition's time includes every slow stretch, and so does
the mean of the samples; scaling by the median left a third of the drift in.
A short timing, reported as a median over many, is scaled by the median of
the samples nearest to it in time.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_S = 0.001       # reference-search time that timings are scaled to
INTERVAL_S = 0.025  # interval between samples during a repetition
NEAREST = 5         # samples that scale a short timing

# the triangular prism: 9 edges, 672 proper edge colorings with 4 colors
_PRISM = ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5))


def reference_search(t: int = 4) -> int:
    """Count the proper edge colorings of the prism with colors 1..t."""
    eu = [u for u, _ in _PRISM]
    ev = [v for _, v in _PRISM]
    used = [0] * 6
    full = (1 << t) - 1
    count = 0

    def extend(i: int) -> None:
        nonlocal count
        if i == len(_PRISM):
            count += 1
            return
        u, v = eu[i], ev[i]
        avail = full & ~(used[u] | used[v])
        while avail:
            bit = avail & -avail
            avail ^= bit
            used[u] |= bit
            used[v] |= bit
            extend(i + 1)
            used[u] ^= bit
            used[v] ^= bit

    extend(0)
    return count


class Speedometer:
    """Reference samples around and during one timed interval.

    ``on_sample(start, end)`` is told about each sample taken inside the
    interval, so a tracer can keep it out of the spans it interrupts.
    """

    def __init__(self, on_sample=None):
        self.on_sample = on_sample
        self.samples: list[tuple[float, float]] = []
        self._armed = False

    def _sample(self) -> None:
        t0 = time.perf_counter()
        reference_search()
        t1 = time.perf_counter()
        self.samples.append((t0, t1))
        if self._armed and self.on_sample is not None:
            self.on_sample(t0, t1)

    def _handler(self, signum, frame) -> None:
        if self._armed:
            self._sample()

    def start(self) -> None:
        self.samples = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def spent(self, t0: float, t1: float) -> float:
        """Time spent sampling inside [t0, t1]."""
        return sum(e - s for s, e in self.samples if s >= t0 and e <= t1)

    def factor(self) -> float:
        """REF_S over the mean sample: multiply a raw time by this."""
        return REF_S / statistics.fmean(e - s for s, e in self.samples)

    def scaled(self, t0: float, t1: float) -> float:
        """A short timing [t0, t1] without sampling, scaled by the samples
        nearest to it."""
        mid = (t0 + t1) / 2
        near = sorted(self.samples, key=lambda se: abs((se[0] + se[1]) / 2 - mid))
        ref = statistics.median(e - s for s, e in near[:NEAREST])
        return (t1 - t0 - self.spent(t0, t1)) * REF_S / ref


def timed(fn, on_sample=None):
    """Run ``fn()``; (result, raw seconds without sampling, Speedometer)."""
    meter = Speedometer(on_sample)
    meter.start()
    try:
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
    finally:
        meter.stop()
    return result, t1 - t0 - meter.spent(t0, t1), meter
