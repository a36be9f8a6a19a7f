"""Wall time corrected for the host's momentary speed.

On a machine shared with other tenants the same job can take 50% longer
from one minute to the next, with CPU time equal to wall time: the
processor itself runs slower while neighbours load it. `SpeedClock`
samples that speed while a call runs. A SIGALRM timer fires every
`INTERVAL_S`, and its handler times a fixed probe kernel (stdlib
`Fraction` arithmetic and tuple-keyed dict updates, the same kinds of
work the engine does, but no code of the package). The call's wall time
is cut into segments at the probes; each segment is scaled by
`REFERENCE_PROBE_S` over the mean duration of the two probes that bound
it, and the probes' own time is left out. The sum is the call's time in
reference seconds: the seconds it would take on a host where one probe
takes `REFERENCE_PROBE_S`. A slower program still reads slower, since
the probe does not depend on the package.

Only the benchmark's own process is measured; nothing on the machine is
changed.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_PROBE_S = 0.001
INTERVAL_S = 0.01

_rng = random.Random(0)
_KEYS = [tuple(_rng.randrange(6) for _ in range(_rng.randrange(3, 12)))
         for _ in range(1500)]


def _kernel():
    x = Fraction(1, 3)
    for i in range(1, 120):
        x = x * Fraction(i % 7 + 1, i % 11 + 2) + Fraction(1, i)
        if x.denominator > 10 ** 40:
            x = Fraction(1, i)
    counts = {}
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + 1
    return x, len(counts)


class SpeedClock:
    def __init__(self):
        self.probe_seconds = []     # every probe taken, for the report
        self._marks = []            # (start, end) of the probes of one call
        for _ in range(50):
            _kernel()

    def _probe(self, *_):
        # a collection started by the probe's allocations would traverse
        # the program's heap, so the probe runs with the collector off
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _kernel()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self._marks.append((start, end))
        self.probe_seconds.append(end - start)

    def time(self, fn):
        """Call fn(); return (its result, wall seconds, reference seconds),
        both without the probes' own time."""
        marks = self._marks
        marks.clear()
        self._probe()
        previous = signal.signal(signal.SIGALRM, self._probe)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        self._probe()
        wall = ref = 0.0
        for (s0, e0), (s1, e1) in zip(marks, marks[1:]):
            segment = min(s1, end) - max(e0, start)
            if segment > 0:
                wall += segment
                ref += segment * 2 * REFERENCE_PROBE_S / ((e0 - s0) + (e1 - s1))
        return result, wall, ref

    def median_probe_s(self) -> float:
        return statistics.median(self.probe_seconds)
