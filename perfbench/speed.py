"""Machine-speed probe: the host times of a run, scaled to a fixed speed.

On a shared host the speed of a CPU drifts while a run measures.  On a
shared 2-vCPU Linux virtual machine (Python 3.11), one job's time moved by
up to 30% within a minute, with nothing else running in the machine.  The probe times
a fixed routine that uses no radiosync code, between jobs.  A job's host
time is multiplied by NOMINAL_S / (the routine's time), averaged over the
probes just before and just after the job.  The result is the job's time at
the speed where the routine takes NOMINAL_S.
The run prints the raw host times as well.

The routine mixes what the simulator spends its time on: object
construction, sorting with key functions, set and dict updates, Fraction
arithmetic and JSON encoding.  The garbage collector is off while it runs,
so a large live heap left by the program cannot slow the probe.
"""

import gc
import json
import random
import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.0075  # the routine's time at the reference speed
PROBE_EVERY_S = 0.5  # at most this much job time between two probes


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def key(self):
        return (self.a, self.b)


def _routine():
    rng = random.Random(5)
    items = [_Item(rng.randint(0, 999), i) for i in range(6000)]
    items.sort(key=_Item.key)
    seen, groups = set(), {}
    for it in items:
        if it.a not in seen:
            seen.add(it.a)
            groups.setdefault(it.a % 97, []).append(it.b)
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i % 7, i)
    return len(json.dumps(sorted((k, len(v)) for k, v in groups.items()))) + total.numerator % 7


def probe() -> float:
    """Speed factor now: NOMINAL_S / the routine's time (median of three)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = perf_counter()
            _routine()
            times.append(perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return NOMINAL_S / statistics.median(times)


class Speed:
    """Probes between jobs; scales each job by the probes around it."""

    def __init__(self):
        probe()  # the first call warms caches the later ones find warm
        self.factors = [probe()]
        self._since = 0.0  # job time since the last probe
        self._pending = []  # raw times of jobs waiting for the next probe
        self.raw = []
        self.scaled = []

    def add(self, seconds):
        """Record one job's raw host time; probe when enough time passed."""
        self._pending.append(seconds)
        self._since += seconds
        if self._since >= PROBE_EVERY_S:
            self.flush()

    def flush(self):
        """Probe now and scale the jobs run since the previous probe.

        The heap is collected first, so that no job pays for collecting
        the garbage of the jobs before it.
        """
        gc.collect()
        before = self.factors[-1]
        self.factors.append(probe())
        factor = (before + self.factors[-1]) / 2
        self.raw.extend(self._pending)
        self.scaled.extend(t * factor for t in self._pending)
        self._pending = []
        self._since = 0.0

    @property
    def median_factor(self):
        return statistics.median(self.factors)
