"""Host-speed normalisation of the benchmark's timings.

The shared virtual machines the benchmark runs on change speed by up to a
factor of 1.7 over minutes, as other tenants come and go.  A median over a
whole run absorbs the fast swings but not these slow ones, which would make
two sets of runs of the same code disagree by more than any useful bound.

So between timed operations the benchmark times a fixed reference
computation that does not touch the program -- heap and dict churn in pure
Python plus small NumPy array arithmetic, the simulator's mix -- and scales
each timing by ``REFERENCE_S`` over the mean of the two probes around it.
A timing is then the seconds the operation would take on a host where the
probe takes ``REFERENCE_S``: a slower program still reads slower, while the
host's own drift cancels.  Over 30-second windows on a 2-vCPU VM, the raw
median of a plume simulation varied 1.56x between windows and the
normalised median 1.16x; the probe and the simulation slowed together
(correlation 0.95).
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import List, Tuple

import numpy as np

#: The probe's median seconds on the 2-vCPU VM the benchmark was tuned on
#: (CPython 3.11, NumPy on one thread); timings are reported at this speed.
REFERENCE_S = 0.16


def _reference_work() -> float:
    heap: List[int] = []
    counts = {}
    for index in range(60_000):
        heapq.heappush(heap, (index * 7919) % 10_007)
        counts[index % 977] = counts.get(index % 977, 0.0) + index * 0.5
    while heap:
        heapq.heappop(heap)
    values = np.arange(20_000, dtype=float)
    for _ in range(200):
        values = np.sqrt(values * values + 1.0)
    return float(values[-1]) + sum(counts.values())


class HostClock:
    """Scales each timing by the host's speed around it.

    Call ``probe()`` before timing, ``record(samples, seconds)`` for each
    timing, and ``probe()`` again: the second probe appends every timing
    recorded since the first to its ``samples`` list, scaled to the
    reference speed.  A run ends with a probe, so nothing stays pending.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []
        self._pending: List[Tuple[List[float], float]] = []
        _reference_work()  # warm up before the first probe counts

    def probe(self) -> None:
        """Time the reference computation (twice, about 0.16 s) now."""
        start = time.perf_counter()
        _reference_work()
        _reference_work()
        seconds = time.perf_counter() - start
        if self._pending:
            factor = REFERENCE_S / ((self.probes[-1] + seconds) / 2.0)
            for samples, raw in self._pending:
                samples.append(raw * factor)
            self._pending.clear()
        self.probes.append(seconds)

    def record(self, samples: List[float], seconds: float) -> None:
        """Queue ``seconds``, timed since the latest probe, for ``samples``."""
        if not self.probes:
            raise RuntimeError("record() before the first probe()")
        self._pending.append((samples, seconds))

    def median_probe(self) -> float:
        return float(statistics.median(self.probes))
