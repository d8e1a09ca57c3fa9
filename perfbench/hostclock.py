"""Host time normalized to a reference host speed.

The simulator is single-threaded pure Python, and a shared host runs it
at a speed that drifts by up to 2x within a minute, mostly through
neighbours contending for caches and memory.  Raw wall times then
differ more between runs than the changes the benchmark must resolve.

Every unit of timed work is therefore bracketed by a fixed calibration
loop of the same kind of code: heap and dict updates driven by a
pointer chase through a shuffled 2^18-entry list, so it misses caches
the way the simulator's cache model and event heap do.  It allocates no
containers, so the garbage collector never runs inside it.  A unit's
*normalized* time is its wall time scaled by ``REFERENCE_SECONDS`` over
the mean of the two calibrations around it: the seconds the unit would
take on a host that runs the calibration loop in ``REFERENCE_SECONDS``.
On a 2-vCPU VM this cut the spread of 20 s medians from about 22% to
2-5%.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from time import perf_counter
from typing import Dict, List, Tuple

#: Calibration loop length, table size, and the loop's duration on the
#: reference host.
CALIBRATION_ITERATIONS = 20_000
TABLE_BITS = 18
REFERENCE_SECONDS = 0.015


def calibrate(table: List[int]) -> float:
    """Wall seconds of one pass of the calibration loop over ``table``."""
    mask = len(table) - 1
    heap: List[int] = []
    counts: Dict[int, int] = {}
    index = 1
    start = perf_counter()
    for i in range(CALIBRATION_ITERATIONS):
        index = table[(index + i) & mask]
        heappush(heap, index & 1023)
        counts[index & 4095] = counts.get(index & 4095, 0) + i
        if len(heap) > 64:
            heappop(heap)
    return perf_counter() - start


class HostClock:
    """Accumulates raw and normalized seconds of the work it runs."""

    def __init__(self) -> None:
        self._table = list(range(1 << TABLE_BITS))
        random.Random(TABLE_BITS).shuffle(self._table)
        self._last = calibrate(self._table)
        self.calibrations = [self._last]
        self.raw = 0.0
        self.normalized = 0.0

    def run(self, fn, *args):
        """Call ``fn(*args)``, timing it; returns its result."""
        start = perf_counter()
        result = fn(*args)
        raw = perf_counter() - start
        after = calibrate(self._table)
        self.raw += raw
        self.normalized += raw * REFERENCE_SECONDS / ((self._last + after) / 2)
        self._last = after
        self.calibrations.append(after)
        return result

    def take(self) -> Tuple[float, float]:
        """``(raw, normalized)`` seconds since the last take."""
        totals = (self.raw, self.normalized)
        self.raw = self.normalized = 0.0
        return totals
