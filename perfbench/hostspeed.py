"""Host-speed probe: scales measured times to one reference host speed.

The benchmark runs on a small VM shared with other tenants.  There the
speed at which the same Python code runs drifts by up to 2x over tens of
seconds.  On the baseline machine ``derive_region("cmg", "chain")`` took
from 0.86 s to 1.65 s over 94 repeats in 150 s, and a run of a workload
could be a third slower or faster than the run before it.  Process CPU
time (``time.process_time``) drifts just as much, so the slowdown is not
time the hypervisor takes away from the VM: over 90 s of repeated
``cmg-subset-hod`` samples, the quartile spread of 8-sample blocks was
17.3% in wall time and 16.0% in process time.

The probe is a fixed piece of work that does not touch icregions: exact
rational arithmetic, as in the LP, and NumPy marginal entropies of a
131 072-cell table, as in ``dist``.  The benchmark runs it between package
calls, and inside long calls at a point the workload names, at most once
a second.  Each stretch of work between two probes is scaled by
REFERENCE_S over the mean of those two probes; the probes' own time is
left out.  The result is the time the work would take on a host where
the probe takes REFERENCE_S.  The exact and the NumPy parts take about the same time, which tracked every
workload best.  In a 3-minute test, scaling cut the variation of 16-s
averages from 7.1% to 2.5% for derivations, from 7.3% to 4.4% for claim
samples and from 7.8% to 4.1% for the search.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Median probe time on the baseline machine (see README.md).  It only sets
# the scale of the reported times; changing it rescales every baseline.
REFERENCE_S = 0.015
EVERY_S = 1.0  # at most one probe per second of calls
REPEATS = 3  # a probe is the median of this many kernel runs

clock = time.perf_counter


def _kernel() -> float:
    import numpy as np  # imported here so that run.py can pin BLAS threads first

    start = clock()
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, i % 7 + 1)
        acc -= Fraction(i % 13, 17)
    p = np.linspace(1.0, 2.0, 2 * 4**8).reshape((2,) + (4,) * 8)
    p /= p.sum()
    for _ in range(3):
        for axes in ((0, 1, 2, 3), (4, 5, 6), (1, 3, 5, 7), (0, 2, 8)):
            m = p.sum(axis=axes)
            acc += Fraction(float(-(m * np.log2(m)).sum()))
    return clock() - start


class HostSpeed:
    def __init__(self):
        self.probes = []  # (start, end, median kernel seconds), in time order
        self._last = float("-inf")

    def probe(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # the package's live objects must not slow the probe
        start = clock()
        try:
            kernel_s = statistics.median(_kernel() for _ in range(REPEATS))
        finally:
            if enabled:
                gc.enable()
        self._last = clock()
        self.probes.append((start, self._last, kernel_s))

    def due(self) -> bool:
        return clock() - self._last >= EVERY_S

    def speed(self) -> float:
        """Host speed relative to the reference: REFERENCE_S over the median
        probe (below 1 on a slower host)."""
        return REFERENCE_S / statistics.median(k for _, _, k in self.probes)

    def duration(self, start: float, end: float) -> float:
        """Time in [start, end] outside the probes, each stretch between two
        probes multiplied by REFERENCE_S over their mean.  The interval must
        lie between the first and the last probe."""
        total = 0.0
        for (_, gap_start, k0), (gap_end, _, k1) in zip(self.probes, self.probes[1:]):
            overlap = min(end, gap_end) - max(start, gap_start)
            if overlap > 0:
                total += overlap * 2 * REFERENCE_S / (k0 + k1)
        return total
