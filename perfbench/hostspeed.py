"""Scaling the benchmark's times to a reference host speed.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within seconds, as other tenants come and go. A fixed probe, written here
and independent of the program, runs between the program's operations,
outside their timing. It is shaped like the program's commonest inner loop,
a map checked against a Cayley table, because on the tuning host such a
probe tracked the program's search, query and word operations better than
a loop of plain arithmetic or dict updates: their time moved with its time
at a slope of 0.98-1.09, against 1.11-1.21. Each operation's time is
multiplied by REFERENCE_S / (mean of the probes just before and just after
it), which gives the seconds it would take on a host where one probe takes
REFERENCE_S. The program's own speed is untouched by this: only the host's
drift, which moves the probe and the program alike, cancels.
"""

from __future__ import annotations

import gc
import random
import statistics
from typing import List, Tuple

from spans import clock

REFERENCE_S = 0.0011       # one probe on the reference host
PROBE_EVERY_S = 0.01       # least time between two probes in a timed phase

_N = 64
_RNG = random.Random(0)
_TABLE = [_RNG.sample(range(_N), _N) for _ in range(_N)]
_IMAGES = tuple(_RNG.sample(range(_N), _N))


def probe() -> float:
    """Seconds for one fixed check of the automorphism and anti-automorphism
    laws of a 64-element map over a 64 x 64 table, with gc off so that the
    program's gc settings cannot change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        table, images, r = _TABLE, _IMAGES, range(_N)
        # Entries are below _N, so neither check stops early.
        all(images[table[a][b]] != table[images[a]][images[b]] + _N
            for a in r for b in r)
        all(images[table[a][b]] != table[images[b]][images[a]] + _N
            for a in r for b in r)
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def steady_probe(n: int = 5) -> float:
    """Median of n probes, for a single point in time."""
    return statistics.median(probe() for _ in range(n))


class HostSpeed:
    """Probes between operations and scales their times to the reference host.

    A timed phase calls record() with each operation's raw seconds; when
    at least every_s has passed since the last probe, record() probes. The
    time spent probing is kept in probe_s so that it can be left out of the
    phase's wall time.
    """

    def __init__(self, every_s: float = PROBE_EVERY_S) -> None:
        self.every_s = every_s
        self.probes: List[float] = [steady_probe()]
        self.ops: List[Tuple[float, int]] = []   # (raw seconds, probe before)
        self.probe_s = 0.0
        self.last = clock()

    def record(self, seconds: float) -> None:
        self.ops.append((seconds, len(self.probes) - 1))
        if clock() - self.last >= self.every_s:
            self._probe()

    def _probe(self) -> None:
        start = clock()
        self.probes.append(probe())
        self.last = clock()
        self.probe_s += self.last - start

    def finish(self) -> Tuple[List[float], float]:
        """Scaled operation times, and the median scale of the phase."""
        self._probe()
        scales = [2 * REFERENCE_S / (before + after)
                  for before, after in zip(self.probes, self.probes[1:])]
        return [t * scales[i] for t, i in self.ops], statistics.median(scales)
