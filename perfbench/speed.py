"""Machine-speed probes, and host time rescaled to a reference speed.

The benchmark machine is a small share of a busy host: the same fixed
Python loop runs up to 1.8x slower for stretches of several seconds to
minutes, depending on what its neighbours do.  Raw host seconds of one
run therefore move by far more than any bound a regression gate could
use.  A :class:`Speedometer` runs a short, fixed, interpreter-bound loop
between cells (never during one) and records how long it took; the
ratio to :data:`REFERENCE_PROBE_S` is the machine's *slowdown* at that
moment.  :meth:`Speedometer.scaled` turns a host-time interval into
reference seconds — the integral of ``dt / slowdown(t)`` — with the
probes' own time taken out.

The loop depends on nothing in the repository, so no change to the
simulator can move it: a faster simulator shows as fewer reference
seconds, exactly as it would in raw host seconds on a quiet machine.
"""

from __future__ import annotations

import bisect
import statistics
import time

# Probe duration that counts as slowdown 1.0 (the benchmark machine's
# quiet-state speed, rounded).  Any constant works for comparing two
# commits on one machine; this one keeps reference seconds close to
# host seconds there.
REFERENCE_PROBE_S = 0.005

# Minimum host time between two probes between cells (~2.5% overhead).
PROBE_SPACING_S = 0.2

# The slowdown at an instant is the median of this many nearest probes.
NEAREST = 5

# Integration step for scaled(); intervals are split into at most
# MAX_STEPS pieces.
STEP_S = 0.05
MAX_STEPS = 400


def _probe_loop() -> int:
    """Fixed interpreter-bound work: list indexing, dict stores and
    integer arithmetic, the flavour of the simulator's inner loops."""
    table = list(range(64))
    seen: dict[int, int] = {}
    acc = 0
    for i in range(30_000):
        key = i & 63
        acc = (acc + table[key] * 3) & 0xFFFF
        seen[key] = acc
    return acc


class Speedometer:
    """Probe marks of one run and the conversion to reference seconds.

    A disabled speedometer never probes, and :meth:`scaled` then returns
    plain host seconds.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._times: list[float] = []        # probe midpoints, ascending
        self._slowdowns: list[float] = []
        self._starts: list[float] = []

    def probe(self, count: int = 1) -> None:
        """Run *count* probes now."""
        if not self.enabled:
            return
        for _ in range(count):
            start = time.perf_counter()
            _probe_loop()
            end = time.perf_counter()
            self._times.append((start + end) / 2)
            self._slowdowns.append((end - start) / REFERENCE_PROBE_S)
            self._starts.append(start)

    def between_cells(self) -> None:
        """Probe if the last probe is more than PROBE_SPACING_S old."""
        if self.enabled and (not self._times or time.perf_counter()
                             - self._times[-1] >= PROBE_SPACING_S):
            self.probe()

    def median_slowdown(self) -> float:
        """Median slowdown over every probe so far (1.0 without any)."""
        return statistics.median(self._slowdowns) if self._slowdowns \
            else 1.0

    def slowdown(self, at: float) -> float:
        """Median slowdown of the NEAREST probes around time *at*."""
        count = len(self._times)
        if count == 0:
            return 1.0
        right = bisect.bisect_left(self._times, at)
        left = right
        picked: list[float] = []
        while len(picked) < min(NEAREST, count):
            take_left = left > 0 and (
                right >= count
                or at - self._times[left - 1] <= self._times[right] - at)
            if take_left:
                left -= 1
                picked.append(self._slowdowns[left])
            else:
                picked.append(self._slowdowns[right])
                right += 1
        return statistics.median(picked)

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the host interval [*start*, *end*],
        without the time probes inside it took."""
        if not self._times:
            return end - start
        steps = max(1, min(MAX_STEPS, int((end - start) / STEP_S)))
        width = (end - start) / steps
        total = sum(width / self.slowdown(start + (step + 0.5) * width)
                    for step in range(steps))
        # A probe runs at the slowdown it measures, so each one inside
        # the interval took REFERENCE_PROBE_S reference seconds.
        inside = (bisect.bisect_left(self._starts, end)
                  - bisect.bisect_left(self._starts, start))
        return max(total - inside * REFERENCE_PROBE_S, 0.0)
