"""The speed probe: a fixed piece of pure-Python work, timed between the
segments of a run, that tells how fast the machine runs Python just then.

On a shared machine the interpreter's speed drifts by a third or more over
seconds to minutes, whatever the program does (other tenants on the same
cores).  Best-of-rounds does not remove a slow phase that lasts a whole run,
and one run of the same work could read 1.7 s where the next read 2.6 s.
So every untraced timing is scaled to a reference speed: a segment that
took ``ns`` while the probe nearby took ``p`` is reported as
``ns * (REFERENCE_NS / p) ** e``, the time it would have taken where the
probe takes ``REFERENCE_NS``.  The probe never calls nimcore, so a change
to the program moves the scaled time as much as the raw time.

``e`` is the workload's elasticity: how far its time moves, in log terms,
when the probe's moves.  Code that spends more of its time in C (hashing,
numpy) slows down less than the probe's interpreter loop when the machine
is busy.  Each workload states its elasticity; it was measured as the
value that made the scaled throughput and latencies of runs at different
machine speeds agree best (see README.md).

The probe runs with the garbage collector off, so the size of the program's
heap does not change what it measures.
"""

from __future__ import annotations

import gc
import statistics
from bisect import bisect
from time import perf_counter_ns

# About the probe's time on the 2-core Xeon (2.1 GHz, Python 3.11) the
# benchmark was written on; it only fixes the scale of the reported times.
REFERENCE_NS = 700_000
INTERVAL_NS = 40_000_000  # at most one probe per 40 ms of timed work: ~2% of a run
NEIGHBOURS = 4  # probes around a segment whose median gives its local speed
BURST = 10  # probes at the start and the end of a run


def _kernel() -> int:
    """Grundy values of small subtraction-game positions, memoised on
    tuples: the tuple, dict, set and call traffic of nimcore's hot paths."""
    memo: dict[tuple, int] = {}

    def grundy(pos: tuple) -> int:
        value = memo.get(pos)
        if value is not None:
            return value
        seen = set()
        for i, h in enumerate(pos):
            for r in (1, 3, 4):
                if r <= h:
                    seen.add(grundy(tuple(sorted(pos[:i] + (h - r,) + pos[i + 1:]))))
        m = 0
        while m in seen:
            m += 1
        memo[pos] = m
        return m

    acc = 0
    for a in range(6):
        acc ^= grundy((a, 5, 7))
    return acc


class SpeedProbe:
    """Probe samples of one run, and the scaling of timed segments by them."""

    def __init__(self, elasticity: float = 1.0) -> None:
        self.elasticity = elasticity
        self.times: list[int] = []  # midpoint of each probe, ascending
        self.values: list[int] = []  # its duration
        self._last = 0

    def run(self, n: int = 1) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(n):
                t0 = perf_counter_ns()
                _kernel()
                t1 = perf_counter_ns()
                self.times.append((t0 + t1) // 2)
                self.values.append(t1 - t0)
        finally:
            if enabled:
                gc.enable()
        self._last = perf_counter_ns()

    def pace(self) -> None:
        """Called before each timed segment: probe if the last probe is
        ``INTERVAL_NS`` old."""
        if perf_counter_ns() - self._last >= INTERVAL_NS:
            self.run()

    def scaled(self, start_ns: int, ns: int) -> float:
        """``ns`` measured from ``start_ns`` on, at the reference speed."""
        i = bisect(self.times, start_ns + ns // 2)
        half = NEIGHBOURS // 2
        near = self.values[max(0, i - half):i + half]
        return ns * (REFERENCE_NS / statistics.median(near)) ** self.elasticity

    def factor(self) -> float:
        """The scale for a time measured while all the probes so far ran."""
        return (REFERENCE_NS / statistics.median(self.values)) ** self.elasticity
