"""How fast the machine runs right now, from a fixed reference loop.

Other tenants of a shared machine slow every process on it, often by a
third or more and in phases that last from seconds to minutes, so a run
that falls in a slow phase is slow from start to end and no statistic
over its own repetitions recovers.  The benchmark therefore times a fixed
pure-Python loop at regular points of the work it measures; the loop slows
with the machine, and host timings are scaled by its time over
:data:`IDLE_S`, its time on the idle machine.  The program under test never runs in the loop,
so a change to the program moves the scaled timings in full.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List

#: Time of :func:`reference_seconds` on the idle machine that recorded the
#: baseline (2-vCPU x86_64 VM, CPython 3.11.7).
IDLE_S = 0.0025


class _Device:
    __slots__ = ("busy", "table", "hits")

    def __init__(self) -> None:
        self.busy = [0.0] * 8
        self.table: Dict[int, float] = {}
        self.hits = 0

    def submit(self, lpa: int, now: float) -> float:
        channel = lpa & 7
        start = now if now > self.busy[channel] else self.busy[channel]
        self.busy[channel] = start + 25.0
        if lpa in self.table:
            self.hits += 1
        self.table[lpa] = start
        return start + 25.0


def reference_seconds() -> float:
    """Time a fixed loop shaped like the simulator's work.

    An event heap, a slotted device object and a dict-backed table: the
    operations the simulator spends its time on, in a fixed amount.
    """
    started = time.perf_counter()
    device = _Device()
    heap = [(0.0, slot) for slot in range(8)]
    lpa = 12345
    for _ in range(4000):
        now, slot = heapq.heappop(heap)
        lpa = (lpa * 1103515245 + 12345) & 0xFFFF
        heapq.heappush(heap, (device.submit(lpa, now), slot))
    return time.perf_counter() - started


class SpeedProbe:
    """Reference-loop samples taken while some work runs."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, count: int = 1) -> None:
        self.samples.extend(reference_seconds() for _ in range(count))

    @property
    def spent_s(self) -> float:
        """Wall time the samples took, to subtract from the work's time."""
        return sum(self.samples)

    @property
    def slowdown(self) -> float:
        """Mean sample time over the idle time (1.0 without samples)."""
        if not self.samples:
            return 1.0
        return sum(self.samples) / len(self.samples) / IDLE_S
