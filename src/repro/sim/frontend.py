"""Admission counters and stream merging shared by every trace replay.

Requests are admitted into the device by one engine,
:class:`repro.host.interface.MultiQueueFrontend`: closed loop at a
bounded queue depth (NCQ style, a completion frees a slot) or open loop at
the trace's (scaled) arrival times.  This module keeps the pieces that do
not depend on the host layer: the :class:`FrontendStats` an admission run
reports, and :func:`interleave_streams` for building multi-tenant mixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple

#: Legacy alias: one host request as a bare tuple.
Request = Tuple[str, int, int]


@dataclass
class FrontendStats:
    """Counters describing one admission run."""

    submitted: int = 0
    completed: int = 0
    max_outstanding: int = 0
    #: Completion time of the last request (us).
    finished_at_us: float = 0.0


def interleave_streams(*streams: Iterable[Request]) -> Iterator[Request]:
    """Round-robin merge of several request streams (multi-tenant mixes).

    Each tenant's stream keeps its internal order; exhausted streams drop
    out.  Combined with ``queue_depth > 1`` this is how a shared device
    serving several workloads at once is simulated.
    """
    iterators: List[Iterator[Request]] = [iter(stream) for stream in streams]
    while iterators:
        still_live: List[Iterator[Request]] = []
        for iterator in iterators:
            item = next(iterator, None)
            if item is None:
                continue
            yield item
            still_live.append(iterator)
        iterators = still_live
