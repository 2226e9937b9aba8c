"""Event-driven simulation engine: event loop and NAND scheduling.

This package supplies the concurrency substrate of the SSD model:

* :class:`repro.sim.events.EventLoop` — deterministic time-ordered queue;
* :class:`repro.sim.nand.NANDScheduler` — per-channel-bus / per-die timing;
* :mod:`repro.sim.frontend` — admission counters and stream merging.

Requests are admitted by :class:`repro.host.interface.MultiQueueFrontend`.
:class:`repro.ssd.ssd.SimulatedSSD` uses these pieces when its
``queue_depth`` option exceeds 1, when the event engine is forced, or in
open-loop replay, letting foreground reads genuinely overlap background
flush and GC traffic.
"""

from repro.sim.events import Event, EventLoop, SimulationLimitError
from repro.sim.frontend import FrontendStats, interleave_streams
from repro.sim.nand import NANDScheduler, TIMING_MODELS

__all__ = [
    "Event",
    "EventLoop",
    "SimulationLimitError",
    "FrontendStats",
    "NANDScheduler",
    "TIMING_MODELS",
    "interleave_streams",
]
