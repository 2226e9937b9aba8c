"""A deterministic time-ordered event loop (the heart of the sim engine).

The loop owns the simulated clock.  Components schedule :class:`Event`
objects at absolute times; the loop pops them in ``(time, priority,
schedule-order)`` order and invokes their callbacks.  Two events with the
same timestamp and priority always fire in the order they were scheduled,
which makes every simulation run bit-reproducible — a property the
regression tests rely on when comparing the event-driven engine against the
synchronous fast path.

The design follows the classic discrete-event simulator split used by
WiscSee and FTL-SIM: an ``EventLoop`` plus a host frontend
(:class:`repro.host.interface.MultiQueueFrontend`) that admits requests at
a configurable queue depth or at trace arrival times, and resource
schedulers (:mod:`repro.sim.nand`) that serialize operations on shared
hardware.

Queue layout
------------

Most events in a replay are fixed-latency NAND completions, so many share
the exact same timestamp.  Instead of one global heap entry per event, the
loop keeps a *calendar* of per-timestamp buckets: a small heap of distinct
fire times plus, for each time, a slot holding that instant's events ordered
by ``(priority, seq)``.  A full trace replay then pays one time-heap
operation per distinct timestamp rather than per event, and ``run()``
dispatches a whole same-timestamp batch without re-consulting the time
heap.  Events scheduled *at the current instant* by a firing callback land
in the live bucket and are interleaved by ``(priority, seq)`` exactly as
the single-heap implementation interleaved them, so the processed-event
order — and therefore every digest — is unchanged.

``Event`` is a plain ``__slots__`` class, and events that fire inside
``run()`` are recycled through a free list: production code never retains
an event past its callback (``schedule()``'s return value is only used by
tests, pre-fire), so recycling is invisible outside the loop.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

#: Canonical event priorities.  Same-timestamp events fire in ascending
#: priority order, so foreground request handling always precedes background
#: completion bookkeeping, which precedes garbage-collection pipeline steps.
#: Keeping the ordering in one place makes the interleaving semantics of the
#: whole simulator auditable (and deterministic by construction).
PRIORITY_FOREGROUND = 0
PRIORITY_BACKGROUND = 1
PRIORITY_GC = 2


class SimulationLimitError(RuntimeError):
    """``EventLoop.run()`` hit its ``max_events`` backstop mid-simulation.

    A silent stop would truncate the replay and corrupt every derived
    statistic, so the loop fails loudly instead.  ``events_processed``
    carries how many events the interrupted ``run()`` call had dispatched.
    """

    def __init__(self, max_events: int, events_processed: int) -> None:
        super().__init__(
            f"event loop exceeded {max_events} events "
            f"({events_processed} processed in this run); the simulation is "
            "incomplete — raise max_events or shorten the trace"
        )
        self.max_events = max_events
        self.events_processed = events_processed


class Event:
    """One scheduled occurrence in simulated time.

    Attributes
    ----------
    time_us:
        Absolute simulated time at which the event fires.
    kind:
        Free-form tag (``"request_issue"``, ``"gc_program_done"``, ...)
        used by tests and tracing.
    callback:
        Invoked as ``callback(event)`` when the event fires; ``None`` makes
        the event a pure timestamp marker.
    payload:
        Arbitrary data carried to the callback.
    priority:
        Tie-breaker for same-timestamp events; lower fires first.
    seq:
        Monotonic schedule order, assigned by the loop (final tie-breaker).
    """

    __slots__ = ("time_us", "kind", "callback", "payload", "priority", "seq", "cancelled")

    def __init__(
        self,
        time_us: float,
        kind: str,
        callback: Optional[Callable[["Event"], None]] = None,
        payload: object = None,
        priority: int = 0,
        seq: int = -1,
        cancelled: bool = False,
    ) -> None:
        self.time_us = time_us
        self.kind = kind
        self.callback = callback
        self.payload = payload
        self.priority = priority
        self.seq = seq
        self.cancelled = cancelled

    def cancel(self) -> None:
        """Prevent the callback from running when the event fires."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(time_us={self.time_us!r}, kind={self.kind!r}, "
            f"priority={self.priority!r}, seq={self.seq!r})"
        )


class EventLoop:
    """A time-ordered event queue with a monotonic simulated clock."""

    def __init__(self, start_us: float = 0.0) -> None:
        self._now_us = start_us
        #: Heap of distinct fire times; one entry per live bucket.
        self._times: List[float] = []
        #: fire time -> heap of (priority, seq, event) slots.
        self._buckets: Dict[float, List[Tuple[int, int, Event]]] = {}
        self._pending = 0
        self._seq = 0
        #: Recycled Event objects (filled by ``run()``, drained by ``schedule``).
        self._pool: List[Event] = []
        self.events_processed = 0
        #: Called with every processed event, before its callback runs.
        #: The determinism harness (:mod:`repro.verify`) hangs a trace
        #: digest here; ``None`` keeps the hot path branch-only.
        self.observer: Optional[Callable[[Event], None]] = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def now_us(self) -> float:
        """Current simulated time (time of the last processed event)."""
        return self._now_us

    @property
    def pending(self) -> int:
        """Number of events still scheduled (cancelled ones included)."""
        return self._pending

    def __len__(self) -> int:
        return self._pending

    def chain_observer(self, fn: Callable[[Event], None]) -> None:
        """Attach ``fn`` as an observer without displacing the current one.

        The determinism harness installs a digest observer and the
        power-fail injector installs a crash timer; chaining lets both see
        every event (existing observer first, then ``fn``) so crash points
        land at identical event indices with or without digesting.
        """
        current = self.observer
        if current is None:
            self.observer = fn
            return

        def chained(event: Event, _first: Callable[[Event], None] = current) -> None:
            _first(event)
            fn(event)

        self.observer = chained

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def schedule(
        self,
        time_us: float,
        kind: str,
        callback: Optional[Callable[[Event], None]] = None,
        payload: object = None,
        priority: int = 0,
    ) -> Event:
        """Schedule an event at ``time_us`` (clamped to the present).

        Scheduling in the past would make the clock run backwards, so such
        requests are clamped to ``now_us`` — they fire "immediately", after
        any event already scheduled for the current instant.
        """
        now = self._now_us
        fire_at = time_us if time_us >= now else now
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time_us = fire_at
            event.kind = kind
            event.callback = callback
            event.payload = payload
            event.priority = priority
            event.seq = seq
            event.cancelled = False
        else:
            event = Event(
                time_us=fire_at,
                kind=kind,
                callback=callback,
                payload=payload,
                priority=priority,
                seq=seq,
            )
        bucket = self._buckets.get(fire_at)
        if bucket is None:
            self._buckets[fire_at] = [(priority, seq, event)]
            heapq.heappush(self._times, fire_at)
        else:
            heapq.heappush(bucket, (priority, seq, event))
        self._pending += 1
        return event

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def step(self) -> Optional[Event]:
        """Process the next event; returns it, or ``None`` if queue is empty.

        Events returned here are never recycled — callers (tests, mostly)
        may keep them.
        """
        times = self._times
        buckets = self._buckets
        while times:
            time_us = times[0]
            bucket = buckets.get(time_us)
            if not bucket:
                heapq.heappop(times)
                if bucket is not None:
                    del buckets[time_us]
                continue
            _, _, event = heapq.heappop(bucket)
            self._pending -= 1
            if event.cancelled:
                continue
            self._now_us = time_us
            self.events_processed += 1
            if self.observer is not None:
                self.observer(event)
            if event.callback is not None:
                event.callback(event)
            return event
        return None

    def run(self, until_us: Optional[float] = None, max_events: int = 50_000_000) -> int:
        """Drain the queue (optionally only up to ``until_us``); returns count.

        Dispatches bucket-at-a-time: all events sharing a timestamp fire in
        one inner loop without touching the time heap.  ``max_events`` is a
        runaway-loop backstop, far above anything a real trace replay
        schedules; hitting it raises :class:`SimulationLimitError` rather
        than silently returning a truncated simulation.
        """
        processed = 0
        times = self._times
        buckets = self._buckets
        pool = self._pool
        while times and processed < max_events:
            time_us = times[0]
            bucket = buckets.get(time_us)
            if not bucket:
                heapq.heappop(times)
                if bucket is not None:
                    del buckets[time_us]
                continue
            if bucket[0][2].cancelled:
                # Drop cancelled entries first so the time bound is checked
                # against the next event that would actually fire.
                heapq.heappop(bucket)
                self._pending -= 1
                continue
            if until_us is not None and time_us > until_us:
                break
            # Batched dispatch: drain this instant's bucket.  Callbacks may
            # schedule more events at the current time; they join this same
            # bucket and are interleaved by (priority, seq) as always.
            self._now_us = time_us
            while bucket and processed < max_events:
                _, _, event = heapq.heappop(bucket)
                self._pending -= 1
                if event.cancelled:
                    continue
                self.events_processed += 1
                processed += 1
                if self.observer is not None:
                    self.observer(event)
                callback = event.callback
                if callback is not None:
                    callback(event)
                # The event is dead; recycle it (nothing outside the loop
                # holds events fired by run()).
                event.callback = None
                event.payload = None
                pool.append(event)
            if not bucket:
                del buckets[time_us]
                heapq.heappop(times)
        if processed >= max_events:
            raise SimulationLimitError(max_events, processed)
        return processed
