"""The NVMe-style multi-queue host interface on top of the event loop.

Three pieces:

* :class:`SubmissionQueue` — one tenant stream feeding one namespace.
  Closed-loop queues pull their next request on demand (the stream is
  always backlogged, completion-driven); open-loop queues receive requests
  at their (scaled) trace timestamps via arrival events, the WiscSee-style
  trace replay.

* :class:`MultiQueueFrontend` — the simulator's one admission engine.  The
  device executes up to ``queue_depth`` commands concurrently (its
  NCQ/NVMe slots); every time a slot frees, the arbiter picks which
  eligible queue's head request is admitted.  Token-bucket throttled
  queues are not offered to the arbiter; a retry fires when their bucket
  refills.  :meth:`repro.ssd.ssd.SimulatedSSD.run` replays through it too:
  one queue on a whole-device
  :class:`~repro.host.namespace.DeviceNamespace`, closed loop at the
  configured depth or open loop with no slot cap.  With one queue every
  arbiter admits in the same order.

* :class:`HostInterface` — the user-facing object: carves namespaces out of
  one :class:`repro.ssd.ssd.SimulatedSSD`, builds queues for the tenant
  streams, runs the replay and returns per-tenant statistics.

Per-tenant latency is measured against the request's *ready time*: the
arrival timestamp for open-loop streams (so submission-queue waiting counts
— the quantity QoS arbitration actually improves) and the admission time
for closed-loop streams (service latency, matching the single-queue
engine's convention).
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

from repro.host.arbiter import Arbiter, TokenBucket, make_arbiter
from repro.host.namespace import Namespace, NamespaceStats
from repro.sim.events import Event, EventLoop, PRIORITY_FOREGROUND
from repro.sim.frontend import FrontendStats
from repro.workloads.multi_tenant import TenantWorkload
from repro.workloads.trace import IORequest, ReplayItem, as_request

if TYPE_CHECKING:
    from repro.ssd.ssd import SimulatedSSD

#: Valid submission-queue admission modes.
QUEUE_MODES = ("closed", "open")

#: What :meth:`HostInterface.run` replays: ``{namespace_name: stream}`` or
#: tenant specs.
Tenants = Union[Mapping[str, Iterable[ReplayItem]], Iterable[TenantWorkload]]


class SubmissionQueue:
    """One tenant's request stream, queued toward a namespace."""

    def __init__(
        self,
        namespace: Namespace,
        source: Iterable[ReplayItem],
        mode: str = "closed",
        time_scale: float = 1.0,
        name: Optional[str] = None,
    ) -> None:
        if mode not in QUEUE_MODES:
            raise ValueError(f"mode must be one of {QUEUE_MODES}")
        if time_scale <= 0.0:
            raise ValueError("time_scale must be positive")
        self.namespace = namespace
        self.name = name or namespace.name
        self.mode = mode
        self.time_scale = time_scale
        self._source: Iterator[ReplayItem] = iter(source)
        self._exhausted = False
        #: Requests that have arrived and wait for admission:
        #: ``(request, ready_us, enqueue_seq)``.
        self._pending: Deque[Tuple[IORequest, float, int]] = deque()
        #: Set by the frontend: allocates global enqueue sequence numbers.
        self._stamp: Optional[Callable[[], int]] = None
        #: Open-loop arrival anchoring.
        self._origin_us = 0.0
        self._first_timestamp: Optional[float] = None
        self._last_timestamp: Optional[float] = None
        #: Longest backlog observed (requests waiting, not yet admitted).
        self.max_backlog = 0
        #: True while the current head has already been counted as a
        #: rate-limit deferral (one count per request, not per attempt).
        self.head_deferred = False

    # Arbiter-facing attributes ----------------------------------------- #
    @property
    def weight(self) -> int:
        return self.namespace.weight

    @property
    def priority(self) -> int:
        return self.namespace.priority

    def head_key(self) -> Tuple[float, int]:
        """(ready_time, enqueue_seq) of the head — FIFO comparison key."""
        request, ready_us, seq = self._pending[0]
        return (ready_us, seq)

    # Frontend-facing API ------------------------------------------------ #
    def bind(self, stamp: Callable[[], int], origin_us: float) -> None:
        self._stamp = stamp
        self._origin_us = origin_us

    def next_source_request(self) -> Optional[IORequest]:
        """Pull the next request off the stream (None when exhausted)."""
        if self._exhausted:
            return None
        item = next(self._source, None)
        if item is None:
            self._exhausted = True
            return None
        return as_request(item)

    def arrival_time(self, request: IORequest) -> float:
        """Absolute arrival time of an open-loop request.

        Timestamps are taken relative to the stream's first timestamp and
        anchored at the replay origin, scaled by ``time_scale``.  A
        non-monotonic timestamp raises: silently reordering (or clamping)
        arrivals would misrepresent the offered load — sort the trace with
        :meth:`repro.workloads.trace.Trace.sorted_by_timestamp` first.
        """
        if self._first_timestamp is None:
            self._first_timestamp = request.timestamp_us
        if (
            self._last_timestamp is not None
            and request.timestamp_us < self._last_timestamp
        ):
            raise ValueError(
                f"queue {self.name!r}: non-monotonic trace timestamp "
                f"{request.timestamp_us} after {self._last_timestamp}; "
                "sort the trace (Trace.sorted_by_timestamp()) before replay"
            )
        self._last_timestamp = request.timestamp_us
        offset = max(0.0, request.timestamp_us - self._first_timestamp)
        return self._origin_us + offset * self.time_scale

    def enqueue(self, request: IORequest, ready_us: float) -> None:
        """An open-loop arrival joins the queue."""
        assert self._stamp is not None
        self._pending.append((request, ready_us, self._stamp()))
        if len(self._pending) > self.max_backlog:
            self.max_backlog = len(self._pending)

    def ensure_head(self, now_us: float) -> bool:
        """True when a head request is available for arbitration.

        Closed-loop queues materialise their head lazily: the stream is
        always backlogged, so the head becomes ready the moment admission
        considers it.
        """
        if self._pending:
            return True
        if self.mode == "closed":
            request = self.next_source_request()
            if request is None:
                return False
            assert self._stamp is not None
            self._pending.append((request, now_us, self._stamp()))
            return True
        return False

    def pop(self) -> Tuple[IORequest, float]:
        """Remove and return the head: ``(request, ready_us)``."""
        request, ready_us, _ = self._pending.popleft()
        self.head_deferred = False
        return request, ready_us

    @property
    def backlog(self) -> int:
        return len(self._pending)


class MultiQueueFrontend:
    """Admits requests from several submission queues into one device.

    ``queue_depth`` is the number of device slots; ``math.inf`` admits
    every request the moment it is ready (open-loop replay with no cap).
    Only the device's ``submit(op, lpa, npages, at_us) -> finish_us`` is
    called.
    """

    def __init__(
        self,
        device: SimulatedSSD,
        loop: EventLoop,
        queues: Sequence[SubmissionQueue],
        arbiter: Arbiter,
        queue_depth: float,
    ) -> None:
        if queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        if not queues:
            raise ValueError("at least one submission queue is required")
        self._device = device
        self._loop = loop
        self._queues = list(queues)
        self._arbiter = arbiter
        self._queue_depth = queue_depth
        self._outstanding = 0
        #: Slots reserved by scheduled-but-not-yet-fired issue events.
        self._reserved = 0
        #: Earliest pending rate-limit retry (inf = none scheduled).  A
        #: retry needed *earlier* than the pending one must still be
        #: scheduled, or a briefly-throttled queue would wait for another
        #: queue's distant refill.
        self._next_retry_us = float("inf")
        self.stats = FrontendStats()
        arbiter.bind(self._queues)
        #: Global enqueue sequence numbers, shared by every queue.
        stamp = itertools.count().__next__
        for queue in self._queues:
            queue.bind(stamp, loop.now_us)

    @property
    def outstanding(self) -> int:
        return self._outstanding

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #
    def run(self) -> FrontendStats:
        """Replay every queue's stream to completion; returns the stats."""
        for queue in self._queues:
            if queue.mode == "open":
                self._schedule_next_arrival(queue)
        self._pump(self._loop.now_us)
        self._loop.run()
        return self.stats

    # ------------------------------------------------------------------ #
    # Open-loop arrivals
    # ------------------------------------------------------------------ #
    def _schedule_next_arrival(self, queue: SubmissionQueue) -> None:
        request = queue.next_source_request()
        if request is None:
            return
        self._loop.schedule(
            queue.arrival_time(request),
            "request_arrival",
            self._on_arrival,
            payload=(queue, request),
            priority=PRIORITY_FOREGROUND,
        )

    def _on_arrival(self, event: Event) -> None:
        queue, request = event.payload  # type: ignore[misc]
        queue.enqueue(request, event.time_us)
        self._schedule_next_arrival(queue)
        self._pump(event.time_us)

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    def _eligible(self, now_us: float) -> Tuple[List[SubmissionQueue], Optional[float]]:
        """Queues the arbiter may pick from, plus the earliest token-retry.

        A queue is eligible when it has a head request *and* its namespace
        has the tokens to admit it.  For throttled queues the earliest time
        any of them could be admitted is returned so the caller can schedule
        a single retry event instead of polling.
        """
        candidates: List[SubmissionQueue] = []
        retry_at: Optional[float] = None
        for queue in self._queues:
            if not queue.ensure_head(now_us):
                continue
            request = queue._pending[0][0]
            blocked_until: Optional[float] = None
            for bucket in queue.namespace.limiters:
                cost = bucket.cost_of(request.npages)
                if not bucket.can_admit(cost, now_us):
                    available = bucket.available_at(cost, now_us)
                    blocked_until = (
                        available
                        if blocked_until is None
                        else max(blocked_until, available)
                    )
            if blocked_until is None:
                candidates.append(queue)
            else:
                if not queue.head_deferred:
                    # Count once per deferred admission, not once per
                    # admission attempt while the same head waits.
                    queue.head_deferred = True
                    queue.namespace.stats.rate_limit_deferrals += 1
                retry_at = (
                    blocked_until if retry_at is None else min(retry_at, blocked_until)
                )
        return candidates, retry_at

    def _pump(self, now_us: float) -> None:
        """Fill free device slots: one arbitration decision per slot."""
        while self._queue_depth - self._outstanding - self._reserved > 0:
            candidates, retry_at = self._eligible(now_us)
            if retry_at is not None and retry_at < self._next_retry_us:
                self._next_retry_us = retry_at
                self._loop.schedule(
                    retry_at,
                    "rate_limit_retry",
                    self._on_retry,
                    priority=PRIORITY_FOREGROUND,
                )
            if not candidates:
                return
            # The arbiter returns one of the candidates it was offered.
            queue = cast(SubmissionQueue, self._arbiter.select(candidates))
            request, ready_us = queue.pop()
            for bucket in queue.namespace.limiters:
                bucket.try_consume(bucket.cost_of(request.npages), now_us)
            self._reserved += 1
            self._loop.schedule(
                now_us,
                "request_issue",
                self._issue,
                payload=(queue, request, ready_us),
                priority=PRIORITY_FOREGROUND,
            )

    def _on_retry(self, event: Event) -> None:
        # Clear first: if some queue is still (or newly) throttled, the
        # pump recomputes its refill time and schedules a fresh retry.
        self._next_retry_us = float("inf")
        self._pump(event.time_us)

    def _issue(self, event: Event) -> None:
        queue, request, ready_us = event.payload  # type: ignore[misc]
        self._reserved -= 1
        self._outstanding += 1
        self.stats.submitted += 1
        if self._outstanding > self.stats.max_outstanding:
            self.stats.max_outstanding = self._outstanding
        namespace = queue.namespace
        namespace.stats.submitted += 1
        namespace.stats.queue_wait_us += max(0.0, event.time_us - ready_us)
        device_lpa, npages = namespace.translate(request.lpa, request.npages)
        if request.is_read:
            namespace.stats.read_pages += npages
        else:
            namespace.stats.write_pages += npages
        finish = self._device.submit(
            request.op, device_lpa, npages, at_us=event.time_us
        )
        self._loop.schedule(
            finish,
            "request_complete",
            self._complete,
            payload=(queue, request, ready_us),
            priority=PRIORITY_FOREGROUND,
        )

    def _complete(self, event: Event) -> None:
        queue, request, ready_us = event.payload  # type: ignore[misc]
        self._outstanding -= 1
        self.stats.completed += 1
        queue.namespace.stats.completed += 1
        queue.namespace.record_completion(request.op, event.time_us - ready_us)
        if event.time_us > self.stats.finished_at_us:
            self.stats.finished_at_us = event.time_us
        self._pump(event.time_us)


@dataclass
class HostRunResult:
    """Everything one multi-tenant replay reports."""

    frontend: FrontendStats
    namespaces: Dict[str, NamespaceStats]
    #: Deepest submission-queue backlog seen per queue name.
    max_backlog: Dict[str, int] = field(default_factory=dict)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """tenant -> flat metrics (plus submission-queue depth)."""
        table: Dict[str, Dict[str, float]] = {}
        for name, stats in self.namespaces.items():
            row = stats.summary()
            row["max_backlog"] = float(self.max_backlog.get(name, 0))
            table[name] = row
        return table


class HostInterface:
    """Carves namespaces out of one SSD and replays multi-tenant streams.

    >>> host = HostInterface(ssd, arbiter="weighted_round_robin")
    >>> host.add_namespace("db", size_pages=4096, weight=4, slo_read_us=200.0)
    >>> host.add_namespace("batch", size_pages=8192)
    >>> result = host.run({"db": db_trace, "batch": batch_trace})

    The default arbiter comes from ``ssd.options.arbiter`` and the default
    slot count from ``ssd.effective_queue_depth``, so the host layer honours
    the same knobs single-queue replays use.
    """

    def __init__(
        self,
        ssd: SimulatedSSD,
        arbiter: Optional[str] = None,
        queue_depth: Optional[int] = None,
    ) -> None:
        self._ssd = ssd
        self.arbiter_name = arbiter or ssd.options.arbiter
        # Instantiate eagerly so an unknown name fails at construction.
        make_arbiter(self.arbiter_name)
        self.queue_depth = queue_depth or ssd.effective_queue_depth
        self._namespaces: Dict[str, Namespace] = {}
        self._next_base_lpa = 0

    # ------------------------------------------------------------------ #
    # Namespace management
    # ------------------------------------------------------------------ #
    @property
    def namespaces(self) -> Dict[str, Namespace]:
        return dict(self._namespaces)

    def namespace(self, name: str) -> Namespace:
        return self._namespaces[name]

    def free_pages(self) -> int:
        """Logical pages not yet claimed by any namespace."""
        return self._ssd.config.logical_pages - self._next_base_lpa

    def add_namespace(
        self,
        name: str,
        size_pages: Optional[int] = None,
        base_lpa: Optional[int] = None,
        weight: int = 1,
        priority: int = 0,
        slo_read_us: Optional[float] = None,
        slo_write_us: Optional[float] = None,
        iops_limit: Optional[float] = None,
        iops_burst: float = 8.0,
        bandwidth_pages_per_s: Optional[float] = None,
        bandwidth_burst_pages: float = 64.0,
    ) -> Namespace:
        """Carve a namespace out of the device's logical space.

        Without ``base_lpa`` the namespace is placed after the last one;
        without ``size_pages`` it takes all remaining logical pages.  The
        optional ``iops_limit`` / ``bandwidth_pages_per_s`` caps attach
        token-bucket rate limiters (QoS throttles independent of the
        arbiter).
        """
        if name in self._namespaces:
            raise ValueError(f"namespace {name!r} already exists")
        if base_lpa is None:
            base_lpa = self._next_base_lpa
        if size_pages is None:
            size_pages = self._ssd.config.logical_pages - base_lpa
        limiters: List[TokenBucket] = []
        if iops_limit is not None:
            limiters.append(TokenBucket(iops_limit, iops_burst, unit="requests"))
        if bandwidth_pages_per_s is not None:
            limiters.append(
                TokenBucket(bandwidth_pages_per_s, bandwidth_burst_pages, unit="pages")
            )
        namespace = Namespace(
            name,
            base_lpa,
            size_pages,
            weight=weight,
            priority=priority,
            slo_read_us=slo_read_us,
            slo_write_us=slo_write_us,
            limiters=tuple(limiters),
        )
        if namespace.end_lpa > self._ssd.config.logical_pages:
            raise ValueError(
                f"namespace {name!r} ends at LPA {namespace.end_lpa}, past the "
                f"device's {self._ssd.config.logical_pages} logical pages"
            )
        for existing in self._namespaces.values():
            if namespace.overlaps(existing):
                raise ValueError(
                    f"namespace {name!r} overlaps namespace {existing.name!r}"
                )
        self._namespaces[name] = namespace
        self._next_base_lpa = max(self._next_base_lpa, namespace.end_lpa)
        return namespace

    def reset_stats(self) -> None:
        """Fresh per-namespace statistics (end of a warm-up phase)."""
        for namespace in self._namespaces.values():
            namespace.reset_stats()

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #
    def run(
        self,
        tenants: Tenants,
        drain: bool = True,
        queue_depth: Optional[int] = None,
        arbiter: Optional[str] = None,
    ) -> HostRunResult:
        """Replay per-tenant streams through the arbiter; returns the result.

        ``tenants`` is either a mapping ``{namespace_name: stream}`` (the
        admission mode is inferred: open-loop when the stream is a
        :class:`~repro.workloads.trace.Trace` carrying timestamps, closed
        otherwise) or an iterable of objects with ``namespace``/``trace``/
        ``mode`` attributes (see
        :class:`repro.workloads.multi_tenant.TenantWorkload`).
        """
        queues = self._build_queues(tenants)
        loop = EventLoop(start_us=self._ssd.now_us)
        frontend = MultiQueueFrontend(
            self._ssd,
            loop,
            queues,
            make_arbiter(arbiter or self.arbiter_name),
            min(queue_depth or self.queue_depth, self._ssd.config.ncq_depth),
        )
        self._ssd.run_frontend(frontend, loop)
        self._ssd.finalize_replay(drain=drain)
        return HostRunResult(
            frontend=frontend.stats,
            namespaces={
                queue.namespace.name: queue.namespace.stats for queue in queues
            },
            max_backlog={queue.name: queue.max_backlog for queue in queues},
        )

    def _build_queues(self, tenants: Tenants) -> List[SubmissionQueue]:
        queues: List[SubmissionQueue] = []
        specs: List[Tuple[str, Iterable[ReplayItem], str, float, Optional[str]]]
        if isinstance(tenants, Mapping):
            specs = [
                (name, stream, _infer_mode(stream), 1.0, None)
                for name, stream in tenants.items()
            ]
        else:
            specs = [
                (spec.namespace, spec.trace, spec.mode, spec.time_scale, spec.name)
                for spec in tenants
            ]
        for ns_name, stream, mode, time_scale, queue_name in specs:
            if ns_name not in self._namespaces:
                raise KeyError(
                    f"unknown namespace {ns_name!r}; "
                    f"known: {sorted(self._namespaces)}"
                )
            if mode == "auto":
                mode = _infer_mode(stream)
            queues.append(
                SubmissionQueue(
                    self._namespaces[ns_name],
                    stream,
                    mode=mode,
                    time_scale=time_scale,
                    name=queue_name,
                )
            )
        if not queues:
            raise ValueError("no tenant streams to replay")
        return queues


def _infer_mode(stream: Iterable[ReplayItem]) -> str:
    """Open-loop when the stream is a trace carrying timestamps."""
    has_timestamps = getattr(stream, "has_timestamps", None)
    if callable(has_timestamps) and has_timestamps():
        return "open"
    return "closed"
