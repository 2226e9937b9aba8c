"""Admission edge cases (one device-wide queue and several namespaces).

Covers the corners trace replay must not mishandle:

* an empty trace (no events, no counters, clean return);
* a trace shorter than the queue depth (partial initial admission);
* open-loop replay of a trace with non-monotonic timestamps — the replay
  must raise (never silently reorder or distort the arrival process), and
  ``Trace.sorted_by_timestamp()`` must repair such a trace;
* device-level replay of requests that run or start past the last LPA —
  clipped and counted by the device, never rejected.
"""

from __future__ import annotations

import math

import pytest

from repro.host.interface import HostInterface
from repro.ssd.ssd import SSDOptions
from repro.workloads.trace import IORequest, Trace
from tests.conftest import RecordingDevice, make_ssd, replay_one_queue


class TestEmptyTrace:
    def test_closed_loop_frontend(self):
        device = RecordingDevice()
        stats = replay_one_queue(device, [], queue_depth=4)
        assert stats.submitted == stats.completed == 0
        assert stats.max_outstanding == 0
        assert device.issues == []

    def test_open_loop_frontend(self):
        device = RecordingDevice()
        stats = replay_one_queue(device, [], queue_depth=math.inf, mode="open")
        assert stats.submitted == stats.completed == 0
        assert device.issues == []

    @pytest.mark.parametrize("replay_mode", ["closed", "open"])
    def test_event_engine_device_replay(self, replay_mode):
        ssd = make_ssd(options=SSDOptions(queue_depth=8, replay_mode=replay_mode))
        stats = ssd.run([])
        assert stats.requests_submitted == stats.requests_completed == 0
        assert stats.events_processed == 0

    def test_full_device_replay(self):
        ssd = make_ssd()
        stats = ssd.run([])
        assert stats.requests_submitted == 0
        assert stats.total_requests == 0

    def test_host_interface_with_one_empty_stream(self):
        ssd = make_ssd()
        host = HostInterface(ssd, queue_depth=4)
        host.add_namespace("a", size_pages=256)
        host.add_namespace("b", size_pages=256)
        result = host.run({"a": [], "b": [("W", 0, 4)]})
        assert result.namespaces["a"].completed == 0
        assert result.namespaces["b"].completed == 1


class TestShortTrace:
    def test_trace_shorter_than_queue_depth(self):
        device = RecordingDevice()
        stats = replay_one_queue(
            device, [("R", lpa, 1) for lpa in range(3)], queue_depth=8
        )
        assert stats.submitted == stats.completed == 3
        # All three admitted at t=0; the depth never actually fills.
        assert stats.max_outstanding == 3
        assert [t for t, _, _ in device.issues] == [0.0, 0.0, 0.0]

    def test_device_replay_shorter_than_depth(self):
        ssd = make_ssd()
        stats = ssd.run([("W", 0, 4), ("R", 0, 4)], queue_depth=16)
        assert stats.requests_submitted == 2
        assert stats.requests_completed == 2
        assert stats.max_outstanding_requests <= 2


def _unsorted_trace() -> Trace:
    return Trace(
        "unsorted",
        [
            IORequest("W", 0, 1, timestamp_us=50.0),
            IORequest("W", 8, 1, timestamp_us=20.0),
            IORequest("W", 16, 1, timestamp_us=30.0),
        ],
    )


class TestNonMonotonicTimestamps:
    def test_open_loop_frontend_raises(self):
        device = RecordingDevice()
        with pytest.raises(ValueError, match="non-monotonic"):
            replay_one_queue(
                device, _unsorted_trace(), queue_depth=math.inf, mode="open"
            )

    def test_device_open_replay_raises(self):
        ssd = make_ssd()
        with pytest.raises(ValueError, match="sorted_by_timestamp"):
            ssd.run(_unsorted_trace(), replay_mode="open")

    def test_multi_queue_open_replay_raises(self):
        ssd = make_ssd()
        host = HostInterface(ssd, queue_depth=2)
        host.add_namespace("t", size_pages=256)
        with pytest.raises(ValueError, match="non-monotonic"):
            host.run({"t": _unsorted_trace()})

    def test_sorted_by_timestamp_repairs_the_trace(self):
        trace = _unsorted_trace()
        assert not trace.timestamps_sorted()
        ordered = trace.sorted_by_timestamp()
        assert ordered.timestamps_sorted()
        assert [r.timestamp_us for r in ordered] == [20.0, 30.0, 50.0]
        # The repaired trace replays cleanly.
        ssd = make_ssd()
        stats = ssd.run(ordered, replay_mode="open")
        assert stats.requests_completed == 3

    def test_sort_is_stable_for_equal_timestamps(self):
        trace = Trace(
            "ties",
            [
                IORequest("W", 1, 1, timestamp_us=10.0),
                IORequest("W", 2, 1, timestamp_us=10.0),
                IORequest("W", 3, 1, timestamp_us=5.0),
            ],
        )
        ordered = trace.sorted_by_timestamp()
        assert [r.lpa for r in ordered] == [3, 1, 2]

    def test_equal_timestamps_are_legal(self):
        trace = Trace(
            "ties",
            [IORequest("W", lpa, 1, timestamp_us=0.0) for lpa in range(4)],
        )
        ssd = make_ssd()
        stats = ssd.run(trace, replay_mode="open")
        assert stats.requests_completed == 4


class TestDeviceRangeHandling:
    """``SimulatedSSD.run`` on the event engine keeps the device's clipping.

    A request running past the last LPA is served up to it, one starting
    past it is dropped whole; both count their pages in
    ``stats.clipped_pages`` and neither raises, in closed and open loop.
    """

    @pytest.mark.parametrize("replay_mode", ["closed", "open"])
    def test_past_the_end_requests_clipped_not_rejected(self, replay_mode):
        ssd = make_ssd(options=SSDOptions(queue_depth=8, replay_mode=replay_mode))
        last = ssd.config.logical_pages
        stats = ssd.run(
            [
                IORequest("W", 0, 8, timestamp_us=0.0),
                IORequest("W", last - 3, 8, timestamp_us=10.0),
                IORequest("R", last + 2, 4, timestamp_us=20.0),
                IORequest("R", last - 2, 6, timestamp_us=30.0),
            ]
        )
        assert stats.clipped_pages == 5 + 4 + 4
        assert stats.requests_submitted == stats.requests_completed == 4
        assert stats.host_write_pages == 8 + 3
        assert stats.host_read_pages == 2
