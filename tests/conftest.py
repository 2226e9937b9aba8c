"""Shared pytest fixtures."""

from __future__ import annotations

import random

import pytest

from dataclasses import replace

from repro.config import DRAMBudget, LeaFTLConfig, SSDConfig
from repro.core.leaftl import LeaFTL
from repro.flash.oob import required_oob_bytes
from repro.host.arbiter import make_arbiter
from repro.host.interface import MultiQueueFrontend, SubmissionQueue
from repro.host.namespace import DeviceNamespace
from repro.sim.events import EventLoop
from repro.sim.frontend import FrontendStats
from repro.ssd.ssd import SimulatedSSD


@pytest.fixture
def tiny_config() -> SSDConfig:
    """A small device that keeps unit tests fast."""
    return SSDConfig.tiny()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


def make_ssd(
    ftl=None,
    config: SSDConfig | None = None,
    gamma: int = 0,
    dram_bytes: int | None = None,
    **ssd_kwargs,
) -> SimulatedSSD:
    """Build a small SSD with the given FTL (LeaFTL by default)."""
    config = config or SSDConfig.tiny()
    if ftl is None:
        ftl = LeaFTL(LeaFTLConfig(gamma=gamma, compaction_interval_writes=10_000))
    # Provision a spare area large enough for the FTL's reverse-mapping
    # window: the default 128-byte OOB holds gamma <= 15, so gamma = 16
    # tests get the next standard spare size (256 bytes) automatically.
    window = getattr(ftl, "oob_window", lambda: 0)()
    while required_oob_bytes(window) > config.oob_size:
        config = replace(config, oob_size=config.oob_size * 2)
    budget = DRAMBudget(dram_bytes=dram_bytes or config.dram_size)
    return SimulatedSSD(config=config, ftl=ftl, dram_budget=budget, **ssd_kwargs)


@pytest.fixture
def tiny_leaftl_ssd() -> SimulatedSSD:
    return make_ssd()


class RecordingDevice:
    """Fixed-latency device that records ``(issue time, op, lpa)``."""

    def __init__(self, latency_us: float = 10.0):
        self.latency_us = latency_us
        self.issues = []

    def submit(self, op, lpa, npages, at_us):
        self.issues.append((at_us, op, lpa))
        return at_us + self.latency_us


def replay_one_queue(
    device, requests, queue_depth=1, mode="closed", time_scale=1.0
) -> FrontendStats:
    """Replay ``requests`` through the admission engine on one queue.

    The queue sits on a whole-device namespace, as in
    :meth:`SimulatedSSD.run`; pass ``queue_depth=math.inf`` for open-loop
    replay without a slot cap.
    """
    queue = SubmissionQueue(
        DeviceNamespace(1 << 20), requests, mode=mode, time_scale=time_scale
    )
    frontend = MultiQueueFrontend(
        device, EventLoop(), [queue], make_arbiter("fifo"), queue_depth
    )
    return frontend.run()
