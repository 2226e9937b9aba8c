"""The benchmark's four workloads, each built from one seed.

Each workload loads a different layer of the simulator and leaves at least
one other layer idle, so a change can be located by where the work moved:

* ``overwrite_gc_qd8`` - LeaFTL (gamma 0) on an aged 96 MiB device, a
  60 %-write Zipf mix at queue depth 8 on the event engine with synchronous
  GC: the write path (buffer flush, PLR learning, flash programs, GC).
* ``random_read_g4_qd1`` - LeaFTL (gamma 4) on the same aged device, uniform
  random 1-8 page reads at queue depth 1 on the serial path: translation
  lookups and misprediction correction, with no learning, GC or events.
* ``tenants_wrr_telemetry`` - two namespaces (a Zipf reader and a bursty
  sequential writer) arriving open loop through the multi-queue host
  interface under weighted round robin, background GC, telemetry on: the
  only workload that runs ``host`` and ``obs``.
* ``dftl_msr_hm`` - DFTL replaying the synthetic MSR-hm trace after the
  figure benches' warm-up: the only workload that runs ``ftl``.

:func:`prepare` does the set-up (device, aging or warm-up, inputs) and
returns a :class:`Prepared` whose :meth:`Prepared.measure` runs the measured
phase.  ``scale`` shrinks the measured phase for the benchmark's own tests.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Dict, List, Set, Tuple

from repro.experiments.common import (
    ExperimentSetup,
    build_ssd,
    precondition,
    steady_state_workload,
    warmup_ssd,
)

#: Reads slower than this miss the read SLO (the tenant scenario's
#: ``reader_slo_us``).
READ_SLO_US = 1000.0

#: Commands between two samples of the write counters.
PROGRESS_EVERY = 1000

#: Commands between two samples of the machine's speed (:mod:`speed`).
SPEED_EVERY = 500


@dataclasses.dataclass
class Prepared:
    """A set-up device plus the measured phase to run on it."""

    ssd: object
    #: ``"closed"``: latency counts from issue; ``"open"``: from arrival.
    loop: str
    commands: int
    run: Callable[[], None]
    host: object = None

    def __post_init__(self) -> None:
        #: Every device LPA written so far, set-up included.
        self.written: Set[int] = set()
        #: Pages of previously written LPAs that a read found unmapped.
        self.lost_reads = 0
        #: ``(op, device lpa, npages, issue us, finish us)`` per command.
        self.issued: List[Tuple[str, int, int, float, float]] = []
        #: ``(commands, host pages written, flash pages written)`` every
        #: :data:`PROGRESS_EVERY` commands.
        self.progress: List[Tuple[int, int, int]] = []

    def measure(self, probe=None) -> None:
        """Run the measured phase, recording what each command returned.

        ``probe`` (a :class:`speed.SpeedProbe`) samples the machine's speed
        every :data:`SPEED_EVERY` commands.
        """
        ssd = self.ssd
        submit = ssd.submit
        issued = self.issued
        progress = self.progress
        written = self.written
        limit = ssd.config.logical_pages

        def capture(op, lpa, npages=1, at_us=None):
            issue = ssd.now_us if at_us is None else at_us
            if op == "W":
                written.update(range(lpa, min(lpa + npages, limit)))
                finish = submit(op, lpa, npages, at_us)
            else:
                unmapped = ssd.stats.unmapped_reads
                finish = submit(op, lpa, npages, at_us)
                lost = ssd.stats.unmapped_reads - unmapped
                if lost:
                    self._count_lost(lost, lpa, min(lpa + npages, limit))
            issued.append((op, lpa, npages, issue, finish))
            if probe is not None and len(issued) % SPEED_EVERY == 0:
                probe.sample()
            if len(issued) % PROGRESS_EVERY == 0:
                stats = ssd.stats
                progress.append(
                    (
                        len(issued),
                        stats.host_write_pages,
                        stats.total_flash_page_writes,
                    )
                )
            return finish

        ssd.submit = capture
        try:
            self.run()
        finally:
            del ssd.submit

    def _count_lost(self, unmapped: int, start: int, stop: int) -> None:
        never_written = sum(1 for lpa in range(start, stop) if lpa not in self.written)
        self.lost_reads += max(0, unmapped - never_written)


def _sub_seeds(seed: int, count: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


def _aged_leaftl(gamma: int, queue_depth: int, seed: int):
    """The record_trajectory device: 96 MiB, 4x4 dies, 64-page blocks, 1 MiB DRAM."""
    setup = ExperimentSetup(
        capacity_bytes=96 * 1024 * 1024,
        channels=4,
        dies_per_channel=4,
        pages_per_block=64,
        dram_bytes=1 * 1024 * 1024,
        gamma=gamma,
        queue_depth=queue_depth,
        gc_mode="sync",
        warmup=False,
    )
    ssd = build_ssd("LeaFTL", setup)
    footprint = precondition(ssd, seed=seed)
    return ssd, footprint


def overwrite_gc_qd8(seed: int, scale: float) -> Prepared:
    age_seed, mix_seed = _sub_seeds(seed, 2)
    ssd, footprint = _aged_leaftl(gamma=0, queue_depth=8, seed=age_seed)
    requests = steady_state_workload(
        footprint, int(60_000 * scale), seed=mix_seed, read_ratio=0.4, zipf_alpha=0.85
    )
    return Prepared(ssd, "closed", len(requests), lambda: ssd.run(requests))


def random_read_g4_qd1(seed: int, scale: float) -> Prepared:
    age_seed, read_seed = _sub_seeds(seed, 2)
    ssd, footprint = _aged_leaftl(gamma=4, queue_depth=1, seed=age_seed)
    rng = random.Random(read_seed)
    max_span = 8
    requests = [
        ("R", rng.randrange(footprint - max_span), rng.randint(1, max_span))
        for _ in range(int(30_000 * scale))
    ]
    return Prepared(ssd, "closed", len(requests), lambda: ssd.run(requests))


def tenants_wrr_telemetry(seed: int, scale: float) -> Prepared:
    from repro.experiments.multi_tenant import (
        build_tenant_host,
        reader_tenant,
        writer_tenant,
    )
    from repro.obs.session import attach_telemetry
    from repro.verify import VERIFY_ARBITER, verify_scenario

    (reader_seed,) = _sub_seeds(seed, 1)
    # verify_scenario() offers more load than the device serves, so its
    # latencies grow with run length; these arrival rates keep both
    # tenants' backlogs bounded while the writer bursts still queue reads.
    scenario = verify_scenario(seed=reader_seed, scale=8.0 * scale).scaled(
        reader_interarrival_us=1000.0, writer_burst_gap_us=40_000.0
    )
    ssd, host = build_tenant_host(scenario, VERIFY_ARBITER)
    attach_telemetry(ssd, "on", host=host)
    tenants = [reader_tenant(scenario), writer_tenant(scenario)]
    commands = sum(len(tenant.trace) for tenant in tenants)
    return Prepared(ssd, "open", commands, lambda: host.run(tenants), host=host)


def dftl_msr_hm(seed: int, scale: float) -> Prepared:
    from repro.workloads.msr import msr_profile
    from repro.workloads.synthetic import SyntheticWorkload

    warm_seed, trace_seed = _sub_seeds(seed, 2)
    # The figure benches' perf_setup() regime: 512 MiB, 256 KiB DRAM.
    setup = ExperimentSetup(
        capacity_bytes=512 * 1024 * 1024,
        dram_bytes=256 * 1024,
        dram_policy="mapping_first",
        warmup_fraction=0.5,
        compaction_interval_writes=100_000,
        seed=warm_seed,
    )
    ssd = build_ssd("DFTL", setup)
    warmup_ssd(ssd, setup)
    profile = dataclasses.replace(
        msr_profile("MSR-hm").scaled(2.0 * scale, 0.35), seed=trace_seed
    )
    trace = SyntheticWorkload(profile).generate().scaled_to(ssd.config.logical_pages)
    return Prepared(ssd, "closed", len(trace), lambda: ssd.run(trace))


BUILDERS: Dict[str, Callable[[int, float], Prepared]] = {
    "overwrite_gc_qd8": overwrite_gc_qd8,
    "random_read_g4_qd1": random_read_g4_qd1,
    "tenants_wrr_telemetry": tenants_wrr_telemetry,
    "dftl_msr_hm": dftl_msr_hm,
}


def prepare(name: str, seed: int, scale: float = 1.0) -> Prepared:
    """Build workload ``name``, remembering every LPA its set-up writes."""
    from repro.ssd.ssd import SimulatedSSD

    written: Set[int] = set()
    submit = SimulatedSSD.submit

    def tracking(ssd, op, lpa, npages=1, at_us=None):
        if op == "W":
            written.update(range(lpa, min(lpa + npages, ssd.config.logical_pages)))
        return submit(ssd, op, lpa, npages, at_us)

    SimulatedSSD.submit = tracking
    try:
        prepared = BUILDERS[name](seed, scale)
    finally:
        SimulatedSSD.submit = submit
    prepared.written = written
    return prepared


def command_latencies(prepared: Prepared) -> Tuple[List[float], List[float], int, int]:
    """Per-command read and write latencies (us) plus the reads/writes issued.

    Closed loop: completion minus issue, from what ``submit`` returned.
    Open loop: completion minus arrival, from the namespaces' recorders
    (which must hold every sample, not a reservoir subset).
    """
    if prepared.loop == "closed":
        reads = [f - i for op, _, _, i, f in prepared.issued if op == "R"]
        writes = [f - i for op, _, _, i, f in prepared.issued if op == "W"]
        return reads, writes, len(reads), len(writes)
    reads: List[float] = []
    writes: List[float] = []
    for _, namespace in sorted(prepared.host.namespaces.items()):
        for recorder, out in (
            (namespace.stats.read_latency, reads),
            (namespace.stats.write_latency, writes),
        ):
            samples = recorder.samples()
            if len(samples) != recorder.count:
                raise RuntimeError(
                    f"namespace {namespace.name}: recorder kept {len(samples)} "
                    f"of {recorder.count} samples"
                )
            out.extend(samples)
    issued_reads = sum(1 for op, *_ in prepared.issued if op == "R")
    return reads, writes, issued_reads, len(prepared.issued) - issued_reads


def written_lpas(prepared: Prepared) -> List[int]:
    """Every device LPA a measured-phase write covered, in order."""
    limit = prepared.ssd.config.logical_pages
    pages = set()
    for op, lpa, npages, _, _ in prepared.issued:
        if op == "W":
            pages.update(range(lpa, min(lpa + npages, limit)))
    return sorted(pages)


def clear_memo_caches() -> None:
    """Empty the learned-segment module memos so a run starts cold.

    ``repro.core.segment`` memoises quantisation and stride results at
    module level; a second run in one process would otherwise do less work
    than a fresh process.
    """
    from repro.core import segment

    for name in ("_QUANTIZE_CACHE", "_STRIDE_CACHE"):
        memo = getattr(segment, name, None)
        if memo is not None:
            memo.clear()
