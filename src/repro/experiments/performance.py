"""End-to-end performance experiments (Figures 16-18 and 21-25).

Every function here runs full SSD simulations (warm-up + trace replay) and
returns the series a benchmark prints.  "Normalized performance" follows the
paper's convention (lower is better, DFTL = 1.0); this reproduction uses the
mean *read* latency as the performance metric, because host writes are
absorbed by the controller write buffer in every scheme and the benefit of a
smaller mapping table — a larger data cache and fewer translation-page
fetches — materialises on the read path.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.latency import histogram_cdf, latency_cdf, normalize
from repro.experiments.common import (
    ExperimentSetup,
    SCHEMES,
    build_ssd,
    oob_size_for_gamma,
    precondition,
    run_experiment,
    run_schemes,
    steady_state_workload,
)


def performance_setup(
    dram_policy: str = "mapping_first",
    gamma: int = 0,
    dram_bytes: int = 512 * 1024,
    request_scale: float = 0.25,
    **overrides: object,
) -> ExperimentSetup:
    """The standard performance-measurement setup (warm-up enabled)."""
    return ExperimentSetup(
        dram_policy=dram_policy,
        gamma=gamma,
        oob_size=oob_size_for_gamma(gamma),
        dram_bytes=dram_bytes,
        request_scale=request_scale,
        **overrides,  # type: ignore[arg-type]
    )


def normalized_performance(
    workloads: Sequence[str],
    setup: Optional[ExperimentSetup] = None,
    schemes: Sequence[str] = SCHEMES,
    baseline: str = "DFTL",
) -> Dict[str, Dict[str, float]]:
    """workload -> scheme -> normalized mean latency (Figures 16, 17, 22)."""
    setup = setup or performance_setup()
    table: Dict[str, Dict[str, float]] = {}
    for workload in workloads:
        results = run_schemes(workload, setup, schemes)
        latencies = {scheme: r.read_mean_latency_us for scheme, r in results.items()}
        table[workload] = normalize(latencies, baseline)
    return table


def gamma_performance(
    workloads: Sequence[str],
    gammas: Sequence[int] = (0, 1, 4, 16),
    setup: Optional[ExperimentSetup] = None,
) -> Dict[str, Dict[int, float]]:
    """workload -> gamma -> LeaFTL latency normalized to gamma = 0 (Figure 21)."""
    base_setup = setup or performance_setup()
    table: Dict[str, Dict[int, float]] = {}
    for workload in workloads:
        latencies: Dict[int, float] = {}
        for gamma in gammas:
            run_setup = base_setup.scaled(
                gamma=gamma, oob_size=oob_size_for_gamma(gamma)
            )
            result = run_experiment(workload, "LeaFTL", run_setup)
            latencies[gamma] = result.read_mean_latency_us
        baseline = latencies[gammas[0]] or 1.0
        table[workload] = {gamma: value / baseline for gamma, value in latencies.items()}
    return table


def misprediction_ratios(
    workloads: Sequence[str],
    gammas: Sequence[int] = (0, 1, 4, 16),
    setup: Optional[ExperimentSetup] = None,
) -> Dict[str, Dict[int, float]]:
    """workload -> gamma -> misprediction ratio in percent (Figure 24)."""
    base_setup = setup or performance_setup()
    table: Dict[str, Dict[int, float]] = {}
    for workload in workloads:
        row: Dict[int, float] = {}
        for gamma in gammas:
            result = run_experiment(
                workload,
                "LeaFTL",
                base_setup.scaled(gamma=gamma, oob_size=oob_size_for_gamma(gamma)),
            )
            row[gamma] = 100.0 * result.misprediction_ratio
        table[workload] = row
    return table


def write_amplification(
    workloads: Sequence[str],
    setup: Optional[ExperimentSetup] = None,
    schemes: Sequence[str] = SCHEMES,
) -> Dict[str, Dict[str, float]]:
    """workload -> scheme -> WAF (Figure 25)."""
    setup = setup or performance_setup()
    table: Dict[str, Dict[str, float]] = {}
    for workload in workloads:
        results = run_schemes(workload, setup, schemes)
        table[workload] = {
            scheme: result.write_amplification for scheme, result in results.items()
        }
    return table


def latency_distribution(
    workload: str = "OLTP",
    setup: Optional[ExperimentSetup] = None,
    schemes: Sequence[str] = SCHEMES,
    points: Sequence[float] = (0.0, 30.0, 60.0, 90.0, 99.0, 99.9),
    queue_depth: Optional[int] = None,
    replay_mode: Optional[str] = None,
) -> Dict[str, Dict[float, float]]:
    """scheme -> CDF point -> read latency in microseconds (Figure 18).

    ``queue_depth > 1`` replays through the event-driven engine, so the CDF
    reflects foreground reads contending with background flush/GC traffic
    and with each other — the regime the paper's tail-latency figure
    describes.  ``replay_mode="open"`` admits requests at their trace
    timestamps instead (stamped at ``setup.open_loop_interarrival_us`` for
    synthetic traces), so the CDF measures latency against arrival times.
    """
    setup = setup or performance_setup()
    if queue_depth is not None:
        setup = setup.scaled(queue_depth=queue_depth)
    results = run_schemes(workload, setup, schemes, replay_mode=replay_mode)
    return {
        scheme: latency_cdf(result.latency_samples, points)
        for scheme, result in results.items()
    }


def queue_depth_sweep(
    workload: str = "OLTP",
    depths: Sequence[int] = (1, 2, 4, 8, 16, 32),
    setup: Optional[ExperimentSetup] = None,
    scheme: str = "LeaFTL",
) -> Dict[int, Dict[str, float]]:
    """queue depth -> latency/throughput metrics under NCQ concurrency.

    Each depth replays the same trace after an identical (serial) warm-up;
    only the measured phase changes concurrency.  Reported per depth:

    * ``read_mean_us`` / ``read_p99_us`` — foreground read latency, which
      *grows* with depth as requests contend for channels;
    * ``read_stall_us`` — total time reads queued behind busy channels;
    * ``measured_time_us`` — makespan of the measured replay (warm-up
      excluded), which *shrinks* with depth as the device overlaps more
      work (throughput gain);
    * ``page_kiops`` — host *page* operations per measured millisecond
      (``host_reads``/``host_writes`` count pages, not commands, so a
      64-page command contributes 64).
    """
    base = setup or performance_setup()
    table: Dict[int, Dict[str, float]] = {}
    for depth in depths:
        result = run_experiment(workload, scheme, base.scaled(queue_depth=depth))
        stats = result.stats
        elapsed_ms = max(stats.measured_time_us / 1000.0, 1e-9)
        table[depth] = {
            "read_mean_us": result.read_mean_latency_us,
            "read_p99_us": result.read_p99_us,
            "read_stall_us": stats.read_stall_us,
            "measured_time_us": stats.measured_time_us,
            "page_kiops": stats.total_requests / elapsed_ms,
        }
    return table


def _aging_setup(
    overprovisioning: float,
    gc_policy: str,
    gc_mode: str,
    queue_depth: int,
    capacity_bytes: int,
) -> ExperimentSetup:
    """Device used by the steady-state GC studies.

    Small blocks (64 pages) on 8 channels keep the over-provisioning knob
    meaningful: the physical size is rounded up to whole blocks per channel,
    and with the paper's 256-page blocks a small device would quantise every
    OP ratio to nearly the same block count.
    """
    return ExperimentSetup(
        capacity_bytes=capacity_bytes,
        pages_per_block=64,
        channels=8,
        overprovisioning=overprovisioning,
        gc_policy=gc_policy,
        gc_mode=gc_mode,
        queue_depth=queue_depth,
        warmup=False,
    )


def aging_sweep(
    op_ratios: Sequence[float] = (0.08, 0.16, 0.28),
    policies: Sequence[str] = ("greedy", "cost_benefit", "d_choices"),
    gc_mode: str = "sync",
    scheme: str = "LeaFTL",
    num_requests: int = 6000,
    queue_depth: int = 1,
    capacity_bytes: int = 48 * 1024 * 1024,
    seed: int = 23,
) -> Dict[str, Dict[float, Dict[str, float]]]:
    """policy -> over-provisioning ratio -> steady-state GC metrics.

    Each cell builds a device with the given over-provisioning ratio and
    victim policy, ages it into steady state with
    :func:`repro.experiments.common.precondition` (sequential fill + skewed
    overwrites), then replays an overwrite-heavy Zipf mix and reports:

    * ``waf`` — write amplification during the measured phase.  The
      expected trend (the fig25-style steady-state claim): WAF falls as
      over-provisioning grows, for every policy, because GC victims have
      more time to shed valid pages before space runs out;
    * ``gc_page_writes`` / ``gc_invocations`` — raw reclaim volume;
    * ``read_p99_us`` — tail read latency including GC interference;
    * ``gc_write_throttle_us`` — time host writes stalled below the hard
      watermark.
    """
    table: Dict[str, Dict[float, Dict[str, float]]] = {}
    for policy in policies:
        row: Dict[float, Dict[str, float]] = {}
        for op_ratio in op_ratios:
            setup = _aging_setup(
                op_ratio, policy, gc_mode, queue_depth, capacity_bytes
            )
            ssd = build_ssd(scheme, setup)
            footprint = precondition(ssd)
            stats = ssd.run(
                steady_state_workload(footprint, num_requests, seed=seed)
            )
            row[op_ratio] = {
                "waf": stats.write_amplification,
                "gc_page_writes": float(stats.gc_page_writes),
                "gc_invocations": float(stats.gc_invocations),
                "read_p99_us": stats.read_latency.percentile(99),
                "gc_write_throttle_us": stats.gc_write_throttle_us,
            }
        table[policy] = row
    return table


def gc_mode_comparison(
    gc_policy: str = "greedy",
    overprovisioning: float = 0.12,
    queue_depth: int = 8,
    scheme: str = "LeaFTL",
    num_requests: int = 6000,
    capacity_bytes: int = 48 * 1024 * 1024,
    seed: int = 23,
) -> Dict[str, Dict[str, float]]:
    """gc_mode -> tail-latency/WAF metrics on a contended aged device.

    Replays the identical steady-state workload at ``queue_depth`` with the
    classic synchronous reclaim loop and with the background GC pipeline.
    Background GC migrates one victim at a time between host requests, so
    foreground reads stall behind at most one migration stage instead of a
    whole multi-victim reclaim burst — the p99 read latency drops sharply
    while WAF stays comparable (collection is deferred, not skipped).
    """
    table: Dict[str, Dict[str, float]] = {}
    for gc_mode in ("sync", "background"):
        setup = _aging_setup(
            overprovisioning, gc_policy, gc_mode, queue_depth, capacity_bytes
        )
        ssd = build_ssd(scheme, setup)
        footprint = precondition(ssd)
        stats = ssd.run(steady_state_workload(footprint, num_requests, seed=seed))
        table[gc_mode] = {
            "read_mean_us": stats.read_latency.mean_us,
            "read_p99_us": stats.read_latency.percentile(99),
            "read_stall_us": stats.read_stall_us,
            "waf": stats.write_amplification,
            "gc_page_writes": float(stats.gc_page_writes),
            "gc_background_runs": float(stats.gc_background_runs),
            "gc_write_throttle_us": stats.gc_write_throttle_us,
        }
    return table


def lookup_level_cdf(
    workloads: Sequence[str],
    setup: Optional[ExperimentSetup] = None,
    fractions: Sequence[float] = (0.90, 0.99, 0.999, 0.9999),
) -> Dict[str, Dict[str, float]]:
    """workload -> statistics of levels searched per lookup (Figure 23a)."""
    setup = setup or performance_setup()
    table: Dict[str, Dict[str, float]] = {}
    for workload in workloads:
        result = run_experiment(workload, "LeaFTL", setup)
        histogram = result.levels_histogram
        total = sum(histogram.values())
        row: Dict[str, float] = {}
        if total:
            mean = sum(level * count for level, count in histogram.items()) / total
            row["mean"] = mean
            cdf_points = histogram_cdf(histogram)
            for fraction in fractions:
                threshold = next(
                    (value for value, cum in cdf_points if cum >= fraction),
                    cdf_points[-1][0],
                )
                row[f"p{fraction * 100:g}"] = float(threshold)
        table[workload] = row
    return table


def dram_size_sensitivity(
    workloads: Sequence[str],
    dram_sizes: Sequence[int],
    setup: Optional[ExperimentSetup] = None,
    schemes: Sequence[str] = SCHEMES,
    baseline: str = "DFTL",
) -> Dict[int, Dict[str, float]]:
    """DRAM size -> scheme -> normalized latency averaged over workloads (Fig. 22a)."""
    base_setup = setup or performance_setup()
    table: Dict[int, Dict[str, float]] = {}
    for dram in dram_sizes:
        sized = base_setup.scaled(dram_bytes=dram)
        sums: Dict[str, float] = {scheme: 0.0 for scheme in schemes}
        for workload in workloads:
            results = run_schemes(workload, sized, schemes)
            for scheme, result in results.items():
                sums[scheme] += result.read_mean_latency_us
        table[dram] = normalize(sums, baseline)
    return table


def page_size_sensitivity(
    workloads: Sequence[str],
    page_sizes: Sequence[int] = (4096, 8192, 16384),
    setup: Optional[ExperimentSetup] = None,
    schemes: Sequence[str] = SCHEMES,
    baseline: str = "DFTL",
) -> Dict[int, Dict[str, float]]:
    """Flash page size -> scheme -> normalized latency (Figure 22b).

    The paper fixes the number of flash pages while growing the page size, so
    the capacity grows with the page size; the same is done here.
    """
    base_setup = setup or performance_setup()
    table: Dict[int, Dict[str, float]] = {}
    for page_size in page_sizes:
        scale = page_size // base_setup.page_size
        sized = base_setup.scaled(
            page_size=page_size,
            capacity_bytes=base_setup.capacity_bytes * scale,
        )
        sums: Dict[str, float] = {scheme: 0.0 for scheme in schemes}
        for workload in workloads:
            results = run_schemes(workload, sized, schemes)
            for scheme, result in results.items():
                sums[scheme] += result.read_mean_latency_us
        table[page_size] = normalize(sums, baseline)
    return table
