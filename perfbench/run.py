#!/usr/bin/env python3
"""The simulator benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload overwrite_gc_qd8 --seed 1 --seconds 22 --trace 0

``--trace 0`` builds the workload from the seed several times in one
process ("repetitions"), each time timing the set-up and the measured phase
with no instrumentation, until ``--seconds`` have passed (at least
:data:`MIN_REPS` repetitions), and reports the end-to-end metrics: host
timings as the median over repetitions, each scaled to the idle machine by
reference-loop samples taken during it (:mod:`speed`), and simulated
metrics from the first repetition (every repetition must produce the same
sim-stats digest).

``--trace 1`` runs one plain repetition and one with span wrappers around
every layer's public functions (:mod:`spans`), and reports the per-layer
metrics of the traced one; the spans are written to
``perfbench/out/spans-<workload>.npz``.

Either mode reads back every LPA written in the measured phase through
``SimulatedSSD.read`` and prints a table of all metrics, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1 when
a correctness check fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Repetitions per ``--trace 0`` run, whatever ``--seconds`` says.
MIN_REPS = 3
MAX_REPS = 15

#: End-to-end figures without a relative bound, reported by the traced run
#: with the per-layer metrics as ``e2e.<name>``.  Simulated latencies are
#: sums of fixed NAND timings, so the percentiles repeat across seeds on
#: three workloads; the rest are zero on some workload (no writes on the
#: read-only one, no slow reads, no failures).
UNBOUNDED = (
    "sim_read_p50_us",
    "sim_read_p99_us",
    "sim_write_p99_us",
    "sim_waf",
    "sim_slo_miss_ratio",
    "failed_op_ratio",
)

#: Wrapped functions whose self time is the learned table's learning and
#: lookup work (``core.learn_self_s`` / ``core.lookup_self_s``).
LEARN_FUNCTIONS = ("PLRLearner.learn",)
LOOKUP_FUNCTIONS = (
    "LeaFTL.translate",
    "LeaFTL.translate_range",
    "LeaFTL.resolve_misprediction",
    "LogStructuredMappingTable.lookup",
    "LogStructuredMappingTable.lookup_range",
)


def _metric_units() -> Tuple[Dict[str, str], Dict[str, str]]:
    """``name -> unit`` of the end-to-end and per-layer metrics.

    ``BENCHMARK.json`` at the repository root is the one list of metrics.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _load_program() -> None:
    """Put the checkout's ``src`` and this directory on the import path."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator sources under {ROOT / 'src'}")
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def nearest_rank(values: List[float], pct: float) -> float:
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest value."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def tail_mean(values: List[float], pct: float = 99.0) -> float:
    """Mean of the values at or above the nearest-rank ``pct`` percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    tail = ordered[_rank(len(ordered), pct) - 1 :]
    return sum(tail) / len(tail)


def _rank(count: int, pct: float) -> int:
    return max(1, math.ceil(pct / 100.0 * count))


class Rep:
    """The outcome of one repetition: set-up, measured phase, checks."""

    def __init__(self) -> None:
        #: Measured set-up time, and the same scaled to the idle machine.
        self.setup_raw_s = 0.0
        self.setup_s = 0.0
        #: Measured-phase wall time without the speed samples, and the
        #: machine's slowdown during it (:mod:`speed`).
        self.wall_s = 0.0
        self.slowdown = 1.0
        self.sim: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self.digest = ""
        self.commands = 0
        self.completed = 0
        self.read_samples = 0
        self.write_samples = 0
        self.lost_reads = 0
        self.readback_reads = 0
        self.readback_failures = 0
        self.problems: List[str] = []
        #: ``(commands, host pages written, flash pages written)`` samples.
        self.progress: List[Tuple[int, int, int]] = []

    @property
    def raw_ios_per_s(self) -> float:
        return self.completed / self.wall_s

    @property
    def host_ios_per_s(self) -> float:
        """Commands per wall second, scaled to the idle machine."""
        return self.raw_ios_per_s * self.slowdown

    @property
    def attempted(self) -> int:
        return self.commands + self.readback_reads

    @property
    def failed(self) -> int:
        return (
            self.commands
            - self.completed
            + self.lost_reads
            + self.readback_failures
        )


def run_rep(
    workload: str,
    seed: int,
    scale: float = 1.0,
    recorder=None,
    readback: bool = False,
) -> Rep:
    """Set up ``workload`` from ``seed``, run its measured phase, check it."""
    from repro.obs.registry import device_snapshot
    from workloads import (
        READ_SLO_US,
        clear_memo_caches,
        command_latencies,
        prepare,
        written_lpas,
    )

    rep = Rep()
    clear_memo_caches()
    gc.collect()
    setup_probe = SpeedProbe()
    setup_probe.sample(3)
    started = time.perf_counter()
    prepared = prepare(workload, seed, scale)
    rep.setup_raw_s = time.perf_counter() - started
    setup_probe.sample(3)
    rep.setup_s = rep.setup_raw_s / setup_probe.slowdown
    ssd, host = prepared.ssd, prepared.host
    channels = range(ssd.config.channels)
    bus_before = sum(ssd.scheduler.bus_time_us(c) for c in channels)
    before = device_snapshot(ssd, host=host)
    gc.collect()
    # Speed samples would land in the recorded spans' self time.
    recording = recorder is not None and recorder.record
    probe = None if recording else SpeedProbe()
    if recorder is not None:
        recorder.start()
    started = time.perf_counter()
    prepared.measure(probe)
    rep.wall_s = time.perf_counter() - started
    if recorder is not None:
        recorder.stop()
    if probe is not None:
        rep.wall_s -= probe.spent_s
        rep.slowdown = probe.slowdown
    after = device_snapshot(ssd, host=host)

    stats = ssd.stats
    rep.commands = prepared.commands
    rep.completed = int(stats.requests_completed)
    if len(prepared.issued) != rep.commands:
        rep.problems.append(
            f"{len(prepared.issued)} of {rep.commands} commands were submitted"
        )
    reads, writes, issued_reads, issued_writes = command_latencies(prepared)
    rep.read_samples, rep.write_samples = len(reads), len(writes)
    if len(reads) != issued_reads or len(writes) != issued_writes:
        rep.problems.append(
            f"latencies for {len(reads)}/{issued_reads} reads and "
            f"{len(writes)}/{issued_writes} writes"
        )
    if any(not (0.0 < value < math.inf) for value in reads + writes):
        rep.problems.append("a command latency is not positive and finite")
    rep.lost_reads = prepared.lost_reads
    unfinished_reads = issued_reads - len(reads)
    slow_reads = sum(1 for value in reads if value > READ_SLO_US)
    measured_s = stats.measured_time_us / 1e6
    bus_busy = sum(ssd.scheduler.bus_time_us(c) for c in channels) - bus_before
    rep.sim = {
        "sim_iops": rep.completed / measured_s if measured_s > 0 else 0.0,
        "sim_read_mean_us": sum(reads) / len(reads) if reads else 0.0,
        "sim_read_tail_us": tail_mean(reads, 99),
        "sim_read_p50_us": nearest_rank(reads, 50),
        "sim_read_p99_us": nearest_rank(reads, 99),
        "sim_write_p99_us": nearest_rank(writes, 99),
        "sim_slo_miss_ratio": (slow_reads + unfinished_reads) / max(1, issued_reads),
        "sim_waf": stats.write_amplification,
        "sim_mapping_kib": _mean_mapping_bytes(ssd) / 1024.0,
        "sim.chan_busy_frac": bus_busy
        / (len(channels) * stats.measured_time_us or 1.0),
        "core.segments": float(_segment_count(ssd.ftl)),
    }
    delta = after.delta(before).as_dict()
    rep.counters = {**after.as_dict(), **{f"delta.{k}": v for k, v in delta.items()}}
    payload = json.dumps(
        [sorted(after.as_dict().items()), reads, writes], separators=(",", ":")
    )
    rep.digest = hashlib.sha256(payload.encode()).hexdigest()
    rep.progress = prepared.progress
    if readback:
        _read_back(ssd, written_lpas(prepared), rep)
    return rep


def _mean_mapping_bytes(ssd) -> float:
    """Resident mapping table averaged over the measured phase.

    The device samples it at every buffer flush; a phase that flushes
    nothing leaves the table unchanged, so its current size is the mean.
    """
    samples = ssd.stats.mapping_bytes_samples
    if not samples:
        return float(ssd.mapping_table_bytes())
    return sum(samples) / len(samples)


def _segment_count(ftl) -> int:
    table = getattr(ftl, "table", None)
    count = getattr(table, "segment_count", None)
    return int(count()) if callable(count) else 0


def _read_back(ssd, lpas: List[int], rep: Rep) -> None:
    """Read every written LPA; an exception or an unmapped read fails it."""
    from repro.ssd.ssd import SimulationError

    for lpa in lpas:
        rep.readback_reads += 1
        unmapped = ssd.stats.unmapped_reads
        try:
            ssd.read(lpa)
        except SimulationError:
            rep.readback_failures += 1
            continue
        if ssd.stats.unmapped_reads != unmapped:
            rep.readback_failures += 1


def end_to_end_metrics(reps: List[Rep], peak_rss_mib: float) -> Dict[str, float]:
    first = reps[0]
    return {
        "host_ios_per_s": statistics.median(r.host_ios_per_s for r in reps),
        "setup_s": statistics.median(r.setup_s for r in reps),
        "host_peak_rss_mib": peak_rss_mib,
        **{name: value for name, value in first.sim.items() if name.startswith("sim_")},
        "failed_op_ratio": sum(r.failed for r in reps) / sum(r.attempted for r in reps),
    }


def per_layer_metrics(
    traced: Rep, untraced: Rep, recorder, e2e: Dict[str, float]
) -> Tuple[Dict[str, float], Dict[str, Tuple[int, float]]]:
    """The per-layer metrics of one traced repetition."""
    by_function = recorder.per_function()
    layer_of = dict(zip(recorder.functions, recorder.layer_of))
    calls = {layer: 0 for layer in set(layer_of.values())}
    self_s = {layer: 0.0 for layer in calls}
    for name, (count, seconds) in by_function.items():
        calls[layer_of[name]] += count
        self_s[layer_of[name]] += seconds
    c = traced.counters

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def self_of(names) -> float:
        return sum(by_function.get(name, (0, 0.0))[1] for name in names)

    def namespaces_total(field: str) -> float:
        return sum(
            value
            for key, value in c.items()
            if key.startswith("ns.") and key.endswith(f".{field}")
        )

    read_pages = c["ssd.host_read_pages"]
    metrics: Dict[str, float] = {}
    for layer in ("sim", "host", "ssd", "core", "ftl", "flash", "obs"):
        metrics[f"{layer}.calls"] = float(calls.get(layer, 0))
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    metrics.update(
        {
            "sim.events": c["ssd.events_processed"],
            "sim.chan_busy_frac": traced.sim["sim.chan_busy_frac"],
            "sim.read_stall_us_per_read": ratio(
                c["ssd.read_stall_us"], traced.read_samples
            ),
            "host.queue_wait_us_per_cmd": ratio(
                namespaces_total("queue_wait_us"), namespaces_total("completed")
            ),
            "ssd.cache_hit_ratio": ratio(c["ssd.cache_hits"], read_pages),
            "ssd.buffer_hit_ratio": ratio(c["ssd.buffer_hits"], read_pages),
            "ssd.gc_victims": c["ssd.gc_victim_blocks"],
            "ssd.gc_pages_per_victim": ratio(
                c["ssd.gc_page_writes"], c["ssd.gc_victim_blocks"]
            ),
            "core.learn_self_s": self_of(LEARN_FUNCTIONS),
            "core.lookup_self_s": self_of(LOOKUP_FUNCTIONS),
            "core.levels_per_lookup": ratio(
                c.get("delta.mapping_table.lookup_levels_total", 0.0),
                c.get("delta.mapping_table.lookups", 0.0),
            ),
            "core.misprediction_ratio": c["ssd.misprediction_ratio"],
            "core.segments": traced.sim["core.segments"],
            "ftl.translation_reads_per_lookup": ratio(
                c["ssd.translation_page_reads"], c["ssd.translation_lookups"]
            ),
            "flash.page_programs": c["ssd.total_flash_page_writes"],
            "flash.block_erases": c["ssd.gc_block_erases"],
            "trace.overhead_frac": traced.wall_s / untraced.wall_s - 1.0,
            "trace.unattributed_frac": max(
                0.0, 1.0 - recorder.top_level_seconds() / traced.wall_s
            ),
        }
    )
    for name in UNBOUNDED:
        metrics[f"e2e.{name}"] = e2e[name]
    return metrics, by_function


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _print_table(title: str, metrics: Dict[str, float], units: Dict[str, str]) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {units[name]}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    from workloads import BUILDERS

    if args.workload not in BUILDERS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(BUILDERS)}")

    reps: List[Rep] = []
    started = time.perf_counter()
    if args.trace == 0:
        while len(reps) < MIN_REPS or (
            time.perf_counter() - started < args.seconds and len(reps) < MAX_REPS
        ):
            reps.append(run_rep(args.workload, args.seed, readback=not reps))
    else:
        from spans import SpanRecorder

        reps.append(run_rep(args.workload, args.seed, readback=True))
        recorder = SpanRecorder()
        recorder.install()
        try:
            reps.append(run_rep(args.workload, args.seed, recorder=recorder))
        finally:
            recorder.uninstall()

    problems = [problem for rep in reps for problem in rep.problems]
    digests = sorted({rep.digest for rep in reps})
    if len(digests) != 1:
        problems.append(f"repetitions disagree on the sim-stats digest: {digests}")
    plain = reps if args.trace == 0 else reps[:1]
    e2e = end_to_end_metrics(plain, _peak_rss_mib())
    failed = sum(rep.failed for rep in reps)
    attempted = sum(rep.attempted for rep in reps)
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")

    first = reps[0]
    print(
        f"workload {args.workload} seed {args.seed}: {first.commands} commands, "
        f"{len(reps)} repetition(s), {first.read_samples} read and "
        f"{first.write_samples} write latency samples, "
        f"{first.readback_reads} LPAs read back"
    )
    print(f"sim-stats digest {digests[0]}")
    print("repetitions (measured, machine slowdown, scaled to the idle machine):")
    for name, values in (
        ("measured ios/s", [rep.raw_ios_per_s for rep in reps]),
        ("measured setup s", [rep.setup_raw_s for rep in reps]),
        ("slowdown", [rep.slowdown for rep in reps]),
        ("host_ios_per_s", [rep.host_ios_per_s for rep in reps]),
        ("setup_s", [rep.setup_s for rep in reps]),
    ):
        print(f"  {name:<18} " + " ".join(f"{value:.4g}" for value in values))
    e2e_units, layer_units = _metric_units()
    _print_table(
        "end-to-end",
        e2e,
        {**e2e_units, **{name: layer_units[f"e2e.{name}"] for name in UNBOUNDED}},
    )
    if args.trace == 0:
        metrics = {name: e2e[name] for name in e2e_units}
        units = e2e_units
    else:
        metrics, by_function = per_layer_metrics(reps[1], reps[0], recorder, e2e)
        metrics = {name: metrics[name] for name in layer_units}
        units = layer_units
        _print_table("per layer (traced repetition)", metrics, units)
        if recorder.skipped:
            print("not found, so not traced: " + ", ".join(recorder.skipped))
        print("wrapped functions by self time (calls, self s)")
        for name, (calls, seconds) in sorted(
            by_function.items(), key=lambda item: -item[1][1]
        ):
            if calls:
                print(f"  {name:<44} {calls:>10} {seconds:>10.4f}")
        OUT_DIR.mkdir(exist_ok=True)
        recorder.write(str(OUT_DIR / f"spans-{args.workload}.npz"))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
