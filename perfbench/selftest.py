"""The benchmark's own tests: workload properties and sensitivity.

Run from the repository root (about three minutes on two cores)::

    python3 -m pytest perfbench/selftest.py -q

The file is not named ``test_*.py`` on purpose, so the repository's own
test suite does not collect it.

* Property tests check that each workload loads the layers the benchmark
  says it loads and leaves the others idle (zero calls), and the workload
  shapes the metrics rely on (GC steady state, cache misses, two tenants).
* Sensitivity tests inject a fixed busy-wait, through the benchmark's own
  span wrapper, into one public function per layer and check that the
  layer's self time rises by about calls x delay on the workload where the
  function does most work, while ``host_ios_per_s`` stays within its bound
  on a workload where the function is never called.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, Optional, Tuple

import pytest

HERE = Path(__file__).resolve().parent
for _path in (str(HERE.parent / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import run  # noqa: E402
from spans import SpanRecorder  # noqa: E402

SEED = 7
LEAFTL_WORKLOADS = ("overwrite_gc_qd8", "random_read_g4_qd1", "tenants_wrr_telemetry")
WORKLOADS = LEAFTL_WORKLOADS + ("dftl_msr_hm",)


def _bound(metric: str) -> float:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == metric)


class Traced:
    """One traced repetition, summarised per function and per layer."""

    def __init__(self, workload: str, delays: Optional[Dict[str, float]] = None):
        recorder = SpanRecorder(delays)
        recorder.install()
        try:
            self.rep = run.run_rep(workload, SEED, recorder=recorder)
        finally:
            recorder.uninstall()
        self.functions = recorder.per_function()
        self.layer_calls: Dict[str, int] = {}
        self.layer_self: Dict[str, float] = {}
        for name, layer in zip(recorder.functions, recorder.layer_of):
            calls, seconds = self.functions[name]
            self.layer_calls[layer] = self.layer_calls.get(layer, 0) + calls
            self.layer_self[layer] = self.layer_self.get(layer, 0.0) + seconds

    def calls(self, function: str) -> int:
        return self.functions.get(function, (0, 0.0))[0]


@functools.lru_cache(maxsize=None)
def traced(workload: str) -> Traced:
    return Traced(workload)


# --------------------------------------------------------------------- #
# Workload properties
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workload", WORKLOADS)
def test_runs_are_correct(workload: str) -> None:
    rep = traced(workload).rep
    assert not rep.problems
    assert rep.failed == 0
    assert rep.completed == rep.commands > 0


def test_layer_split() -> None:
    """Zero calls wherever the benchmark's layer table says "0 calls"."""
    assert traced("dftl_msr_hm").layer_calls["core"] == 0
    assert traced("dftl_msr_hm").layer_calls["ftl"] > 0
    for workload in LEAFTL_WORKLOADS:
        assert traced(workload).layer_calls["ftl"] == 0, workload
        assert traced(workload).layer_calls["core"] > 0, workload
    for workload in WORKLOADS:
        busy = workload == "tenants_wrr_telemetry"
        for layer in ("host", "obs"):
            assert (traced(workload).layer_calls[layer] > 0) == busy, (workload, layer)
    reads = traced("random_read_g4_qd1")
    assert reads.rep.counters["ssd.events_processed"] == 0
    assert reads.calls("PLRLearner.learn") == 0
    assert reads.calls("EventLoop.run") == 0
    assert traced("overwrite_gc_qd8").calls("PLRLearner.learn") > 0


def test_overwrite_reaches_gc_steady_state() -> None:
    rep = traced("overwrite_gc_qd8").rep
    assert rep.counters["ssd.gc_invocations"] >= 10
    assert rep.counters["ssd.gc_victim_blocks"] >= 1000

    def window_waf(start: int, stop: int) -> float:
        _, host0, flash0 = rep.progress[start]
        _, host1, flash1 = rep.progress[stop]
        return (flash1 - flash0) / (host1 - host0)

    quarter = len(rep.progress) // 4
    last = window_waf(len(rep.progress) - 1 - quarter, len(rep.progress) - 1)
    before = window_waf(len(rep.progress) - 1 - 2 * quarter, len(rep.progress) - 1 - quarter)
    assert last > 2.0
    assert abs(last - before) / before < 0.1, (before, last)


def test_random_reads_miss_the_cache_and_mispredict() -> None:
    c = traced("random_read_g4_qd1").rep.counters
    hits = (c["ssd.cache_hits"] + c["ssd.buffer_hits"]) / c["ssd.host_read_pages"]
    assert hits <= 0.05
    assert c["ssd.mispredictions"] > 0
    assert c["ssd.gc_invocations"] == 0
    assert c["ssd.host_write_pages"] == 0


def test_both_tenants_complete_commands() -> None:
    rep = traced("tenants_wrr_telemetry").rep
    c = rep.counters
    assert c["ns.reader.completed"] > 0 and c["ns.writer.completed"] > 0
    assert c["ns.reader.completed"] + c["ns.writer.completed"] == rep.commands
    assert c["ns.reader.queue_wait_us"] > 0


def test_tracing_does_not_change_the_simulation() -> None:
    untraced = run.run_rep("tenants_wrr_telemetry", SEED)
    assert untraced.digest == traced("tenants_wrr_telemetry").rep.digest


# --------------------------------------------------------------------- #
# Sensitivity: a known cost shows up in the named layer, and only there
# --------------------------------------------------------------------- #
#: (function, layer, workload where it does most work, workload where it is
#: never called, injected delay per call in seconds).  Each delay adds about
#: three times the layer's own self time, so run-to-run noise in the layer
#: stays well inside the 20 % tolerance.
SENSITIVITY: Tuple[Tuple[str, str, str, str, float], ...] = (
    ("PLRLearner.learn", "core", "overwrite_gc_qd8", "random_read_g4_qd1", 600e-6),
    ("DFTL.translate_range", "ftl", "dftl_msr_hm", "overwrite_gc_qd8", 90e-6),
    (
        "WeightedRoundRobinArbiter.select",
        "host",
        "tenants_wrr_telemetry",
        "dftl_msr_hm",
        100e-6,
    ),
    ("Tracer.observe", "obs", "tenants_wrr_telemetry", "random_read_g4_qd1", 40e-6),
)


@pytest.mark.parametrize(
    "function,layer,busy,idle,delay", SENSITIVITY, ids=[s[0] for s in SENSITIVITY]
)
def test_injected_delay_lands_in_its_layer(
    function: str, layer: str, busy: str, idle: str, delay: float
) -> None:
    base = traced(busy)
    slowed = Traced(busy, delays={function: delay})
    calls = slowed.calls(function)
    assert calls == base.calls(function) > 0
    expected = calls * delay
    # The two runs may meet the shared machine at different speeds; the
    # other layers, which carry no delay, give the ratio to scale by.
    others = sum(t for name, t in slowed.layer_self.items() if name != layer)
    others_base = sum(t for name, t in base.layer_self.items() if name != layer)
    rise = slowed.layer_self[layer] - base.layer_self[layer] * others / others_base
    assert 0.8 * expected < rise < 1.25 * expected, (rise, expected)


@pytest.mark.parametrize(
    "function,layer,busy,idle,delay", SENSITIVITY, ids=[s[0] for s in SENSITIVITY]
)
def test_injected_delay_leaves_other_workloads_alone(
    function: str, layer: str, busy: str, idle: str, delay: float
) -> None:
    assert traced(idle).calls(function) == 0
    plain, slowed = [], []
    for _ in range(3):
        plain.append(run.run_rep(idle, SEED, scale=0.5).host_ios_per_s)
        recorder = SpanRecorder({function: delay}, record=False)
        recorder.install(only=[function])
        try:
            slowed.append(
                run.run_rep(idle, SEED, scale=0.5, recorder=recorder).host_ios_per_s
            )
        finally:
            recorder.uninstall()
    ratio = statistics.median(slowed) / statistics.median(plain)
    assert ratio >= 1.0 - _bound("host_ios_per_s"), (plain, slowed)
