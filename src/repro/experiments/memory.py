"""Mapping-table memory-footprint experiments (Figures 15 and 19).

These experiments measure how many DRAM bytes each FTL scheme needs to hold
the mapping of a workload's entire working set — no DRAM budget, no warm-up,
no timing — which is exactly what Figure 15 (LeaFTL vs DFTL vs SFTL) and
Figure 19 (LeaFTL with different gamma) compare.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.analysis.memory import geometric_mean, reduction_factor
from repro.experiments.common import (
    ExperimentSetup,
    SIMULATOR_WORKLOADS,
    oob_size_for_gamma,
    run_experiment,
    workload_for_setup,
)


def memory_setup(gamma: int = 0, request_scale: float = 0.25) -> ExperimentSetup:
    """A setup tailored to footprint measurements (no warm-up, no budget)."""
    return ExperimentSetup(
        gamma=gamma,
        oob_size=oob_size_for_gamma(gamma),
        warmup=False,
        request_scale=request_scale,
        # A large DRAM so no scheme is budget-limited: we want the size each
        # scheme *needs*, not the size it was allowed.
        dram_bytes=512 * 1024 * 1024,
        # Compact often enough (relative to the scaled-down traces) that the
        # footprint reflects the paper's periodically-compacted steady state.
        compaction_interval_writes=25_000,
    )


def mapping_footprints(
    workloads: Sequence[str] = tuple(SIMULATOR_WORKLOADS),
    schemes: Sequence[str] = ("DFTL", "SFTL", "LeaFTL"),
    gamma: int = 0,
    request_scale: float = 0.25,
) -> Dict[str, Dict[str, int]]:
    """workload -> scheme -> full mapping-table bytes (Figure 15 input)."""
    setup = memory_setup(gamma=gamma, request_scale=request_scale)
    results: Dict[str, Dict[str, int]] = {}
    for workload in workloads:
        trace = workload_for_setup(workload, setup)
        per_scheme: Dict[str, int] = {}
        for scheme in schemes:
            outcome = run_experiment(workload, scheme, setup, trace=trace)
            per_scheme[scheme] = outcome.mapping_full_bytes
        results[workload] = per_scheme
    return results


def average_reduction(
    footprints: Dict[str, Dict[str, int]], baseline: str, target: str = "LeaFTL"
) -> float:
    """Geometric-mean reduction of ``target`` vs ``baseline`` across workloads."""
    factors = [
        reduction_factor(by_scheme[baseline], by_scheme[target])
        for by_scheme in footprints.values()
    ]
    return geometric_mean(factors)


def gamma_sweep_footprints(
    workloads: Sequence[str],
    gammas: Sequence[int] = (0, 1, 4, 16),
    request_scale: float = 0.25,
) -> Dict[str, Dict[int, int]]:
    """workload -> gamma -> LeaFTL mapping bytes (Figure 19 input)."""
    results: Dict[str, Dict[int, int]] = {}
    for workload in workloads:
        per_gamma: Dict[int, int] = {}
        for gamma in gammas:
            setup = memory_setup(gamma=gamma, request_scale=request_scale)
            trace = workload_for_setup(workload, setup)
            outcome = run_experiment(workload, "LeaFTL", setup, trace=trace)
            per_gamma[gamma] = outcome.mapping_full_bytes
        results[workload] = per_gamma
    return results
