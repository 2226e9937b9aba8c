"""Span recording around the public functions of each simulator layer.

The benchmark measures the simulator from outside: :meth:`SpanRecorder.install`
replaces selected public methods of the ``repro`` classes with thin wrappers
that record one span per call (function, start, end, parent span, command
id) into flat in-memory arrays.  Nothing in ``src/repro`` changes;
:meth:`SpanRecorder.uninstall` restores the original methods.

A layer is one ``src/repro`` package.  A span's *self time* is its duration
minus the duration of its direct child spans, so a layer's ``self_s`` is the
host time spent in that layer's wrapped functions and not in a deeper
wrapped call.  Code the wrappers do not reach lands in the nearest wrapped
caller: synchronous GC runs in private ``SimulatedSSD`` helpers and counts
as ``ssd``; event callbacks without a public entry count as ``sim`` (the
enclosing ``EventLoop.run``).

The wrappers must be installed before a device is built, because some
objects keep bound methods (the telemetry NAND probe, for example).
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

#: layer -> ((module, class, methods), ...).  A class entry also covers every
#: loaded subclass that overrides one of the methods (arbiters, GC policies).
LAYER_FUNCTIONS: Dict[str, Tuple[Tuple[str, str, Tuple[str, ...]], ...]] = {
    "sim": (
        ("repro.sim.events", "EventLoop", ("run", "schedule")),
        ("repro.sim.nand", "NANDScheduler", ("reserve", "reserve_run")),
        ("repro.sim.frontend", "HostFrontend", ("run",)),
        ("repro.sim.frontend", "OpenLoopFrontend", ("run",)),
    ),
    "host": (
        ("repro.host.interface", "MultiQueueFrontend", ("run",)),
        ("repro.host.arbiter", "Arbiter", ("select",)),
        ("repro.host.interface", "SubmissionQueue", ("enqueue", "ensure_head", "pop")),
        ("repro.host.arbiter", "TokenBucket", ("try_consume",)),
    ),
    "ssd": (
        ("repro.ssd.ssd", "SimulatedSSD", ("run", "submit", "read", "write", "flush")),
        ("repro.ssd.cache", "LRUDataCache", ("lookup", "insert")),
        ("repro.ssd.write_buffer", "WriteBuffer", ("add", "drain")),
        ("repro.ssd.gc", "GCPolicy", ("select_victims",)),
        ("repro.ssd.gc", "BackgroundGCController", ("maybe_start",)),
    ),
    "core": (
        (
            "repro.core.leaftl",
            "LeaFTL",
            ("translate", "translate_range", "update_batch", "resolve_misprediction"),
        ),
        (
            "repro.core.mapping_table",
            "LogStructuredMappingTable",
            ("lookup", "lookup_range", "update", "compact"),
        ),
        ("repro.core.plr", "PLRLearner", ("learn",)),
    ),
    "ftl": (
        ("repro.ftl.dftl", "DFTL", ("translate", "translate_range", "update_batch")),
        ("repro.ftl.sftl", "SFTL", ("translate", "translate_range", "update_batch")),
        (
            "repro.ftl.pagemap",
            "PageLevelFTL",
            ("translate", "translate_range", "update_batch"),
        ),
    ),
    "flash": (
        (
            "repro.flash.flash_array",
            "FlashArray",
            (
                "read_page",
                "read_page_run",
                "read_oob",
                "read_oob_run",
                "program_page",
                "program_run",
                "invalidate_page",
                "erase_block",
            ),
        ),
        (
            "repro.flash.allocator",
            "BlockAllocator",
            ("allocate_block", "frontier", "release_block"),
        ),
    ),
    "obs": (
        ("repro.obs.tracing", "Tracer", ("observe", "nand_op")),
        ("repro.obs.metrics", "MetricsSampler", ("observe", "pump")),
    ),
}

LAYERS: Tuple[str, ...] = tuple(LAYER_FUNCTIONS)

#: The wrapper that starts a new command id for the spans beneath it.
COMMAND_FUNCTION = "SimulatedSSD.submit"


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class SpanRecorder:
    """Flat, append-only span storage plus the wrappers that fill it.

    Recording is off until :attr:`active` is set, so the wrappers can stay
    installed through a workload's set-up without recording it.
    ``delays_s`` maps a function name (``"Class.method"``) to a busy-wait
    added on every call while :attr:`armed` is set (inside the span when
    recording); the sensitivity checks use it to confirm that a known cost
    shows up in the right layer and nowhere else.
    """

    def __init__(
        self, delays_s: Optional[Dict[str, float]] = None, record: bool = True
    ) -> None:
        self.delays_s = dict(delays_s or {})
        self.record = record
        self.functions: List[str] = []
        self.layer_of: List[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.cmd = array("i")
        self.t_start = array("d")
        self.t_end = array("d")
        self.active = False
        self.armed = False
        self._stack: List[int] = [-1]
        self._command = -1
        self._next_command = 0
        self._patched: List[Tuple[type, str, Callable]] = []
        #: Listed classes or methods the program no longer has.
        self.skipped: List[str] = []

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def install(
        self, layers: Iterable[str] = LAYERS, only: Optional[Iterable[str]] = None
    ) -> None:
        """Wrap the layers' functions (or just the ``only`` names)."""
        wanted = None if only is None else set(only)
        for layer in layers:
            for module_name, class_name, methods in LAYER_FUNCTIONS[layer]:
                module = importlib.import_module(module_name)
                base = getattr(module, class_name, None)
                if base is None:
                    self.skipped.append(f"{module_name}.{class_name}")
                    continue
                for cls in _subclasses(base):
                    for method in methods:
                        name = f"{cls.__name__}.{method}"
                        if wanted is not None and name not in wanted:
                            continue
                        if method in cls.__dict__:
                            self._wrap(layer, cls, method)
                        elif cls is base and not hasattr(cls, method):
                            self.skipped.append(f"{class_name}.{method}")

    def start(self) -> None:
        """Arm the delays and, unless built with ``record=False``, record."""
        self.armed = True
        self.active = self.record

    def stop(self) -> None:
        self.armed = self.active = False

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._patched):
            setattr(cls, method, original)
        self._patched.clear()

    def _wrap(self, layer: str, cls: type, method: str) -> None:
        original = cls.__dict__[method]
        name = f"{cls.__name__}.{method}"
        fid = len(self.functions)
        self.functions.append(name)
        self.layer_of.append(layer)
        delay = self.delays_s.get(name, 0.0)
        starts_command = name == COMMAND_FUNCTION
        recorder = self
        stack = self._stack
        fn_col, parent_col, cmd_col = self.fn, self.parent, self.cmd
        start_col, end_col = self.t_start, self.t_end
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not recorder.active:
                if delay and recorder.armed:
                    _spin(clock, delay)
                return original(*args, **kwargs)
            if starts_command:
                outer = recorder._command
                recorder._command = recorder._next_command
                recorder._next_command += 1
            index = len(fn_col)
            fn_col.append(fid)
            parent_col.append(stack[-1])
            cmd_col.append(recorder._command)
            end_col.append(0.0)
            stack.append(index)
            start_col.append(clock())
            try:
                if delay and recorder.armed:
                    _spin(clock, delay)
                return original(*args, **kwargs)
            finally:
                end_col[index] = clock()
                stack.pop()
                if starts_command:
                    recorder._command = outer

        setattr(cls, method, traced)
        self._patched.append((cls, method, original))

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def per_function(self) -> Dict[str, Tuple[int, float]]:
        """``function -> (calls, self seconds)`` over every recorded span."""
        count = len(self.functions)
        if not len(self.fn):
            return {name: (0, 0.0) for name in self.functions}
        fn = np.frombuffer(self.fn, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.t_end, dtype=np.float64) - np.frombuffer(
            self.t_start, dtype=np.float64
        )
        nested = parent >= 0
        child_time = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(fn)
        )
        self_time = duration - child_time
        calls = np.bincount(fn, minlength=count)
        self_by_fn = np.bincount(fn, weights=self_time, minlength=count)
        return {
            name: (int(calls[i]), float(self_by_fn[i]))
            for i, name in enumerate(self.functions)
        }

    def top_level_seconds(self) -> float:
        """Wall time covered by spans that have no wrapped parent."""
        top = np.frombuffer(self.parent, dtype=np.int32) < 0
        ends = np.frombuffer(self.t_end, dtype=np.float64)
        starts = np.frombuffer(self.t_start, dtype=np.float64)
        return float((ends[top] - starts[top]).sum())

    def write(self, path: str) -> None:
        """Write the spans and the function table to ``path`` (``.npz``)."""
        np.savez(
            path,
            functions=np.array(self.functions),
            layers=np.array(self.layer_of),
            fn=np.frombuffer(self.fn, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            cmd=np.frombuffer(self.cmd, dtype=np.int32),
            start=np.frombuffer(self.t_start, dtype=np.float64),
            end=np.frombuffer(self.t_end, dtype=np.float64),
        )


def _spin(clock: Callable[[], float], seconds: float) -> None:
    deadline = clock() + seconds
    while clock() < deadline:
        pass
