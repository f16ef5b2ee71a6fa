"""Instrumentation of one benchmark iteration, all from outside ``src/``.

Three pieces, used by :mod:`iteration`:

* :class:`RunTally` wraps ``GPUSystem.run`` and folds every simulated
  system's engine counters into run totals.  It costs one snapshot per
  system run, so the untraced runs use it too (it is how the fleet, whose
  outcome exposes no engine stats, reports block-equivalent events).
* :class:`SpanRecorder` wraps the public entry points of each layer and
  keeps one span per call in memory: name, start, end, parent and, where
  the call carries one, the request id.  Spans are written out when the
  iteration ends.
* :func:`layer_table` buckets a ``cProfile`` run by layer: self time
  (function time minus callee time, with built-ins charged to the layer
  that called them) and entry calls (calls into the layer from outside it),
  and counts entry calls into each package below ``repro`` the same way.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import pstats
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers, named after the ``src/repro`` packages they bucket.
LAYERS = (
    "sim",
    "gpu",
    "core",
    "memory",
    "host",
    "utils",
    "serving",
    "cluster",
    "loadgen",
    "validation",
    "telemetry",
    "obs",
)
#: Bucket of every other ``repro`` module (system, scenario, workloads, ...)
#: and of code outside ``repro``.
OTHER = "other"
#: Bucket of this benchmark's own wrappers (tracing overhead, not reported).
BENCH = "perfbench"

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def package_of(filename: str) -> Optional[str]:
    """Package path below ``repro`` (``"core/policies"``); ``None`` outside it."""
    _, sep, tail = filename.rpartition(os.sep + "repro" + os.sep)
    return os.path.dirname(tail).replace(os.sep, "/") if sep else None


def layer_of(filename: str) -> Optional[str]:
    """Layer of a code file; ``None`` for built-ins and code outside ``repro``."""
    if filename.startswith(_BENCH_DIR):
        return BENCH
    _, sep, tail = filename.rpartition(os.sep + "repro" + os.sep)
    if not sep:
        return None
    package = tail.split(os.sep, 1)[0]
    return package if package in LAYERS else OTHER


# ----------------------------------------------------------------------
# Patching helpers
# ----------------------------------------------------------------------
class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, make(original))

    def undo(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


# ----------------------------------------------------------------------
# Engine counters per system run
# ----------------------------------------------------------------------
class RunTally:
    """Engine counters summed over every ``GPUSystem.run`` in a ``with`` block."""

    def __init__(self) -> None:
        self.systems = 0
        self.events = 0
        self.events_scheduled = 0
        self.events_cancelled = 0
        self.peak_pending = 0
        self.block_events = 0
        self.blocks_executed = 0
        self.blocks_preempted = 0
        self.transfer_bytes = 0.0
        self.preemptions_via: Dict[str, float] = {}
        self._patches = _Patches()

    def __enter__(self) -> "RunTally":
        from repro.experiments.scale import block_equivalent_events
        from repro.system import GPUSystem

        tally = self

        def make(original):
            @functools.wraps(original)
            def run(system, *args, **kwargs):
                original(system, *args, **kwargs)
                sim = system.simulator
                stats = system.execution_engine.utilization_snapshot()
                tally.systems += 1
                tally.events += sim.events_processed
                tally.events_scheduled += sim.events_scheduled
                tally.events_cancelled += sim.events_cancelled
                tally.peak_pending = max(tally.peak_pending, sim.peak_heap_entries)
                tally.block_events += block_equivalent_events(sim.events_processed, stats)
                tally.blocks_executed += int(stats["blocks_executed"])
                tally.blocks_preempted += int(stats["blocks_preempted"])
                transfer = system.transfer_engine.stats.snapshot()
                tally.transfer_bytes += transfer.get("bytes_transferred", 0.0)
                for key, value in stats.items():
                    if key.startswith("preemptions_via."):
                        mechanism = key.split(".", 1)[1]
                        tally.preemptions_via[mechanism] = (
                            tally.preemptions_via.get(mechanism, 0) + value
                        )

            return run

        self._patches.wrap(GPUSystem, "run", make)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class SpanRecorder:
    """In-memory spans around layer entry points; written out at the end."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._origin = time.perf_counter_ns()
        self._patches = _Patches()
        #: Blocks claimed through BlockRun spans vs. one by one.
        self.span_blocks = 0
        self.single_blocks = 0
        #: JSON bytes of fleet epoch payloads and results.
        self.payload_bytes = 0

    @contextlib.contextmanager
    def span(self, name: str, request_id: Optional[int] = None):
        """Record one span around the ``with`` body."""
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({})
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            record = {
                "id": span_id,
                "name": name,
                "start_us": (start - self._origin) / 1000.0,
                "end_us": (end - self._origin) / 1000.0,
                "parent": parent,
            }
            if request_id is not None:
                record["request_id"] = request_id
            self.spans[span_id] = record

    def _spanned(self, name: str, request_of=None):
        recorder = self

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                request_id = request_of(args) if request_of is not None else None
                with recorder.span(name, request_id):
                    return original(*args, **kwargs)

            return wrapper

        return make

    def install(self, *namespaces: Any) -> None:
        """Wrap the layer entry points (also where ``namespaces`` imported them)."""
        import repro.cluster.fleet as fleet
        import repro.experiments.serving as serving_exp
        import repro.loadgen.calibrate as calibrate
        import repro.loadgen.compile as compile_mod
        import repro.loadgen.synth as synth
        import repro.serving.driver as serving_driver
        import repro.workloads.large_gpu as large_gpu
        from repro.gpu.kernel import KernelLaunch
        from repro.serving.queue import IngressQueue
        from repro.sim.engine import Simulator
        from repro.system import GPUSystem
        from repro.workloads.multiprogram import IsolatedBaseline

        functions = [
            (large_gpu, "generate_large_gpu_scenario", "workloads.generate_large_gpu_scenario"),
            (serving_exp, "serving_scenario", "experiments.serving_scenario"),
            (synth, "synthesize_trace", "loadgen.synthesize_trace"),
            (calibrate, "calibrate_trace", "loadgen.calibrate_trace"),
            (calibrate, "probe_service_time_us", "loadgen.probe_service_time_us"),
            (compile_mod, "compile_serving_scenario", "loadgen.compile_serving_scenario"),
            (serving_driver, "run_serving", "serving.run_serving"),
            (fleet, "run_fleet", "cluster.run_fleet"),
            (fleet, "execute_epoch", "cluster.execute_epoch"),
        ]
        patches = self._patches
        for module, attr, name in functions:
            original = getattr(module, attr)
            for owner in (module, *namespaces):
                if getattr(owner, attr, None) is original:
                    patches.wrap(owner, attr, self._spanned(name))
        for cls, attr, name in (
            (IsolatedBaseline, "time_us", "workloads.isolated_baseline"),
            (GPUSystem, "__init__", "system.construct"),
            (GPUSystem, "run", "system.run"),
            (Simulator, "run", "sim.run"),
        ):
            patches.wrap(cls, attr, self._spanned(name))
        patches.wrap(
            IngressQueue,
            "offer",
            self._spanned("serving.offer", request_of=lambda args: args[1].request_id),
        )

        recorder = self

        def count_span(original):
            @functools.wraps(original)
            def take_fresh_span(launch, count):
                first, taken = original(launch, count)
                recorder.span_blocks += taken
                return first, taken

            return take_fresh_span

        def count_blocks(original):
            @functools.wraps(original)
            def take_fresh_blocks(launch, *args, **kwargs):
                blocks = original(launch, *args, **kwargs)
                recorder.single_blocks += len(blocks)
                return blocks

            return take_fresh_blocks

        def count_payload(original):
            @functools.wraps(original)
            def execute_epoch(payload):
                result = original(payload)
                recorder.payload_bytes += len(json.dumps(payload)) + len(json.dumps(result))
                return result

            return execute_epoch

        patches.wrap(KernelLaunch, "take_fresh_span", count_span)
        patches.wrap(KernelLaunch, "take_fresh_blocks", count_blocks)
        patches.wrap(fleet, "execute_epoch", count_payload)

    def uninstall(self) -> None:
        self._patches.undo()

    def total_us(self, name: str, *, parent_name: Optional[str] = None) -> float:
        """Summed duration of the spans called ``name`` (under ``parent_name``)."""
        total = 0.0
        for span in self.spans:
            if span.get("name") != name:
                continue
            if parent_name is not None:
                parent = span["parent"]
                if parent is None or self.spans[parent].get("name") != parent_name:
                    continue
            total += span["end_us"] - span["start_us"]
        return total

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span.get("name") == name)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Layer buckets of a cProfile run
# ----------------------------------------------------------------------
def layer_table(profile) -> Dict[str, Any]:
    """Per-layer self seconds and entry calls, plus finer call counts.

    ``package_calls`` maps a package path below ``repro`` (``"core/policies"``)
    to the calls into it from code outside that package; ``calls`` maps
    ``"<path below repro>:<function>"`` to its call count, for counters that
    count one function.
    """
    stats = pstats.Stats(profile).stats
    self_s: Dict[str, float] = {}
    entry_calls: Dict[str, int] = {}
    package_calls: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    for (filename, _line, function), (_cc, ncalls, tottime, _ct, callers) in stats.items():
        layer = layer_of(filename)
        if layer is None:
            # Built-ins and non-repro code: charge each caller's share.
            for (caller_file, _l, _f), entry in callers.items():
                owner = layer_of(caller_file) or OTHER
                self_s[owner] = self_s.get(owner, 0.0) + entry[2]
            continue
        self_s[layer] = self_s.get(layer, 0.0) + tottime
        package = package_of(filename)
        for (caller_file, _l, _f), entry in callers.items():
            if layer_of(caller_file) != layer:
                entry_calls[layer] = entry_calls.get(layer, 0) + entry[1]
            if package is not None and package_of(caller_file) != package:
                package_calls[package] = package_calls.get(package, 0) + entry[1]
        _, _, below = filename.rpartition(os.sep + "repro" + os.sep)
        key = f"{below}:{function}"
        calls[key] = calls.get(key, 0) + ncalls
    return {
        "self_s": self_s,
        "entry_calls": entry_calls,
        "package_calls": package_calls,
        "calls": calls,
    }
