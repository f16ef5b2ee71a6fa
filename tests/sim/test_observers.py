"""The observer contract: block hooks and their span twins travel together.

Fresh blocks execute as :class:`~repro.gpu.blockrun.BlockRun` spans that
observers see only through ``on_run_started`` / ``on_run_completed``.  An
observer that handles per-block hooks but not their run twins would silently
miss most blocks, so every observer in the package must override both.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from types import SimpleNamespace

import repro
from repro.gpu.blockrun import BlockRun
from repro.gpu.kernel import KernelLaunch, KernelSpec
from repro.gpu.resources import ResourceUsage
from repro.sim.observers import BaseObserver, CompositeObserver
from repro.telemetry import events as ev
from repro.telemetry.collector import TraceCollector
from repro.validation.base import InvariantChecker, ValidationHub

#: Per-block hook -> the span hook an observer must override with it.
RUN_TWINS = {"on_block_started": "on_run_started", "on_block_completed": "on_run_completed"}


def _observer_classes() -> list:
    """Every observer class defined in the package (hubs and checkers too)."""
    classes = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and issubclass(
                cls, (BaseObserver, InvariantChecker, ValidationHub)
            ):
                classes[f"{cls.__module__}.{cls.__qualname__}"] = cls
    return [classes[name] for name in sorted(classes)]


def test_observers_overriding_block_hooks_override_their_run_twins():
    classes = _observer_classes()
    names = {cls.__name__ for cls in classes}
    assert {"TraceCollector", "BlockAccountingChecker", "OccupancyChecker"} <= names
    missing = [
        f"{cls.__qualname__}.{twin}"
        for cls in classes
        for hook, twin in RUN_TWINS.items()
        if hook in vars(cls) and twin not in vars(cls)
    ]
    assert missing == []


def _run(count: int = 3) -> BlockRun:
    spec = KernelSpec(
        name="k", benchmark="b", num_thread_blocks=8, avg_tb_time_us=2.0,
        usage=ResourceUsage(registers_per_block=1, shared_memory_per_block=0),
    )
    launch = KernelLaunch(spec=spec, launch_id=4, context_id=1)
    first, taken = launch.take_fresh_span(count)
    return BlockRun(launch, first, taken, spec.avg_tb_time_us)


class _Recorder(BaseObserver):
    def __init__(self) -> None:
        self.calls = []

    def on_run_started(self, sm, run) -> None:
        self.calls.append(("started", run.key))

    def on_run_completed(self, sm, run) -> None:
        self.calls.append(("completed", run.key))


def test_composite_and_hub_forward_run_hooks():
    run, sm = _run(), SimpleNamespace(sm_id=0)
    first, second = _Recorder(), _Recorder()
    composite = CompositeObserver([first, second])
    composite.on_run_started(sm, run)
    composite.on_run_completed(sm, run)
    assert first.calls == second.calls == [("started", run.key), ("completed", run.key)]

    seen = []

    class Checker(InvariantChecker):
        def on_run_started(self, sm, run) -> None:
            seen.append(("started", run.count))

        def on_run_completed(self, sm, run) -> None:
            seen.append(("completed", run.count))

    hub = ValidationHub([Checker()])
    hub.on_run_started(sm, run)
    hub.on_run_completed(sm, run)
    assert seen == [("started", 3), ("completed", 3)]


def test_trace_collector_expands_a_run_into_per_block_events():
    collector = TraceCollector()
    collector._sim = SimpleNamespace(now=7.5)
    run = _run(3)
    # Two blocks were resident before the span; the SM counts the span too.
    collector.on_run_started(SimpleNamespace(sm_id=2, resident_blocks=5), run)
    collector.on_run_completed(SimpleNamespace(sm_id=2, resident_blocks=2), run)
    rows = [(e.kind, e.attrs["block"], e.attrs["resident"]) for e in collector.events]
    assert rows == [
        (ev.BLOCK_START, 0, 3),
        (ev.BLOCK_START, 1, 4),
        (ev.BLOCK_START, 2, 5),
        (ev.BLOCK_FINISH, 0, 4),
        (ev.BLOCK_FINISH, 1, 3),
        (ev.BLOCK_FINISH, 2, 2),
    ]
    assert all(e.attrs["sm"] == 2 and e.attrs["launch"] == 4 for e in collector.events)
    assert [e.seq for e in collector.events] == list(range(6))
