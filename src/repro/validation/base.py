"""Invariant-validation primitives: violations, checkers and the hub.

The validation layer is a pure *observer* of a running
:class:`~repro.system.GPUSystem`: the simulator, SMs, command dispatcher and
execution engine expose instrumentation hooks (an ``observer`` attribute /
:meth:`~repro.sim.engine.Simulator.add_observer`), and the
:class:`ValidationHub` fans every hook out to a set of pluggable
:class:`InvariantChecker` instances.  Checkers assert the simulator's core
conservation laws — blocks complete exactly once, occupancy limits hold,
preempted state balances, time is monotone, per-process metrics are
consistent — and *record* :class:`Violation` values instead of raising, so a
single run can surface every broken invariant at once.

Checkers must never mutate simulation state or schedule events: a run with
validation enabled is byte-identical to the same run without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.gpu.blockrun import BlockRun
    from repro.gpu.command_queue import Command
    from repro.gpu.kernel import KernelLaunch
    from repro.gpu.sm import StreamingMultiprocessor
    from repro.gpu.thread_block import ThreadBlock
    from repro.sim.events import Event
    from repro.system import GPUSystem


@dataclass(frozen=True)
class Violation:
    """One detected invariant violation."""

    #: Name of the checker that detected the violation.
    checker: str
    #: Short machine-readable invariant identifier (e.g. ``block_completed_twice``).
    invariant: str
    #: Simulation time at which the violation was detected (µs).
    time_us: float
    #: Human-readable description with the offending quantities.
    message: str

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (stored in run records)."""
        return {
            "checker": self.checker,
            "invariant": self.invariant,
            "time_us": self.time_us,
            "message": self.message,
        }

    def __str__(self) -> str:
        return f"[{self.checker}/{self.invariant}] t={self.time_us:.3f}us: {self.message}"


class InvariantValidationError(AssertionError):
    """Raised by :meth:`ValidationHub.raise_if_violations` when checks failed."""

    def __init__(self, violations: List[Violation]):
        self.violations = violations
        lines = "\n".join(f"  - {violation}" for violation in violations)
        super().__init__(f"{len(violations)} invariant violation(s):\n{lines}")


class InvariantChecker:
    """Base class for pluggable invariant checkers.

    Every hook defaults to a no-op; subclasses override the ones they need
    and call :meth:`record` when an invariant is broken.  A checker that
    overrides a block hook must override its run twin as well (see
    :class:`~repro.sim.observers.BaseObserver`).  A checker instance
    belongs to exactly one run: :meth:`attach` binds it to the system under
    observation.
    """

    #: Checker name used in reports (defaults to the class name).
    name: str = ""

    def __init__(self) -> None:
        #: Violations recorded live, while the simulation executes.
        self.violations: List[Violation] = []
        #: Violations recorded by :meth:`finalize`; kept separate so the hub
        #: can re-run the end-of-run pass (e.g. after a second ``run()``
        #: segment) without duplicating previously reported findings.
        self.finalize_violations: List[Violation] = []
        self._in_finalize = False
        self._system: Optional["GPUSystem"] = None
        if not self.name:
            self.name = type(self).__name__

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, system: "GPUSystem") -> None:
        """Bind the checker to the system it observes."""
        self._system = system

    def finalize(self, system: "GPUSystem") -> None:
        """End-of-run hook: check global conservation laws."""

    @property
    def system(self) -> "GPUSystem":
        """The system under observation (only valid after :meth:`attach`)."""
        if self._system is None:
            raise RuntimeError(f"checker {self.name} is not attached to a system")
        return self._system

    def all_violations(self) -> List[Violation]:
        """Live and finalize-pass violations together."""
        return [*self.violations, *self.finalize_violations]

    def record(self, invariant: str, message: str, *, time_us: Optional[float] = None) -> None:
        """Record one violation (never raises)."""
        if time_us is None:
            time_us = self._system.simulator.now if self._system is not None else 0.0
        target = self.finalize_violations if self._in_finalize else self.violations
        target.append(
            Violation(checker=self.name, invariant=invariant, time_us=time_us, message=message)
        )

    # ------------------------------------------------------------------
    # Simulator hooks
    # ------------------------------------------------------------------
    def on_event_scheduled(self, event: "Event", now: float) -> None:
        """An event was pushed onto the simulator heap."""

    def on_event_fired(self, event: "Event", previous_now: float) -> None:
        """An event is about to execute (the clock just advanced to it)."""

    # ------------------------------------------------------------------
    # SM hooks
    # ------------------------------------------------------------------
    def on_sm_configured(self, sm: "StreamingMultiprocessor") -> None:
        """An SM finished setup for a kernel."""

    def on_sm_released(self, sm: "StreamingMultiprocessor") -> None:
        """An SM was released back to the idle pool."""

    def on_block_started(self, sm: "StreamingMultiprocessor", block: "ThreadBlock") -> None:
        """A thread block became resident on ``sm``."""

    def on_block_completed(self, sm: "StreamingMultiprocessor", block: "ThreadBlock") -> None:
        """A resident thread block finished execution."""

    def on_run_started(self, sm: "StreamingMultiprocessor", run: "BlockRun") -> None:
        """A span of fresh blocks became resident on ``sm`` (all of ``run``)."""

    def on_run_completed(self, sm: "StreamingMultiprocessor", run: "BlockRun") -> None:
        """Every block of a resident span finished execution at once."""

    def on_blocks_evicted(self, sm: "StreamingMultiprocessor", blocks: List["ThreadBlock"]) -> None:
        """Resident blocks were evicted by the context-switch mechanism."""

    # ------------------------------------------------------------------
    # Execution-engine hooks
    # ------------------------------------------------------------------
    def on_sm_reserved(self, sm: "StreamingMultiprocessor", next_ksr_index, mechanism) -> None:
        """The scheduling policy reserved ``sm`` (preemption request).

        ``mechanism`` is the preemption mechanism the engine's controller
        chose for this request (mechanisms are selected per preemption).
        """

    def on_kernel_activated(self, entry) -> None:
        """A buffered kernel command was admitted into the KSRT."""

    def on_preemption_complete(
        self, sm: "StreamingMultiprocessor", evicted_blocks: List["ThreadBlock"], mechanism
    ) -> None:
        """A preemption mechanism finished freeing ``sm``."""

    def on_kernel_finished(self, launch: "KernelLaunch") -> None:
        """Every thread block of an active kernel completed."""

    # ------------------------------------------------------------------
    # Dispatcher hooks
    # ------------------------------------------------------------------
    def on_command_enqueued(self, queue_id: int, command: "Command") -> None:
        """A command entered a hardware queue."""

    def on_command_issued(self, queue_id: int, command: "Command") -> None:
        """The dispatcher issued a command to an engine."""

    def on_command_completed(self, queue_id: int, command_id: int) -> None:
        """An in-flight command completed and re-enabled its queue."""

    # ------------------------------------------------------------------
    # Host CPU hooks
    # ------------------------------------------------------------------
    def on_cpu_phase_started(self, duration_us: float, label: str) -> None:
        """A CPU phase started executing on a hardware thread."""

    def on_cpu_phase_finished(self, label: str) -> None:
        """A CPU phase finished and freed its hardware thread."""

    # -- open-loop serving ----------------------------------------------
    def on_request_arrived(self, request, now) -> None:
        """An open-loop request arrived at the ingress queue."""

    def on_request_admitted(self, request, now) -> None:
        """A queued request was admitted and its kernel launched."""

    def on_request_completed(self, request, now) -> None:
        """An admitted request's kernel completed."""

    def on_request_dropped(self, request, now) -> None:
        """A request was dropped by the admission policy."""


class ValidationHub:
    """Fans instrumentation hooks out to a set of invariant checkers.

    The hub is the single object installed as the observer of the simulator,
    every SM, the command dispatcher and the execution engine; it simply
    forwards each hook to every checker.
    """

    def __init__(self, checkers: List[InvariantChecker]):
        self._checkers = list(checkers)
        self._system: Optional["GPUSystem"] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, system: "GPUSystem") -> None:
        """Install the hub on every instrumented component of ``system``.

        Installation goes through
        :meth:`~repro.system.GPUSystem.install_observer`, so the hub composes
        with other observers (e.g. a telemetry
        :class:`~repro.telemetry.TraceCollector`) instead of displacing them.
        """
        if self._system is not None:
            raise RuntimeError("a ValidationHub can only be attached once")
        self._system = system
        system.install_observer(self)
        for checker in self._checkers:
            checker.attach(system)

    def detach(self) -> None:
        """Remove the hub's hooks from the system it observes.

        Recorded violations (and :meth:`finalize`) stay available; the hub
        simply stops receiving instrumentation callbacks.  Detaching is
        idempotent; a detached hub cannot be re-attached (checker state is
        bound to the original run).
        """
        if self._system is None:
            raise RuntimeError("cannot detach an unattached ValidationHub")
        self._system.uninstall_observer(self)

    def finalize(self) -> None:
        """Run every checker's end-of-run pass.

        Re-runnable: a system whose ``run()`` is called in several segments
        finalizes after each one, and the finalize-pass findings are
        recomputed from scratch every time (previous ones are discarded, so
        nothing is duplicated and nothing from a later segment is missed).
        """
        if self._system is None:
            raise RuntimeError("cannot finalize an unattached ValidationHub")
        for checker in self._checkers:
            checker.finalize_violations.clear()
            checker._in_finalize = True
            try:
                checker.finalize(self._system)
            finally:
                checker._in_finalize = False

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def checkers(self) -> List[InvariantChecker]:
        """The attached checkers."""
        return list(self._checkers)

    @property
    def violations(self) -> List[Violation]:
        """All recorded violations, ordered by simulation time."""
        collected = [v for checker in self._checkers for v in checker.all_violations()]
        return sorted(collected, key=lambda v: (v.time_us, v.checker, v.invariant))

    @property
    def ok(self) -> bool:
        """Whether no checker recorded a violation."""
        return all(not checker.all_violations() for checker in self._checkers)

    def to_dicts(self) -> List[Dict[str, Any]]:
        """All violations in JSON-serialisable form."""
        return [violation.to_dict() for violation in self.violations]

    def raise_if_violations(self) -> None:
        """Raise :class:`InvariantValidationError` if any check failed."""
        violations = self.violations
        if violations:
            raise InvariantValidationError(violations)

    def summary(self) -> str:
        """One-line human-readable outcome."""
        violations = self.violations
        if not violations:
            return f"all {len(self._checkers)} invariant checkers passed"
        return f"{len(violations)} invariant violation(s) detected"

    # ------------------------------------------------------------------
    # Hook fan-out (one forwarding method per instrumentation point)
    # ------------------------------------------------------------------
    def on_event_scheduled(self, event, now) -> None:
        for checker in self._checkers:
            checker.on_event_scheduled(event, now)

    def on_event_fired(self, event, previous_now) -> None:
        for checker in self._checkers:
            checker.on_event_fired(event, previous_now)

    def on_sm_configured(self, sm) -> None:
        for checker in self._checkers:
            checker.on_sm_configured(sm)

    def on_sm_released(self, sm) -> None:
        for checker in self._checkers:
            checker.on_sm_released(sm)

    def on_block_started(self, sm, block) -> None:
        for checker in self._checkers:
            checker.on_block_started(sm, block)

    def on_block_completed(self, sm, block) -> None:
        for checker in self._checkers:
            checker.on_block_completed(sm, block)

    def on_run_started(self, sm, run) -> None:
        for checker in self._checkers:
            checker.on_run_started(sm, run)

    def on_run_completed(self, sm, run) -> None:
        for checker in self._checkers:
            checker.on_run_completed(sm, run)

    def on_blocks_evicted(self, sm, blocks) -> None:
        for checker in self._checkers:
            checker.on_blocks_evicted(sm, blocks)

    def on_sm_reserved(self, sm, next_ksr_index, mechanism) -> None:
        for checker in self._checkers:
            checker.on_sm_reserved(sm, next_ksr_index, mechanism)

    def on_kernel_activated(self, entry) -> None:
        for checker in self._checkers:
            checker.on_kernel_activated(entry)

    def on_preemption_complete(self, sm, evicted_blocks, mechanism) -> None:
        for checker in self._checkers:
            checker.on_preemption_complete(sm, evicted_blocks, mechanism)

    def on_kernel_finished(self, launch) -> None:
        for checker in self._checkers:
            checker.on_kernel_finished(launch)

    def on_command_enqueued(self, queue_id, command) -> None:
        for checker in self._checkers:
            checker.on_command_enqueued(queue_id, command)

    def on_command_issued(self, queue_id, command) -> None:
        for checker in self._checkers:
            checker.on_command_issued(queue_id, command)

    def on_command_completed(self, queue_id, command_id) -> None:
        for checker in self._checkers:
            checker.on_command_completed(queue_id, command_id)

    def on_cpu_phase_started(self, duration_us, label) -> None:
        for checker in self._checkers:
            checker.on_cpu_phase_started(duration_us, label)

    def on_cpu_phase_finished(self, label) -> None:
        for checker in self._checkers:
            checker.on_cpu_phase_finished(label)

    def on_request_arrived(self, request, now) -> None:
        for checker in self._checkers:
            checker.on_request_arrived(request, now)

    def on_request_admitted(self, request, now) -> None:
        for checker in self._checkers:
            checker.on_request_admitted(request, now)

    def on_request_completed(self, request, now) -> None:
        for checker in self._checkers:
            checker.on_request_completed(request, now)

    def on_request_dropped(self, request, now) -> None:
        for checker in self._checkers:
            checker.on_request_dropped(request, now)
