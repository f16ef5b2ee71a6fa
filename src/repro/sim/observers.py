"""Instrumentation-observer vocabulary shared by validation and telemetry.

The simulator and the hardware models (SMs, execution engine, command
dispatcher, host CPU) each expose a single optional ``observer`` attribute
that is notified at instrumentation points.  Observers must only *observe*:
both the validation layer (:mod:`repro.validation`) and the telemetry
subsystem (:mod:`repro.telemetry`) rely on a run with observers attached
being byte-identical to the same run without them.

Two helpers live here:

* :class:`BaseObserver` — the full hook vocabulary as no-ops, so an observer
  implements only the hooks it cares about and keeps working when new hooks
  are added.
* :class:`CompositeObserver` — fans every hook out to several observers, so
  the validation hub and a trace collector can be attached to the same run
  (``--validate --trace``) while the hot paths keep their cheap single
  ``observer`` attribute.
"""

from __future__ import annotations

from typing import Iterable, List


class BaseObserver:
    """No-op implementation of every instrumentation hook.

    Subclass and override the hooks you need.  ``wants_simulator_events``
    lets high-rate simulator hooks (one call per scheduled/fired event) be
    skipped entirely for observers that only consume component hooks.

    Block hooks come in pairs.  Fresh blocks mostly execute as
    :class:`~repro.gpu.blockrun.BlockRun` spans, announced once per span
    through ``on_run_started`` / ``on_run_completed``; restored and
    materialised blocks go through ``on_block_started`` /
    ``on_block_completed``.  An observer that overrides a block hook must
    therefore override its run twin too, or it silently misses every span
    block.  The tests enforce this for every observer in the package.
    """

    #: Whether :meth:`repro.system.GPUSystem.install_observer` should also
    #: register the observer on the simulator's per-event hooks.
    wants_simulator_events: bool = True

    # -- simulator ------------------------------------------------------
    def on_event_scheduled(self, event, now) -> None:
        """An event was pushed onto the simulator heap."""

    def on_event_fired(self, event, previous_now) -> None:
        """An event is about to execute (the clock just advanced to it)."""

    # -- SMs ------------------------------------------------------------
    def on_sm_configured(self, sm) -> None:
        """An SM finished setup for a kernel."""

    def on_sm_released(self, sm) -> None:
        """An SM was released back to the idle pool."""

    def on_block_started(self, sm, block) -> None:
        """A thread block became resident on ``sm``."""

    def on_block_completed(self, sm, block) -> None:
        """A resident thread block finished execution."""

    def on_run_started(self, sm, run) -> None:
        """A span of fresh blocks became resident on ``sm`` (all of ``run``)."""

    def on_run_completed(self, sm, run) -> None:
        """Every block of a resident span finished execution at once."""

    def on_blocks_evicted(self, sm, blocks) -> None:
        """Resident blocks were evicted by the context-switch mechanism."""

    # -- execution engine -----------------------------------------------
    def on_sm_reserved(self, sm, next_ksr_index, mechanism) -> None:
        """The scheduling policy reserved ``sm`` (preemption request).

        ``mechanism`` is the preemption mechanism the engine's controller
        chose for this request (mechanisms are selected per preemption).
        """

    def on_kernel_activated(self, entry) -> None:
        """A buffered kernel command was admitted into the KSRT."""

    def on_preemption_complete(self, sm, evicted_blocks, mechanism) -> None:
        """A preemption mechanism finished freeing ``sm``."""

    def on_kernel_finished(self, launch) -> None:
        """Every thread block of an active kernel completed."""

    # -- command dispatcher ---------------------------------------------
    def on_command_enqueued(self, queue_id, command) -> None:
        """A command entered a hardware queue."""

    def on_command_issued(self, queue_id, command) -> None:
        """The dispatcher issued a command to an engine."""

    def on_command_completed(self, queue_id, command_id) -> None:
        """An in-flight command completed and re-enabled its queue."""

    # -- host CPU -------------------------------------------------------
    def on_cpu_phase_started(self, duration_us, label) -> None:
        """A CPU phase started executing on a hardware thread."""

    def on_cpu_phase_finished(self, label) -> None:
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


class CompositeObserver(BaseObserver):
    """Forwards every hook to each of its child observers, in order."""

    def __init__(self, observers: Iterable[object]):
        self._observers: List[object] = list(observers)

    @property
    def observers(self) -> List[object]:
        """The child observers (in notification order)."""
        return list(self._observers)

    # The forwarding methods are written out (instead of a __getattr__
    # trampoline) because they sit on simulation hot paths.
    def on_sm_configured(self, sm) -> None:
        for observer in self._observers:
            observer.on_sm_configured(sm)

    def on_sm_released(self, sm) -> None:
        for observer in self._observers:
            observer.on_sm_released(sm)

    def on_block_started(self, sm, block) -> None:
        for observer in self._observers:
            observer.on_block_started(sm, block)

    def on_block_completed(self, sm, block) -> None:
        for observer in self._observers:
            observer.on_block_completed(sm, block)

    def on_run_started(self, sm, run) -> None:
        for observer in self._observers:
            observer.on_run_started(sm, run)

    def on_run_completed(self, sm, run) -> None:
        for observer in self._observers:
            observer.on_run_completed(sm, run)

    def on_blocks_evicted(self, sm, blocks) -> None:
        for observer in self._observers:
            observer.on_blocks_evicted(sm, blocks)

    def on_sm_reserved(self, sm, next_ksr_index, mechanism) -> None:
        for observer in self._observers:
            observer.on_sm_reserved(sm, next_ksr_index, mechanism)

    def on_kernel_activated(self, entry) -> None:
        for observer in self._observers:
            observer.on_kernel_activated(entry)

    def on_preemption_complete(self, sm, evicted_blocks, mechanism) -> None:
        for observer in self._observers:
            observer.on_preemption_complete(sm, evicted_blocks, mechanism)

    def on_kernel_finished(self, launch) -> None:
        for observer in self._observers:
            observer.on_kernel_finished(launch)

    def on_command_enqueued(self, queue_id, command) -> None:
        for observer in self._observers:
            observer.on_command_enqueued(queue_id, command)

    def on_command_issued(self, queue_id, command) -> None:
        for observer in self._observers:
            observer.on_command_issued(queue_id, command)

    def on_command_completed(self, queue_id, command_id) -> None:
        for observer in self._observers:
            observer.on_command_completed(queue_id, command_id)

    def on_cpu_phase_started(self, duration_us, label) -> None:
        for observer in self._observers:
            observer.on_cpu_phase_started(duration_us, label)

    def on_cpu_phase_finished(self, label) -> None:
        for observer in self._observers:
            observer.on_cpu_phase_finished(label)

    def on_request_arrived(self, request, now) -> None:
        for observer in self._observers:
            observer.on_request_arrived(request, now)

    def on_request_admitted(self, request, now) -> None:
        for observer in self._observers:
            observer.on_request_admitted(request, now)

    def on_request_completed(self, request, now) -> None:
        for observer in self._observers:
            observer.on_request_completed(request, now)

    def on_request_dropped(self, request, now) -> None:
        for observer in self._observers:
            observer.on_request_dropped(request, now)


__all__ = ["BaseObserver", "CompositeObserver"]
