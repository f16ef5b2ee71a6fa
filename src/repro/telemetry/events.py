"""Typed, timestamped trace events recorded by the telemetry subsystem.

A :class:`TraceEvent` is one instant in a simulation's life: a kernel being
enqueued, a thread block starting, a preemption completing.  Events carry a
``kind`` (one of the :data:`KINDS` constants), the simulation time, a
monotonically increasing per-collector sequence number (to give a total
order to events at the same timestamp) and a flat, JSON-serialisable
``attrs`` payload.

A :class:`BlockRunRecord` stands for ``count`` consecutive ``block_start``
(or ``block_finish``) events of one span of blocks on one SM, all at the
same instant; the collector stores one per span and
:func:`expand_records` turns a mixed record stream back into the per-block
:class:`TraceEvent` values.

Identifiers inside ``attrs`` are *run-local*: the collector densely renumbers
global counters (e.g. command ids, which are process-wide) so that the trace
of a scenario is byte-identical whether it runs first or last in a batch,
serially or inside a worker process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Optional, Union


# ----------------------------------------------------------------------
# Event kinds
# ----------------------------------------------------------------------
#: Kernel lifecycle: command entered a hardware queue / was issued to the
#: execution engine / was admitted into the KSRT / completed all its blocks.
KERNEL_ENQUEUE = "kernel_enqueue"
KERNEL_ISSUE = "kernel_issue"
KERNEL_LAUNCH = "kernel_launch"
KERNEL_COMPLETE = "kernel_complete"

#: Thread-block residency: dispatched to an SM (``block_restore`` when the
#: block had been preempted and its context is being restored) / finished.
BLOCK_START = "block_start"
BLOCK_RESTORE = "block_restore"
BLOCK_FINISH = "block_finish"

#: Preemption lifecycle: policy reserved the SM (request) / context-switch
#: save began (doubles as drain-complete for the draining mechanism, which
#: never saves) / the SM was handed back free.
PREEMPT_REQUEST = "preempt_request"
PREEMPT_SAVE_START = "preempt_save_start"
PREEMPT_COMPLETE = "preempt_complete"

#: DMA transfers across the PCIe bus.
TRANSFER_ENQUEUE = "transfer_enqueue"
TRANSFER_START = "transfer_start"
TRANSFER_COMPLETE = "transfer_complete"

#: Host CPU phases.
CPU_PHASE_START = "cpu_phase_start"
CPU_PHASE_END = "cpu_phase_end"

#: SM occupancy bookkeeping (configure for a kernel / release to idle pool).
SM_CONFIGURED = "sm_configured"
SM_RELEASED = "sm_released"

#: Open-loop serving request lifecycle (arrival → admission → completion,
#: or drop at admission).
REQUEST_ARRIVAL = "request_arrival"
REQUEST_ADMIT = "request_admit"
REQUEST_COMPLETE = "request_complete"
REQUEST_DROP = "request_drop"

#: Every kind, in a stable documentation order.
KINDS = (
    KERNEL_ENQUEUE,
    KERNEL_ISSUE,
    KERNEL_LAUNCH,
    KERNEL_COMPLETE,
    BLOCK_START,
    BLOCK_RESTORE,
    BLOCK_FINISH,
    PREEMPT_REQUEST,
    PREEMPT_SAVE_START,
    PREEMPT_COMPLETE,
    TRANSFER_ENQUEUE,
    TRANSFER_START,
    TRANSFER_COMPLETE,
    CPU_PHASE_START,
    CPU_PHASE_END,
    SM_CONFIGURED,
    SM_RELEASED,
    REQUEST_ARRIVAL,
    REQUEST_ADMIT,
    REQUEST_COMPLETE,
    REQUEST_DROP,
)


@dataclass(frozen=True)
class TraceEvent:
    """One structured, timestamped simulation event."""

    #: Per-collector sequence number; totally orders same-time events.
    seq: int
    #: Simulation time of the event (µs).
    time_us: float
    #: Event kind (one of :data:`KINDS`).
    kind: str
    #: Flat, JSON-serialisable payload (run-local identifiers only).
    attrs: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-serialisable)."""
        return {
            "seq": self.seq,
            "time_us": self.time_us,
            "kind": self.kind,
            "attrs": dict(self.attrs),
        }

    def to_json(self) -> str:
        """One-line JSON form (the JSONL exporter emits exactly this)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    def __str__(self) -> str:
        attrs = " ".join(f"{key}={value}" for key, value in sorted(self.attrs.items()))
        return f"[{self.time_us:.3f}us] {self.kind} {attrs}".rstrip()


class BlockRunRecord(NamedTuple):
    """``count`` same-instant block starts or finishes of one span, as one record.

    Expands to the events a per-block issue of the span would record: block
    ``first_block + i`` gets seq ``seq + i`` and residency
    ``resident + (i + 1) * step``.
    """

    #: Seq of the first block's event; the span owns ``seq .. seq + count - 1``.
    seq: int
    #: Simulation time shared by every block of the span (µs).
    time_us: float
    #: :data:`BLOCK_START` or :data:`BLOCK_FINISH`.
    kind: str
    sm: int
    launch: int
    first_block: int
    count: int
    #: SM residency before the span's first block.
    resident: int
    #: Residency change per block: +1 for starts, -1 for finishes.
    step: int

    @property
    def resident_after(self) -> int:
        """SM residency once every block of the span is accounted for."""
        return self.resident + self.step * self.count

    def expand(self, gpu: Optional[int] = None) -> List[TraceEvent]:
        """The span's per-block events, ``gpu`` stamped last when set."""
        events = []
        resident = self.resident
        for offset in range(self.count):
            resident += self.step
            attrs = {
                "sm": self.sm,
                "launch": self.launch,
                "block": self.first_block + offset,
                "resident": resident,
            }
            if gpu is not None:
                attrs["gpu"] = gpu
            events.append(
                TraceEvent(
                    seq=self.seq + offset, time_us=self.time_us, kind=self.kind, attrs=attrs
                )
            )
        return events


#: One entry of a collector's record stream.
TraceRecord = Union[TraceEvent, BlockRunRecord]


def expand_records(
    records: Iterable[TraceRecord], *, gpu: Optional[int] = None
) -> List[TraceEvent]:
    """Flatten a record stream into its per-event form, in stream order."""
    events: List[TraceEvent] = []
    for record in records:
        if type(record) is BlockRunRecord:
            events.extend(record.expand(gpu))
        else:
            events.append(record)
    return events


__all__ = [
    "TraceEvent",
    "BlockRunRecord",
    "TraceRecord",
    "expand_records",
    "KINDS",
    "KERNEL_ENQUEUE",
    "KERNEL_ISSUE",
    "KERNEL_LAUNCH",
    "KERNEL_COMPLETE",
    "BLOCK_START",
    "BLOCK_RESTORE",
    "BLOCK_FINISH",
    "PREEMPT_REQUEST",
    "PREEMPT_SAVE_START",
    "PREEMPT_COMPLETE",
    "TRANSFER_ENQUEUE",
    "TRANSFER_START",
    "TRANSFER_COMPLETE",
    "CPU_PHASE_START",
    "CPU_PHASE_END",
    "SM_CONFIGURED",
    "SM_RELEASED",
    "REQUEST_ARRIVAL",
    "REQUEST_ADMIT",
    "REQUEST_COMPLETE",
    "REQUEST_DROP",
]
