"""Derived analytics over a recorded trace-event stream.

The raw stream (:mod:`repro.telemetry.collector`) is a flat list of instants
and block spans (:class:`~repro.telemetry.events.BlockRunRecord`, one per
``count`` same-instant block starts or finishes); this module derives the
quantities the paper argues about:

* **preemption-latency distributions** per mechanism — the time from the
  scheduling policy reserving an SM to the mechanism handing it back free
  (the paper's headline context-switch vs. draining comparison), summarised
  as count/mean/p50/p95/max;
* **per-SM occupancy timelines** — resident-block step functions and the
  busy fraction each SM spent with at least one resident block;
* **queueing-delay breakdowns** — how long kernel and transfer commands
  waited in their hardware queue before the dispatcher issued them;
* **spans** — matched start/end intervals (blocks, kernels, preemptions,
  transfers, CPU phases) that the exporters turn into timelines.

Everything here is pure and deterministic: plain functions over the event
list, no simulator access, nearest-rank percentiles (no interpolation), so
summaries are byte-stable across runs and platforms.  :func:`summarize`,
:func:`occupancy_timeline`, :func:`preemption_latencies` and
:func:`queueing_delays` accept a record stream with spans and give exactly
what they give for its per-block expansion; :func:`derive_spans` needs the
expanded events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.telemetry import events as ev
from repro.telemetry.events import BlockRunRecord, TraceEvent, TraceRecord


# ----------------------------------------------------------------------
# Distribution helpers
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (q in [0, 1]).

    Deterministic and interpolation-free: the returned value is always an
    observed sample, which keeps golden fixtures byte-stable.
    """
    if not samples:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be within [0, 1]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def latency_stats(samples: Sequence[float]) -> Dict[str, float]:
    """count/mean/p50/p95/max summary of a latency sample list."""
    if not samples:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
    return {
        "count": len(samples),
        "mean": sum(samples) / len(samples),
        "p50": percentile(samples, 0.50),
        "p95": percentile(samples, 0.95),
        "max": max(samples),
    }


# ----------------------------------------------------------------------
# Preemption latency (the paper's headline metric)
# ----------------------------------------------------------------------
def preemption_latencies(events: Sequence[TraceRecord]) -> Dict[str, List[float]]:
    """Observed preemption latencies per mechanism, in completion order.

    The latency of one preemption is the time from ``preempt_request`` (the
    policy reserving the SM) to ``preempt_complete`` (the mechanism handing
    the SM back); the collector stamps it onto the completion event.
    """
    samples: Dict[str, List[float]] = {}
    for event in events:
        if event.kind != ev.PREEMPT_COMPLETE:
            continue
        latency = event.attrs.get("latency_us")
        if latency is None:
            continue
        samples.setdefault(event.attrs["mechanism"], []).append(latency)
    return samples


# ----------------------------------------------------------------------
# Occupancy timelines
# ----------------------------------------------------------------------
def occupancy_timeline(events: Sequence[TraceRecord]) -> Dict[int, List[Tuple[float, int]]]:
    """Per-SM resident-block step function: sm -> [(time_us, resident), ...].

    Built from the residency counts the collector stamps on block events; an
    eviction drops the SM to zero residency (the context-switch mechanism
    always evicts every resident block).  A span contributes one point, its
    residency after the last block: its per-block points share one instant,
    so they add no busy time (see :func:`sm_busy_fractions`).
    """
    timeline: Dict[int, List[Tuple[float, int]]] = {}
    for event in events:
        if type(event) is BlockRunRecord:
            timeline.setdefault(event.sm, []).append((event.time_us, event.resident_after))
        elif event.kind in (ev.BLOCK_START, ev.BLOCK_RESTORE, ev.BLOCK_FINISH):
            sm = event.attrs["sm"]
            timeline.setdefault(sm, []).append((event.time_us, event.attrs["resident"]))
        elif event.kind == ev.PREEMPT_SAVE_START:
            sm = event.attrs["sm"]
            timeline.setdefault(sm, []).append((event.time_us, 0))
    return timeline


def sm_busy_fractions(
    timeline: Mapping[int, Sequence[Tuple[float, int]]], end_us: float
) -> Dict[int, float]:
    """Fraction of [0, end_us] each SM spent with >= 1 resident block."""
    fractions: Dict[int, float] = {}
    for sm, points in timeline.items():
        if end_us <= 0.0:
            fractions[sm] = 0.0
            continue
        busy = 0.0
        previous_time = 0.0
        previous_resident = 0
        for time_us, resident in points:
            if previous_resident > 0:
                busy += time_us - previous_time
            previous_time, previous_resident = time_us, resident
        if previous_resident > 0:
            busy += end_us - previous_time
        fractions[sm] = busy / end_us
    return fractions


# ----------------------------------------------------------------------
# Queueing delays
# ----------------------------------------------------------------------
def queueing_delays(events: Sequence[TraceRecord]) -> Dict[str, List[float]]:
    """Hardware-queue wait per engine: enqueue -> dispatcher issue.

    Returns ``{"kernel": [...], "transfer": [...]}`` in issue order.
    """
    enqueued: Dict[Tuple[str, int], float] = {}
    waits: Dict[str, List[float]] = {"kernel": [], "transfer": []}
    starts = {ev.KERNEL_ISSUE: "kernel", ev.TRANSFER_START: "transfer"}
    for event in events:
        if event.kind == ev.KERNEL_ENQUEUE:
            enqueued[("kernel", event.attrs["cmd"])] = event.time_us
        elif event.kind == ev.TRANSFER_ENQUEUE:
            enqueued[("transfer", event.attrs["cmd"])] = event.time_us
        elif event.kind in starts:
            engine = starts[event.kind]
            start = enqueued.pop((engine, event.attrs["cmd"]), None)
            if start is not None:
                waits[engine].append(event.time_us - start)
    return waits


# ----------------------------------------------------------------------
# Spans (for the exporters)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Span:
    """One matched interval on a display track."""

    name: str
    category: str  # "block" | "kernel" | "preemption" | "transfer" | "cpu" | "queue"
    start_us: float
    end_us: float
    track: str  # e.g. "SM03", "lbm#0", "DMA", "CPU"
    attrs: Mapping[str, Any] = field(default_factory=dict)

    @property
    def duration_us(self) -> float:
        """Length of the span (µs)."""
        return self.end_us - self.start_us


def _sm_track(sm: int) -> str:
    return f"SM{sm:02d}"


def derive_spans(events: Sequence[TraceEvent], *, end_us: float) -> List[Span]:
    """Match start/end events into :class:`Span` intervals.

    Unfinished intervals (e.g. a block still resident when the run stopped)
    are closed at ``end_us``.  Spans are returned sorted by start time, then
    track, then name, which makes export output deterministic.
    """
    spans: List[Span] = []
    open_blocks: Dict[Tuple[int, int], TraceEvent] = {}
    open_kernels: Dict[int, TraceEvent] = {}
    open_kernel_queue: Dict[int, TraceEvent] = {}
    open_preemptions: Dict[int, TraceEvent] = {}
    open_transfers: Dict[int, TraceEvent] = {}
    open_cpu: Dict[str, List[TraceEvent]] = {}

    def close_block(key: Tuple[int, int], start_event: TraceEvent, end_time: float) -> None:
        launch, block = key
        spans.append(
            Span(
                name=f"L{launch}.b{block}",
                category="block",
                start_us=start_event.time_us,
                end_us=end_time,
                track=_sm_track(start_event.attrs["sm"]),
                attrs={
                    "launch": launch,
                    "block": block,
                    "restored": start_event.kind == ev.BLOCK_RESTORE,
                },
            )
        )

    for event in events:
        kind = event.kind
        if kind in (ev.BLOCK_START, ev.BLOCK_RESTORE):
            open_blocks[(event.attrs["launch"], event.attrs["block"])] = event
        elif kind == ev.BLOCK_FINISH:
            key = (event.attrs["launch"], event.attrs["block"])
            start_event = open_blocks.pop(key, None)
            if start_event is not None:
                close_block(key, start_event, event.time_us)
        elif kind == ev.PREEMPT_SAVE_START:
            # Eviction interrupts every open block on this SM.
            sm = event.attrs["sm"]
            for key, start_event in sorted(open_blocks.items()):
                if start_event.attrs["sm"] == sm:
                    close_block(key, start_event, event.time_us)
                    del open_blocks[key]
        elif kind == ev.KERNEL_ENQUEUE:
            open_kernel_queue[event.attrs["cmd"]] = event
        elif kind == ev.KERNEL_LAUNCH:
            open_kernels[event.attrs["launch"]] = event
        elif kind == ev.KERNEL_COMPLETE:
            start_event = open_kernels.pop(event.attrs["launch"], None)
            if start_event is not None:
                spans.append(
                    Span(
                        name=start_event.attrs["kernel"],
                        category="kernel",
                        start_us=start_event.time_us,
                        end_us=event.time_us,
                        track=start_event.attrs["process"] or "kernels",
                        attrs={
                            "launch": event.attrs["launch"],
                            "blocks": start_event.attrs["blocks"],
                        },
                    )
                )
        elif kind == ev.KERNEL_ISSUE:
            start_event = open_kernel_queue.pop(event.attrs["cmd"], None)
            if start_event is not None and event.time_us > start_event.time_us:
                spans.append(
                    Span(
                        name=f"queue:{event.attrs['kernel']}",
                        category="queue",
                        start_us=start_event.time_us,
                        end_us=event.time_us,
                        track=event.attrs["process"] or "kernels",
                        attrs={"cmd": event.attrs["cmd"]},
                    )
                )
        elif kind == ev.PREEMPT_REQUEST:
            open_preemptions[event.attrs["sm"]] = event
        elif kind == ev.PREEMPT_COMPLETE:
            start_event = open_preemptions.pop(event.attrs["sm"], None)
            if start_event is not None:
                spans.append(
                    Span(
                        name=f"preempt:{event.attrs['mechanism']}",
                        category="preemption",
                        start_us=start_event.time_us,
                        end_us=event.time_us,
                        track=_sm_track(event.attrs["sm"]),
                        attrs={
                            "mechanism": event.attrs["mechanism"],
                            "evicted": event.attrs["evicted"],
                        },
                    )
                )
        elif kind == ev.TRANSFER_START:
            open_transfers[event.attrs["cmd"]] = event
        elif kind == ev.TRANSFER_COMPLETE:
            start_event = open_transfers.pop(event.attrs["cmd"], None)
            if start_event is not None:
                spans.append(
                    Span(
                        name=f"{start_event.attrs['direction']}:{start_event.attrs['bytes']}B",
                        category="transfer",
                        start_us=start_event.time_us,
                        end_us=event.time_us,
                        track="DMA",
                        attrs={
                            "bytes": start_event.attrs["bytes"],
                            "direction": start_event.attrs["direction"],
                            "process": start_event.attrs["process"],
                        },
                    )
                )
        elif kind == ev.CPU_PHASE_START:
            open_cpu.setdefault(event.attrs["label"], []).append(event)
        elif kind == ev.CPU_PHASE_END:
            pending = open_cpu.get(event.attrs["label"])
            if pending:
                start_event = pending.pop(0)  # FIFO: phases of one label are ordered
                spans.append(
                    Span(
                        name=event.attrs["label"],
                        category="cpu",
                        start_us=start_event.time_us,
                        end_us=event.time_us,
                        track="CPU",
                        attrs={"duration_us": start_event.attrs["duration_us"]},
                    )
                )

    # Close whatever is still open at the end of the observed window (a run
    # truncated mid-flight — e.g. by max_events — must still show its
    # in-flight transfers, preemptions and phases).
    for key, start_event in sorted(open_blocks.items()):
        close_block(key, start_event, end_us)
    for launch, start_event in sorted(open_kernels.items()):
        spans.append(
            Span(
                name=start_event.attrs["kernel"],
                category="kernel",
                start_us=start_event.time_us,
                end_us=end_us,
                track=start_event.attrs["process"] or "kernels",
                attrs={"launch": launch, "blocks": start_event.attrs["blocks"]},
            )
        )
    for sm, start_event in sorted(open_preemptions.items()):
        spans.append(
            Span(
                name=f"preempt:{start_event.attrs['mechanism']}",
                category="preemption",
                start_us=start_event.time_us,
                end_us=end_us,
                track=_sm_track(sm),
                attrs={"mechanism": start_event.attrs["mechanism"], "evicted": 0},
            )
        )
    for cmd, start_event in sorted(open_transfers.items()):
        spans.append(
            Span(
                name=f"{start_event.attrs['direction']}:{start_event.attrs['bytes']}B",
                category="transfer",
                start_us=start_event.time_us,
                end_us=end_us,
                track="DMA",
                attrs={
                    "bytes": start_event.attrs["bytes"],
                    "direction": start_event.attrs["direction"],
                    "process": start_event.attrs["process"],
                },
            )
        )
    for label, pending in sorted(open_cpu.items()):
        for start_event in pending:
            spans.append(
                Span(
                    name=label,
                    category="cpu",
                    start_us=start_event.time_us,
                    end_us=end_us,
                    track="CPU",
                    attrs={"duration_us": start_event.attrs["duration_us"]},
                )
            )
    for cmd, start_event in sorted(open_kernel_queue.items()):
        if end_us > start_event.time_us:
            spans.append(
                Span(
                    name=f"queue:{start_event.attrs['kernel']}",
                    category="queue",
                    start_us=start_event.time_us,
                    end_us=end_us,
                    track=start_event.attrs["process"] or "kernels",
                    attrs={"cmd": cmd},
                )
            )
    spans.sort(key=lambda span: (span.start_us, span.track, span.category, span.name))
    return spans


# ----------------------------------------------------------------------
# The run summary (rides through RunRecord)
# ----------------------------------------------------------------------
def summarize(
    events: Sequence[TraceRecord],
    *,
    now_us: float,
    artifacts: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """JSON-serialisable summary of a trace stream.

    This is what :class:`repro.workloads.multiprogram.WorkloadResult` (and
    therefore :class:`repro.runner.RunRecord`) carries back from batch
    workers: aggregate counts, per-mechanism preemption-latency samples and
    stats, queueing stats, per-SM busy fractions, and the paths of any
    exported artifacts.  Raw events stay behind in the worker.  A span
    counts as its ``count`` block events.
    """
    counts: Dict[str, int] = {}
    total = 0
    for event in events:
        weight = event.count if type(event) is BlockRunRecord else 1
        counts[event.kind] = counts.get(event.kind, 0) + weight
        total += weight
    latencies = preemption_latencies(events)
    waits = queueing_delays(events)
    busy = sm_busy_fractions(occupancy_timeline(events), now_us)
    mean_busy = sum(busy.values()) / len(busy) if busy else 0.0
    return {
        "events_total": total,
        "counts": dict(sorted(counts.items())),
        "simulated_time_us": now_us,
        "preemption": {
            mechanism: latency_stats(samples)
            for mechanism, samples in sorted(latencies.items())
        },
        "preemption_latencies_us": {
            mechanism: list(samples) for mechanism, samples in sorted(latencies.items())
        },
        "queueing_us": {
            engine: latency_stats(samples) for engine, samples in sorted(waits.items())
        },
        "mean_sm_busy_fraction": mean_busy,
        "artifacts": list(artifacts) if artifacts else [],
    }


__all__ = [
    "Span",
    "percentile",
    "latency_stats",
    "preemption_latencies",
    "occupancy_timeline",
    "sm_busy_fractions",
    "queueing_delays",
    "derive_spans",
    "summarize",
]
