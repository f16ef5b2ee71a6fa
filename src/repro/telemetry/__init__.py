"""Simulation telemetry: structured tracing, analytics and timeline exports.

The paper this repository reproduces is an argument about *time* — how long a
context-switch vs. draining preemption takes and what that latency costs.
This subsystem turns every simulated run into an analyzable, exportable
timeline:

* :class:`TraceCollector` — an observer recording typed, timestamped
  :class:`TraceEvent` values (kernel lifecycle, block dispatch/finish,
  preemption request → save → restore / drain, transfers, CPU phases, SM
  occupancy deltas).  A ``BlockRun`` span is stored as one
  :class:`BlockRunRecord`; ``events`` expands it per block.  Enable per run
  with ``GPUSystem(trace=True)`` / ``ScenarioSpec(trace=True)`` or the
  CLI's ``--trace``.
* :mod:`repro.telemetry.analytics` — derived quantities: per-mechanism
  preemption-latency distributions (p50/p95/max), per-SM occupancy
  timelines and busy fractions, queueing-delay breakdowns, matched spans.
* :mod:`repro.telemetry.export` — Chrome trace-event JSON (Perfetto),
  streaming JSONL, and an ASCII Gantt for terminals.

Collectors are pure observers: a traced run is byte-identical to the same
run without tracing, and tracing disabled costs one ``is None`` check per
instrumentation point.

>>> from repro import GPUSystem
>>> from repro.trace import TraceGenerator
>>> system = GPUSystem(policy="ppq", mechanism="draining", trace=True)
>>> trace = TraceGenerator().uniform_kernel("demo", num_blocks=16, tb_time_us=4.0)
>>> _ = system.add_process("demo", trace, max_iterations=1)
>>> system.run()
>>> system.telemetry.num_events > 0
True
"""

from repro.telemetry.analytics import (
    Span,
    derive_spans,
    latency_stats,
    occupancy_timeline,
    percentile,
    preemption_latencies,
    queueing_delays,
    sm_busy_fractions,
    summarize,
)
from repro.telemetry.collector import TraceCollector
from repro.telemetry.events import KINDS, BlockRunRecord, TraceEvent
from repro.telemetry.export import (
    ascii_gantt,
    iter_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "TraceCollector",
    "TraceEvent",
    "BlockRunRecord",
    "KINDS",
    "Span",
    "derive_spans",
    "latency_stats",
    "occupancy_timeline",
    "percentile",
    "preemption_latencies",
    "queueing_delays",
    "sm_busy_fractions",
    "summarize",
    "ascii_gantt",
    "iter_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
