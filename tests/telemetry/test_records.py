"""Span records: the collector's compact stream against its per-block form.

:class:`~repro.telemetry.collector.TraceCollector` stores one
:class:`~repro.telemetry.events.BlockRunRecord` per ``BlockRun`` start or
finish.  These properties drive two collectors through random interleavings
of instants and spans, one through the span hooks and one announcing the
same blocks one by one through the per-block hooks, and check that

* the expanded ``events`` of the span collector equal the per-block
  collector's events, byte for byte, with dense seqs ``0 .. n - 1``;
* :func:`~repro.telemetry.analytics.summarize` over the records equals
  ``summarize`` over the expanded events, byte for byte;
* reading ``events`` twice, and again after a new record, is consistent.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.telemetry import events as ev
from repro.telemetry.analytics import summarize
from repro.telemetry.collector import TraceCollector
from repro.telemetry.events import BlockRunRecord

OPS = ("start", "finish", "block", "save", "request", "complete", "enqueue", "issue", "cpu")

op_lists = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.integers(0, 2),  # SM
        st.integers(1, 6),  # block count (a start or finish of 1 is a count-1 run)
        st.sampled_from([0.0, 0.0, 0.25, 3.0]),  # time advance before the op
    ),
    max_size=60,
)
gpu_ids = st.one_of(st.none(), st.integers(0, 3))


class _Pair:
    """A span collector and a per-block collector fed the same history."""

    def __init__(self, gpu_id):
        self.sim = SimpleNamespace(now=0.0)
        self.spans = TraceCollector(gpu_id=gpu_id)
        self.blocks = TraceCollector(gpu_id=gpu_id)
        for collector in (self.spans, self.blocks):
            collector._sim = self.sim
        self.resident = {0: [], 1: [], 2: []}  # SM -> resident (launch, block)
        self.next_block = {}
        self.commands = []

    def _both(self, hook, *args):
        getattr(self.spans, hook)(*args)
        getattr(self.blocks, hook)(*args)

    def _sm(self, sm):
        return SimpleNamespace(sm_id=sm, resident_blocks=len(self.resident[sm]), ksr_index=sm)

    def start(self, sm, count):
        launch = 1 + sm % 2
        first = self.next_block.get(launch, 0)
        self.next_block[launch] = first + count
        run = SimpleNamespace(launch=SimpleNamespace(launch_id=launch), first_index=first, count=count)
        for index in range(first, first + count):
            self.resident[sm].append((launch, index))
            block = SimpleNamespace(kernel_launch_id=launch, block_index=index, preemption_count=0)
            self.blocks.on_block_started(self._sm(sm), block)
        self.spans.on_run_started(self._sm(sm), run)

    def finish(self, sm, count):
        # Retire the oldest resident blocks of one launch as one span, down to
        # zero residency when ``count`` covers them all.
        if not self.resident[sm]:
            return
        launch, first = self.resident[sm][0]
        count = min(count, len(self.resident[sm]))
        span = self.resident[sm][:count]
        if span != [(launch, first + i) for i in range(count)]:
            count = 1
        run = SimpleNamespace(launch=SimpleNamespace(launch_id=launch), first_index=first, count=count)
        for index in range(first, first + count):
            self.resident[sm].remove((launch, index))
            block = SimpleNamespace(kernel_launch_id=launch, block_index=index)
            self.blocks.on_block_completed(self._sm(sm), block)
        self.spans.on_run_completed(self._sm(sm), run)

    def block(self, sm, count):
        # A per-block start (restored when ``count`` is even) on both.
        launch = 1 + sm % 2
        index = self.next_block.get(launch, 0)
        self.next_block[launch] = index + 1
        self.resident[sm].append((launch, index))
        block = SimpleNamespace(
            kernel_launch_id=launch, block_index=index, preemption_count=count % 2 == 0
        )
        self._both("on_block_started", self._sm(sm), block)

    def save(self, sm, count):
        evicted = list(self.resident[sm])
        self.resident[sm].clear()
        self._both("on_blocks_evicted", self._sm(sm), evicted)

    def request(self, sm, count):
        self._both("on_sm_reserved", self._sm(sm), 0, SimpleNamespace(name=f"mech{count % 2}"))

    def complete(self, sm, count):
        self._both("on_preemption_complete", self._sm(sm), [], SimpleNamespace(name=f"mech{count % 2}"))

    def enqueue(self, sm, count):
        command = SimpleNamespace(
            command_id=len(self.commands),
            engine="execution" if count % 2 else "transfer",
            size_bytes=64 * count,
            direction=SimpleNamespace(value="h2d"),
            launch=SimpleNamespace(
                spec=SimpleNamespace(qualified_name="k", num_thread_blocks=count), launch_id=sm
            ),
            process_name="p",
            stream_id=sm,
        )
        self.commands.append(command)
        self._both("on_command_enqueued", sm, command)

    def issue(self, sm, count):
        if self.commands:
            self._both("on_command_issued", sm, self.commands[count % len(self.commands)])

    def cpu(self, sm, count):
        self._both("on_cpu_phase_started", float(count), f"phase{sm}")

    def apply(self, ops):
        for op, sm, count, advance in ops:
            self.sim.now += advance
            getattr(self, op)(sm, count)


def _json(summary) -> str:
    return json.dumps(summary, sort_keys=True)


def _rows(events):
    """Events with their attrs in insertion order (``to_json`` sorts keys)."""
    return [(e.seq, e.time_us, e.kind, list(e.attrs.items())) for e in events]


@settings(max_examples=150, deadline=None)
@given(ops=op_lists, gpu_id=gpu_ids, end=st.sampled_from([0.0, 1.0, 50.0]))
def test_records_summarise_and_expand_like_per_block_events(ops, gpu_id, end):
    pair = _Pair(gpu_id)
    pair.apply(ops)
    spans, blocks = pair.spans, pair.blocks
    expanded = spans.events

    assert _rows(expanded) == _rows(blocks.events)
    assert [e.to_json() for e in expanded] == [e.to_json() for e in blocks.events]
    assert [e.seq for e in expanded] == list(range(len(expanded)))
    assert spans.num_events == len(expanded) == blocks.num_events

    now = pair.sim.now + end
    assert _json(summarize(spans._records, now_us=now)) == _json(summarize(expanded, now_us=now))
    pair.sim.now = now
    assert _json(spans.summary()) == _json(blocks.summary())


@settings(max_examples=60, deadline=None)
@given(ops=op_lists, gpu_id=gpu_ids, count=st.integers(1, 4))
def test_reading_events_is_consistent_across_new_records(ops, gpu_id, count):
    pair = _Pair(gpu_id)
    pair.apply(ops)
    first = _rows(pair.spans.events)
    assert _rows(pair.spans.events) == first
    pair.start(0, count)
    after = pair.spans.events
    assert _rows(after[: len(first)]) == first
    assert _rows(after) == _rows(pair.blocks.events)
    assert [e.seq for e in after] == list(range(len(first) + count))


def test_a_span_is_stored_as_one_record():
    pair = _Pair(None)
    pair.sim.now = 2.0
    pair.start(1, 5)
    pair.finish(1, 5)
    records = pair.spans._records
    assert records == [
        BlockRunRecord(0, 2.0, ev.BLOCK_START, 1, 2, 0, 5, 0, 1),
        BlockRunRecord(5, 2.0, ev.BLOCK_FINISH, 1, 2, 0, 5, 5, -1),
    ]
    assert [r.resident_after for r in records] == [5, 0]
    assert pair.spans.num_events == 10
    assert pair.spans.summary()["events_total"] == 10
