"""The vectorised BlockRun issue path: engagement and span fidelity.

Byte-identity of the run representation is proven by the wave- and
queue-equivalence fuzzes (both engines produce identical artifacts with it
on); these tests pin the other half — that the fast path actually
*engages* on the workloads built for it (jitter-free large_gpu refills as
whole spans, jittered serving refills as count-1 runs), stays on when
validation observes the SMs through the span hooks, and that a
materialised span recreates exactly the blocks the per-block path makes.
"""

from __future__ import annotations

import pytest

from repro.experiments.base import ExperimentConfig
from repro.experiments.serving import serving_scenario
from repro.gpu.blockrun import BlockRun
from repro.gpu.kernel import KernelLaunch
from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.thread_block import ThreadBlockState
from repro.serving.driver import run_serving
from repro.system import GPUSystem
from repro.utils.determinism import DeterministicJitter, KeyedJitter
from repro.workloads.large_gpu import generate_large_gpu_scenario


def _count_start_run(monkeypatch) -> list:
    """Record the block count of every ``start_run`` call."""
    calls = []
    real = StreamingMultiprocessor.start_run

    def counting(self, run, **kwargs):
        calls.append(run.count)
        return real(self, run, **kwargs)

    monkeypatch.setattr(StreamingMultiprocessor, "start_run", counting)
    return calls


def _count_draws(monkeypatch) -> list:
    """Record the block index of every keyed jitter draw."""
    draws = []
    real = KeyedJitter.factor

    def counting(self, index):
        draws.append(index)
        return real(self, index)

    monkeypatch.setattr(KeyedJitter, "factor", counting)
    return draws


def _run_counting_start_run(monkeypatch, *, validate):
    calls = _count_start_run(monkeypatch)
    scenario = generate_large_gpu_scenario(8)
    if validate:
        import dataclasses

        scenario = dataclasses.replace(scenario, validate=True)
    system = GPUSystem.from_scenario(scenario)
    system.run(
        stop_after_min_iterations=scenario.resolved_min_iterations(),
        max_events=scenario.resolved_max_events(),
    )
    return calls, system


def test_fast_span_path_engages_on_jitter_free_refills(monkeypatch):
    calls, system = _run_counting_start_run(monkeypatch, validate=False)
    # The steady state issues whole spans: most of the grid goes through
    # start_run, and spans are real batches rather than degenerate 1-runs.
    stats = system.execution_engine.utilization_snapshot()
    assert sum(calls) > int(stats["blocks_executed"]) / 2
    assert max(calls) > 1


def test_observers_keep_the_span_path(monkeypatch):
    calls, system = _run_counting_start_run(monkeypatch, validate=True)
    # Validation observes runs through on_run_started / on_run_completed, so
    # the observed SMs issue whole spans just like unobserved ones.
    stats = system.execution_engine.utilization_snapshot()
    assert sum(calls) > int(stats["blocks_executed"]) / 2
    assert max(calls) > 1
    assert not system.violations()


def _run_jittered_serving(monkeypatch, *, validate):
    calls = _count_start_run(monkeypatch)
    draws = _count_draws(monkeypatch)
    per_block = []
    real_take = KernelLaunch.take_fresh_blocks

    def counting_take(self, count):
        blocks = real_take(self, count)
        per_block.append(len(blocks))
        return blocks

    monkeypatch.setattr(KernelLaunch, "take_fresh_blocks", counting_take)
    scenario = serving_scenario(ExperimentConfig(scale="smoke", validate=validate), load="light")
    outcome = run_serving(scenario)
    assert outcome.summary["completed"] > 0
    return calls, sum(per_block), draws, outcome


def test_jittered_serving_refills_issue_count_one_runs(monkeypatch):
    calls, per_block, draws, _ = _run_jittered_serving(monkeypatch, validate=False)
    # Jittered grids stay on the span path: almost every fresh block is a
    # count-1 run carrying its own execution time.
    assert set(calls) == {1}
    assert len(calls) >= 0.9 * (len(calls) + per_block)
    # One jitter draw per fresh block, none on materialisation.
    assert len(draws) == len(calls) + per_block


def test_observers_keep_the_span_path_on_jittered_grids(monkeypatch):
    calls, per_block, draws, outcome = _run_jittered_serving(monkeypatch, validate=True)
    assert calls and set(calls) == {1}
    assert outcome.violations == []
    # One jitter draw per fresh block, whichever path issued it.
    assert len(draws) == len(calls) + per_block


def test_materialised_jittered_run_keeps_its_drawn_execution_time(monkeypatch):
    from repro.gpu.kernel import KernelSpec
    from repro.gpu.resources import ResourceUsage

    spec = KernelSpec(
        name="k", benchmark="b", num_thread_blocks=8, avg_tb_time_us=4.0,
        usage=ResourceUsage(registers_per_block=1, shared_memory_per_block=0),
    )
    launch = KernelLaunch(
        spec=spec, launch_id=3, context_id=1, jitter=DeterministicJitter(5, 0.3)
    )
    first, taken = launch.take_fresh_span(4)
    runs = [BlockRun(launch, i, 1, launch.block_execution_time(i)) for i in range(first, taken)]
    draws = _count_draws(monkeypatch)
    for run in runs:
        run.start_time_us = 2.0
        (block,) = run.materialise(sm_id=0)
        assert block.execution_time_us == launch.block_execution_time(run.first_index)
        assert block.execution_time_us != spec.avg_tb_time_us
        assert block.state is ThreadBlockState.RUNNING
    # Only the comparisons above drew; materialising reused the run's time.
    assert draws == [run.first_index for run in runs]


def test_materialised_span_matches_the_per_block_issue(synthetic_launch=None):
    from repro.gpu.kernel import KernelLaunch, KernelSpec
    from repro.gpu.resources import ResourceUsage

    spec = KernelSpec(
        name="k", benchmark="b", num_thread_blocks=12, avg_tb_time_us=4.0,
        usage=ResourceUsage(registers_per_block=1, shared_memory_per_block=0),
    )
    reference = KernelLaunch(spec=spec, launch_id=7, context_id=1)
    vectorised = KernelLaunch(spec=spec, launch_id=7, context_id=1)

    expected = reference.take_fresh_blocks(5)
    for block in expected:
        block.start(sm_id=3, now=10.5)

    first, taken = vectorised.take_fresh_span(5)
    assert (first, taken) == (0, 5)
    run = BlockRun(vectorised, first, taken, spec.avg_tb_time_us)
    run.start_time_us = 10.5
    assert run.key == expected[0].key

    produced = run.materialise(sm_id=3)
    assert [b.key for b in produced] == [b.key for b in expected]
    for mine, theirs in zip(produced, expected):
        assert mine.execution_time_us == theirs.execution_time_us
        assert mine.state is ThreadBlockState.RUNNING is theirs.state
        assert mine.sm_id == theirs.sm_id
        assert mine.first_start_time_us == theirs.first_start_time_us
        assert mine.last_start_time_us == theirs.last_start_time_us
    # The launch-side cursors agree too: same next index, same registry.
    assert vectorised.unissued_blocks == reference.unissued_blocks
    assert sorted(b.block_index for b in vectorised.materialised_blocks()) == sorted(
        b.block_index for b in reference.materialised_blocks()
    )


def test_note_span_completed_finishes_the_launch_exactly_once():
    from repro.gpu.kernel import KernelLaunch, KernelSpec, KernelState
    from repro.gpu.resources import ResourceUsage

    finished = []
    spec = KernelSpec(
        name="k", benchmark="b", num_thread_blocks=6, avg_tb_time_us=1.0,
        usage=ResourceUsage(registers_per_block=1, shared_memory_per_block=0),
    )
    launch = KernelLaunch(
        spec=spec, launch_id=1, context_id=1,
        on_complete=lambda kernel, now: finished.append(now),
    )
    launch.take_fresh_span(6)
    launch.note_span_completed(4, 5.0)
    assert launch.state is not KernelState.FINISHED
    launch.note_span_completed(2, 9.0)
    assert launch.state is KernelState.FINISHED
    assert launch.completion_time_us == 9.0
    assert finished == [9.0]
    with pytest.raises(RuntimeError):
        launch.note_span_completed(1, 10.0)
