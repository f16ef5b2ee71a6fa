"""Heap vs calendar event queues: byte-identical runs, by fuzz.

The engine's event store is pluggable (:mod:`repro.sim.queues`); the heap is
the oracle and every other implementation must reproduce its pop order
*exactly*.  This fuzz runs 50 seed-derived scenarios — spread across every
scheduling policy × preemption mechanism × preemption controller combination
— once per queue implementation and asserts the complete run record (per
process timings, metrics, engine statistics, validation verdicts, serving
summaries, exported Chrome traces) is byte-identical.  Unlike the wave
equivalence fuzz, *nothing* is excluded: the queue choice must not change a
single event, so even event-count statistics must agree.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.registry import EVENT_QUEUES
from repro.runner import execute_scenario
from repro.scenario import ScenarioSpec, SchemeSpec
from repro.sim.queues import DEFAULT_EVENT_QUEUE
from repro.workloads.synthetic import (
    SCHEME_CONTROLLERS,
    SCHEME_MECHANISMS,
    SCHEME_POLICIES,
    generate_synthetic_scenario,
)

FUZZ_SEEDS = list(range(50))
COMBOS = [
    (policy, mechanism, controller)
    for policy in SCHEME_POLICIES
    for mechanism in SCHEME_MECHANISMS
    for controller in SCHEME_CONTROLLERS
]


def _scheme_for_seed(seed: int) -> SchemeSpec:
    policy, mechanism, controller = COMBOS[seed % len(COMBOS)]
    controller_options = {}
    if controller == "hybrid":
        controller_options["drain_budget_us"] = [0.0, 2.0, 10.0, 40.0][seed % 4]
    return SchemeSpec(
        policy=policy,
        mechanism=mechanism,
        transfer_policy="npq" if seed % 2 else "fcfs",
        controller=controller,
        controller_options=controller_options,
        name=f"{policy}_{mechanism}_{controller or 'none'}",
    )


def _fuzz_scenario(seed: int, queue: str, **kwargs) -> ScenarioSpec:
    spec = generate_synthetic_scenario(
        seed,
        scale="smoke",
        scheme=_scheme_for_seed(seed),
        max_processes=4,
        queue=queue,
        **kwargs,
    )
    return spec


def _artifacts(record) -> dict:
    """Everything the run produced, minus the spec (whose queue= differs)."""
    payload = record.to_dict()
    payload.pop("scenario")
    return payload


def _run_pair(seed: int, **kwargs):
    heap = execute_scenario(_fuzz_scenario(seed, "heap", **kwargs))
    calendar = execute_scenario(_fuzz_scenario(seed, "calendar", **kwargs))
    return heap, calendar


def test_both_builtin_queues_are_registered():
    assert set(EVENT_QUEUES.names()) >= {"heap", "calendar"}
    assert DEFAULT_EVENT_QUEUE in EVENT_QUEUES


def test_fuzz_covers_every_policy_mechanism_controller_combination():
    covered = {
        (s.scheme.policy, s.scheme.mechanism, s.scheme.controller)
        for s in (_fuzz_scenario(seed, "heap") for seed in FUZZ_SEEDS)
    }
    assert covered == set(COMBOS)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_calendar_run_is_byte_identical_to_heap_run(seed):
    # Half the seeds attach the invariant-validation observers, exercising
    # the batched paths both bare and observed (span hooks, per-block
    # batches off) under each queue.
    validate = seed % 2 == 0
    heap, calendar = _run_pair(seed, validate=validate)
    if validate:
        assert heap.ok and calendar.ok
    assert json.dumps(_artifacts(heap), sort_keys=True) == json.dumps(
        _artifacts(calendar), sort_keys=True
    ), f"seed {seed} ({heap.scenario.describe()}) diverged between queues"


@pytest.mark.parametrize("seed", [1, 13, 27, 42])
def test_queue_choice_preserves_serving_runs(seed):
    """Open-loop serving scenarios (arrivals/admission/SLO) match exactly."""
    heap, calendar = _run_pair(seed, open_loop=True)
    assert json.dumps(_artifacts(heap), sort_keys=True) == json.dumps(
        _artifacts(calendar), sort_keys=True
    ), f"serving seed {seed} diverged between queues"


@pytest.mark.parametrize("seed", [5, 18])
def test_queue_choice_preserves_fleet_runs(seed):
    """Multi-GPU fleet scenarios (routed epochs) match exactly."""
    heap, calendar = _run_pair(seed, cluster=True)
    assert json.dumps(_artifacts(heap), sort_keys=True) == json.dumps(
        _artifacts(calendar), sort_keys=True
    ), f"fleet seed {seed} diverged between queues"


@pytest.mark.parametrize("seed", [0, 10, 20, 30, 40])
def test_queue_choice_preserves_chrome_traces(seed, tmp_path):
    """Traced runs export byte-identical Chrome trace artifacts."""
    spec_heap = _fuzz_scenario(seed, "heap")
    spec_calendar = _fuzz_scenario(seed, "calendar")
    spec_heap = dataclasses.replace(spec_heap, trace=True)
    spec_calendar = dataclasses.replace(spec_calendar, trace=True)
    path_heap = str(tmp_path / "heap.trace.json")
    path_calendar = str(tmp_path / "calendar.trace.json")
    execute_scenario(spec_heap, trace_path=path_heap)
    execute_scenario(spec_calendar, trace_path=path_calendar)
    with open(path_heap, "rb") as handle:
        heap_bytes = handle.read()
    with open(path_calendar, "rb") as handle:
        calendar_bytes = handle.read()
    assert heap_bytes == calendar_bytes


def test_serving_checkpoints_match_between_queues():
    """Quiesce checkpoints (the serving resume contract) match exactly."""
    from repro.serving.driver import run_serving

    summaries = {}
    checkpoints = {}
    for queue in ("heap", "calendar"):
        spec = _fuzz_scenario(3, queue, open_loop=True)
        horizon = float(spec.arrivals["horizon_us"])
        outcome = run_serving(spec, checkpoint_at=[horizon / 2])
        assert outcome.segments == 2
        summaries[queue] = outcome.summary
        checkpoints[queue] = outcome.checkpoint
    assert json.dumps(summaries["heap"], sort_keys=True) == json.dumps(
        summaries["calendar"], sort_keys=True
    )
    assert json.dumps(checkpoints["heap"], sort_keys=True) == json.dumps(
        checkpoints["calendar"], sort_keys=True
    )
