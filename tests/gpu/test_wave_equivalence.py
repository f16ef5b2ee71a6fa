"""Wave-batched vs per-block execution: observably identical, by fuzz.

The SM may aggregate same-instant thread-block completions into shared
"wave" heap events (``GPUConfig.wave_batching``, on by default), issue fresh
refills as :class:`~repro.gpu.blockrun.BlockRun` spans and complete them (and,
with no observer attached, contiguous same-SM runs of blocks) through the
driver's batched handlers.  All are pure simulation optimisations: this fuzz
runs 50 seed-derived scenarios — spread across every scheduling policy ×
preemption mechanism × preemption controller combination, with jitter
disabled so waves actually form — once wave-batched and once with the exact
per-block path forced, on the default GPU and on a contended 2-SM GPU, and
asserts byte-identical run artifacts: per-process timings, multiprogram
metrics, engine statistics, invariant-validation verdicts and exported
Chrome traces.

A second fuzz keeps the default per-block jitter, so refills run as count-1
:class:`~repro.gpu.blockrun.BlockRun` spans, and asserts the whole
run record byte-identical to the per-block path — for closed-loop scenarios
over every combination and for open-loop serving runs, one of them split
across a checkpoint.
"""

from __future__ import annotations

import json
from typing import Optional

import pytest

from repro.gpu.sm import SMState, StreamingMultiprocessor
from repro.runner import execute_scenario
from repro.scenario import ScenarioSpec, SchemeSpec
from repro.serving.driver import run_serving
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

#: Every completion-event count key that legitimately differs between the
#: wave-batched and per-block engines (fewer heap events, same behaviour).
_EVENT_DEPENDENT_STATS = {"block_completion_events"}


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


def _fuzz_scenario(
    seed: int,
    *,
    wave_batching: bool,
    validate: bool,
    jitter: bool = False,
    open_loop: bool = False,
    num_sms: Optional[int] = None,
) -> ScenarioSpec:
    overrides = {} if jitter else {"tb_time_cv": 0.0}
    gpu = {} if num_sms is None else {"num_sms": num_sms}
    if not wave_batching:
        gpu["wave_batching"] = False
    if gpu:
        overrides["gpu"] = gpu
    return generate_synthetic_scenario(
        seed,
        scale="smoke",
        validate=validate,
        scheme=_scheme_for_seed(seed),
        max_processes=4,
        config_overrides=overrides,
        open_loop=open_loop,
    )


def _artifacts(record) -> dict:
    """The run artifacts that must match between the two paths."""
    payload = record.to_dict()
    engine_stats = {
        key: value
        for key, value in payload["engine_stats"].items()
        if key not in _EVENT_DEPENDENT_STATS
    }
    return {
        "process_times_us": payload["process_times_us"],
        "process_applications": payload["process_applications"],
        "metrics": payload["metrics"],
        "engine_stats": engine_stats,
        "simulated_time_us": payload["simulated_time_us"],
        "validated": payload["validated"],
        "violations": payload["violations"],
        "trace": payload["trace"],
    }


def test_fuzz_covers_every_policy_mechanism_controller_combination():
    covered = {
        (s.scheme.policy, s.scheme.mechanism, s.scheme.controller)
        for s in (
            _fuzz_scenario(seed, wave_batching=True, validate=False)
            for seed in FUZZ_SEEDS
        )
    }
    assert covered == set(COMBOS)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_wave_batched_run_is_byte_identical_to_per_block_run(seed):
    # Half the seeds run with the invariant-validation observers attached, so
    # the span path is compared against per-block both bare and observed
    # through the run hooks.
    validate = seed % 2 == 0
    waved = execute_scenario(_fuzz_scenario(seed, wave_batching=True, validate=validate))
    exact = execute_scenario(_fuzz_scenario(seed, wave_batching=False, validate=validate))
    if validate:
        assert waved.ok and exact.ok
    waved_artifacts, exact_artifacts = _artifacts(waved), _artifacts(exact)
    # The scenario specs differ only in the wave_batching override; artifacts
    # must not differ at all.  Compare through canonical JSON so the check is
    # a true byte-identity statement.
    assert json.dumps(waved_artifacts, sort_keys=True) == json.dumps(
        exact_artifacts, sort_keys=True
    ), f"seed {seed} ({waved.scenario.describe()}) diverged"


_SMALL_GPU_SMS = 2


@pytest.mark.parametrize("validate", [False, True])
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_wave_batched_run_on_a_contended_gpu_is_byte_identical(seed, validate):
    # On 2 SMs the preemptive schemes contend.  Seed 16 caught the batched
    # completion handlers marking an emptied SM idle before its refill,
    # which the per-block path never does for two or more blocks.
    waved = execute_scenario(
        _fuzz_scenario(seed, wave_batching=True, validate=validate, num_sms=_SMALL_GPU_SMS)
    )
    exact = execute_scenario(
        _fuzz_scenario(seed, wave_batching=False, validate=validate, num_sms=_SMALL_GPU_SMS)
    )
    if validate:
        assert waved.ok and exact.ok
    assert json.dumps(_artifacts(waved), sort_keys=True) == json.dumps(
        _artifacts(exact), sort_keys=True
    ), f"seed {seed} ({waved.scenario.describe()}) diverged on {_SMALL_GPU_SMS} SMs"


#: Traced inputs: ``(seed, num_sms, validate)``.  The default-GPU seeds trace
#: alone; the 2-SM seeds add validation and preempt (context switch and
#: draining), so spans are materialised mid-flight on reserved SMs.
TRACED_INPUTS = [
    pytest.param(seed, None, False, id=str(seed)) for seed in (0, 10, 20, 30, 40)
] + [
    pytest.param(seed, _SMALL_GPU_SMS, True, id=f"{seed}-2sm-validated")
    for seed in (16, 19, 23, 33)
]


@pytest.mark.parametrize("seed,num_sms,validate", TRACED_INPUTS)
def test_wave_batched_traces_are_byte_identical(seed, num_sms, validate, tmp_path, monkeypatch):
    """Traced runs export byte-identical Chrome trace artifacts.

    The trace collector (and, where enabled, validation) observes the span
    path through the run hooks, while the reference runs every block through
    the per-block path.
    """
    reserved_materialisations = []
    materialise = StreamingMultiprocessor._materialize_run

    def counting(sm, run):
        if sm.state is SMState.RESERVED:
            reserved_materialisations.append(run.count)
        return materialise(sm, run)

    monkeypatch.setattr(StreamingMultiprocessor, "_materialize_run", counting)
    spec_waved = _fuzz_scenario(seed, wave_batching=True, validate=validate, num_sms=num_sms)
    spec_exact = _fuzz_scenario(seed, wave_batching=False, validate=validate, num_sms=num_sms)
    spec_waved = ScenarioSpec.from_dict({**spec_waved.to_dict(), "trace": True})
    spec_exact = ScenarioSpec.from_dict({**spec_exact.to_dict(), "trace": True})
    path_waved = str(tmp_path / "waved.trace.json")
    path_exact = str(tmp_path / "exact.trace.json")
    waved = execute_scenario(spec_waved, trace_path=path_waved)
    if validate:
        assert waved.ok
        assert reserved_materialisations
    exact = execute_scenario(spec_exact, trace_path=path_exact)
    with open(path_waved, "rb") as handle:
        waved_bytes = handle.read()
    with open(path_exact, "rb") as handle:
        exact_bytes = handle.read()
    assert waved_bytes == exact_bytes
    summary_waved = dict(waved.trace_summary, artifacts=None)
    summary_exact = dict(exact.trace_summary, artifacts=None)
    assert summary_waved == summary_exact


def test_wave_batching_reduces_heap_events_on_regular_grids():
    """On a jitter-free scenario the wave path processes fewer heap events."""
    waved = execute_scenario(_fuzz_scenario(3, wave_batching=True, validate=False))
    exact = execute_scenario(_fuzz_scenario(3, wave_batching=False, validate=False))
    assert waved.result.events_processed < exact.result.events_processed
    # Block-equivalent accounting reconciles the two counts exactly.
    from repro.experiments.scale import block_equivalent_events

    eq_waved = block_equivalent_events(
        waved.result.events_processed, waved.result.engine_stats
    )
    eq_exact = block_equivalent_events(
        exact.result.events_processed, exact.result.engine_stats
    )
    assert eq_waved == eq_exact


#: Two jittered closed-loop seeds per policy × mechanism × controller: the
#: first pass on a 2-SM GPU, where the preemptive schemes contend and preempt
#: (evicting or draining span-issued blocks), the second on the default GPU.
JITTER_SEEDS = list(range(2 * len(COMBOS)))
#: Jittered open-loop serving seeds on a 2-SM GPU, each of which preempts.
SERVING_SEEDS = [19, 23, 31, 64, 72, 74]


def _jittered(seed: int, *, wave_batching: bool, open_loop: bool = False) -> ScenarioSpec:
    small = open_loop or seed < len(COMBOS)
    return _fuzz_scenario(
        seed,
        wave_batching=wave_batching,
        validate=False,
        jitter=True,
        open_loop=open_loop,
        num_sms=_SMALL_GPU_SMS if small else None,
    )


def _record_json(record) -> str:
    """Canonical JSON of a whole run record minus its spec (the specs differ
    only in the ``wave_batching`` override)."""
    payload = record.to_dict()
    del payload["scenario"]
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("seed", JITTER_SEEDS)
def test_jittered_span_run_is_byte_identical_to_per_block_run(seed):
    spanned = execute_scenario(_jittered(seed, wave_batching=True))
    exact = execute_scenario(_jittered(seed, wave_batching=False))
    assert _record_json(spanned) == _record_json(exact), (
        f"seed {seed} ({spanned.scenario.describe()}) diverged"
    )


@pytest.mark.parametrize("seed", SERVING_SEEDS)
def test_jittered_serving_run_is_byte_identical_to_per_block_run(seed):
    spanned = execute_scenario(_jittered(seed, wave_batching=True, open_loop=True))
    exact = execute_scenario(_jittered(seed, wave_batching=False, open_loop=True))
    assert exact.result.engine_stats["blocks_preempted"] > 0
    assert _record_json(spanned) == _record_json(exact)


def test_jittered_checkpoint_split_run_matches_unsplit_per_block_run():
    seed = SERVING_SEEDS[4]
    spanned = _jittered(seed, wave_batching=True, open_loop=True)
    split = run_serving(spanned, checkpoint_at=(spanned.arrivals["horizon_us"] / 2,))
    unsplit = run_serving(_jittered(seed, wave_batching=False, open_loop=True))
    assert split.segments == 2
    assert json.dumps(split.summary, sort_keys=True) == json.dumps(
        unsplit.summary, sort_keys=True
    )
