"""Frozen digests of whole traces: JSONL export, Chrome export and summary.

The Chrome-trace fixture in ``trace_chrome_small.json`` covers one tiny
scenario in full.  This module covers larger traced runs by digest: for each
run it records the SHA-256 of the JSONL export of every event, of the Chrome
trace-event export and of the :meth:`TraceCollector.summary` JSON.  Any
change to what the collector records, in which order, with which attributes,
or to how the summary is derived, changes a digest here.

The runs:

* the traced ``large_gpu`` 8-SM and 32-SM scenarios (span path at scale);
* a validated, preempting 2-SM synthetic scenario (fuzz seed 16 of
  ``tests/gpu/test_wave_equivalence.py``), where spans are materialised on
  reserved SMs and context-switch evictions cut blocks short.

To regenerate after an *intentional* trace change, run this module directly
(``PYTHONPATH=src python tests/telemetry/test_trace_golden.py``) and commit
the updated fixture together with an explanation of the drift.
"""

from __future__ import annotations

import hashlib
import io
import json
import pathlib
from typing import Dict

import pytest

from repro.runner import runner_for
from repro.scenario import ScenarioSpec, SchemeSpec
from repro.system import GPUSystem
from repro.telemetry.export import write_chrome_trace, write_jsonl
from repro.workloads.large_gpu import generate_large_gpu_scenario
from repro.workloads.synthetic import generate_synthetic_scenario

FIXTURE = pathlib.Path(__file__).resolve().parent.parent / "golden" / "trace_digests.json"


def _preempting_2sm_scenario() -> ScenarioSpec:
    """Fuzz seed 16 on 2 SMs, validated: PPQ with context switch preempts."""
    return generate_synthetic_scenario(
        16,
        scale="smoke",
        validate=True,
        trace=True,
        scheme=SchemeSpec(
            policy="ppq",
            mechanism="context_switch",
            transfer_policy="fcfs",
            name="ppq_context_switch_none",
        ),
        max_processes=4,
        config_overrides={"tb_time_cv": 0.0, "gpu": {"num_sms": 2}},
    )


SCENARIOS = {
    "large_gpu_8sm": lambda: generate_large_gpu_scenario(8, trace=True),
    "large_gpu_32sm": lambda: generate_large_gpu_scenario(32, trace=True),
    "synthetic_16_2sm_validated": _preempting_2sm_scenario,
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _traced_system(scenario: ScenarioSpec) -> GPUSystem:
    runner = runner_for(scenario)
    system = GPUSystem.from_scenario(scenario, config=runner.config, suite=runner.suite)
    system.run(
        stop_after_min_iterations=scenario.resolved_min_iterations(),
        max_events=scenario.resolved_max_events(),
    )
    return system


def _digests(system: GPUSystem) -> Dict[str, str]:
    telemetry = system.telemetry
    jsonl, chrome = io.StringIO(), io.StringIO()
    write_jsonl(telemetry.events, jsonl)
    write_chrome_trace(telemetry.events, chrome, end_us=system.simulator.now)
    summary = json.dumps(telemetry.summary(), sort_keys=True)
    return {
        "jsonl_sha256": _sha256(jsonl.getvalue()),
        "chrome_sha256": _sha256(chrome.getvalue()),
        "summary_sha256": _sha256(summary),
    }


def _current() -> Dict[str, Dict[str, str]]:
    return {name: _digests(_traced_system(build())) for name, build in SCENARIOS.items()}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_digests_match_the_frozen_fixture(name):
    expected = json.loads(FIXTURE.read_text())[name]
    system = _traced_system(SCENARIOS[name]())
    assert system.violations() == []
    assert _digests(system) == expected


def test_the_synthetic_run_preempts():
    system = _traced_system(_preempting_2sm_scenario())
    counts = system.telemetry.summary()["counts"]
    assert counts.get("preempt_complete", 0) > 0
    assert counts.get("preempt_save_start", 0) > 0


if __name__ == "__main__":  # pragma: no cover - fixture regeneration helper
    FIXTURE.write_text(json.dumps(_current(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
