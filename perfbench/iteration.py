"""One iteration of one workload, in a fresh process; prints one JSON line.

    PYTHONPATH=src python3 perfbench/iteration.py --workload NAME --seed N \\
        --mode plain|traced|heap [--out DIR]

``plain`` is the untraced iteration behind the end-to-end metrics.
``traced`` profiles set-up and run with ``cProfile``, records spans around
the layer entry points and writes both the spans and the layer table to
``--out``.  ``heap`` runs under ``tracemalloc`` for the heap metrics; it is
kept apart from ``traced`` because allocation tracing would skew the layer
self times.  :mod:`run` starts these processes one after another.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import resource
import sys
import time
import tracemalloc

import ledger
import workloads


def digest(summary) -> str:
    """Digest of a simulated summary (the output check compares these)."""
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def plain(workload, seed):
    started = time.process_time()
    prepared = workload.setup(seed)
    ready = time.process_time()
    with ledger.RunTally() as tally:
        outcome = workload.run(prepared)
    done = time.process_time()
    return {
        "setup_s": ready - started,
        "run_cpu_s": done - ready,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "events": tally.events,
        "block_events": tally.block_events,
        "digest": digest(outcome.summary),
        "failures": outcome.failures,
        "sim": outcome.sim,
    }


def heap(workload, seed):
    tracemalloc.start()
    prepared = workload.setup(seed)
    gc.collect()
    before, _ = tracemalloc.get_traced_memory()
    with ledger.RunTally() as tally:
        outcome = workload.run(prepared)
    gc.collect()
    after, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "digest": digest(outcome.summary),
        "failures": outcome.failures,
        "heap.peak_mb": peak / 2**20,
        "heap.retained_bytes_per_block_event": (after - before) / max(1, tally.block_events),
    }


def traced(workload, seed, out_dir: str):
    recorder = ledger.SpanRecorder()
    recorder.install(workloads)
    setup_profile, run_profile = cProfile.Profile(), cProfile.Profile()
    try:
        started = time.process_time()
        with recorder.span("bench.setup"):
            setup_profile.enable()
            prepared = workload.setup(seed)
            setup_profile.disable()
        ready = time.process_time()
        with recorder.span("bench.run"), ledger.RunTally() as tally:
            run_profile.enable()
            outcome = workload.run(prepared)
            run_profile.disable()
        done = time.process_time()
    finally:
        recorder.uninstall()

    setup_table = ledger.layer_table(setup_profile)
    run_table = ledger.layer_table(run_profile)
    run_calls = run_table["calls"]
    layers = {}
    for layer in (*ledger.LAYERS, ledger.OTHER):
        layers[f"{layer}.self_s"] = setup_table["self_s"].get(layer, 0.0) + run_table[
            "self_s"
        ].get(layer, 0.0)
        if layer != ledger.OTHER:
            layers[f"{layer}.calls"] = setup_table["entry_calls"].get(
                layer, 0
            ) + run_table["entry_calls"].get(layer, 0)

    issued = recorder.span_blocks + recorder.single_blocks
    counters = {
        "sim.events": tally.events,
        "sim.events_cancelled": tally.events_cancelled,
        "sim.cancel_ratio": tally.events_cancelled / max(1, tally.events_scheduled),
        "sim.peak_pending": tally.peak_pending,
        "sim.ns_per_event": run_table["self_s"].get("sim", 0.0) * 1e9 / max(1, tally.events),
        "gpu.block_events": tally.block_events,
        "gpu.blocks_executed": tally.blocks_executed,
        "gpu.span_blocks_ratio": recorder.span_blocks / issued if issued else 0.0,
        "gpu.blocks_materialized": run_calls.get("gpu/thread_block.py:__init__", 0),
        "gpu.preemptions": tally.blocks_preempted,
        "core.policy_decisions": run_table["package_calls"].get("core/policies", 0),
        "core.preempt_via_drain": tally.preemptions_via.get("draining", 0),
        "core.preempt_via_save": tally.preemptions_via.get("context_switch", 0),
        "memory.allocations": run_calls.get("memory/address_space.py:record_allocation", 0),
        "memory.pages_mapped": run_calls.get("memory/address_space.py:map", 0),
        "memory.transfer_mb": tally.transfer_bytes / 2**20,
        "host.kernel_launches": run_calls.get("host/driver.py:launch_kernel", 0),
        "utils.jitter_draws": run_calls.get("utils/determinism.py:factor", 0),
        "cluster.epochs": run_calls.get("cluster/fleet.py:_run_epoch", 0),
        "cluster.epoch_setup_s": recorder.total_us(
            "system.construct", parent_name="cluster.execute_epoch"
        )
        / 1e6,
        "cluster.payload_kb": recorder.payload_bytes / 1024.0,
        "loadgen.synth_s": recorder.total_us("loadgen.synthesize_trace") / 1e6,
        "loadgen.calibrate_s": recorder.total_us("loadgen.calibrate_trace") / 1e6,
        "loadgen.probes": recorder.count("loadgen.probe_service_time_us"),
    }
    counters.update(outcome.counters)

    stem = os.path.join(out_dir, f"{workload.name}-seed{seed}")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = f"{stem}.spans.jsonl"
    recorder.write(spans_path)
    with open(f"{stem}.layers.json", "w") as handle:
        json.dump(
            {
                "setup": setup_table,
                "run": {k: v for k, v in run_table.items() if k != "calls"},
                "metrics": {**layers, **counters},
            },
            handle,
            indent=1,
            sort_keys=True,
        )
    return {
        "run_cpu_s": done - ready,
        "digest": digest(outcome.summary),
        "failures": outcome.failures,
        "sim": outcome.sim,
        "layers": {**layers, **counters},
        "spans": len(recorder.spans),
        "spans_path": spans_path,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "heap"), default="plain")
    parser.add_argument("--out", default=".perfbench")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.mode == "plain":
        result = plain(workload, args.seed)
    elif args.mode == "heap":
        result = heap(workload, args.seed)
    else:
        result = traced(workload, args.seed, args.out)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
