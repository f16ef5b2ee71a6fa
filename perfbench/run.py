"""Repository benchmark: one workload, its end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each iteration runs in a fresh process
(:mod:`iteration`), one after another, so caches and peak memory belong to a
single run; iterations repeat for about ``--seconds`` seconds and the
metrics are their medians.

* ``--trace 0`` prints the end-to-end metrics: host CPU time of set-up and
  run, block-equivalent events per run CPU second and peak resident memory.
* ``--trace 1`` runs untraced iterations for half the time (the baseline of
  ``trace.overhead_ratio``), then one profiled iteration with spans and one
  ``tracemalloc`` iteration, and prints the per-layer metrics.  Spans and
  the layer table are written to ``--out``.

Every iteration's simulated summary must digest identically (traced or
not) and pass the workload's output checks; traced runs also assert the
layer engagement the workload was chosen for.  A failing iteration counts
in ``failed``.  The last line of standard output is the JSON result.
See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ITERATION = os.path.join(HERE, "iteration.py")
#: Fewest untraced iterations a run makes, however long they take (a traced
#: run needs them only as the baseline of ``trace.overhead_ratio``).
MIN_ITERATIONS = 3
MIN_TRACED_BASELINE = 2
#: Per-iteration time limit (seconds).
ITERATION_TIMEOUT = 150


def benchmark_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the workloads and the declared metrics."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as handle:
        return json.load(handle)


class Iterations:
    """Runs iterations in fresh processes and checks their outputs agree."""

    def __init__(self, workload: str, seed: int, out_dir: str):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        # A fixed hash seed gives every iteration the same set and dict
        # layouts, so iterations differ only in host noise.
        self.env = dict(
            os.environ, PYTHONPATH=os.pathsep.join(["src", HERE]), PYTHONHASHSEED="0"
        )
        self.attempted = 0
        self.failures: List[str] = []
        self.reference_digest = None

    def run(self, mode: str):
        """One iteration; its result dict, or ``None`` when it failed."""
        self.attempted += 1
        command = [
            sys.executable,
            ITERATION,
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--mode", mode,
            "--out", self.out_dir,
        ]
        try:
            done = subprocess.run(
                command, env=self.env, capture_output=True, text=True,
                timeout=ITERATION_TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            return self.fail(f"{mode} iteration exceeded {ITERATION_TIMEOUT} s")
        if done.returncode != 0:
            tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
            return self.fail(f"{mode} iteration exited {done.returncode}: {tail[0]}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if result["failures"]:
            return self.fail(f"{mode} output check: {'; '.join(result['failures'])}")
        if self.reference_digest is None:
            self.reference_digest = result["digest"]
        elif result["digest"] != self.reference_digest:
            return self.fail(
                f"{mode} digest {result['digest']} != {self.reference_digest}"
            )
        return result

    def fail(self, message: str):
        self.failures.append(message)
        print(f"FAILED {self.workload} seed {self.seed}: {message}", file=sys.stderr)
        return None

    def repeat(self, seconds: float, minimum: int) -> List[Dict[str, Any]]:
        """Untraced iterations for about ``seconds`` (at least ``minimum``)."""
        results = []
        started = time.monotonic()
        last = 0.0
        while self.attempted < minimum or (
            time.monotonic() - started + last <= seconds
        ):
            begun = time.monotonic()
            result = self.run("plain")
            last = time.monotonic() - begun
            if result is not None:
                results.append(result)
        return results


def end_to_end(results: List[Dict[str, Any]]) -> Dict[str, float]:
    """Medians of the untraced iterations."""
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "run_cpu_s": statistics.median(r["run_cpu_s"] for r in results),
        "block_events_per_cpu_s": statistics.median(
            r["block_events"] / r["run_cpu_s"] for r in results
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def engagement_failures(workload: str, layers: Dict[str, float]) -> List[str]:
    """Layer-engagement facts the workload was chosen for, checked on a trace."""
    from workloads import WORKLOADS as DEFS  # needs repro: imported on demand

    failures = []
    for metric, engaged in DEFS[workload].engages.items():
        value = layers.get(metric, 0)
        if (value > 0) != engaged:
            expected = "> 0" if engaged else "== 0"
            failures.append(f"engagement: {metric} = {value}, expected {expected}")
    return failures


def main(argv=None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".perfbench", help="directory for spans and layer tables")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join("src", "repro")):
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, "src")

    iterations = Iterations(args.workload, args.seed, args.out)
    if args.trace:
        results = iterations.repeat(args.seconds / 2, MIN_TRACED_BASELINE)
    else:
        results = iterations.repeat(args.seconds, MIN_ITERATIONS)
    if not results:
        print("error: every iteration failed", file=sys.stderr)
        return 1
    if not args.trace:
        untraced = end_to_end(results)
        declared = spec["end_to_end"]
        metrics = {m["name"]: {"value": untraced[m["name"]], "unit": m["unit"]} for m in declared}
        notes = {}
    else:
        traced = iterations.run("traced")
        heap = iterations.run("heap")
        layers: Dict[str, float] = {}
        if traced is not None:
            layers.update(traced["layers"])
            layers.update(traced["sim"])
            layers["trace.overhead_ratio"] = traced["run_cpu_s"] / statistics.median(
                r["run_cpu_s"] for r in results
            )
            for failure in engagement_failures(args.workload, layers):
                iterations.fail(failure)
            print(f"spans: {traced['spans']} written to {traced['spans_path']}")
        if heap is not None:
            layers.update({k: v for k, v in heap.items() if k.startswith("heap.")})
        declared = spec["per_layer"]
        metrics = {
            m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
            for m in declared
        }
        notes = {m["name"]: "n/a" for m in declared if m["name"] not in layers}

    width = max(len(name) for name in metrics)
    print(f"{args.workload} seed {args.seed}: {len(results)} untraced iterations")
    for name, entry in metrics.items():
        shown = notes.get(name) or f"{entry['value']:.6g}"
        print(f"  {name:<{width}}  {shown:>14} {entry['unit']}")
    failed = len(iterations.failures)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": iterations.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
