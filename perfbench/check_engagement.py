"""Assert each workload's layer engagement on the default and a held-out seed.

    python3 perfbench/check_engagement.py [--out DIR]

Runs ``run.py --trace 1`` for every workload and seed.  A traced run fails
(``correct`` false) when its output checks or the engagement facts set in
``workloads.py`` do not hold, for example ``utils.jitter_draws == 0`` on
``closed_large_gpu`` or ``cluster.epochs > 0`` on ``trace_fleet``.  Exits 1
if any run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import benchmark_spec  # noqa: E402

#: The default seed, and a held-out seed that no run used while the
#: workloads were being tuned.
SEEDS = (1, 9001)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=".perfbench", help="directory for spans and layer tables")
    args = parser.parse_args(argv)
    failures = 0
    for workload in (w["name"] for w in benchmark_spec()["workloads"]):
        for seed in SEEDS:
            done = subprocess.run(
                [
                    sys.executable,
                    os.path.join(HERE, "run.py"),
                    "--workload", workload,
                    "--seed", str(seed),
                    "--seconds", "1",
                    "--trace", "1",
                    "--out", args.out,
                ],
                capture_output=True,
                text=True,
            )
            lines = done.stdout.strip().splitlines()
            correct = done.returncode == 0 and lines and json.loads(lines[-1])["correct"]
            print(f"{workload} seed {seed}: {'ok' if correct else 'FAILED'}")
            if not correct:
                failures += 1
                sys.stdout.write(done.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
