"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload verify-scale --seeds 1-10

Runs the benchmark once per seed, one run at a time, and prints for each
metric the median, the quartiles and the spread: the distance between the
quartiles as a share of the median, next to a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import END_TO_END, ROOT, RUN_SECONDS  # noqa: E402


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    args = parser.parse_args(argv)
    values = {name: [] for name, _, _, _ in END_TO_END}
    for seed in _seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stdout}"
                  f"{done.stderr}")
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={vals[-1]:.4g}" for name, vals in values.items()),
            flush=True)
    status = 0
    for name, _, _, bound in END_TO_END:
        vals = values[name]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        steady = name == "setup_s" or spread < bound / 3
        status |= not steady
        print(f"{name}: median {med:.5g} quartiles {q1:.5g}..{q3:.5g} "
              f"spread {spread:.4f} (bound/3 {bound / 3:.4f})"
              f"{'' if steady else '  NOT STEADY'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
