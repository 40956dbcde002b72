"""Time one sparselab command line in two checkouts, as child processes.

    python tools/cli_rows.py PARENT CHANGE [--rounds N] -- ARGV...

Each round runs ARGV once per checkout (PYTHONPATH=<checkout>/src), the
parent first in even rounds and the change first in odd ones, with
stdout to a temporary file.  Before any timed run, every module either
side imports is compiled into one temporary PYTHONPYCACHEPREFIX (both
src/ trees by compileall, the rest by one untimed run per side), so no
timed run compiles a module on import.  Prints one JSON object in the
``cli_rows`` shape of the BENCH_*.json files: wall seconds and peak RSS
(``ru_maxrss`` from os.wait4) per run, the medians, and whether every
run gave the same stdout bytes and exit code.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

RUN = "from sparselab.cli import main; main()"


def run_once(checkout, argv, prefix):
    """(wall seconds, peak RSS in MB, (stdout digest, exit code)) of one
    child run."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=prefix,
               PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    with tempfile.TemporaryFile(dir=prefix) as out:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", RUN, *argv],
                                 stdout=out, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
    return wall, usage.ru_maxrss / 1024, (digest, child.returncode)


def main(args):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--rounds", type=int, default=3)
    if "--" not in args:
        parser.error("the command line follows a --")
    cut = args.index("--")
    opts, argv = parser.parse_args(args[:cut]), args[cut + 1:]
    sides = {"parent": opts.parent, "change": opts.change}
    row = {key: [] for key in ("parent", "change", "parent_rss_mb",
                               "change_rss_mb")}
    digests = set()
    with tempfile.TemporaryDirectory() as prefix:
        for checkout in sides.values():
            src = os.path.join(os.path.abspath(checkout), "src")
            subprocess.run([sys.executable, "-m", "compileall", "-q", src],
                           env=dict(os.environ, PYTHONPYCACHEPREFIX=prefix),
                           check=True)
            run_once(checkout, argv, prefix)  # untimed warm-up
        for r in range(opts.rounds):
            for side in sorted(sides, reverse=r % 2 == 0):
                wall, rss, result = run_once(sides[side], argv, prefix)
                row[side].append(round(wall, 3))
                row[f"{side}_rss_mb"].append(round(rss, 1))
                digests.add(result)
    row["stdout_identical"] = len(digests) == 1
    for side in sides:
        row[f"{side}_median"] = round(statistics.median(row[side]), 3)
    print(json.dumps({" ".join(argv): row}, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
