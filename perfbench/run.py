#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tune --seed 1 --seconds 15 --trace 0

All arguments go to perfbench/bench.exe (see README.md).  The build
output goes to standard error; standard output is the benchmark's own.
"""

import os
import subprocess
import sys

BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
GPR = os.path.join("_build", "default", "bin", "gpr_cli.exe")


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        sys.stderr.write("perfbench: run from the root of a gpu_regfile "
                         "checkout (dune-project, lib/ and bin/ not found)\n")
        return 2
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "perfbench/bench.exe", "bin/gpr_cli.exe"],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    env["PERFBENCH_COMMIT"] = commit()
    # The benchmark and everything it starts (the serve daemon, store
    # fills) share one CPU.  Load is one closed-loop connection to a
    # one-worker daemon, so nothing runs in parallel anyway; across two
    # CPUs every client/daemon hand-off was a cross-CPU wake-up whose
    # cost moved with where the scheduler put the two processes.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return subprocess.run([BENCH, "--gpr", GPR] + sys.argv[1:], env=env,
                          check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
