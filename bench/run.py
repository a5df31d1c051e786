"""Run one csbench benchmark workload and print its metrics.

    python3 bench/run.py --workload {crossover,scene,grid} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a csbench source checkout; it imports the
package from ``src/``. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. The workload runs in its own process with the BLAS and
OpenMP thread pools and ``CSBENCH_THREADS`` pinned to 1. Set-up time is
measured in that process and in ``SETUP_PROBES`` short processes that
only set up, and reported as their median. Outputs, a manifest and, when
traced, the spans go to ``bench/runs/<workload>-seed<N>-trace<T>/``.

This file uses only the standard library, so it starts fast and fails
plainly when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOADS = ("crossover", "scene", "grid")
SETUP_PROBES = 8
TIME_LIMIT_S = 170.0
PINNED = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    "CSBENCH_THREADS")}


def run_worker(args, env, deadline) -> str:
    """Start the worker, wait for it, return its standard output."""
    argv = [sys.executable, WORKER, *args,
            "--spawned-at", repr(time.monotonic())]
    done = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()),
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return done.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one csbench benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # subprocess.run kills and reaps the worker on any exception, so
    # turning SIGTERM into one stops the worker with this process.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "csbench",
                                       "__init__.py")):
        print(f"run.py: no csbench package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--out", os.path.join(BENCH_DIR, "runs",
                                    f"{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}")]
    try:
        samples = []
        if args.trace == 0:
            for _ in range(SETUP_PROBES):
                out = run_worker(common + ["--setup-only"], env, deadline)
                samples.append(json.loads(out.splitlines()[-1])["setup_s"])
        out = run_worker(common + ["--setup-samples",
                                   ",".join(repr(s) for s in samples)],
                         env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
