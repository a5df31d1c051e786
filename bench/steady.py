"""Run one workload ten times, untraced, with distinct seeds, and report
each end-to-end metric's median, quartiles and spread (interquartile
range over median).

    python3 bench/steady.py --workload grid --first-seed 0

Each run measures for ``run_seconds`` from BENCHMARK.json. This is how
the bounds there were set and how they are re-checked: every spread
except that of ``setup_s`` must stay within its metric's bound. Runs go
one after another, never in parallel, so they do not disturb each
other's timings. The table is printed and written, with every run's raw
result, to ``bench/runs/steady-<workload>-<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUNS = 10


def spread(values):
    """Median, first and third quartile, and (q3 - q1) / |median|."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    for seed in range(args.first_seed, args.first_seed + RUNS):
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=False)
        if done.returncode != 0:
            print(f"seed {seed}: run.py exited with {done.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}",
              file=sys.stderr, flush=True)

    shares = sorted({r["failed"] / r["attempted"] for r in results})
    table = {}
    print(f"{'metric':28} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med, q1, q3, sp = spread(values)
        table[name] = {"unit": first["unit"], "median": med, "q1": q1,
                       "q3": q3, "spread": sp, "values": values}
        bound = bounds[name]
        flag = "" if name == "setup_s" or sp <= bound else "  OVER BOUND"
        print(f"{name:28} {med:14.6g} {q1:14.6g} {q3:14.6g} {sp:8.4f} "
              f"{bound:>6}{flag}")
    print(f"correct in every run: {all(r['correct'] for r in results)}; "
          f"failed shares seen: {shares}")
    out = os.path.join(BENCH_DIR, "runs",
                       f"steady-{args.workload}-{args.first_seed}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="ascii") as fh:
        json.dump({"args": vars(args), "metrics": table, "runs": results},
                  fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
