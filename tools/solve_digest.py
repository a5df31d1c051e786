"""Hash every solve the benchmark makes, to show a change is bit for bit.

    python3 tools/solve_digest.py [ROOT]

Runs the benchmark's warm-up and one round of each workload
(``bench/worker.py``) on the package under ``ROOT/src`` (ROOT defaults
to the checkout this file lives in), with the thread variables of
``bench/run.py:PINNED`` set before numpy loads. Every call of
``harness.solve_one`` adds to one SHA-256 its solver, the error it
raised if any, and the result it returned or attached: n, m,
iterations, termination, the l1 trace and the bytes of x_hat. Prints
the solve count of each solver and the digest. Two checkouts that print
the same digest solved every benchmark problem identically.

Outputs go to a temporary directory; nothing under ``bench/`` is
written, byte-compiled files included.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

sys.dont_write_bytecode = True
ROOT = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from run import PINNED  # noqa: E402  standard library only

os.environ.update(PINNED)

import numpy as np  # noqa: E402

import worker  # noqa: E402
from csbench import harness  # noqa: E402
from csbench.errors import CsbenchError  # noqa: E402
from tracing import Patches  # noqa: E402


class Digest:
    """One SHA-256 over every solve, and the solve count per solver."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.counts = dict.fromkeys(worker.SOLVERS, 0)

    def add(self, solver, result, error):
        self.counts[solver] += 1
        head = [solver, error]
        if result is not None:
            head += [result.n, result.m, result.iterations,
                     result.termination,
                     [repr(float(v)) for v in result.l1_trace]]
        self.sha.update(repr(head).encode("ascii"))
        if result is not None:
            self.sha.update(np.ascontiguousarray(
                result.x_hat, dtype=np.complex128).tobytes())

    def wrap(self, solve_one):
        def wrapped(solver, problem, settings, s_hint=None):
            try:
                result = solve_one(solver, problem, settings, s_hint)
            except CsbenchError as exc:
                self.add(solver, getattr(exc, "result", None),
                         type(exc).__name__)
                raise
            self.add(solver, result, None)
            return result
        return wrapped


def main() -> int:
    digest = Digest()
    patches = Patches()
    patches.replace(harness, "solve_one", digest.wrap)
    try:
        with tempfile.TemporaryDirectory() as out:
            worker.warm_up()
            for name, workload in sorted(worker.WORKLOADS.items()):
                os.makedirs(os.path.join(out, name))
                workload().run_round(os.path.join(out, name))
    finally:
        patches.undo()
    counts = ", ".join(f"{sv} {k}" for sv, k in digest.counts.items())
    print(f"{sum(digest.counts.values())} solves ({counts})")
    print(f"sha256 {digest.sha.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
