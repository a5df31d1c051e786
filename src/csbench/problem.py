"""Problem and result containers shared by all solvers."""

from __future__ import annotations

import json
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NumericalFailure
from .nullspace import check_measurements
from .operators import SensingOperator


def as_count(value) -> int:
    """operator.index(value): a float is a TypeError, and so is a bool,
    since a config file's true and false are not counts."""
    if isinstance(value, bool):
        raise TypeError(f"a count must be an integer, not {value!r}")
    return operator.index(value)


@dataclass(frozen=True)
class SensingProblem:
    """A linear measurement model y = C x.

    ``operator``, if given, applies C and its nullspace maps by C's
    structure (see csbench.operators) and must have C's shape; it is
    then how nkf and cp reach C and how omp scores its atoms. Without
    one, nkf and cp apply ``c`` through a dense operator of their own
    for each solve.
    """

    c: np.ndarray
    y: np.ndarray
    operator: SensingOperator | None = None

    def __post_init__(self):
        c = np.asarray(self.c, dtype=np.complex128)
        if c.ndim != 2:
            raise DimensionMismatch(f"matrix must be 2-D, got ndim={c.ndim}")
        if min(c.shape) < 1:
            raise DimensionMismatch(
                f"matrix must have at least one row and column, got {c.shape}")
        y = check_measurements(self.y, c.shape[0])
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite problem data")
        op = self.operator
        if op is not None and (op.m, op.n) != c.shape:
            raise DimensionMismatch(
                f"operator is {op.m} x {op.n}, matrix is {c.shape}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return self.c.shape[0]

    @property
    def n(self) -> int:
        return self.c.shape[1]


@dataclass
class RecoveryResult:
    """Outcome of one solver run on one problem instance."""

    solver: str
    n: int
    m: int
    x_hat: np.ndarray
    iterations: int
    termination: str
    wall_time_ms: float
    # nkf's l1 norm at x_p, then one value per update; empty for cp and omp.
    l1_trace: list = field(default_factory=list)

    @classmethod
    def of(cls, solver, problem, x_hat, iterations, termination, t0,
           l1_trace=None) -> RecoveryResult:
        """The result of ``solver`` on ``problem``, made when its solve ends.

        Every solver makes every result here, the partial ones it
        attaches to a failure included. n and m are the problem's, and
        wall_time_ms runs from ``t0``, the ``time.perf_counter()``
        reading taken as the solve began, to this call, so it covers the
        whole solve. Raises NumericalFailure("x_hat overflows"), with
        the result attached, if x_hat is not finite, as when y / C lies
        beyond the floating-point range for a subnormal C; a result whose
        termination is "numerical_failure" is returned as it is, for its
        solver to attach to the failure it raises.
        """
        result = cls(solver, problem.n, problem.m, x_hat, iterations,
                     termination, (time.perf_counter() - t0) * 1e3,
                     [] if l1_trace is None else l1_trace)
        if (termination != "numerical_failure"
                and not np.all(np.isfinite(x_hat))):
            raise NumericalFailure("x_hat overflows", result=result)
        return result

    def save_json(self, path) -> None:
        """Write the result as strict JSON, with x_hat as [re, im] pairs.

        Raises NumericalFailure, before ``path`` is opened, if any value
        is non-finite: JSON has no NaN or infinity.
        """
        try:
            text = json.dumps({
                "solver": self.solver,
                "n": int(self.n),
                "m": int(self.m),
                "iterations": int(self.iterations),
                "termination": self.termination,
                "wall_time_ms": float(self.wall_time_ms),
                "l1_trace": [float(v) for v in self.l1_trace],
                "x_hat": [[float(v.real), float(v.imag)] for v in self.x_hat],
            }, indent=2, allow_nan=False)
        except ValueError as exc:
            raise NumericalFailure(
                f"result not writable as JSON: {exc}") from exc
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
            fh.write("\n")

