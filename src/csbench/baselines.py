"""Reference sparse-recovery solvers: Chambolle-Pock and OMP.

Both solve the same noiseless problem as the Kalman filter (recover a
sparse x from y = C x) and share its result container, so the harness
can time and score all solvers uniformly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import ztrtrs

from .errors import NotConverged, NumericalFailure, RankDeficient
from .nullspace import scale_pow2, unit_exponent, unit_scaled
from .operators import DenseOperator
from .problem import (RecoveryResult, SensingProblem, as_count,
                      finite_result)

_TINY = 1e-300
# cp stops once both the relative residual and the relative iterate
# change fall below CP_STOP_TOL; omp stops once the residual norm is at
# most OMP_RESIDUAL_TOL times ||y||. cp balances its primal and dual
# steps with beta = CP_BALANCE * ||y||.
CP_STOP_TOL = 1e-6
CP_BALANCE = 0.03
OMP_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class CpConfig:
    """Chambolle-Pock iteration cap; the stop tolerance is CP_STOP_TOL.

    The steps are not settable. With beta = CP_BALANCE * ||y||_2 and a
    power-iteration estimate of ||C||_2, the primal step is
    tau = 0.99 beta / ||C||_2 and the dual step sigma = 0.99 / (beta
    ||C||_2), with over-relaxation theta = 1. Their product meets the
    condition under which Chambolle and Pock (2011) prove convergence,
    tau * sigma * ||C||_2^2 = 0.98 < 1, and beta carries the units of y,
    so scaling y or C by a power of two scales the iterates exactly.
    """

    max_iter: int = 20000

    def __post_init__(self):
        # A float or bool cap fails here rather than letting the loop
        # run to its ceiling.
        if as_count(self.max_iter) < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class OmpConfig:
    """Greedy atom budget, None = min(m, n); residual stop OMP_RESIDUAL_TOL."""

    max_atoms: int | None = None

    def __post_init__(self):
        # A float or bool budget fails here rather than in omp's array
        # shapes.
        if self.max_atoms is not None and as_count(self.max_atoms) < 0:
            raise ValueError("max_atoms must be nonnegative")


def operator_norm_est(c, *, op=None) -> float:
    """Largest singular value of c by power iteration on C^H C.

    The products are made by ``op``, an operator for c (see
    csbench.operators), or by a dense one when none is given. Each
    product's output is multiplied by 2^-e, e = ``unit_exponent(c)``,
    so the iteration runs on C / 2^e and ||C^H C v|| cannot overflow or
    underflow; the estimate is scaled back, so scaling C by a power of
    two scales it exactly. The iteration starts from the all-ones
    vector and runs at most 50 steps, stopping early once the estimate
    changes by at most 1e-6 of itself. C^H C 1 is zero for some nonzero
    matrices too (C 1 = 0 when every row sums to zero, or for rows of a
    DFT without frequency 0); the exact 2-norm of c is returned then,
    which is 0 only for C = 0.
    """
    c = np.asarray(c, dtype=np.complex128)
    if op is None:
        op = DenseOperator(c)
    e = unit_exponent(c)
    s = math.ldexp(1.0, -e)
    n = c.shape[1]
    v = np.ones(n, dtype=np.complex128) / np.sqrt(n)
    est = 0.0
    for _ in range(50):
        u = op.matvec(v)
        u *= s
        w = op.rmatvec(u)
        w *= s
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return float(np.linalg.norm(c, 2))
        new_est = float(np.sqrt(nrm))
        v = w / nrm
        if abs(new_est - est) <= 1e-6 * new_est:
            return float(np.ldexp(new_est, e))
        est = new_est
    return float(np.ldexp(est, e))


def soft_threshold(z, tau: float):
    """Complex soft threshold: 0 if |z| <= tau, else (1 - tau/|z|) z.

    Formed in one pass as (1 - tau / max(|z|, tau)) z, whose factor is
    exactly 0 where |z| <= tau. At tau = 0 the quotient is 0 whatever
    the floor under |z|, so the floor is 1 there rather than a 0 that
    would divide 0 by 0 at zero entries.
    """
    z = np.asarray(z, dtype=np.complex128)
    floor = tau if tau > 0 else 1.0
    out = (1.0 - tau / np.maximum(np.abs(z), floor)) * z
    return out if out.ndim else out[()]


def _norm(v) -> float:
    """2-norm of a complex vector of unit range, by one BLAS dot."""
    return math.sqrt(np.vdot(v, v).real)


def chambolle_pock_bp(problem: SensingProblem,
                      config: CpConfig = CpConfig()) -> RecoveryResult:
    """Primal-dual basis pursuit: min ||x||_1 subject to C x = y.

    Iterates the dual ascent p += sigma (C x_bar - y), the primal
    soft-threshold step x = ST(x - tau C^H p, tau), and the
    over-relaxation x_bar = x + (x - x_prev). Each iteration applies
    the operator twice, C^H p and C x (two m x n products for a dense
    matrix, whose C^H is formed once per solve); C x is carried, so
    C x_bar = C x + (C x - C x_prev) and the residual cost no third
    product. The steps are the balanced tau = 0.99 beta / ||C||_2 and
    sigma = 0.99 / (beta ||C||_2), where beta = CP_BALANCE * ||y||_2.
    So scaling y by 2^k scales x_hat by 2^k, and scaling C by 2^k
    scales it by 2^-k, bit for bit and at the same iteration count.

    The iteration runs on y scaled into unit range (see
    ``unit_scaled``) and on one operator. A dense C is copied once into
    unit range, so no norm or step overflows or underflows however
    large or small C is, subnormal included. A problem's structured
    operator is used as it is, its entries being of unit order (see
    ``SensingOperator``). y = 0 returns x_hat = 0 at 0 iterations.
    Raises RankDeficient if C is zero. Stops when
    max(||C x - y||_2 / ||y||_2, relative iterate change) < CP_STOP_TOL.
    Raises NumericalFailure (with the iterate attached) as soon as the
    residual is not finite, or if x_hat overflows when it is scaled
    back, and NotConverged (with the best iterate attached) if the
    iteration cap is hit while the residual is still above tolerance.

    A square system of full rank has one solution; it is returned
    directly as the operator's particular solution (from the LQ
    factorization of a dense matrix) with termination
    "unique_solution". A rank-deficient square system iterates.
    """
    t0 = time.perf_counter()
    c, op = problem.c, problem.operator
    m, n = c.shape
    # The iteration runs on C' = C / 2^e_c and y' = y / 2^e, so its
    # iterate is x' = x 2^(e_c - e); the steps are scale-free, so that
    # scales every iterate exactly. A dense C is copied into unit range,
    # where no norm, step or product of it leaves floating-point range;
    # a structured operator is used as it is, e_c = 0.
    e_c = 0
    if op is None:
        c, e_c = unit_scaled(c)
        op = DenseOperator(c)
    y, e = unit_scaled(problem.y)
    x, iterations, residual = None, 0, 0.0
    termination = "unique_solution"
    if m == n:
        try:
            x = op.particular(y)
        except RankDeficient:
            pass
    if x is None:
        x, iterations, residual, termination = _primal_dual(
            op, c, y, config.max_iter)
    wall = (time.perf_counter() - t0) * 1e3
    scale_pow2(x, e - e_c)
    result = RecoveryResult(
        solver="cp", n=n, m=m, x_hat=x, iterations=iterations,
        termination=termination, wall_time_ms=wall,
    )
    if termination == "numerical_failure":
        raise NumericalFailure(
            f"residual {residual!r} after {iterations} iterations",
            result=result)
    finite_result(result)
    if termination == "max_iter" and residual >= CP_STOP_TOL:
        raise NotConverged(
            f"residual {residual:.3e} after {iterations} iterations",
            result=result,
        )
    return result


def _primal_dual(op, c, y, max_iter):
    """cp's iteration on the operator ``op`` for the matrix ``c`` and
    unit-range measurements y: (x, iterations, relative residual,
    termination)."""
    m, n = c.shape
    norm_est = operator_norm_est(c, op=op)
    if norm_est == 0.0:
        raise RankDeficient("matrix is identically zero")
    y_scale = max(float(np.linalg.norm(y)), _TINY)
    x = np.zeros(n, dtype=np.complex128)
    cx = np.zeros(m, dtype=np.complex128)  # C x, carried
    cx_bar = cx
    p = np.zeros(m, dtype=np.complex128)
    iterations = 0
    residual = float(np.linalg.norm(cx - y)) / y_scale
    converged = residual < CP_STOP_TOL
    if not converged:
        # Set only when y is not ~0, so that sigma is finite.
        beta = CP_BALANCE * y_scale
        tau = 0.99 * beta / norm_est
        sigma = 0.99 / (beta * norm_est)
    while (not converged and iterations < max_iter
           and math.isfinite(residual)):
        p = p + sigma * (cx_bar - y)
        x_prev, cx_prev = x, cx
        x = soft_threshold(x - tau * op.rmatvec(p), tau)
        cx = op.matvec(x)
        dx = x - x_prev
        cx_bar = cx + (cx - cx_prev)
        iterations += 1
        residual = _norm(cx - y) / y_scale
        change = _norm(dx) / max(_norm(x), _TINY)
        converged = max(residual, change) < CP_STOP_TOL
    termination = ("converged" if converged else
                   "max_iter" if math.isfinite(residual) else
                   "numerical_failure")
    return x, iterations, residual, termination


def omp(problem: SensingProblem,
        config: OmpConfig = OmpConfig()) -> tuple[RecoveryResult, list]:
    """Orthogonal matching pursuit with an incremental thin QR.

    Selects the column maximizing |c_j^H r| / ||c_j||, extends the QR of
    the selected block by one column (O(m * support) per atom), and
    solves the support least squares once, after the last atom. A
    problem with an operator scores its atoms through ``rmatvec``, one
    call per atom: for a scene's ``PartialFourier2D`` that is two small
    DFT products in place of an m x n one. Only the column norms and
    the picked columns are read from ``problem.c``. Q is held as its
    conjugate rows, so an atom conjugates vectors, never a matrix. C
    and y are scaled into unit range by powers of two (see
    ``unit_scaled``), so no norm overflows, and scaling either by a
    power of two scales x_hat exactly. Returns the result and the
    selected support in pick order; raises NumericalFailure (with the
    result attached) if x_hat overflows, as for a subnormal C.
    """
    t0 = time.perf_counter()
    c, y = problem.c, problem.y
    m, n = c.shape
    kmax = config.max_atoms if config.max_atoms is not None else min(m, n)
    if kmax > min(m, n):
        raise ValueError(f"max_atoms={kmax} exceeds min(m, n)={min(m, n)}")
    cbar, e_c = unit_scaled(c)
    np.conjugate(cbar, out=cbar)  # conj(C) / 2^e_c; its transpose is C^H
    col_norms = np.linalg.norm(cbar, axis=0)
    if np.any(col_norms == 0):
        raise ValueError("matrix has a zero column")
    if problem.operator is None:
        def correlate(r):
            return cbar.T @ r  # C^H r / 2^e_c
    else:
        # Its scores carry a factor 2^e_c against these norms, which
        # moves no argmax.
        correlate = problem.operator.rmatvec
    y, e = unit_scaled(y)
    y_norm = _norm(y)
    qh = np.zeros((kmax, m), dtype=np.complex128)  # row j is q_j^H
    rmat = np.zeros((kmax, kmax), dtype=np.complex128)
    taken = np.zeros(n, dtype=bool)
    support: list[int] = []
    residual = y
    termination = "max_atoms"
    for j in range(kmax):
        if _norm(residual) <= OMP_RESIDUAL_TOL * y_norm:
            termination = "residual_tol"
            break
        scores = np.abs(correlate(residual)) / col_norms
        scores[taken] = -1.0  # residual is already orthogonal there
        pick = int(np.argmax(scores))
        a = cbar[:, pick].conj()
        w = qh[:j] @ a
        u = a - (w.conj() @ qh[:j]).conj()
        r_jj = _norm(u)
        if r_jj <= 1e-12 * col_norms[pick]:
            termination = "dependent_column"
            break
        q = u / r_jj
        qh[j] = q.conj()
        rmat[:j, j] = w
        rmat[j, j] = r_jj
        taken[pick] = True
        support.append(pick)
        residual = residual - q * (qh[j] @ residual)
    else:
        if _norm(residual) <= OMP_RESIDUAL_TOL * y_norm:
            termination = "residual_tol"
    x = np.zeros(n, dtype=np.complex128)
    k = len(support)
    if k:
        # r_jj > 0 on every kept atom, so ztrtrs's info is always 0.
        x[support], _ = ztrtrs(rmat[:k, :k], qh[:k] @ y)
    wall = (time.perf_counter() - t0) * 1e3
    scale_pow2(x, e - e_c)
    result = RecoveryResult(
        solver="omp", n=n, m=m, x_hat=x, iterations=len(support),
        termination=termination, wall_time_ms=wall,
    )
    return finite_result(result), support
