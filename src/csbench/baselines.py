"""Reference sparse-recovery solvers: Chambolle-Pock and OMP.

Both solve the same noiseless problem as the Kalman filter (recover a
sparse x from y = C x) and share its result container, so the harness
can time and score all solvers uniformly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import ztrtrs

from .errors import NotConverged, RankDeficient
from .nkf import l1_norm
from .nullspace import lq_factorize, particular_solution
from .problem import RecoveryResult, SensingProblem

_TINY = 1e-300


@dataclass(frozen=True)
class CpConfig:
    """Chambolle-Pock steps. tau/sigma None means 0.99 / ||C||_2.

    The product tau * sigma * ||C||_2^2 <= 1 is enforced when the run is
    set up, using a power-iteration estimate of the operator norm.
    """

    tau: float | None = None
    sigma: float | None = None
    theta: float = 1.0
    max_iter: int = 20000
    stop_tol: float = 1e-6

    def __post_init__(self):
        if self.tau is not None and self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.sigma is not None and self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.stop_tol <= 0:
            raise ValueError("stop_tol must be positive")

    @classmethod
    def from_dict(cls, d: dict) -> "CpConfig":
        allowed = {"tau", "sigma", "theta", "max_iter", "stop_tol"}
        for key in d:
            if key not in allowed:
                raise ValueError(f"unknown config key: {key!r}")
        return cls(**d)


@dataclass(frozen=True)
class OmpConfig:
    """Greedy atom budget and residual stop. max_atoms None = min(m, n)."""

    max_atoms: int | None = None
    residual_tol: float = 1e-9

    def __post_init__(self):
        if self.max_atoms is not None and self.max_atoms < 0:
            raise ValueError("max_atoms must be nonnegative")
        if self.residual_tol < 0:
            raise ValueError("residual_tol must be nonnegative")

    @classmethod
    def from_dict(cls, d: dict) -> "OmpConfig":
        allowed = {"max_atoms", "residual_tol"}
        for key in d:
            if key not in allowed:
                raise ValueError(f"unknown config key: {key!r}")
        return cls(**d)


def operator_norm_est(c, iters: int = 50, tol: float = 1e-6) -> float:
    """Largest singular value of c by power iteration on C^H C."""
    c = np.asarray(c, dtype=np.complex128)
    n = c.shape[1]
    v = np.ones(n, dtype=np.complex128) / np.sqrt(n)
    est = 0.0
    for _ in range(iters):
        w = c.conj().T @ (c @ v)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        new_est = float(np.sqrt(nrm))
        v = w / nrm
        if abs(new_est - est) <= tol * new_est:
            return new_est
        est = new_est
    return est


def soft_threshold(z, tau: float):
    """Complex soft threshold: 0 if |z| <= tau, else (1 - tau/|z|) z."""
    z = np.asarray(z, dtype=np.complex128)
    mag = np.abs(z)
    scale = np.where(mag > tau, 1.0 - tau / np.where(mag > 0, mag, 1.0), 0.0)
    out = scale * z
    return out if out.ndim else out[()]


def chambolle_pock_bp(problem: SensingProblem,
                      config: CpConfig | None = None) -> RecoveryResult:
    """Primal-dual basis pursuit: min ||x||_1 subject to C x = y.

    Iterates the dual ascent p += sigma (C x_bar - y), the primal
    soft-threshold step x = ST(x - tau C^H p, tau), and the
    over-relaxation x_bar = x + theta (x - x_prev). Stops when
    max(||C x - y||_2 / ||y||_2, relative iterate change) < stop_tol.
    Raises NotConverged (with the best iterate attached) if the
    iteration cap is hit while the residual is still above tolerance.

    A square system of full rank has one solution; it is returned
    directly from the LQ factorization with termination
    "unique_solution". A rank-deficient square system iterates.
    """
    if config is None:
        config = CpConfig()
    t0 = time.perf_counter()
    c, y = problem.c, problem.y
    m, n = c.shape
    if m == n:
        try:
            x = particular_solution(lq_factorize(c), y)
        except RankDeficient:
            pass
        else:
            wall = (time.perf_counter() - t0) * 1e3
            return RecoveryResult(
                solver="cp", n=n, m=m, x_hat=x, iterations=0,
                termination="unique_solution", wall_time_ms=wall,
            )
    norm_est = operator_norm_est(c)
    tau = config.tau if config.tau is not None else 0.99 / max(norm_est, _TINY)
    sigma = config.sigma if config.sigma is not None else tau
    if tau * sigma * norm_est ** 2 > 1.0 + 1e-9:
        raise ValueError(
            f"tau*sigma*||C||^2 = {tau * sigma * norm_est ** 2:.6f} > 1"
        )
    y_norm = float(np.linalg.norm(y))
    x = np.zeros(n, dtype=np.complex128)
    x_bar = x.copy()
    p = np.zeros(m, dtype=np.complex128)
    trace = []
    iterations = 0
    residual = float(np.linalg.norm(c @ x - y)) / max(y_norm, _TINY)
    converged = residual < config.stop_tol
    while not converged and iterations < config.max_iter:
        p = p + sigma * (c @ x_bar - y)
        x_prev = x
        x = soft_threshold(x - tau * (c.conj().T @ p), tau)
        x_bar = x + config.theta * (x - x_prev)
        iterations += 1
        trace.append(l1_norm(x))
        residual = float(np.linalg.norm(c @ x - y)) / max(y_norm, _TINY)
        change = float(np.linalg.norm(x - x_prev)) / max(np.linalg.norm(x), _TINY)
        converged = max(residual, change) < config.stop_tol
    wall = (time.perf_counter() - t0) * 1e3
    result = RecoveryResult(
        solver="cp", n=n, m=m, x_hat=x, iterations=iterations,
        termination="converged" if converged else "max_iter",
        wall_time_ms=wall, l1_trace=trace,
    )
    if not converged and residual >= config.stop_tol:
        raise NotConverged(
            f"residual {residual:.3e} after {iterations} iterations",
            result=result,
        )
    return result


def omp(problem: SensingProblem,
        config: OmpConfig | None = None) -> tuple[RecoveryResult, list]:
    """Orthogonal matching pursuit with an incremental thin QR.

    Selects the column maximizing |c_j^H r| / ||c_j||, extends the QR of
    the selected block by one column (O(m * support) per atom), and
    re-solves the support least squares. Returns the result and the
    selected support in pick order.
    """
    if config is None:
        config = OmpConfig()
    t0 = time.perf_counter()
    c, y = problem.c, problem.y
    ch = c.conj().T
    m, n = c.shape
    kmax = config.max_atoms if config.max_atoms is not None else min(m, n)
    if kmax > min(m, n):
        raise ValueError(f"max_atoms={kmax} exceeds min(m, n)={min(m, n)}")
    col_norms = np.linalg.norm(c, axis=0)
    if np.any(col_norms == 0):
        raise ValueError("matrix has a zero column")
    y_norm = float(np.linalg.norm(y))
    qmat = np.zeros((m, kmax), dtype=np.complex128)
    rmat = np.zeros((kmax, kmax), dtype=np.complex128)
    support: list[int] = []
    residual = y.astype(np.complex128, copy=True)
    trace = []
    termination = "max_atoms"
    for j in range(kmax):
        if float(np.linalg.norm(residual)) <= config.residual_tol * y_norm:
            termination = "residual_tol"
            break
        scores = np.abs(ch @ residual) / col_norms
        if support:
            scores[support] = -1.0  # residual is already orthogonal there
        pick = int(np.argmax(scores))
        a = c[:, pick]
        w = qmat[:, :j].conj().T @ a
        u = a - qmat[:, :j] @ w
        r_jj = float(np.linalg.norm(u))
        if r_jj <= 1e-12 * float(np.linalg.norm(a)):
            termination = "dependent_column"
            break
        qmat[:, j] = u / r_jj
        rmat[:j, j] = w
        rmat[j, j] = r_jj
        support.append(pick)
        residual = residual - qmat[:, j] * (qmat[:, j].conj() @ residual)
        # r_jj > 0 on every kept atom, so ztrtrs's info is always 0.
        coef, _ = ztrtrs(rmat[:j + 1, :j + 1], qmat[:, :j + 1].conj().T @ y)
        trace.append(float(np.sum(np.abs(coef))))
    else:
        if float(np.linalg.norm(residual)) <= config.residual_tol * y_norm:
            termination = "residual_tol"
    x = np.zeros(n, dtype=np.complex128)
    if support:
        k = len(support)
        x[support], _ = ztrtrs(rmat[:k, :k], qmat[:, :k].conj().T @ y)
    wall = (time.perf_counter() - t0) * 1e3
    result = RecoveryResult(
        solver="omp", n=n, m=m, x_hat=x, iterations=len(support),
        termination=termination, wall_time_ms=wall, l1_trace=trace,
    )
    return result, support
