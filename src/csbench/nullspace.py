"""Nullspace geometry of an underdetermined sensing matrix.

For full-row-rank C (m <= n) the factorization C = [L1 | 0] Q with
unitary Q = [Q1; Q2] gives the minimum-l2 particular solution
x_p = Q1^H L1^{-1} y and an orthonormal nullspace basis E_N = Q2^H.
Every x_p + E_N x_v then satisfies C x = y exactly, so a solver can
search the (n - m)-dimensional coefficient vector x_v without ever
leaving the measurement-consistent affine space.

The factorization is obtained from a Householder QR of C^H, with the
diagonal phases absorbed into Q so that diag(L1) is real and
nonnegative. Q^H = [Q1^H | E_N] is held as the QR returns it, so that
E_N is a view of it and no copy of Q is made.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, RankDeficient

DEFAULT_RANK_TOL = 1e-12


class DenseOperator:
    """C applied as the dense matrix ``c``, with its LQ factors.

    C^H is formed once, on the first ``rmatvec``. The factors are made
    on first use, or at once by ``lq_factorize``, and kept as long as
    the operator is, so a solver builds one operator per solve: ``l1``
    (m x m, lower triangular, real nonnegative diagonal) and the n x n
    unitary ``basis`` = Q^H, whose first m columns are q1^H and whose
    last n - m columns are E_N.
    """

    def __init__(self, c):
        self.c = c
        self.m, self.n = c.shape

    @cached_property
    def _factors(self):
        """(l1, basis), made with lq_factorize's checks on first use."""
        return lq_factorize(self.c)._factors

    @property
    def l1(self) -> np.ndarray:
        return self._factors[0]

    @property
    def basis(self) -> np.ndarray:
        return self._factors[1]

    @property
    def e_n(self) -> np.ndarray:
        """Orthonormal nullspace basis, n x (n - m), a view of ``basis``."""
        return self.basis[:, self.m:]

    @property
    def q1(self) -> np.ndarray:
        """The rows of Q that span C's row space, m x n."""
        return self.basis[:, :self.m].conj().T

    @property
    def q2(self) -> np.ndarray:
        """The rows of Q that span C's nullspace, (n - m) x n."""
        return self.e_n.conj().T

    @cached_property
    def ch(self) -> np.ndarray:
        return np.conjugate(self.c.T, order="C")

    def matvec(self, x):
        return self.c @ x

    def rmatvec(self, p):
        return self.ch @ p

    def particular(self, y):
        return particular_solution(self, y)

    def null_map(self, v):
        return self.e_n @ v

    def null_adjoint(self, h):
        return h @ self.e_n


def lq_factorize(c) -> DenseOperator:
    """A dense operator for C with its LQ factors made now.

    Raises RankDeficient when any |l1[i, i]| falls below
    DEFAULT_RANK_TOL * (largest row norm of C), DimensionMismatch
    for m > n or non-2-D input, and ValueError for a non-finite entry.
    """
    c = np.asarray(c, dtype=np.complex128)
    if c.ndim != 2:
        raise DimensionMismatch(f"matrix must be 2-D, got ndim={c.ndim}")
    m, n = c.shape
    if m < 1:
        raise DimensionMismatch("matrix must have at least one row")
    if m > n:
        raise DimensionMismatch(f"need m <= n, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("non-finite matrix entries")

    qf, r = scipy.linalg.qr(c.conj().T, mode="full")  # C^H = qf r, r is n x m
    diag = np.diagonal(r).copy()
    mags = np.abs(diag)
    # Absorb diagonal phases into Q so diag(L1) comes out real nonnegative.
    phase = np.where(mags > 0, diag / np.where(mags > 0, mags, 1.0), 1.0)
    r[:m, :] *= phase.conj()[:, None]
    qf[:, :m] *= phase[None, :]

    row_norm_max = float(np.max(np.linalg.norm(c, axis=1)))
    if row_norm_max == 0.0:
        raise RankDeficient("matrix is identically zero")
    if np.any(mags < DEFAULT_RANK_TOL * row_norm_max):
        raise RankDeficient(
            f"matrix row rank < {m} at rank_tol={DEFAULT_RANK_TOL:g}"
        )
    op = DenseOperator(c)
    op._factors = (r[:m, :].conj().T, qf)
    return op


def check_measurements(y, m: int) -> np.ndarray:
    """y as a complex array; DimensionMismatch unless it is 1-D of
    length m, ValueError if an entry is non-finite."""
    y = np.asarray(y, dtype=np.complex128)
    if y.ndim != 1 or y.shape[0] != m:
        raise DimensionMismatch(
            f"measurements must be 1-D of length {m}, got {y.shape}"
        )
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite measurements")
    return y


def particular_solution(op: DenseOperator, y) -> np.ndarray:
    """Minimum-l2 solution x_p = q1^H l1^{-1} y of C x = y."""
    y = check_measurements(y, op.m)
    z = scipy.linalg.solve_triangular(op.l1, y, lower=True)
    return op.basis[:, :op.m] @ z
