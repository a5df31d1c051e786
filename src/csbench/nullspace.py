"""Nullspace geometry of an underdetermined sensing matrix.

For full-row-rank C (m <= n) the factorization C = [L1 | 0] Q with
unitary Q = [Q1; Q2] gives the minimum-l2 particular solution
x_p = Q1^H L1^{-1} y and an orthonormal nullspace basis E_N = Q2^H.
Every x_p + E_N x_v then satisfies C x = y exactly, so a solver can
search the (n - m)-dimensional coefficient vector x_v without ever
leaving the measurement-consistent affine space.

The factorization is obtained as the conjugate transpose of a
Householder QR of C^H, with the diagonal phases absorbed into Q so that
diag(L1) is real and nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, RankDeficient

DEFAULT_RANK_TOL = 1e-12


@dataclass(frozen=True)
class NullspaceDecomposition:
    """C = [l1 | 0] [q1; q2] with unitary rows q1 (m x n), q2 ((n-m) x n)."""

    l1: np.ndarray
    q1: np.ndarray
    q2: np.ndarray

    @property
    def e_n(self) -> np.ndarray:
        """Orthonormal nullspace basis, n x (n - m) (= q2^H)."""
        return self.q2.conj().T

    @property
    def m(self) -> int:
        return self.q1.shape[0]

    @property
    def n(self) -> int:
        return self.q1.shape[1]


def lq_factorize(c) -> NullspaceDecomposition:
    """Factor C = L Q and split Q into row and nullspace parts.

    Raises RankDeficient when any |l1[i, i]| falls below
    DEFAULT_RANK_TOL * (largest row norm of C), and DimensionMismatch
    for m > n or non-2-D input.
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

    q = qf.conj().T
    l1 = r[:m, :].conj().T
    return NullspaceDecomposition(l1=l1, q1=q[:m], q2=q[m:])


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


def particular_solution(decomp: NullspaceDecomposition, y) -> np.ndarray:
    """Minimum-l2 solution x_p = q1^H l1^{-1} y of C x = y."""
    y = check_measurements(y, decomp.m)
    z = scipy.linalg.solve_triangular(decomp.l1, y, lower=True)
    return decomp.q1.conj().T @ z
