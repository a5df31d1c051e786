"""Sensing operators: C, C^H and the nullspace maps, however C is held.

nkf, cp and omp apply the sensing matrix through a ``SensingOperator``;
cp's norm estimate takes nothing else.
``DenseOperator`` holds C as a matrix beside its LQ factors; it is
defined in csbench.nullspace, whose ``lq_factorize`` returns one.
``PartialFourier2D`` holds kept rows of the unitary 2-D DFT as an index
list and applies every map with two small matrix products on the
n_r x n_a grid; it forms no n-sized matrix.
"""

from __future__ import annotations

import math
from typing import Protocol

import numpy as np

from .errors import DimensionMismatch
from .nullspace import DenseOperator, as_count, check_measurements

__all__ = ["DenseOperator", "PartialFourier2D", "SensingOperator", "dft_rows"]


class SensingOperator(Protocol):
    """C (m x n, m <= n, full row rank) and an orthonormal n x (n - m)
    basis E_N of its nullspace, applied to vectors.

    C's entries must be of unit order, as the 1/sqrt(n) moduli of
    ``PartialFourier2D`` are: cp and omp iterate on a problem's operator
    as it is, without the power-of-two scaling into unit range that they
    give a dense C, so entries far from unit order can overflow or
    underflow their norms and steps.
    """

    m: int
    n: int

    def matvec(self, x):
        """C x."""

    def rmatvec(self, p):
        """C^H p."""

    def particular(self, y):
        """The minimum-l2 solution of C x = y; validates y."""

    def null_map(self, v):
        """E_N v."""

    def null_adjoint(self, h):
        """h E_N, for a row h."""


def dft_rows(freqs, n: int) -> np.ndarray:
    """Rows exp(-2 pi i f j / n), j = 0..n-1, of the n-point DFT, one
    per frequency f in ``freqs``, not normalized."""
    phase = np.arange(n)[None, :] * np.asarray(freqs)[:, None] / n
    return np.exp(-2j * np.pi * phase)


class PartialFourier2D:
    """The rows ``kept`` of the unitary 2-D DFT on an n_r x n_a grid.

    Row k is frequency pair (k // n_a, k % n_a), and pixels are
    flattened row-major, as in ``sensing.gen_partial_fourier_2d``. With
    the unitary 1-D DFT matrices F_r (n_r x n_r) and F_a (n_a x n_a),
    built once from the generator's phase expression, C x gathers the
    kept bins of F_r X F_a, and C^H y is F_r^H S F_a^H with y scattered
    into the kept bins of S. The unkept rows are an orthonormal basis
    of the nullspace: E_N v scatters v into the unkept bins, and h E_N
    gathers the unkept bins of F_r^H H F_a^H. The rows are orthonormal,
    so the minimum-l2 solution is C^H y. Each map costs two products of
    O(n (n_r + n_a)), against O(n m) or O(n (n - m)) for a dense one.

    Raises TypeError if n_r, n_a or a kept index is not an integer (a
    float, a bool or a string is not silently converted), ValueError if
    n_r or n_a is below 1, DimensionMismatch if ``kept`` is not 1-D and
    ValueError if an index is out of range or listed twice.
    """

    def __init__(self, n_r: int, n_a: int, kept):
        n_r, n_a = as_count(n_r, "n_r"), as_count(n_a, "n_a")
        if min(n_r, n_a) < 1:
            raise ValueError(f"n_r, n_a must be at least 1, got {n_r}, {n_a}")
        kept = np.asarray(kept)
        if kept.size and not np.issubdtype(kept.dtype, np.integer):
            raise TypeError(f"kept indices must be integers, not {kept.dtype}")
        kept = kept.astype(np.int64)
        total = n_r * n_a
        if kept.ndim != 1:
            raise DimensionMismatch(
                f"kept indices must be 1-D, got shape {kept.shape}")
        if kept.size and (kept.min() < 0 or kept.max() >= total):
            raise ValueError("kept index out of range")
        if np.unique(kept).size != kept.size:
            raise ValueError("kept indices must be distinct")
        self.n_r, self.n_a, self.kept = n_r, n_a, kept
        self.m, self.n = kept.size, total
        unkept = np.ones(total, dtype=bool)
        unkept[kept] = False
        self.unkept = np.flatnonzero(unkept)
        # Both factors are symmetric, so their conjugates are their
        # conjugate transposes.
        self._f_r = dft_rows(np.arange(n_r), n_r) / math.sqrt(n_r)
        self._f_a = dft_rows(np.arange(n_a), n_a) / math.sqrt(n_a)
        self._f_r_h = self._f_r.conj()
        self._f_a_h = self._f_a.conj()

    def _forward(self, x):
        """F_r X F_a, flattened."""
        grid = np.reshape(x, (self.n_r, self.n_a))
        return (self._f_r @ grid @ self._f_a).reshape(-1)

    def _inverse(self, s):
        """F_r^H S F_a^H, flattened."""
        grid = np.reshape(s, (self.n_r, self.n_a))
        return (self._f_r_h @ grid @ self._f_a_h).reshape(-1)

    def _scatter(self, bins, values):
        s = np.zeros(self.n, dtype=np.complex128)
        s[bins] = values
        return s

    def matvec(self, x):
        return self._forward(x)[self.kept]

    def rmatvec(self, y):
        return self._inverse(self._scatter(self.kept, y))

    def particular(self, y):
        return self.rmatvec(check_measurements(y, self.m))

    def null_map(self, v):
        return self._inverse(self._scatter(self.unkept, v))

    def null_adjoint(self, h):
        return self._inverse(h)[self.unkept]
