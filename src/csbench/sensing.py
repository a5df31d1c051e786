"""Synthetic signals, sensing operators, and measurement simulation.

All generators draw through :mod:`csbench.rng`, so every artifact is a
pure function of its seed. The documented draw orders (support before
values, row-major matrix fill, subset before amplitudes) are part of
the reproducibility contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .nullspace import check_measurements
from .operators import PartialFourier2D, dft_rows
from .rng import PortableRng


def round_half_up(x: float) -> int:
    """Deterministic rounding, halves away from zero (for positive x)."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class SignalSpec:
    """An s-sparse complex signal of length n, unit l2 norm."""

    n: int
    s: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0 <= self.s <= self.n:
            raise ValueError(f"need 0 <= s <= n, got s={self.s}, n={self.n}")


@dataclass(frozen=True)
class SceneSpec:
    """Point scatterers on an n_r x n_a grid, confined to a rectangle.

    target_region is (row_lo, row_hi, col_lo, col_hi), half-open.
    """

    n_r: int
    n_a: int
    n_scatterers: int
    target_region: tuple
    seed: int

    def __post_init__(self):
        if self.n_r < 1 or self.n_a < 1:
            raise ValueError("grid dimensions must be at least 1")
        r_lo, r_hi, c_lo, c_hi = self.target_region
        if not (0 <= r_lo < r_hi <= self.n_r and 0 <= c_lo < c_hi <= self.n_a):
            raise ValueError(f"target_region {self.target_region} outside grid")
        cells = (r_hi - r_lo) * (c_hi - c_lo)
        if not 0 <= self.n_scatterers <= cells:
            raise ValueError(
                f"n_scatterers={self.n_scatterers} exceeds region size {cells}"
            )


def gen_sparse_signal(spec: SignalSpec) -> np.ndarray:
    """Support uniform without replacement, re/im N(0,1), l2-normalized.

    Draw order: support subset first, then one complex normal per
    support entry. s = 0 gives the zero vector.
    """
    x = np.zeros(spec.n, dtype=np.complex128)
    if spec.s == 0:
        return x
    rng = PortableRng(spec.seed)
    support = rng.subset(spec.n, spec.s)
    x[support] = rng.complex_normals(spec.s, sigma=1.0)
    nrm = np.linalg.norm(x)
    if nrm == 0.0:  # probability zero; guards the normalization
        raise ValueError("degenerate all-zero draw")
    return x / nrm


def gen_gaussian_matrix(m: int, n: int, seed: int) -> np.ndarray:
    """m x n complex Gaussian, re/im N(0, 1/2), unit-l2 columns.

    Entries are drawn row-major as interleaved (re, im) pairs, then the
    columns are normalized.
    """
    if m < 1 or n < 1:
        raise ValueError("dimensions must be at least 1")
    rng = PortableRng(seed)
    entries = rng.complex_normals(m * n, sigma=math.sqrt(0.5))
    c = entries.reshape(m, n)
    norms = np.linalg.norm(c, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("degenerate zero column")
    return c / norms


def gen_partial_fourier_2d(n_r: int, n_a: int, keep_fraction: float,
                           seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random rows of the unitary 2-D DFT on an n_r x n_a grid.

    Keeps m = round(keep_fraction * n_r * n_a) frequency pairs chosen
    uniformly without replacement. Row for frequency (p, q) has entries
    exp(-2 pi i (p i / n_r + q j / n_a)) / sqrt(n_r n_a) over pixels
    (i, j), flattened row-major. Returns (matrix, sorted kept indices);
    the rows are orthonormal so C C^H = I.
    ``operators.PartialFourier2D(n_r, n_a, kept)`` applies the same
    matrix without forming it.
    """
    if n_r < 1 or n_a < 1:
        raise ValueError("grid dimensions must be at least 1")
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must lie in (0, 1]")
    total = n_r * n_a
    m = round_half_up(keep_fraction * total)
    if m < 1:
        raise ValueError("keep_fraction keeps no rows")
    rng = PortableRng(seed)
    kept = np.sort(rng.subset(total, m))
    row_part = dft_rows(kept // n_a, n_r)                        # m x n_r
    col_part = dft_rows(kept % n_a, n_a)                         # m x n_a
    c = (row_part[:, :, None] * col_part[:, None, :]).reshape(m, total)
    c /= math.sqrt(total)  # in place: the one m x n array is C
    return c, kept


def measure(c, x, noise_sigma: float, seed: int) -> np.ndarray:
    """y = C x + noise with per-component variance noise_sigma^2.

    Noise components are complex normals with re/im each
    N(0, noise_sigma^2 / 2), drawn interleaved. noise_sigma = 0 adds
    nothing (and draws nothing). A noise_sigma that is not a finite
    number >= 0, NaN and infinity included, raises ValueError.
    """
    c = np.asarray(c, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    if c.ndim != 2 or x.ndim != 1 or c.shape[1] != x.shape[0]:
        raise DimensionMismatch(
            f"incompatible shapes {c.shape} and {x.shape}"
        )
    if not (noise_sigma >= 0 and math.isfinite(noise_sigma)):
        raise ValueError(
            f"noise_sigma must be nonnegative and finite, got {noise_sigma}")
    y = c @ x
    if noise_sigma > 0:
        rng = PortableRng(seed)
        y = y + rng.complex_normals(c.shape[0], sigma=noise_sigma / math.sqrt(2))
    return y


def gen_scene(spec: SceneSpec) -> np.ndarray:
    """Flattened n_r*n_a scene with complex-normal scatterer amplitudes.

    Scatterer pixels are a uniform subset of the target rectangle
    (row-major within the region), drawn before the amplitudes.
    """
    scene = np.zeros(spec.n_r * spec.n_a, dtype=np.complex128)
    region = np.flatnonzero(region_mask(spec))
    rng = PortableRng(spec.seed)
    local = rng.subset(region.size, spec.n_scatterers)
    scene[region[local]] = rng.complex_normals(spec.n_scatterers, sigma=1.0)
    return scene


def region_mask(spec: SceneSpec) -> np.ndarray:
    """Boolean n_r x n_a mask of the target rectangle."""
    r_lo, r_hi, c_lo, c_hi = spec.target_region
    mask = np.zeros((spec.n_r, spec.n_a), dtype=bool)
    mask[r_lo:r_hi, c_lo:c_hi] = True
    return mask


def reference_image(y, kept_indices, n_r: int, n_a: int) -> np.ndarray:
    """Zero-filled inverse 2-D DFT of undersampled spectrum values.

    Places each measurement at its kept frequency bin, zeros elsewhere,
    and applies the unitary inverse transform: the n_r x n_a image of
    C^H y for the operator ``PartialFourier2D(n_r, n_a, kept_indices)``,
    which validates the indices. y must be finite, one value per kept
    index. With every bin kept this inverts gen_partial_fourier_2d.
    """
    op = PartialFourier2D(n_r, n_a, kept_indices)
    return op.rmatvec(check_measurements(y, op.m)).reshape(n_r, n_a)
