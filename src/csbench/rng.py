"""Seedable, portable random number generation.

Every random draw in this package goes through :class:`PortableRng` so
problem instances are reproducible from a single 64-bit seed and can be
re-derived by an independent implementation in another language. The
contract is:

* Bit source: the Philox 4x64 counter-based generator, keyed directly
  with the seed (``numpy.random.Philox(key=seed)``, counter starting at
  zero). Uniform doubles are the standard 53-bit mapping of one 64-bit
  word to [0, 1).
* Standard normals: Box-Muller on consecutive uniform pairs. For k
  normals, 2*ceil(k/2) uniforms are drawn in a single call; pair j uses
  (u[2j], u[2j+1]) and produces
  ``z0 = sqrt(-2 ln(1 - u[2j])) cos(2 pi u[2j+1])`` and
  ``z1 = sqrt(-2 ln(1 - u[2j])) sin(2 pi u[2j+1])``, emitted in that
  order and truncated to k.
* Complex normals: 2k standard normals taken as interleaved
  (re, im) pairs, each component scaled by the requested sigma.
* Index subsets: a partial Fisher-Yates pass over 0..n-1 using one
  uniform per selected element, ``j = i + floor(u_i * (n - i))``.

Derived seeds for grid cells, trials and sub-draws come from
:func:`combine_seeds` (a splitmix64 fold), never from reusing a stream.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> int:
    """One splitmix64 output step for ``state`` (taken mod 2**64)."""
    z = (state + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def combine_seeds(*parts: int) -> int:
    """Fold integer parts into one decorrelated 64-bit child seed.

    Starting from the golden-gamma constant, each part is mixed in with
    ``state = splitmix64(state XOR part)``. Used to derive independent
    seeds for (cell, trial, purpose) tuples from a base seed.
    """
    state = _GOLDEN
    for p in parts:
        state = splitmix64(state ^ (int(p) & _MASK64))
    return state


class PortableRng:
    """Deterministic random source with a documented draw order."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def uniforms(self, count: int) -> np.ndarray:
        """``count`` doubles in [0, 1), one 64-bit word each."""
        return self._gen.random(int(count))

    def normals(self, count: int) -> np.ndarray:
        """``count`` standard normals via Box-Muller (see module doc)."""
        count = int(count)
        if count < 0:
            raise ValueError("count must be nonnegative")
        pairs = (count + 1) // 2
        u = self.uniforms(2 * pairs)
        u1 = 1.0 - u[0::2]  # in (0, 1], keeps the log finite
        u2 = u[1::2]
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:count]

    def complex_normals(self, count: int, sigma: float = 1.0) -> np.ndarray:
        """``count`` complex draws, re/im each N(0, sigma^2), interleaved."""
        # (re, im) interleaved is complex128's memory layout.
        return (self.normals(2 * int(count)) * float(sigma)).view(np.complex128)

    def subset(self, n: int, k: int) -> np.ndarray:
        """``k`` distinct indices from 0..n-1 in selection order."""
        n = int(n)
        k = int(k)
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        idx = np.arange(n, dtype=np.int64)
        u = self.uniforms(k)
        for i in range(k):
            j = i + int(u[i] * (n - i))
            idx[i], idx[j] = idx[j], idx[i]
        return idx[:k].copy()
