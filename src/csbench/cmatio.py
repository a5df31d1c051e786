"""CMAT v1 files: dense complex matrices as plain text.

The header line is ``cmat 1 <rows> <cols>``; each following line holds
one matrix row as ``cols`` whitespace-separated ``re,im`` pairs (a
row of a 0-column matrix is an empty line). Every declared row must be
present, and only whitespace may follow the last one. A row of
``cols`` entries takes at least 4 * cols bytes, so a header whose rows
the rest of the file cannot hold is rejected before any memory is
reserved for them. Values are
written with ``repr`` (up to 17 significant digits), so files
round-trip bit-exactly. A vector is stored as a rows x 1 matrix.

The grammar is the form the writer emits, and nothing else is read:
the three header numbers are ASCII digits alone, and ``re`` and ``im``
are each an optional sign, digits, optionally a point and more digits,
and optionally an exponent ``e`` with a sign and digits (``-1.5e-07``).
So an underscore between digits, a sign on a header count, ``inf``,
``nan`` or a digit outside ASCII is a format error, although Python's
``int`` and ``float`` accept some of them. The files are ASCII: a byte
outside it reads as U+FFFD, which matches no part of the grammar.

Sampling patterns (kept frequency indices) are companion text files
holding a single line of space-separated integers, each ASCII digits
with an optional leading minus.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .errors import CmatFormatError

_MAGIC = "cmat"
_VERSION = 1
_COUNT = re.compile(r"[0-9]+")
_REAL = r"([+-]?[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]+)?)"
_PAIR = re.compile(f"{_REAL},{_REAL}")
_INDEX = re.compile(r"-?[0-9]+")


def save_matrix(path, a) -> None:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("refusing to write non-finite entries")
    rows, cols = a.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{_MAGIC} {_VERSION} {rows} {cols}\n")
        for r in range(rows):
            fh.write(" ".join(
                f"{float(v.real)!r},{float(v.imag)!r}" for v in a[r]
            ))
            fh.write("\n")


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        header = fh.readline().split()
        if (len(header) != 4 or header[0] != _MAGIC
                or not all(_COUNT.fullmatch(t) for t in header[1:])):
            raise CmatFormatError(f"{path}: bad header {header!r}")
        try:
            version, rows, cols = (int(t) for t in header[1:])
        except ValueError as exc:  # more digits than int() converts
            raise CmatFormatError(f"{path}: bad header {header!r}") from exc
        if version != _VERSION:
            raise CmatFormatError(f"{path}: unsupported version {version}")
        # Each entry is at least "a,b" and a separator or newline, and
        # the last row's newline may be left out. A 0-column matrix
        # reserves no memory, but its shape alone can pass numpy's size
        # limit, so it takes its shape only once its rows are found.
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if cols and rows * 4 * cols - 1 > left:
            raise CmatFormatError(f"{path}: {rows} rows of {cols} entries "
                                  f"cannot fit in {left} bytes")
        out = np.empty((rows if cols else 0, cols), dtype=np.complex128)
        for r in range(rows):
            line = fh.readline()
            if not line:
                raise CmatFormatError(f"{path}: missing row {r} of {rows}")
            tokens = line.split()
            if len(tokens) != cols:
                raise CmatFormatError(
                    f"{path}: row {r} has {len(tokens)} entries, expected {cols}"
                )
            for c, tok in enumerate(tokens):
                pair = _PAIR.fullmatch(tok)
                if pair is None:
                    raise CmatFormatError(f"{path}: row {r} entry {c}: {tok!r}")
                out[r, c] = complex(float(pair[1]), float(pair[2]))
        if fh.read().strip():
            raise CmatFormatError(
                f"{path}: content after the {rows} declared rows")
    if not np.all(np.isfinite(out)):
        raise CmatFormatError(f"{path}: non-finite entries")
    return out.reshape(rows, cols)


def save_vector(path, v) -> None:
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D array, got ndim={v.ndim}")
    save_matrix(path, v.reshape(-1, 1))


def load_vector(path) -> np.ndarray:
    a = load_matrix(path)
    if a.shape[1] != 1:
        raise CmatFormatError(f"{path}: expected a rows x 1 matrix, got {a.shape}")
    return a[:, 0].copy()


def save_indices(path, indices) -> None:
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("indices must be 1-D")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(" ".join(str(int(i)) for i in idx))
        fh.write("\n")


def load_indices(path) -> np.ndarray:
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        tokens = fh.read().split()
    if not all(_INDEX.fullmatch(t) for t in tokens):
        raise CmatFormatError(f"{path}: non-integer index")
    try:
        return np.asarray([int(t) for t in tokens], dtype=np.int64)
    except (OverflowError, ValueError) as exc:  # ValueError: too many digits
        raise CmatFormatError(f"{path}: index outside int64") from exc
