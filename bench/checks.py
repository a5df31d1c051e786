"""Output checks made apart from the program.

Every function here recomputes what it checks with numpy alone (own
matrix products, ``numpy.linalg.lstsq``, ``numpy.fft.fft2``, own
parsers); none calls into ``csbench``. Each ``*_problems`` function
returns a list of human-readable problems, empty when the output passes.
"""

from __future__ import annotations

import math

import numpy as np

FEAS_TOL = 1e-8          # ||C x - y|| / ||y|| for every nkf estimate
L1_MN_SLACK = 1e-12      # ||x_nkf||_1 <= ||x_mn||_1 (1 + slack)
L1_TRUE_SLACK = 0.01     # ||x_nkf||_1 <= (1 + slack) ||x_true||_1
L1_CP_SLACK = 0.01       # ||x_nkf||_1 <= (1 + slack) ||x_cp||_1 on scenes
EXACT_TOL = 1e-8         # nkf at m = n returns x_true
RECOVERY_TOL = 1e-3      # relative l2 error counted as recovered


def l1(x) -> float:
    return float(np.sum(np.abs(x)))


def rel_residual(c, x, y) -> float:
    """||C x - y|| / ||y||, with the benchmark's own product."""
    c = np.asarray(c)
    r = np.einsum("ij,j->i", c, np.asarray(x)) - y
    return float(np.linalg.norm(r) / np.linalg.norm(y))


def min_norm_solution(c, y) -> np.ndarray:
    """Minimum-l2 feasible point, from numpy's least squares."""
    return np.linalg.lstsq(c, y, rcond=None)[0]


def rel_error(x_true, x) -> float:
    return float(np.linalg.norm(np.asarray(x) - x_true)
                 / np.linalg.norm(x_true))


def nkf_problems(c, y, x_hat, x_mn, x_true=None, residual=None) -> list:
    """Properties every nkf estimate has.

    The filter starts at the minimum-l2 point and only lowers the l1
    norm. ``x_true`` is given for noiseless Gaussian instances: at
    m = n the system has one solution and the estimate must be x_true.
    """
    out = []
    res = rel_residual(c, x_hat, y) if residual is None else residual
    if not res <= FEAS_TOL:
        out.append(f"nkf residual {res:.3e} > {FEAS_TOL:g}")
    if not l1(x_hat) <= l1(x_mn) * (1.0 + L1_MN_SLACK):
        out.append(f"nkf l1 {l1(x_hat)!r} above min-l2 point {l1(x_mn)!r}")
    m, n = np.shape(c)
    if (x_true is not None and m == n
            and not rel_error(x_true, x_hat) <= EXACT_TOL):
        out.append(f"nkf at m = n: error {rel_error(x_true, x_hat):.3e}")
    return out


def true_l1_problems(x_hat, x_true) -> list:
    """x_true is feasible, so the l1 minimizer cannot exceed its norm."""
    if not l1(x_hat) <= (1.0 + L1_TRUE_SLACK) * l1(x_true):
        return [f"nkf l1 {l1(x_hat)!r} above 1.01 * l1(x_true) "
                f"{l1(x_true)!r}"]
    return []


def l1_vs_cp_problems(l1_nkf: float, l1_cp: float) -> list:
    """Both solve the same basis pursuit; nkf must reach cp's converged l1."""
    if not l1_nkf <= (1.0 + L1_CP_SLACK) * l1_cp:
        return [f"nkf l1 {l1_nkf!r} above 1.01 * cp's converged l1 "
                f"{l1_cp!r}"]
    return []


def recovery_problems(solver, x_true, x_hat) -> list:
    err = rel_error(x_true, x_hat)
    if not err <= RECOVERY_TOL:
        return [f"{solver} did not recover x_true: error {err:.3e}"]
    return []


def kept_bins_residual(image, kept, y) -> float:
    """Misfit of an image's unitary 2-D spectrum at the kept bins."""
    image = np.asarray(image)
    spectrum = np.fft.fft2(image) / math.sqrt(image.size)
    return float(np.linalg.norm(spectrum.ravel()[kept] - y)
                 / np.linalg.norm(y))


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def grid_cell(n: int, steps: int, i: int, j: int):
    """(delta, rho, m, s) of cell (delta index i, rho index j)."""
    delta = i / (steps - 1)
    rho = j / (steps - 1)
    m = min(max(round_half_up(delta * n), 1), n)
    s = min(max(round_half_up(rho * m), 0), m)
    return delta, rho, m, s


def grid_rows_problems(text: str, n: int, steps: int, solvers,
                       trials: int) -> list:
    """grid_results.csv: one row per cell and solver, axes recomputed."""
    lines = text.splitlines()
    header = ("delta_index,rho_index,delta,rho,m,s,solver,trials,"
              "successes,success_rate,mean_l2_error,failures")
    if not lines or lines[0] != header:
        return ["grid_results.csv: wrong header"]
    out = []
    expected = [(i, j, sv) for j in range(steps) for i in range(steps)
                for sv in solvers]
    rows = lines[1:]
    if len(rows) != len(expected):
        out.append(f"grid_results.csv: {len(rows)} rows, "
                   f"expected {len(expected)}")
    for line, (i, j, sv) in zip(rows, expected):
        cells = line.split(",")
        if len(cells) != 12:
            out.append(f"grid row {line!r}: {len(cells)} fields")
            continue
        delta, rho, m, s = grid_cell(n, steps, i, j)
        want = [str(i), str(j), repr(delta), repr(rho), str(m), str(s), sv,
                str(trials)]
        if cells[:8] != want:
            out.append(f"grid row {line!r}: expected prefix {want}")
            continue
        successes, failures = int(cells[8]), int(cells[11])
        if not (0 <= successes <= trials and 0 <= failures <= trials):
            out.append(f"grid row {line!r}: counts out of range")
        if float(cells[9]) != successes / trials:
            out.append(f"grid row {line!r}: success rate")
    return out


def pgm_problems(text: str, steps: int) -> list:
    """A plain (P2) steps x steps image with values in 0..255."""
    tokens = text.split()
    if len(tokens) < 4 or tokens[0] != "P2":
        return ["pgm: not a P2 image"]
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
        values = [int(t) for t in tokens[4:]]
    except ValueError:
        return ["pgm: non-integer token"]
    out = []
    if (width, height) != (steps, steps):
        out.append(f"pgm: size {width}x{height}, expected {steps}x{steps}")
    if maxval != 255:
        out.append(f"pgm: maxval {maxval}")
    if len(values) != width * height:
        out.append(f"pgm: {len(values)} values for {width}x{height}")
    if any(v < 0 or v > 255 for v in values):
        out.append("pgm: value outside 0..255")
    return out


def parse_cmat(text: str) -> np.ndarray:
    """Read a CMAT v1 matrix: ``cmat 1 rows cols``, then re,im rows."""
    lines = text.splitlines()
    head = lines[0].split() if lines else []
    if len(head) != 4 or head[:2] != ["cmat", "1"]:
        raise ValueError("cmat: bad header")
    rows, cols = int(head[2]), int(head[3])
    if len(lines) != rows + 1:
        raise ValueError(f"cmat: {len(lines) - 1} rows, expected {rows}")
    out = np.empty((rows, cols), dtype=np.complex128)
    for r, line in enumerate(lines[1:]):
        pairs = line.split()
        if len(pairs) != cols:
            raise ValueError(f"cmat: row {r} has {len(pairs)} entries")
        for k, pair in enumerate(pairs):
            re, im = pair.split(",")
            out[r, k] = complex(float(re), float(im))
    return out
