"""The benchmark's own checks reject deliberately broken outputs.

    python3 -m pytest bench/test_checks.py -q

Runs in well under a second and needs only numpy (no csbench import).
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402


def _instance(m=12, n=20, seed=0):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    x = np.zeros(n, dtype=np.complex128)
    x[[1, 7]] = [1.0 + 0.5j, -0.3j]
    return c, x, c @ x


def test_feasible_point_passes_and_perturbed_one_fails():
    c, x, y = _instance()
    x_mn = checks.min_norm_solution(c, y)
    assert checks.nkf_problems(c, y, x, x_mn, x) == []
    broken = x.copy()
    broken[3] += 1e-6
    found = checks.nkf_problems(c, y, broken, x_mn, x)
    assert any("residual" in p for p in found)


def test_estimate_above_min_norm_l1_fails():
    c, x, y = _instance()
    x_mn = checks.min_norm_solution(c, y)
    _, _, vh = np.linalg.svd(c)
    off = x_mn + 10.0 * vh[-1].conj()       # feasible, far larger l1
    found = checks.nkf_problems(c, y, off, x_mn)
    assert any("min-l2" in p for p in found)


def test_square_system_must_return_x_true():
    c, x, y = _instance(m=20, n=20)
    x_mn = checks.min_norm_solution(c, y)
    assert checks.nkf_problems(c, y, x_mn, x_mn, x) == []
    found = checks.nkf_problems(c, y, x_mn, x_mn, 1.01 * x)
    assert any("m = n" in p for p in found)


def test_l1_above_true_signal_fails():
    x = np.array([1.0, 0.0, 2.0j])
    assert checks.true_l1_problems(x, x) == []
    assert checks.true_l1_problems(x + 0.1, x) != []


def test_l1_above_converged_cp_fails():
    assert checks.l1_vs_cp_problems(10.05, 10.0) == []
    assert checks.l1_vs_cp_problems(10.2, 10.0) != []


def test_recovery_tolerance():
    x = np.array([1.0, 0.0, 2.0j])
    assert checks.recovery_problems("omp", x, x + 1e-6) == []
    assert checks.recovery_problems("omp", x, x + 1e-2) != []


def test_kept_bins_residual_sees_a_changed_pixel():
    rng = np.random.default_rng(1)
    image = rng.normal(size=(6, 6)) + 0j
    kept = np.array([0, 5, 11, 30])
    y = (np.fft.fft2(image) / 6.0).ravel()[kept]
    assert checks.kept_bins_residual(image, kept, y) < 1e-14
    image[2, 3] += 1e-3
    assert checks.kept_bins_residual(image, kept, y) > 1e-8


def _grid_csv(n, steps, solvers, trials, wrong_m_row=None):
    lines = ["delta_index,rho_index,delta,rho,m,s,solver,trials,"
             "successes,success_rate,mean_l2_error,failures"]
    k = 0
    for j in range(steps):
        for i in range(steps):
            delta, rho, m, s = checks.grid_cell(n, steps, i, j)
            for sv in solvers:
                row_m = m + 1 if k == wrong_m_row else m
                lines.append(f"{i},{j},{delta!r},{rho!r},{row_m},{s},{sv},"
                             f"{trials},{trials},1.0,0.0,0")
                k += 1
    return "\n".join(lines) + "\n"


def test_grid_rows_with_formula_axes_pass():
    text = _grid_csv(64, 6, ("nkf", "cp"), 3)
    assert checks.grid_rows_problems(text, 64, 6, ("nkf", "cp"), 3) == []


@pytest.mark.parametrize("row", [0, 17, 71])
def test_grid_row_with_wrong_m_fails(row):
    text = _grid_csv(64, 6, ("nkf", "cp"), 3, wrong_m_row=row)
    found = checks.grid_rows_problems(text, 64, 6, ("nkf", "cp"), 3)
    assert len(found) == 1 and "expected prefix" in found[0]


def test_grid_with_missing_row_fails():
    text = _grid_csv(64, 6, ("nkf",), 3)
    short = "\n".join(text.splitlines()[:-1]) + "\n"
    assert checks.grid_rows_problems(short, 64, 6, ("nkf",), 3) != []


def test_well_formed_pgm_passes():
    text = "P2\n3 3\n255\n0 128 255\n1 2 3\n4 5 6\n"
    assert checks.pgm_problems(text, 3) == []


@pytest.mark.parametrize("text", [
    "P5\n3 3\n255\n0 0 0\n0 0 0\n0 0 0\n",       # wrong magic
    "P2\n3 2\n255\n0 0 0\n0 0 0\n",                # wrong size
    "P2\n3 3\n255\n0 0 0\n0 0 0\n0 0\n",           # value missing
    "P2\n3 3\n255\n0 0 0\n0 256 0\n0 0 0\n",       # value above 255
    "P2\n3 3\n255\n0 0 0\n0 x 0\n0 0 0\n",         # not an integer
    "P2\n3 3\n",                                   # truncated header
])
def test_malformed_pgm_fails(text):
    assert checks.pgm_problems(text, 3) != []


def test_cmat_parser_round_trips_repr_values():
    a = np.array([[1.0 + 2.0j, 1 / 3 - 0.1j], [-0.0 + 0j, 2.5e-300j]])
    rows = [" ".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in row)
            for row in a]
    text = "cmat 1 2 2\n" + "\n".join(rows) + "\n"
    assert np.array_equal(checks.parse_cmat(text), a)
    with pytest.raises(ValueError):
        checks.parse_cmat("cmat 1 2 2\n1.0,0.0 2.0,0.0\n")
