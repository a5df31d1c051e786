"""Factorization, particular solution, and estimate assembly."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csbench.errors import DimensionMismatch, RankDeficient
from csbench.nullspace import (DenseOperator, lq_factorize,
                               particular_solution)

from helpers import random_complex_matrix, random_complex_vector


def test_factorize_row_3_4():
    decomp = lq_factorize([[3.0, 4.0]])
    assert decomp.l1.shape == (1, 1)
    assert decomp.l1[0, 0] == pytest.approx(5.0, abs=1e-12)
    # Real nonnegative diagonal pins q1 = C / 5 exactly.
    np.testing.assert_allclose(decomp.q1, [[0.6, 0.8]], atol=1e-12)
    # q2 is determined up to a phase; it must be unit and orthogonal to q1.
    assert abs(abs(decomp.q2[0] @ np.array([0.8, -0.6])) - 1.0) < 1e-12
    np.testing.assert_allclose(decomp.q2 @ decomp.q1[0].conj(), 0,
                               atol=1e-12)


def test_factorize_row_1_0():
    decomp = lq_factorize([[1.0, 0.0]])
    assert decomp.l1[0, 0] == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(decomp.q1, [[1.0, 0.0]], atol=1e-14)
    assert abs(abs(decomp.q2[0, 1]) - 1.0) < 1e-14
    assert abs(decomp.q2[0, 0]) < 1e-14


def test_factorize_identity_has_empty_nullspace():
    decomp = lq_factorize(np.eye(2))
    assert decomp.e_n.shape == (2, 0)
    assert decomp.q2.shape == (0, 2)


def test_factorize_complex_row_phase_convention():
    # C = [[3i, 4]]: row norm 5, diagonal forced real so q1 = C / 5.
    decomp = lq_factorize([[3j, 4.0]])
    assert decomp.l1[0, 0] == pytest.approx(5.0, abs=1e-12)
    assert abs(decomp.l1[0, 0].imag) < 1e-14
    np.testing.assert_allclose(decomp.q1, [[0.6j, 0.8]], atol=1e-12)


def test_diagonal_real_nonnegative_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 24))
        m = int(rng.integers(1, n + 1))
        c = random_complex_matrix(rng, m, n)
        diag = np.diagonal(lq_factorize(c).l1)
        assert np.all(np.abs(diag.imag) <= 1e-10 * np.abs(diag))
        assert np.all(diag.real > 0)


def test_factorization_reconstruction_properties():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(1, n + 1))
        c = random_complex_matrix(rng, m, n)
        decomp = lq_factorize(c)
        q = np.vstack([decomp.q1, decomp.q2])
        l_full = np.hstack([decomp.l1, np.zeros((m, n - m))])
        c_norm = np.linalg.norm(c)
        assert np.linalg.norm(c - l_full @ q) <= 1e-10 * c_norm
        assert np.linalg.norm(q @ q.conj().T - np.eye(n)) <= 1e-10
        if n > m:
            assert np.abs(c @ decomp.e_n).max() <= 1e-10 * c_norm
        y = random_complex_vector(rng, m)
        x_p = particular_solution(decomp, y)
        assert np.linalg.norm(c @ x_p - y) <= 1e-10 * np.linalg.norm(y)


def test_particular_solution_examples():
    d1 = lq_factorize([[1.0, 0.0]])
    np.testing.assert_allclose(particular_solution(d1, [2.0]), [2.0, 0.0],
                               atol=1e-14)
    d2 = lq_factorize([[1.0, 2.0]])
    np.testing.assert_allclose(particular_solution(d2, [2.0]), [0.4, 0.8],
                               atol=1e-12)
    d3 = lq_factorize(np.eye(2))
    np.testing.assert_allclose(particular_solution(d3, [1 + 1j, 3.0]),
                               [1 + 1j, 3.0], atol=1e-12)


def test_particular_solution_matches_normal_equations():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 32))
        m = int(rng.integers(1, n))
        c = random_complex_matrix(rng, m, n)
        y = random_complex_vector(rng, m)
        x_p = particular_solution(lq_factorize(c), y)
        gram = c @ c.conj().T
        oracle = c.conj().T @ np.linalg.solve(gram, y)
        assert (np.linalg.norm(x_p - oracle)
                <= 1e-8 * max(np.linalg.norm(oracle), 1e-30))


def test_nullspace_basis_examples():
    e1 = lq_factorize([[1.0, 0.0]]).e_n
    assert e1.shape == (2, 1)
    assert abs(abs(e1[1, 0]) - 1.0) < 1e-14 and abs(e1[0, 0]) < 1e-14
    e2 = lq_factorize([[1.0, 2.0]]).e_n
    ref = np.array([2.0, -1.0]) / np.sqrt(5.0)
    assert abs(abs(ref @ e2[:, 0]) - 1.0) < 1e-12


def test_assemble_estimate_reaches_l1_minimum_on_1d_example():
    decomp = lq_factorize([[1.0, 2.0]])
    x_p = particular_solution(decomp, [2.0])
    e_n = decomp.e_n
    target = np.array([0.0, 1.0])
    x_v = e_n.conj().T @ (target - x_p)
    out = x_p + e_n @ x_v
    np.testing.assert_allclose(out, target, atol=1e-12)
    # Line search over the single real nullspace coordinate confirms
    # [0, 1] is the l1-minimal feasible point.
    best = min(np.abs(x_p + e_n[:, 0] * t).sum()
               for t in np.linspace(-3, 3, 2001))
    assert np.abs(out).sum() <= best + 1e-9


def test_assemble_estimate_feasible_for_any_coefficients():
    rng = np.random.default_rng(17)
    c = random_complex_matrix(rng, 5, 12)
    decomp = lq_factorize(c)
    y = random_complex_vector(rng, 5)
    x_p = particular_solution(decomp, y)
    y_norm = np.linalg.norm(y)
    for _ in range(100):
        x_v = random_complex_vector(rng, 7) * 10.0
        x_hat = x_p + decomp.e_n @ x_v
        assert np.linalg.norm(c @ x_hat - y) <= 1e-10 * y_norm


def test_rank_deficient_detection():
    c = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    with pytest.raises(RankDeficient):
        lq_factorize(c)
    with pytest.raises(RankDeficient):
        lq_factorize(np.zeros((2, 4)))


def test_factorize_input_validation():
    with pytest.raises(DimensionMismatch):
        lq_factorize(np.ones((3, 2)))
    with pytest.raises(DimensionMismatch):
        lq_factorize(np.ones(4))
    with pytest.raises(DimensionMismatch):
        lq_factorize(np.ones((0, 4)))
    with pytest.raises(ValueError):
        lq_factorize(np.array([[np.nan, 1.0]]))


def test_particular_solution_input_validation():
    decomp = lq_factorize([[1.0, 2.0]])
    with pytest.raises(DimensionMismatch):
        particular_solution(decomp, [1.0, 2.0])
    with pytest.raises(ValueError):
        particular_solution(decomp, [np.inf])


def test_decomposition_properties_accessors():
    decomp = lq_factorize(np.eye(3, 5))
    assert isinstance(decomp, DenseOperator)
    assert decomp.m == 3 and decomp.n == 5
    assert decomp.e_n.shape == (5, 2)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 16),
       m_frac=st.floats(0.0, 1.0))
def test_factorization_invariants_hypothesis(seed, n, m_frac):
    m = max(1, min(n, int(round(m_frac * n))))
    rng = np.random.default_rng(seed)
    c = random_complex_matrix(rng, m, n)
    decomp = lq_factorize(c)
    q = np.vstack([decomp.q1, decomp.q2])
    l_full = np.hstack([decomp.l1, np.zeros((m, n - m))])
    assert np.linalg.norm(c - l_full @ q) <= 1e-10 * np.linalg.norm(c)
    assert np.linalg.norm(q @ q.conj().T - np.eye(n)) <= 1e-10
