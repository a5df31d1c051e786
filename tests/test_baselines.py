"""Chambolle-Pock and OMP reference solvers."""

import numpy as np
import pytest

from csbench.baselines import (CpConfig, OmpConfig, chambolle_pock_bp, omp,
                               operator_norm_est, soft_threshold)
from csbench.errors import NotConverged
from csbench.harness import make_instance
from csbench.nkf import solve as nkf_solve
from csbench.problem import SensingProblem

from helpers import random_complex_matrix, random_complex_vector


def test_soft_threshold_examples():
    assert soft_threshold(3 + 4j, 5.0) == 0.0
    assert soft_threshold(3 + 4j, 2.5) == pytest.approx(1.5 + 2j, rel=1e-15)
    assert soft_threshold(-2.0, 1.0) == pytest.approx(-1.0, rel=1e-15)
    z = 0.3 - 0.7j
    assert soft_threshold(z, 0.0) == z


def test_soft_threshold_array_and_contraction():
    rng = np.random.default_rng(3)
    z = random_complex_vector(rng, 50)
    w = random_complex_vector(rng, 50)
    for tau in (0.1, 1.0, 5.0):
        out_z = soft_threshold(z, tau)
        out_w = soft_threshold(w, tau)
        # elementwise shrink: never increases magnitude, keeps phase
        assert np.all(np.abs(out_z) <= np.abs(z) + 1e-15)
        # proximal operators are 1-Lipschitz
        assert np.linalg.norm(out_z - out_w) <= np.linalg.norm(z - w) + 1e-12


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(8)
    c = random_complex_matrix(rng, 40, 60)
    est = operator_norm_est(c)
    exact = np.linalg.svd(c, compute_uv=False)[0]
    assert est == pytest.approx(exact, rel=1e-4)


def test_operator_norm_zero_matrix():
    assert operator_norm_est(np.zeros((3, 5))) == 0.0


def test_cp_1d_example():
    result = chambolle_pock_bp(SensingProblem([[1.0, 2.0]], [2.0]))
    assert np.linalg.norm(result.x_hat - np.array([0.0, 1.0])) <= 1e-3
    assert result.termination == "converged"


def test_cp_unitary_system():
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(random_complex_matrix(rng, 6, 6))
    y = random_complex_vector(rng, 6)
    result = chambolle_pock_bp(SensingProblem(q, y))
    assert np.linalg.norm(q @ result.x_hat - y) <= 1e-5 * np.linalg.norm(y)
    np.testing.assert_allclose(result.x_hat, q.conj().T @ y, atol=1e-4)


def test_cp_not_converged_attaches_result():
    c, x, y = make_instance(32, 8, 2, seed=4)
    with pytest.raises(NotConverged) as info:
        chambolle_pock_bp(SensingProblem(c, y), CpConfig(max_iter=1))
    result = info.value.result
    assert result is not None
    assert result.iterations == 1
    assert result.termination == "max_iter"


def test_cp_rejects_oversized_steps():
    with pytest.raises(ValueError):
        chambolle_pock_bp(SensingProblem([[1.0, 2.0]], [2.0]),
                          CpConfig(tau=10.0, sigma=10.0))


def test_cp_recovers_sparse_signal_and_matches_nkf():
    c, x, y = make_instance(128, 64, 5, seed=0)
    problem = SensingProblem(c, y)
    r_cp = chambolle_pock_bp(problem)
    assert np.linalg.norm(r_cp.x_hat - x) <= 1e-3
    resid = np.linalg.norm(c @ r_cp.x_hat - y) / np.linalg.norm(y)
    assert resid < 1e-6
    r_nkf = nkf_solve(problem)
    assert np.linalg.norm(r_cp.x_hat - r_nkf.x_hat) <= 2e-3


def test_cp_square_system_returns_unique_solution():
    c, x, y = make_instance(24, 24, 3, seed=2)
    problem = SensingProblem(c, y)
    result = chambolle_pock_bp(problem)
    assert result.iterations == 0
    assert result.termination == "unique_solution"
    r_nkf = nkf_solve(problem)
    assert r_nkf.termination == "empty_nullspace"
    assert np.abs(result.x_hat - r_nkf.x_hat).max() <= 1e-12
    assert np.linalg.norm(result.x_hat - x) <= 1e-10 * np.linalg.norm(x)


def test_cp_singular_square_system_iterates():
    rng = np.random.default_rng(17)
    c = random_complex_matrix(rng, 6, 6)
    c[5] = c[4]
    y = c @ random_complex_vector(rng, 6)
    try:
        result = chambolle_pock_bp(SensingProblem(c, y))
    except NotConverged as exc:
        result = exc.result
    assert result.iterations > 0
    assert result.termination in ("converged", "max_iter")


def test_cp_config_validation_and_from_dict():
    with pytest.raises(ValueError):
        CpConfig(tau=0.0)
    with pytest.raises(ValueError):
        CpConfig(theta=1.5)
    with pytest.raises(ValueError):
        CpConfig(max_iter=0)
    with pytest.raises(ValueError):
        CpConfig(stop_tol=0.0)
    config = CpConfig.from_dict({"tau": 0.5, "sigma": 0.25, "max_iter": 10})
    assert config.tau == 0.5 and config.sigma == 0.25
    with pytest.raises(ValueError):
        CpConfig.from_dict({"step": 1.0})


def test_omp_identity_single_pick():
    result, support = omp(SensingProblem(np.eye(2), [0.0, 5.0]))
    assert support == [1]
    assert result.iterations == 1
    assert result.termination == "residual_tol"
    np.testing.assert_allclose(result.x_hat, [0.0, 5.0], atol=1e-12)


def test_omp_matched_filter_finds_single_atom():
    c, x, y = make_instance(32, 16, 1, seed=21)
    result, support = omp(SensingProblem(c, y))
    true_idx = int(np.flatnonzero(np.abs(x) > 0)[0])
    assert support == [true_idx]
    assert result.termination == "residual_tol"
    np.testing.assert_allclose(result.x_hat, x, atol=1e-10)


def test_omp_residual_orthogonal_to_support():
    c, x, y = make_instance(64, 32, 4, seed=6)
    result, support = omp(SensingProblem(c, y))
    resid = y - c @ result.x_hat
    for j in support:
        assert abs(c[:, j].conj() @ resid) <= 1e-10


def test_omp_exact_recovery_default_budget():
    c, x, y = make_instance(128, 64, 5, seed=0)
    result, support = omp(SensingProblem(c, y))
    true_support = set(np.flatnonzero(np.abs(x) > 0).tolist())
    assert true_support <= set(support)
    assert result.termination == "residual_tol"
    assert np.linalg.norm(result.x_hat - x) <= 1e-6


def test_omp_budget_cap():
    c, x, y = make_instance(32, 16, 4, seed=2)
    result, support = omp(SensingProblem(c, y), OmpConfig(max_atoms=2))
    assert result.iterations == 2
    assert result.termination == "max_atoms"
    assert len(result.l1_trace) == 2


def test_omp_coefficients_match_least_squares_on_support():
    rng = np.random.default_rng(17)
    c = random_complex_matrix(rng, 16, 32)
    y = random_complex_vector(rng, 16)
    result, support = omp(SensingProblem(c, y), OmpConfig(max_atoms=8))
    assert len(support) == 8
    for j in range(8):
        ref = np.linalg.lstsq(c[:, support[:j + 1]], y, rcond=None)[0]
        assert result.l1_trace[j] == pytest.approx(np.sum(np.abs(ref)),
                                                   rel=1e-10)
    np.testing.assert_allclose(result.x_hat[support], ref, rtol=0,
                               atol=1e-10 * np.abs(ref).max())
    assert np.count_nonzero(result.x_hat) == 8


def test_omp_zero_budget():
    c, x, y = make_instance(8, 4, 1, seed=1)
    result, support = omp(SensingProblem(c, y), OmpConfig(max_atoms=0))
    assert support == []
    assert result.iterations == 0
    assert result.termination == "max_atoms"
    np.testing.assert_array_equal(result.x_hat, np.zeros(8))


def test_omp_budget_above_rank_rejected():
    c, x, y = make_instance(8, 4, 1, seed=1)
    with pytest.raises(ValueError):
        omp(SensingProblem(c, y), OmpConfig(max_atoms=5))


def test_omp_zero_column_rejected():
    c = np.eye(3).astype(complex)
    c[:, 1] = 0.0
    with pytest.raises(ValueError):
        omp(SensingProblem(c, [1.0, 2.0, 3.0]))


def test_omp_dependent_column_stops():
    s = 1 / np.sqrt(2)
    c = np.array([[1.0, 0.0, s],
                  [0.0, 1.0, s],
                  [0.0, 0.0, 0.0]], dtype=complex)
    result, support = omp(SensingProblem(c, [1.0, 2.0, 5.0]))
    assert result.termination == "dependent_column"
    assert len(support) == 2


def test_omp_config_validation_and_from_dict():
    with pytest.raises(ValueError):
        OmpConfig(max_atoms=-1)
    with pytest.raises(ValueError):
        OmpConfig(residual_tol=-1.0)
    config = OmpConfig.from_dict({"max_atoms": 3, "residual_tol": 1e-6})
    assert config.max_atoms == 3
    with pytest.raises(ValueError):
        OmpConfig.from_dict({"atoms": 3})
