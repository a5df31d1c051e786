"""Sensing operators: the partial 2-D Fourier operator against its dense
matrix, and the solvers that apply it."""

import numpy as np
import pytest
import scipy.linalg

import csbench.harness
from csbench.baselines import CpConfig, chambolle_pock_bp, operator_norm_est
from csbench.errors import DimensionMismatch
from csbench.harness import SolverSettings, run_scene_experiment
from csbench.nkf import solve as nkf_solve
from csbench.nullspace import (lq_factorize, particular_solution,
                               unit_exponent)
from csbench.operators import DenseOperator, PartialFourier2D
from csbench.problem import SensingProblem
from csbench.sensing import (SceneSpec, gen_partial_fourier_2d, gen_scene,
                             measure)

from helpers import random_complex_matrix, random_complex_vector

# (n_r, n_a, keep, seed): square and oblong grids, a grid of one row,
# and one pattern per keep fraction.
SHAPES = [(8, 8, 0.25, 1), (6, 10, 0.5, 2), (1, 12, 0.4, 3),
          (16, 16, 0.25, 4), (5, 7, 0.9, 5)]


def _fourier(n_r, n_a, keep, seed):
    c, kept = gen_partial_fourier_2d(n_r, n_a, keep, seed)
    return c, PartialFourier2D(n_r, n_a, kept)


@pytest.mark.parametrize("shape", SHAPES)
def test_partial_fourier_matches_its_dense_matrix(shape):
    c, op = _fourier(*shape)
    rng = np.random.default_rng(shape[3])
    assert (op.m, op.n) == c.shape
    for _ in range(5):
        x = random_complex_vector(rng, op.n)
        y = random_complex_vector(rng, op.m)
        assert np.abs(op.matvec(x) - c @ x).max() <= 1e-12
        assert np.abs(op.rmatvec(y) - c.conj().T @ y).max() <= 1e-12
        np.testing.assert_array_equal(op.particular(y), op.rmatvec(y))


@pytest.mark.parametrize("shape", SHAPES)
def test_partial_fourier_adjoint_identity(shape):
    _, op = _fourier(*shape)
    rng = np.random.default_rng(10 + shape[3])
    x = random_complex_vector(rng, op.n)
    y = random_complex_vector(rng, op.m)
    lhs = np.vdot(y, op.matvec(x))          # <C x, y>
    rhs = np.vdot(op.rmatvec(y), x)         # <x, C^H y>
    assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(x) * np.linalg.norm(y)


@pytest.mark.parametrize("shape", SHAPES)
def test_partial_fourier_nullspace_maps(shape):
    c, op = _fourier(*shape)
    rng = np.random.default_rng(20 + shape[3])
    d = op.n - op.m
    v = random_complex_vector(rng, d)
    h = random_complex_vector(rng, op.n)
    e_v = op.null_map(v)
    v_norm = np.linalg.norm(v)
    assert abs(np.linalg.norm(e_v) - v_norm) <= 1e-13 * v_norm
    assert np.linalg.norm(op.matvec(e_v)) <= 1e-13 * v_norm
    assert np.linalg.norm(c @ e_v) <= 1e-13 * v_norm
    # h E_N is the row whose product with v is h (E_N v).
    assert (abs(op.null_adjoint(h) @ v - h @ e_v)
            <= 1e-13 * np.linalg.norm(h) * v_norm)
    # The kept and unkept rows together are the whole unitary DFT.
    basis = np.column_stack([op.null_map(e) for e in np.eye(d)])
    full = np.vstack([c, basis.conj().T])
    assert np.abs(full @ full.conj().T - np.eye(op.n)).max() <= 1e-13


def test_partial_fourier_validates_its_indices():
    with pytest.raises(ValueError, match="out of range"):
        PartialFourier2D(2, 2, [0, 4])
    with pytest.raises(ValueError, match="out of range"):
        PartialFourier2D(2, 2, [-1, 2])
    with pytest.raises(ValueError, match="distinct"):
        PartialFourier2D(2, 2, [1, 1])
    with pytest.raises(DimensionMismatch):
        PartialFourier2D(2, 2, [[0, 1]])
    op = PartialFourier2D(2, 2, [3, 0])
    with pytest.raises(DimensionMismatch):
        op.particular(np.ones(3))
    with pytest.raises(ValueError, match="non-finite"):
        op.particular([1.0, np.nan])


@pytest.mark.parametrize("kept", [[1.5, 2.0], [True, False], ["1", "2"]])
def test_partial_fourier_rejects_non_integer_indices(kept):
    with pytest.raises(TypeError, match="integers"):
        PartialFourier2D(2, 2, kept)


def test_partial_fourier_accepts_an_empty_index_list():
    op = PartialFourier2D(2, 2, [])
    assert op.m == 0 and op.kept.dtype == np.int64
    np.testing.assert_array_equal(op.unkept, [0, 1, 2, 3])


def test_dense_operator_matches_its_matrix_and_factorization():
    rng = np.random.default_rng(5)
    c = random_complex_matrix(rng, 6, 10)
    y = random_complex_vector(rng, 6)
    op = lq_factorize(c)
    assert isinstance(op, DenseOperator)
    # Q^H is held once, as the QR returns it; E_N is a view of it.
    assert op.basis.shape == (10, 10)
    assert np.shares_memory(op.e_n, op.basis)
    x = random_complex_vector(rng, 10)
    v = random_complex_vector(rng, 4)
    np.testing.assert_array_equal(op.matvec(x), c @ x)
    np.testing.assert_array_equal(op.rmatvec(y),
                                  np.conjugate(c.T, order="C") @ y)
    # x_p solves against l1 / 2^e, the factor of C's unit-range copy,
    # with y / 2^e; both scalings are exact here.
    e = unit_exponent(c)
    z = scipy.linalg.solve_triangular(op.l1 * 2.0 ** -e, y * 2.0 ** -e,
                                      lower=True)
    np.testing.assert_array_equal(op.particular(y), op.q1.conj().T @ z)
    np.testing.assert_array_equal(op.particular(y),
                                  particular_solution(op, y))
    np.testing.assert_array_equal(op.null_map(v), op.q2.conj().T @ v)
    np.testing.assert_array_equal(op.null_adjoint(x), x @ op.e_n)
    # Unfactored, the operator makes the same factors on first use.
    lazy = DenseOperator(c)
    np.testing.assert_array_equal(lazy.particular(y), op.particular(y))
    np.testing.assert_array_equal(lazy.e_n, op.e_n)


def test_problem_rejects_an_operator_of_another_shape():
    c, op = _fourier(8, 8, 0.25, 1)
    y = np.zeros(c.shape[0])
    with pytest.raises(DimensionMismatch):
        SensingProblem(c[:-1], y[:-1], op)
    problem = SensingProblem(c, y, op)
    assert problem.c is c and problem.operator is op


def test_full_sampling_returns_the_adjoint_from_nkf_and_cp():
    spec = SceneSpec(8, 8, 5, (2, 6, 2, 6), seed=3)
    c, op = _fourier(8, 8, 1.0, 6)
    y = measure(c, gen_scene(spec), 0.1, seed=2)
    problem = SensingProblem(c, y, op)
    want = op.rmatvec(y)
    r_nkf = nkf_solve(problem)
    r_cp = chambolle_pock_bp(problem)
    assert r_nkf.termination == "empty_nullspace"
    assert r_cp.termination == "unique_solution"
    for result in (r_nkf, r_cp):
        assert result.iterations == 0
        np.testing.assert_allclose(result.x_hat, want, rtol=0,
                                   atol=1e-14 * np.linalg.norm(y))


def test_norm_estimate_of_a_pattern_without_frequency_zero():
    # The power iteration starts from the all-ones vector, whose whole
    # spectrum sits in bin 0; without that bin, C 1 is rounding noise.
    c, kept = gen_partial_fourier_2d(8, 8, 0.25, seed=1)
    assert 0 not in kept
    op = PartialFourier2D(8, 8, kept)
    assert np.linalg.norm(op.matvec(np.ones(64))) <= 1e-13
    assert operator_norm_est(c, op=op) == pytest.approx(1.0, abs=1e-12)


def test_cp_reads_no_entry_of_a_structured_problems_matrix():
    # cp iterates on the operator and estimates its norm on it. The
    # matrix is read only when C^H C 1 = 0, which frequency 0 rules out,
    # so a stand-in matrix of huge entries changes no bit.
    c, op = _fourier(8, 8, 0.5, 6)
    assert 0 in op.kept
    x = np.zeros(64, dtype=np.complex128)
    x[[5, 40]] = [1.0, -2.0j]
    config = CpConfig(max_iter=1000)
    real = chambolle_pock_bp(SensingProblem(c, c @ x, op), config)
    problem = SensingProblem(c, c @ x, op)
    object.__setattr__(problem, "c", np.full(c.shape, 2.0 ** 600,
                                             dtype=np.complex128))
    fake = chambolle_pock_bp(problem, config)
    assert real.termination == fake.termination == "converged"
    assert fake.iterations == real.iterations
    np.testing.assert_array_equal(fake.x_hat, real.x_hat)


def test_nkf_scene_iterates_stay_feasible_against_the_dense_matrix():
    spec = SceneSpec(16, 16, 8, (4, 12, 4, 12), seed=2)
    c, op = _fourier(16, 16, 0.25, 7)
    y = measure(c, gen_scene(spec), 0.1, seed=3)
    y_norm = np.linalg.norm(y)
    rels = []

    def audit(x_hat):
        rels.append(np.linalg.norm(c @ x_hat - y) / y_norm)

    result = nkf_solve(SensingProblem(c, y, op), on_iterate=audit)
    assert len(rels) == result.iterations > 0
    assert max(rels) <= 1e-12
    assert np.linalg.norm(c @ result.x_hat - y) / y_norm <= 1e-14


def test_nkf_refines_a_scene_through_its_operator(monkeypatch):
    # Past setup, nkf applies C only through the operator; C x is formed
    # once, by the refinement of the returned estimate.
    spec = SceneSpec(16, 16, 8, (4, 12, 4, 12), seed=2)
    c, op = _fourier(16, 16, 0.25, 7)
    y = measure(c, gen_scene(spec), 0.1, seed=3)
    calls = []
    matvec = op.matvec

    def counted(x):
        calls.append(x)
        return matvec(x)

    monkeypatch.setattr(op, "matvec", counted)
    result = nkf_solve(SensingProblem(c, y, op))
    assert result.iterations > 0 and len(calls) == 1
    spectrum = np.fft.fft2(result.x_hat.reshape(16, 16), norm="ortho")
    assert (np.linalg.norm(spectrum.ravel()[op.kept] - y)
            <= 1e-14 * np.linalg.norm(y))


def test_nkf_scene_reaches_the_dense_solution():
    # The operator and the dense matrix part at rounding, so the two
    # runs need not match step for step, but both reach cp's l1 level.
    spec = SceneSpec(12, 12, 6, (3, 9, 3, 9), seed=4)
    c, op = _fourier(12, 12, 0.3, 8)
    y = measure(c, gen_scene(spec), 0.1, seed=5)
    l1 = {}
    for name, problem in (("op", SensingProblem(c, y, op)),
                          ("dense", SensingProblem(c, y))):
        l1[name] = np.abs(nkf_solve(problem).x_hat).sum()
    l1_cp = np.abs(chambolle_pock_bp(SensingProblem(c, y)).x_hat).sum()
    for value in l1.values():
        assert value <= 1.01 * l1_cp


def test_scene_study_gives_nkf_and_cp_the_fourier_operator(monkeypatch):
    seen = []
    real = csbench.harness.solve_one
    generated = []
    gen = csbench.harness.gen_partial_fourier_2d

    def record_gen(*args):
        c, kept = gen(*args)
        generated.append((c, kept))
        return c, kept

    def record_solve(solver, problem, settings, s_hint=None):
        seen.append((solver, problem))
        return real(solver, problem, settings, s_hint)

    monkeypatch.setattr(csbench.harness, "gen_partial_fourier_2d",
                        record_gen)
    monkeypatch.setattr(csbench.harness, "solve_one", record_solve)
    scene = SceneSpec(n_r=8, n_a=8, n_scatterers=2,
                      target_region=(2, 6, 2, 6), seed=0)
    run_scene_experiment(scene, 0.5, ("nkf", "cp", "omp"), (0,),
                         SolverSettings())
    (c, kept), = generated
    assert [sv for sv, _ in seen] == ["nkf", "cp", "omp"]
    for _, problem in seen:
        assert problem.c is c
        assert isinstance(problem.operator, PartialFourier2D)
        np.testing.assert_array_equal(problem.operator.kept, kept)
