"""Chambolle-Pock and OMP reference solvers."""

import dataclasses
import math

import numpy as np
import pytest

from csbench.baselines import (CP_BALANCE, CP_STOP_TOL, CpConfig, OmpConfig,
                               chambolle_pock_bp, omp, operator_norm_est,
                               soft_threshold)
from csbench.errors import (NotConverged, NumericalFailure, RankDeficient,
                            SolveFailed)
from csbench.harness import DtGridConfig, make_instance, run_dt_grid
from csbench.nkf import solve as nkf_solve
from csbench.operators import DenseOperator, PartialFourier2D
from csbench.problem import SensingProblem
from csbench.sensing import (SceneSpec, gen_partial_fourier_2d, gen_scene,
                             measure)

from helpers import load_config, random_complex_matrix, random_complex_vector


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


def _textbook_soft_threshold(z, tau):
    # The soft threshold as a guarded divide and a clamp at zero.
    mag = np.abs(z)
    return np.maximum(1.0 - tau / np.where(mag > 0, mag, 1.0), 0.0) * z


def _bits(a):
    return np.asarray(a, dtype=np.complex128).view(np.uint64)


@pytest.mark.parametrize("n", [64, 256, 576])
def test_soft_threshold_matches_the_textbook_formula_bit_for_bit(n):
    rng = np.random.default_rng(n)
    z = random_complex_vector(rng, n)
    z[:4] = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0)]
    mag = np.abs(z)
    # At the median and the largest |z|, entries of z sit exactly on
    # the boundary |z| = tau of the clamp; entries 4 to 7 do at every tau.
    for tau in (1e-3, 0.5, float(np.median(mag)), float(mag.max()), 10.0):
        w = z.copy()
        w[4:8] = [tau, -tau, 1j * tau, -1j * tau]
        assert np.all(np.abs(w[4:8]) == tau)
        np.testing.assert_array_equal(
            _bits(soft_threshold(w, tau)),
            _bits(_textbook_soft_threshold(w, tau)))


def test_soft_threshold_at_zero_tau_returns_z_unchanged():
    z = np.array([0.0, -0.0, 1.5 - 2j, complex(0.0, -0.0), 1e-300j])
    with np.errstate(all="raise"):
        out = soft_threshold(z, 0.0)
    np.testing.assert_array_equal(out, z)
    np.testing.assert_array_equal(_bits(out),
                                  _bits(_textbook_soft_threshold(z, 0.0)))


def _textbook_cp(c, y):
    """cp with the same steps and stop rule, written as three m x n
    products per iteration: C x_bar formed directly, C^H p through a
    fresh c.conj().T, and the residual from its own C x."""
    m, n = c.shape
    norm_est = operator_norm_est(c)
    y_scale = float(np.linalg.norm(y))
    beta = CP_BALANCE * y_scale
    tau = 0.99 * beta / norm_est
    sigma = 0.99 / (beta * norm_est)
    x = np.zeros(n, dtype=np.complex128)
    x_bar = x.copy()
    p = np.zeros(m, dtype=np.complex128)
    for iterations in range(1, CpConfig().max_iter + 1):
        p = p + sigma * (c @ x_bar - y)
        x_prev = x
        x = _textbook_soft_threshold(x - tau * (c.conj().T @ p), tau)
        dx = x - x_prev
        x_bar = x + dx
        residual = float(np.linalg.norm(c @ x - y)) / y_scale
        change = (float(np.linalg.norm(dx))
                  / max(float(np.linalg.norm(x)), 1e-300))
        if max(residual, change) < CP_STOP_TOL:
            return x, iterations
    raise AssertionError("the reference loop hit the iteration cap")


def _small_scene_problem():
    spec = SceneSpec(8, 8, 3, (2, 6, 2, 6), seed=5)
    c, _ = gen_partial_fourier_2d(8, 8, 0.5, seed=6)
    return c, measure(c, gen_scene(spec), 0.0, seed=7)


@pytest.mark.parametrize("instance", [
    (64, 32, 4, 0), (64, 48, 6, 1), (128, 64, 5, 2), (128, 96, 12, 3),
    (256, 77, 5, 4), (256, 230, 5, 5), "scene"])
def test_cp_matches_the_textbook_three_product_loop(instance):
    if instance == "scene":
        c, y = _small_scene_problem()
    else:
        c, _, y = make_instance(*instance)
    result = chambolle_pock_bp(SensingProblem(c, y))
    x_ref, iterations = _textbook_cp(c, y)
    assert result.termination == "converged"
    assert result.iterations == iterations
    assert (np.linalg.norm(result.x_hat - x_ref)
            <= 1e-12 * np.linalg.norm(x_ref))


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(8)
    c = random_complex_matrix(rng, 40, 60)
    est = operator_norm_est(c)
    exact = np.linalg.svd(c, compute_uv=False)[0]
    assert est == pytest.approx(exact, rel=1e-4)
    # The step count and tolerance are fixed, not parameters.
    with pytest.raises(TypeError):
        operator_norm_est(c, 10)


@pytest.mark.parametrize("k", [-520, 520])
def test_operator_norm_scales_exactly_with_the_matrix(k):
    # At 2^520, C^H C v overflows unless the iteration runs on C in unit
    # range; a power of two then scales the estimate exactly.
    c, _, _ = make_instance(32, 16, 2, seed=5)
    est = operator_norm_est(c * 2.0 ** k)
    assert est == math.ldexp(operator_norm_est(c), k)
    assert est / 2.0 ** k == pytest.approx(np.linalg.norm(c, 2), rel=1e-4)


def test_operator_norm_zero_matrix():
    assert operator_norm_est(np.zeros((3, 5))) == 0.0


def _pairwise_difference(rows):
    # Row i is +1 at column 2i and -1 at column 2i + 1, so C 1 = 0.
    c = np.zeros((rows, 2 * rows))
    c[np.arange(rows), 2 * np.arange(rows)] = 1.0
    c[np.arange(rows), 2 * np.arange(rows) + 1] = -1.0
    return c


def test_operator_norm_when_ones_is_in_the_nullspace():
    # The power iteration starts from the all-ones vector, which this
    # nonzero matrix maps to zero.
    c = _pairwise_difference(32)
    assert operator_norm_est(c) == np.linalg.norm(c, 2)
    assert operator_norm_est(c) == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_cp_converges_when_ones_is_in_the_nullspace():
    c = _pairwise_difference(32)
    x = np.zeros(64)
    x[[5, 40]] = [1.0, -2.0]
    y = c @ x
    result = chambolle_pock_bp(SensingProblem(c, y))
    assert result.termination == "converged"
    assert np.all(np.isfinite(result.x_hat))
    assert np.linalg.norm(c @ result.x_hat - y) <= 1e-6 * np.linalg.norm(y)
    # Each pair needs |x_2i| + |x_2i+1| >= |y_i|, so x has the least l1
    # norm; it is not the only such point, and cp splits each spike
    # evenly over its pair.
    assert np.sum(np.abs(result.x_hat)) == pytest.approx(3.0, rel=1e-6)


@pytest.mark.parametrize("solver", [chambolle_pock_bp, nkf_solve])
def test_zero_matrix_raises_at_once(solver):
    with pytest.raises(RankDeficient):
        solver(SensingProblem(np.zeros((4, 8)), np.ones(4)))


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
    assert isinstance(info.value, SolveFailed)
    result = info.value.result
    assert result is not None
    assert result.iterations == 1
    assert result.termination == "max_iter"


class _NanOperator(DenseOperator):
    """C whose products come out NaN, as a broken operator's would."""

    def matvec(self, x):
        return super().matvec(x) * np.nan


def test_cp_fails_at_once_on_a_non_finite_residual():
    # The power iteration sees only NaN products, so the steps are not
    # finite and the first iterate's residual is NaN; cp must not run
    # its cap on NaN iterates.
    c, _, y = make_instance(32, 16, 2, 5)
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericalFailure, match="residual nan") as info:
        chambolle_pock_bp(SensingProblem(c, y, _NanOperator(c)))
    result = info.value.result
    assert result.termination == "numerical_failure"
    assert result.iterations == 1


def test_cp_recovers_sparse_signal_and_matches_nkf():
    c, x, y = make_instance(128, 64, 5, seed=0)
    problem = SensingProblem(c, y)
    r_cp = chambolle_pock_bp(problem)
    assert np.linalg.norm(r_cp.x_hat - x) <= 1e-3
    resid = np.linalg.norm(c @ r_cp.x_hat - y) / np.linalg.norm(y)
    assert resid < 1e-6
    r_nkf = nkf_solve(problem)
    assert np.linalg.norm(r_cp.x_hat - r_nkf.x_hat) <= 2e-3


@pytest.mark.parametrize("k", [-520, -30, -11, -1, 1, 9, 30, 520])
@pytest.mark.parametrize("scaled", ["y", "c"])
def test_cp_is_equivariant_under_power_of_two_scaling(scaled, k):
    # Scaling y by 2^k scales x_hat by 2^k, and scaling C by 2^k scales
    # it by 2^-k; both are exact in floating point, so the iterates and
    # the count are too. At 2^+-520, ||C||^2 and ||y||^2 would overflow
    # or underflow unless C and y were scaled into unit range first.
    c, x, y = make_instance(128, 64, 5, seed=3)
    base = chambolle_pock_bp(SensingProblem(c, y))
    factor = 2.0 ** k
    if scaled == "y":
        result = chambolle_pock_bp(SensingProblem(c, y * factor))
        expected = base.x_hat * factor
    else:
        result = chambolle_pock_bp(SensingProblem(c * factor, y))
        expected = base.x_hat / factor
    assert result.termination == base.termination == "converged"
    assert result.iterations == base.iterations
    np.testing.assert_array_equal(result.x_hat, expected)


def test_cp_solves_a_problem_whose_norm_overflows():
    # At C 2^1023 every entry is finite but ||C||_2 is not; cp estimates
    # the norm of the unit-range C it iterates on, so scaling C and y
    # alike leaves x_hat as it is, bit for bit.
    c, _, y = make_instance(32, 16, 2, seed=5)
    big = 2.0 ** 1023
    assert np.all(np.isfinite(c * big))
    with np.errstate(over="ignore"):
        assert operator_norm_est(c * big) == np.inf
    base = chambolle_pock_bp(SensingProblem(c, y))
    result = chambolle_pock_bp(SensingProblem(c * big, y * big))
    assert result.termination == base.termination == "converged"
    assert result.iterations == base.iterations == 123
    np.testing.assert_array_equal(result.x_hat, base.x_hat)
    # A square system is solved on the same unit-range copy of C.
    c, _, y = make_instance(24, 24, 3, seed=2)
    base = chambolle_pock_bp(SensingProblem(c, y))
    result = chambolle_pock_bp(SensingProblem(c * big, y * big))
    assert result.termination == base.termination == "unique_solution"
    np.testing.assert_array_equal(result.x_hat, base.x_hat)


@pytest.mark.parametrize("k", [-1050, -1060, -1066])
def test_cp_solves_a_subnormal_problem_as_its_unscaled_one(k):
    # Integer C and y times 2^k are exact subnormals. cp copies C once
    # into unit range, so it iterates as on C itself: a C applied as
    # stored would lose bits in every product.
    rng = np.random.default_rng(0)
    c = rng.integers(-4, 5, (12, 24)) + 1j * rng.integers(-4, 5, (12, 24))
    x = np.zeros(24, dtype=complex)
    x[[3, 17]] = [2 - 1j, -3]
    y = c @ x
    base = chambolle_pock_bp(SensingProblem(c, y))
    factor = 2.0 ** k
    assert np.all(np.abs(c * factor) < np.finfo(float).tiny)
    result = chambolle_pock_bp(SensingProblem(c * factor, y * factor))
    assert result.termination == base.termination == "converged"
    assert result.iterations == base.iterations
    np.testing.assert_array_equal(result.x_hat, base.x_hat)


@pytest.mark.parametrize("solver", [chambolle_pock_bp, nkf_solve])
def test_square_system_fails_when_x_hat_overflows(solver):
    # x = y / C is about 1e310 for a subnormal C; the result is handed
    # back with the failure rather than returned with infinities.
    c, _, y = make_instance(24, 24, 3, seed=2)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalFailure, match="x_hat overflows") as info:
        solver(SensingProblem(c * 1e-310, y))
    result = info.value.result
    assert result.iterations == 0
    assert result.termination in ("unique_solution", "empty_nullspace")
    assert not np.all(np.isfinite(result.x_hat))


def test_cp_fails_when_x_hat_overflows():
    # cp converges on the unit-range copy of C; x_hat overflows only
    # when it is scaled back.
    c, _, y = make_instance(32, 16, 2, seed=5)
    with np.errstate(over="ignore"), \
            pytest.raises(NumericalFailure, match="x_hat overflows") as info:
        chambolle_pock_bp(SensingProblem(c * 1e-310, y))
    result = info.value.result
    assert result.termination == "converged"
    assert result.iterations > 0


# Past about 2^+-512, ||y||^2 overflows or underflows unless y is scaled.
UNITS_OF_Y = [2.0 ** -10, 2.0 ** 20, 2.0 ** 560, 2.0 ** -560, 1e160, 1e-170]


@pytest.mark.parametrize("factor", UNITS_OF_Y)
def test_cp_converges_whatever_the_units_of_y(factor):
    c, x, y = make_instance(128, 64, 5, seed=3)
    result = chambolle_pock_bp(SensingProblem(c, y * factor))
    assert result.termination == "converged"
    assert np.linalg.norm(result.x_hat / factor - x) <= 1e-3


def test_cp_zero_measurements_return_zero_at_once():
    # A tiny C would put the dual step 1 / (||y|| ||C||) out of range
    # if it were formed for y = 0.
    c, _, _ = make_instance(128, 64, 5, seed=3)
    with np.errstate(all="raise"):
        result = chambolle_pock_bp(
            SensingProblem(c * 2.0 ** -40, np.zeros(64)))
    assert result.iterations == 0
    assert result.termination == "converged"
    np.testing.assert_array_equal(result.x_hat, np.zeros(128))


def test_cp_reaches_no_cap_on_a_small_grid():
    grid = run_dt_grid(DtGridConfig(n=64, steps=8, trials_per_cell=2,
                                    solvers=("cp",), seed_base=0))
    failures = [(cell.delta, cell.rho) for row in grid for cell in row
                if cell.per_solver["cp"].failures]
    assert failures == []


def test_cp_keeps_no_l1_trace():
    c, x, y = make_instance(32, 16, 2, seed=13)
    result = chambolle_pock_bp(SensingProblem(c, y))
    assert result.termination == "converged"
    assert result.iterations > 0
    assert result.l1_trace == []


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


def test_cp_config_validation_and_from_dict(tmp_path):
    with pytest.raises(ValueError):
        CpConfig(max_iter=0)
    # A float or bool cap fails here, not after running to its ceiling.
    with pytest.raises(TypeError):
        CpConfig(max_iter=2.5)
    with pytest.raises(TypeError):
        CpConfig(max_iter=True)
    with pytest.raises(TypeError):
        CpConfig(stop_tol=1e-4)
    config = load_config(tmp_path, "cp", {"max_iter": 10})
    assert config == CpConfig(max_iter=10)
    with pytest.raises(ValueError, match="'step'"):
        load_config(tmp_path, "cp", {"step": 1.0})
    # The steps are derived from ||y||, CP_BALANCE and the operator norm,
    # and the stop tolerance is CP_STOP_TOL; a config that sets one fails
    # by name rather than being ignored.
    for key in ("tau", "sigma", "theta", "balance", "stop_tol"):
        with pytest.raises(ValueError, match=f"'{key}'"):
            load_config(tmp_path, "cp", {key: 0.5})


def test_cp_config_keys_map_one_to_one_onto_fields(tmp_path):
    # A cp config file sets each CpConfig field under its own name, and
    # takes no other key.
    names = [f.name for f in dataclasses.fields(CpConfig)]
    assert names == ["max_iter"]
    for name in names:
        assert getattr(load_config(tmp_path, "cp", {name: 7}), name) == 7
    assert (load_config(tmp_path, "cp", dict.fromkeys(names, 7))
            == CpConfig(7))
    with pytest.raises(ValueError, match="'max_iters'"):
        load_config(tmp_path, "cp", {"max_iters": 7})


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


@pytest.mark.parametrize("factor", UNITS_OF_Y)
def test_omp_recovers_whatever_the_units_of_y(factor):
    c, x, y = make_instance(128, 64, 5, seed=3)
    base, base_support = omp(SensingProblem(c, y))
    result, support = omp(SensingProblem(c, y * factor))
    assert result.termination == "residual_tol"
    assert support == base_support
    assert np.linalg.norm(result.x_hat / factor - x) <= 1e-6
    if math.frexp(factor)[0] == 0.5:
        # A power of two scales the atoms' coefficients exactly.
        np.testing.assert_array_equal(result.x_hat, base.x_hat * factor)


@pytest.mark.parametrize("k", [-520, -30, 9, 520])
def test_omp_is_equivariant_under_power_of_two_scaling_of_c(k):
    # Column norms and the QR run on C in unit range, so 2^+-520 neither
    # overflows nor underflows, and x_hat scales by 2^-k exactly.
    c, x, y = make_instance(128, 64, 5, seed=3)
    base, base_support = omp(SensingProblem(c, y))
    result, support = omp(SensingProblem(c * 2.0 ** k, y))
    assert support == base_support
    assert result.iterations == base.iterations
    assert result.termination == base.termination == "residual_tol"
    np.testing.assert_array_equal(result.x_hat, base.x_hat / 2.0 ** k)


def test_omp_fails_when_x_hat_overflows():
    # x = y / C is about 1e310 for a subnormal C.
    c, _, y = make_instance(32, 16, 2, seed=5)
    with np.errstate(over="ignore"), \
            pytest.raises(NumericalFailure, match="overflows") as info:
        omp(SensingProblem(c * 1e-310, y))
    assert info.value.result.iterations == 2


def _noisy_scene(n, seed):
    spec = SceneSpec(n, n, 10, (n // 4, 3 * n // 4, n // 4, 3 * n // 4),
                     seed=seed)
    c, kept = gen_partial_fourier_2d(n, n, 0.25, seed=seed + 1)
    y = measure(c, gen_scene(spec), 0.1, seed=seed + 2)
    return c, y, PartialFourier2D(n, n, kept)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_omp_through_the_scene_operator_picks_the_dense_support(seed):
    c, y, op = _noisy_scene(24, seed)
    dense, dense_support = omp(SensingProblem(c, y))
    result, support = omp(SensingProblem(c, y, op))
    assert support == dense_support
    assert result.termination == dense.termination
    np.testing.assert_allclose(result.x_hat, dense.x_hat, rtol=0,
                               atol=1e-10 * np.abs(dense.x_hat).max())


class _CountingOperator(PartialFourier2D):
    def __init__(self, *args):
        super().__init__(*args)
        self.calls = {"matvec": 0, "rmatvec": 0}

    def matvec(self, x):
        self.calls["matvec"] += 1
        return super().matvec(x)

    def rmatvec(self, y):
        self.calls["rmatvec"] += 1
        return super().rmatvec(y)


@pytest.mark.parametrize("max_atoms", [None, 7])
def test_omp_applies_the_operator_once_per_atom(max_atoms):
    c, y, op = _noisy_scene(8, 3)
    counting = _CountingOperator(op.n_r, op.n_a, op.kept)
    result, support = omp(SensingProblem(c, y, counting),
                          OmpConfig(max_atoms=max_atoms))
    # The noise keeps the residual up until the budget is spent.
    assert len(support) == result.iterations == (max_atoms or c.shape[0])
    assert counting.calls == {"matvec": 0, "rmatvec": result.iterations}


def test_omp_budget_cap():
    c, x, y = make_instance(32, 16, 4, seed=2)
    result, support = omp(SensingProblem(c, y), OmpConfig(max_atoms=2))
    assert result.iterations == 2
    assert result.termination == "max_atoms"
    assert result.l1_trace == []
    assert np.count_nonzero(result.x_hat) == 2


def test_omp_coefficients_match_least_squares_on_support():
    rng = np.random.default_rng(17)
    c = random_complex_matrix(rng, 16, 32)
    y = random_complex_vector(rng, 16)
    result, support = omp(SensingProblem(c, y), OmpConfig(max_atoms=8))
    assert len(support) == 8
    ref = np.linalg.lstsq(c[:, support], y, rcond=None)[0]
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


def test_omp_config_validation_and_from_dict(tmp_path):
    with pytest.raises(ValueError):
        OmpConfig(max_atoms=-1)
    # A float or bool budget fails here, not in omp's array shapes.
    with pytest.raises(TypeError):
        OmpConfig(max_atoms=2.5)
    with pytest.raises(TypeError):
        OmpConfig(max_atoms=False)
    # The residual stop is OMP_RESIDUAL_TOL, not a field.
    with pytest.raises(TypeError):
        OmpConfig(residual_tol=1e-6)
    config = load_config(tmp_path, "omp", {"max_atoms": 3})
    assert config == OmpConfig(max_atoms=3)
    assert [f.name for f in dataclasses.fields(OmpConfig)] == ["max_atoms"]
    for key in ("atoms", "residual_tol"):
        with pytest.raises(ValueError, match=f"'{key}'"):
            load_config(tmp_path, "omp", {key: 3})
