"""Kalman filter core: norm observation, predict/update cycle, solve."""

import numpy as np
import pytest
import scipy.linalg

import csbench.nkf
from csbench.baselines import chambolle_pock_bp
from csbench.errors import NumericalFailure
from csbench.harness import make_instance
from csbench.nkf import (HISTORY, NkfConfig, NkfState,
                         l1_jacobian_row, l1_norm, predict, solve, update,
                         window_is_flat)
from csbench.nullspace import lq_factorize, particular_solution
from csbench.problem import SensingProblem
from csbench.schedule import (GAMMA, MODE_AITKEN, MODE_GEOMETRIC,
                              ScheduleState, next_target)

from helpers import (covariance, load_config, random_complex_matrix,
                     random_complex_vector)


def test_l1_norm_examples():
    assert l1_norm([3 + 4j, 0.0]) == pytest.approx(5.0, abs=1e-14)
    assert l1_norm([1.0, -1.0, 1j]) == pytest.approx(3.0, abs=1e-14)
    assert l1_norm([]) == 0.0


def test_l1_jacobian_examples():
    row = l1_jacobian_row([3 + 4j])
    np.testing.assert_allclose(row, [(3 - 4j) / 5], atol=1e-14)
    assert l1_jacobian_row([0.0])[0] == 0.0
    np.testing.assert_allclose(l1_jacobian_row([2.0, 5.0, 0.25]),
                               [1.0, 1.0, 1.0], atol=1e-14)


def test_l1_jacobian_zero_guard():
    # Only an exact zero is zeroed; however small, a nonzero entry keeps
    # its unit phase.
    row = l1_jacobian_row([1e-13, 0.0, 1.0])
    np.testing.assert_array_equal(row, [1.0, 0.0, 1.0])
    np.testing.assert_array_equal(l1_jacobian_row([-2.0 ** -1000 * 1j]),
                                  [1j])


def test_l1_jacobian_subnormal_entries_keep_unit_phase():
    # From 2^-1024 down the reciprocal 1 / |x_i| overflows; the row
    # still holds each entry's exact unit phase.
    row = l1_jacobian_row([5.5e-309, 2.0 ** -1024, 5e-324, -5e-324j,
                           3e-320 + 4e-320j])
    np.testing.assert_array_equal(row[:4], [1.0, 1.0, 1.0, 1j])
    np.testing.assert_allclose(row[4], 0.6 - 0.8j, rtol=1e-15)
    np.testing.assert_array_equal(np.abs(row), 1.0)


def test_l1_jacobian_takes_a_given_magnitude():
    rng = np.random.default_rng(6)
    x = random_complex_vector(rng, 9)
    x[3] = 0.0
    np.testing.assert_array_equal(l1_jacobian_row(x, np.abs(x)),
                                  l1_jacobian_row(x))


def test_l1_jacobian_is_first_order_model():
    rng = np.random.default_rng(5)
    x = random_complex_vector(rng, 6)
    row = l1_jacobian_row(x)
    delta = random_complex_vector(rng, 6) * 1e-7
    predicted = l1_norm(x) + np.real(row @ delta)
    assert abs(l1_norm(x + delta) - predicted) < 1e-12


def test_window_is_flat_needs_the_whole_window_flat():
    # A period-5 oscillation: the values five steps apart agree exactly,
    # while the window between them swings by 2e-3.
    cycle = [1.0, 1.001, 0.999, 1.0005, 0.9995]
    trace = cycle * 3
    assert trace[-1] == trace[-6]
    assert not window_is_flat(trace, 5, 1e-6)
    flat = [2.0, 2.0 + 1e-7, 2.0 - 1e-7, 2.0 + 5e-7, 2.0, 2.0 - 1e-6]
    assert window_is_flat(flat, 5, 1e-6)
    assert not window_is_flat(flat[:-1] + [2.0 - 4e-6], 5, 1e-6)
    # Only the last window + 1 values count.
    assert window_is_flat([5.0] + flat, 5, 1e-6)


@pytest.mark.parametrize("trace,flat", [
    ([1.0, 1.001, 0.999, 1.0005, 0.9995] * 3, False),
    ([2.0, 2.0 + 1e-7, 2.0 - 1e-7, 2.0 + 5e-7, 2.0, 2.0 - 1e-6], True),
    ([1.0, 1.0 - 5e-6, 1.0, 1.0, 1.0, 1.0], False),
    ([0.0] * 6, True),
])
def test_window_is_flat_has_no_units(trace, flat):
    # The range is compared with the window's own oldest value and with
    # no absolute floor, so the verdict is the same in any units.
    for scale in (1.0, 2.0 ** -1000, 2.0 ** 1000):
        assert window_is_flat([v * scale for v in trace], 5, 1e-6) is flat


def _rest_state(x_p, d):
    # The state ``solve`` starts from: a zero covariance, no downdates.
    return NkfState(x_v=np.zeros(d, dtype=complex), x=x_p,
                    l_emp=l1_norm(x_p))


def test_predict_from_rest_state():
    state = _rest_state(np.ones(3, dtype=complex), 3)
    held = state.held
    x_v = state.x_v.copy()
    predict(state, 1.0)
    np.testing.assert_array_equal(state.x_v, x_v)
    np.testing.assert_array_equal(covariance(state), np.eye(3))
    assert state.held is held


def test_predict_zero_process_noise_keeps_covariance():
    # P = 2 I - e_0 e_0^H = diag(1, 2), one downdate under the base.
    state = NkfState(x_v=np.ones(2, dtype=complex),
                     x=np.zeros(2, dtype=complex), l_emp=0.0, k=1,
                     sigma=2.0)
    state.held[0] = [1.0, 0.0]
    predict(state, 0.0)
    np.testing.assert_array_equal(covariance(state), np.diag([1.0, 2.0]))


def test_predict_trace_additivity():
    rng = np.random.default_rng(9)
    state = NkfState(x_v=np.zeros(4, dtype=complex),
                     x=np.zeros(4, dtype=complex), l_emp=0.0, k=3,
                     sigma=5.0)
    state.held[:3] = random_complex_matrix(rng, 3, 4)
    p = covariance(state)
    predict(state, 0.7)
    assert np.trace(covariance(state)).real == pytest.approx(
        np.trace(p).real + 0.7 * 4, rel=1e-12)


def _one_d_problem():
    op = lq_factorize([[1.0, 2.0]])
    x_p = particular_solution(op, [2.0])
    return x_p, op


def test_update_zero_innovation_keeps_estimate():
    x_p, op = _one_d_problem()
    state = _rest_state(x_p, 1)
    predict(state, 1.0)
    x_v, k = state.x_v.copy(), state.k
    update(state, x_p, op, y_target=l1_norm(x_p))
    np.testing.assert_array_equal(state.x_v, x_v)
    assert state.l_emp == pytest.approx(l1_norm(x_p), rel=1e-14)
    assert state.k == k + 1


def test_update_zero_jacobian_keeps_estimate():
    # y = 0 makes x_p exactly 0; every entry is an exact zero, so the
    # observation row vanishes and the gain is zero.
    op = lq_factorize([[1.0, 2.0]])
    x_p = particular_solution(op, [0.0])
    state = _rest_state(x_p, 1)
    predict(state, 1.0)
    x_v = state.x_v.copy()
    update(state, x_p, op, y_target=-1.0)
    np.testing.assert_array_equal(state.x_v, x_v)


def test_update_from_subnormal_estimate():
    # y = 1e-310 puts every entry of x_p below 2^-1024.
    op = lq_factorize([[1.0, 2.0]])
    x_p = particular_solution(op, [1e-310])
    assert np.all(np.abs(x_p) < 2.0 ** -1024)
    state = _rest_state(x_p, 1)
    predict(state, 1.0)
    update(state, x_p, op, 0.9 * state.l_emp)
    assert state.k == 1
    assert np.all(np.isfinite(state.x_v)) and np.isfinite(state.l_emp)
    np.testing.assert_array_equal(state.mag, np.abs(state.x))


def test_update_matches_scalar_recursion_oracle():
    # Independent implementation of the d = 1 update for C = [[1, 2]].
    x_p, op = _one_d_problem()
    e = op.e_n[:, 0]
    v = 0.0 + 0.0j
    p = 1.0
    r = 1.0     # the observation noise variance
    l0 = sum(abs(x_p[i] + e[i] * v) for i in range(2))
    y_t = 0.9 * l0
    a = [x_p[i] + e[i] * v for i in range(2)]
    h = [a[i].conjugate() / abs(a[i]) for i in range(2)]
    c_v = h[0] * e[0] + h[1] * e[1]
    s2 = p * abs(c_v) ** 2 + r
    gain = p * c_v.conjugate() / s2
    nu = y_t - l0
    v_new = v + gain * nu
    p_new = p - gain * c_v * p
    l_new = sum(abs(x_p[i] + e[i] * v_new) for i in range(2))

    state = _rest_state(x_p, 1)
    predict(state, 1.0)
    update(state, x_p, op, y_target=y_t)
    assert state.x_v[0] == pytest.approx(v_new, rel=1e-12)
    assert covariance(state)[0, 0] == pytest.approx(p_new, rel=1e-12)
    assert state.l_emp == pytest.approx(l_new, rel=1e-12)
    assert state.l_emp < l0


def test_update_matches_textbook_update_over_ten_steps():
    # The held rank-1 downdates P - w w^H against the textbook covariance
    # update P - K c_v P followed by symmetrization, at d = 6, with a
    # target that shrinks with the estimate. Ten steps keep every
    # downdate, so this is the exact Kalman covariance.
    rng = np.random.default_rng(31)
    c = random_complex_matrix(rng, 4, 10)
    op = lq_factorize(c)
    e_n = op.e_n
    x_p = particular_solution(op, random_complex_vector(rng, 4))
    d = e_n.shape[1]
    state = _rest_state(x_p, d)
    x_v = np.zeros(d, dtype=complex)
    p = np.zeros((d, d), dtype=complex)
    for _ in range(10):
        x = x_p + e_n @ x_v
        target = 0.9 * l1_norm(x)
        p = p + np.eye(d)
        c_v = l1_jacobian_row(x) @ e_n
        s2 = float(np.real(c_v @ p @ c_v.conj())) + 1.0
        gain = p @ c_v.conj() / s2
        x_v = x_v + gain * (target - l1_norm(x))
        p = p - np.outer(gain, c_v @ p)
        p = 0.5 * (p + p.conj().T)

        predict(state, 1.0)
        update(state, x_p, op, target)
        p_full = covariance(state)
        assert np.abs(state.x_v - x_v).max() <= 1e-12 * np.abs(x_v).max()
        assert np.abs(p_full - p).max() <= 1e-12 * np.abs(p).max()
        assert state.l_emp == pytest.approx(l1_norm(x_p + e_n @ x_v),
                                            rel=1e-12)
        assert np.abs(p_full - p_full.conj().T).max() <= 1e-12
        assert np.linalg.eigvalsh(p_full).min() >= -1e-10
    assert state.k == 10


def _textbook_fixed_target_run(state, x_p, op, steps):
    # Runs ``steps`` predict/update pairs on ``state`` beside the textbook
    # covariance update P - K c_v P followed by symmetrization, from
    # P = 0, and compares the two after every step. From step HISTORY + 1
    # on, the textbook P gets back the oldest downdate K c_v P it still
    # holds, w w^H with w = K sqrt(s2). The target is a fixed, reachable
    # level of the l1 norm: a target that keeps shrinking below the
    # optimum drives the estimate around kinks of the l1 surface, where
    # any two update forms part at rounding level within some 40 steps.
    e_n = op.e_n
    d = e_n.shape[1]
    x_v = np.zeros(d, dtype=complex)
    p = np.zeros((d, d), dtype=complex)
    downdates = []
    target = 0.9 * l1_norm(x_p)
    for _ in range(steps):
        x = x_p + e_n @ x_v
        p = p + np.eye(d)
        c_v = l1_jacobian_row(x) @ e_n
        s2 = float(np.real(c_v @ p @ c_v.conj())) + 1.0
        gain = p @ c_v.conj() / s2
        x_v = x_v + gain * (target - l1_norm(x))
        p = p - np.outer(gain, c_v @ p)
        p = 0.5 * (p + p.conj().T)
        downdates.append(gain * np.sqrt(s2))
        if len(downdates) > HISTORY:
            w = downdates.pop(0)
            p = p + np.outer(w, w.conj())

        predict(state, 1.0)
        update(state, x_p, op, target)
        p_full = covariance(state)
        assert np.abs(state.x_v - x_v).max() <= 1e-12 * np.abs(x_v).max()
        assert np.abs(p_full - p).max() <= 1e-12 * np.abs(p).max()
        assert state.l_emp == pytest.approx(l1_norm(x_p + e_n @ x_v),
                                            rel=1e-12)
        assert np.abs(p_full - p_full.conj().T).max() <= 1e-12
        assert np.linalg.eigvalsh(p_full).min() >= -1e-10
    assert state.k == steps


def _d6_problem():
    rng = np.random.default_rng(31)
    c = random_complex_matrix(rng, 4, 10)
    op = lq_factorize(c)
    x_p = particular_solution(op, random_complex_vector(rng, 4))
    return x_p, op


def test_update_matches_textbook_update_that_drops_the_oldest_downdate():
    # HISTORY + 10 steps from the state solve starts from, at d = 6 and at
    # d = 72 > HISTORY: the ring's last ten writes each replace the oldest
    # downdate.
    for seed, m, n in ((31, 4, 10), (37, 8, 80)):
        rng = np.random.default_rng(seed)
        op = lq_factorize(random_complex_matrix(rng, m, n))
        x_p = particular_solution(op, random_complex_vector(rng, m))
        state = _rest_state(x_p, n - m)
        _textbook_fixed_target_run(state, x_p, op, HISTORY + 10)


def test_solve_holds_at_most_history_downdates(monkeypatch):
    # At d = 72 > HISTORY, the state's covariance is sigma = k q and one
    # HISTORY x d ring, allocated once; no array of the state ever holds
    # more than HISTORY rows of d.
    seen = []

    def recorded(state, *args):
        update(state, *args)
        arrays = [v for v in vars(state).values()
                  if isinstance(v, np.ndarray)]
        seen.append((state.k, state.sigma, state.held,
                     max(a.size for a in arrays)))
    monkeypatch.setattr(csbench.nkf, "update", recorded)
    rng = np.random.default_rng(37)
    c = random_complex_matrix(rng, 8, 80)
    result = solve(SensingProblem(c, random_complex_vector(rng, 8)))
    d = 72
    assert result.iterations > d
    ring = seen[0][2]
    assert ring.shape == (HISTORY, d)
    assert all(held is ring for _, _, held, _ in seen)
    assert ([(k, sigma, size) for k, sigma, _, size in seen]
            == [(k, float(k), HISTORY * d)
                for k in range(1, result.iterations + 1)])


def test_update_degenerate_variance_raises():
    # A negative base makes P indefinite, so s2 = c_v P c_v^H + 1 <= 0.
    x_p, op = _one_d_problem()
    x_v = np.ones(1, dtype=complex)
    x = x_p + op.e_n @ x_v
    bad = NkfState(x_v=x_v, x=x, l_emp=l1_norm(x), sigma=-20.0)
    with pytest.raises(NumericalFailure, match="degenerate"):
        update(bad, x_p, op, y_target=0.0)
    assert bad.x is x and bad.x_v is x_v and bad.k == 0


def test_update_non_finite_state_raises_and_keeps_estimate():
    # A NaN target makes x_v non-finite; an indefinite covariance near
    # the top of the float range, sigma I less one held downdate,
    # overflows in the downdate.
    op = lq_factorize([[1.0, 2.0, 3.0]])
    x_p = particular_solution(op, [2.0])
    e_n = op.e_n
    a0, a1 = np.abs(l1_jacobian_row(x_p) @ e_n) ** 2
    # P = diag(1e308, -0.5 a0 / a1 1e308) once the row is held.
    row = [0.0, np.sqrt(1.0 + 0.5 * a0 / a1) * 1e154]
    for sigma, k, target in ((1.0, 0, np.nan), (1e308, 1, 0.0)):
        state = _rest_state(x_p, 2)
        state.sigma, state.k = sigma, k
        state.held[0] = row
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalFailure, match="non-finite"):
            update(state, x_p, op, target)
        assert state.x is x_p and state.k == k
        assert state.l_emp == l1_norm(x_p)
        np.testing.assert_array_equal(state.x_v, 0)


def test_failed_update_leaves_the_ring_unchanged():
    # After HISTORY + 3 steps the ring has wrapped; a step that fails,
    # on a NaN target or on a degenerate variance, writes none of it.
    x_p, op = _d6_problem()
    state = _rest_state(x_p, 6)
    for _ in range(HISTORY + 3):
        predict(state, 1.0)
        update(state, x_p, op, 0.9 * l1_norm(x_p))
    held = state.held.tobytes()
    with np.errstate(invalid="ignore"), pytest.raises(NumericalFailure):
        update(state, x_p, op, np.nan)
    state.sigma = -1e6
    with pytest.raises(NumericalFailure, match="degenerate"):
        update(state, x_p, op, 0.9 * l1_norm(x_p))
    assert state.held.tobytes() == held
    assert state.k == HISTORY + 3


def test_covariance_psd_along_run():
    rng = np.random.default_rng(13)
    c = random_complex_matrix(rng, 6, 12)
    op = lq_factorize(c)
    y = random_complex_vector(rng, 6)
    x_p = particular_solution(op, y)
    state = _rest_state(x_p, 6)
    # Past HISTORY steps, each update also drops the oldest downdate.
    for _ in range(HISTORY + 20):
        predict(state, 1.0)
        update(state, x_p, op, 0.99 * state.l_emp)
        p_full = covariance(state)
        assert np.abs(p_full - p_full.conj().T).max() <= 1e-12
        assert np.linalg.eigvalsh(p_full).min() >= -1e-10
        assembled = x_p + op.e_n @ state.x_v
        assert state.l_emp == pytest.approx(l1_norm(assembled), rel=1e-12)
        np.testing.assert_array_equal(state.x, assembled)


def test_solve_1d_example_reaches_l1_minimum():
    result = solve(SensingProblem([[1.0, 2.0]], [2.0]))
    assert np.linalg.norm(result.x_hat - np.array([0.0, 1.0])) <= 1e-2
    assert result.termination == "converged"


def test_dense_solve_factors_its_matrix_once(monkeypatch):
    # The operator lq_factorize returns holds its factors, so neither the
    # particular solution, the loop nor the refinement step makes them
    # again.
    calls = []
    qr = scipy.linalg.qr

    def counted(*args, **kwargs):
        calls.append(1)
        return qr(*args, **kwargs)
    monkeypatch.setattr(scipy.linalg, "qr", counted)
    c, _, y = make_instance(16, 8, 1, seed=3)
    result = solve(SensingProblem(c, y))
    assert result.iterations > 0
    assert len(calls) == 1


def test_solve_square_system_is_direct():
    rng = np.random.default_rng(41)
    c = random_complex_matrix(rng, 5, 5) + 5 * np.eye(5)
    y = random_complex_vector(rng, 5)
    result = solve(SensingProblem(c, y))
    assert result.iterations == 0
    assert result.termination == "empty_nullspace"
    np.testing.assert_allclose(result.x_hat, np.linalg.solve(c, y),
                               atol=1e-10)


def test_solve_zero_measurements_returns_zero():
    rng = np.random.default_rng(43)
    c = random_complex_matrix(rng, 3, 8)
    result = solve(SensingProblem(c, np.zeros(3)))
    np.testing.assert_allclose(result.x_hat, 0, atol=1e-15)
    assert result.termination == "converged"


@pytest.mark.parametrize("mode", [MODE_GEOMETRIC, MODE_AITKEN])
def test_solve_zero_measurements_converges_in_both_modes(mode):
    # On y = 0 the trace is 0 throughout. Every stage then ends at the
    # first full stop window: after 5 iterations in the first stage,
    # whose window includes the start value, and 6 in each of the four
    # stages that promotions from 0.95 to 0.9998 open, 29 in all.
    c, _, _ = make_instance(32, 16, 2, 11)
    result = solve(SensingProblem(c, np.zeros(16)),
                   NkfConfig(schedule_mode=mode))
    assert result.termination == "converged"
    assert result.iterations == 29
    assert not np.any(result.x_hat)


@pytest.mark.parametrize("seed", [1000, 1001, 1002])
def test_solve_iteration_budget(seed):
    # n = 256, m = 77: the default schedule converges in under 1000
    # iterations, within 5e-4 of cp's l1 optimum, with x recovered.
    c, x, y = make_instance(256, 77, 5, seed)
    problem = SensingProblem(c, y)
    result = solve(problem)
    assert result.termination == "converged"
    assert result.iterations < 1000
    cp_l1 = l1_norm(chambolle_pock_bp(problem).x_hat)
    assert abs(l1_norm(result.x_hat) - cp_l1) <= 5e-4 * cp_l1
    assert np.linalg.norm(result.x_hat - x) <= 1e-3 * np.linalg.norm(x)


def test_solve_iterates_stay_feasible():
    c, x, y = make_instance(32, 16, 2, seed=100)
    problem = SensingProblem(c, y)
    y_norm = np.linalg.norm(y)
    worst = 0.0
    def audit(x_hat):
        nonlocal worst
        worst = max(worst, np.linalg.norm(c @ x_hat - y) / y_norm)
    result = solve(problem, on_iterate=audit)
    assert result.iterations > 0
    assert worst <= 1e-8


def test_solve_never_ends_above_start():
    for seed in (0, 1, 2):
        c, x, y = make_instance(24, 12, 3, seed=seed)
        result = solve(SensingProblem(c, y))
        assert result.l1_trace[-1] <= result.l1_trace[0] + 1e-9


def test_solve_deterministic():
    c, x, y = make_instance(32, 16, 3, seed=7)
    problem = SensingProblem(c, y)
    r1 = solve(problem)
    r2 = solve(problem)
    assert r1.l1_trace == r2.l1_trace
    np.testing.assert_array_equal(r1.x_hat, r2.x_hat)
    assert r1.iterations == r2.iterations


def test_solve_recovers_sparse_signal():
    c, x, y = make_instance(64, 32, 3, seed=5)
    result = solve(SensingProblem(c, y))
    assert np.linalg.norm(result.x_hat - x) <= 1e-3


def test_solve_aitken_matches_geometric_optimum():
    c, x, y = make_instance(32, 16, 2, seed=11)
    problem = SensingProblem(c, y)
    geo = solve(problem, NkfConfig(schedule_mode=MODE_GEOMETRIC))
    ait = solve(problem, NkfConfig(schedule_mode=MODE_AITKEN))
    assert ait.termination == "converged"
    assert abs(ait.l1_trace[-1] - geo.l1_trace[-1]) <= 0.01 * geo.l1_trace[-1]


@pytest.mark.parametrize("mode", [MODE_GEOMETRIC, MODE_AITKEN])
@pytest.mark.parametrize("shape", [(64, 13, 3, 1), (32, 16, 2, 11)])
def test_solve_scales_exactly_with_the_units_of_c_and_y(shape, mode):
    # A power of two scales every float exactly, so a solve of (C, y)
    # scaled by one must follow the unscaled trajectory bit for bit.
    c, _, y = make_instance(*shape)
    config = NkfConfig(schedule_mode=mode)
    base = solve(SensingProblem(c, y), config)
    for k in (-40, -20, 20, 40):
        f = 2.0 ** k
        for c_f, y_f, x_scale in ((c * f, y, 1.0 / f), (c, y * f, f)):
            result = solve(SensingProblem(c_f, y_f), config)
            assert result.iterations == base.iterations
            assert result.termination == base.termination
            np.testing.assert_array_equal(result.x_hat,
                                          base.x_hat * x_scale)
            np.testing.assert_array_equal(result.l1_trace,
                                          np.multiply(base.l1_trace, x_scale))


def test_solve_handles_a_subnormal_matrix():
    # C * 1e-310 is subnormal throughout, while the solution keeps the
    # size of the unscaled one; x_p and the run must stay finite.
    c, _, y = make_instance(32, 16, 2, 5)
    base = solve(SensingProblem(c, y))
    result = solve(SensingProblem(c * 1e-310, y * 1e-310))
    assert result.termination == "converged"
    assert np.all(np.isfinite(result.x_hat))
    assert np.abs(c @ result.x_hat - y).max() <= 1e-10
    assert (abs(l1_norm(result.x_hat) - l1_norm(base.x_hat))
            <= 1e-3 * l1_norm(base.x_hat))


def test_solve_attaches_partial_result_on_numerical_failure(monkeypatch):
    def explode(*args, **kwargs):
        raise NumericalFailure("forced failure")
    monkeypatch.setattr(csbench.nkf, "update", explode)
    c, x, y = make_instance(8, 4, 1, seed=3)
    with pytest.raises(NumericalFailure) as info:
        solve(SensingProblem(c, y))
    result = info.value.result
    assert result is not None
    assert result.termination == "numerical_failure"
    assert result.iterations == 0


def test_config_validation():
    with pytest.raises(ValueError):
        NkfConfig(max_iter=0)
    # A float or bool count fails here, not in solve's range().
    with pytest.raises(TypeError):
        NkfConfig(max_iter=10.0)
    with pytest.raises(TypeError):
        NkfConfig(max_iter=True)
    with pytest.raises(ValueError):
        NkfConfig(schedule_mode="newton")
    # The process noise, the stop rule and the schedule's rates are
    # constants, not fields.
    for removed in ("q_scale", "stop_tol", "stop_window", "stall_window",
                    "stall_tol", "gamma_anneal", "trust_mult", "gamma",
                    "gamma_min"):
        with pytest.raises(TypeError):
            NkfConfig(**{removed: 1})


def test_config_from_dict_round_trip(tmp_path):
    # A config file's keys are NkfConfig's field names, all at the top
    # level.
    data = {"max_iter": 100, "schedule_mode": "aitken-steffensen"}
    assert load_config(tmp_path, "nkf", data) == NkfConfig(**data)
    assert load_config(tmp_path, "nkf", {}) == NkfConfig()


def test_config_from_dict_rejects_unknown_keys(tmp_path):
    with pytest.raises(ValueError, match="'step_size'"):
        load_config(tmp_path, "nkf", {"step_size": 1.0})
    # The nested spelling of earlier versions fails at its top key.
    for sched in ({"mode": "geometric", "gamma": 0.9}, [1, 2]):
        with pytest.raises(ValueError, match="'schedule'"):
            load_config(tmp_path, "nkf", {"schedule": sched})
    # A removed key fails by name rather than being ignored; "mode" is
    # spelled schedule_mode.
    for key in ("mode", "zero_mag_eps", "r_scalar", "r_tilde_init",
                "omega", "negate_trend_target", "joseph_form",
                "stop_window", "stall_window", "stall_tol", "gamma_anneal",
                "trust_mult", "q_scale", "stop_tol", "gamma", "gamma_min"):
        with pytest.raises(ValueError, match=f"'{key}'"):
            load_config(tmp_path, "nkf", {key: 1})


def test_aitken_push_starts_at_one_minus_gamma():
    # Both modes start from one rate: an aitken run pushes 1 - GAMMA from
    # its first target on.
    assert next_target(ScheduleState(MODE_AITKEN), 10.0) == GAMMA * 10.0


def test_result_json_round_trip(tmp_path):
    import json
    c, x, y = make_instance(8, 4, 1, seed=9)
    result = solve(SensingProblem(c, y))
    path = tmp_path / "result.json"
    result.save_json(path)
    data = json.loads(path.read_text())
    assert data["solver"] == "nkf"
    assert data["n"] == 8 and data["m"] == 4
    assert data["termination"] == result.termination
    assert len(data["l1_trace"]) == len(result.l1_trace)
    x_back = np.array([complex(re, im) for re, im in data["x_hat"]])
    np.testing.assert_allclose(x_back, result.x_hat, atol=0)
