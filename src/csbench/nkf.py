"""l1-minimizing Kalman filter over nullspace coordinates.

The solver factors the sensing matrix once, then runs a scalar-output
extended Kalman filter on the (n - m)-dimensional nullspace coefficient
vector. The synthetic observation is the l1 norm of the assembled
estimate, driven toward a shrinking target, so every iterate satisfies
the measurements exactly while the norm is annealed downward. Each
iteration costs two n x (n - m) basis products and O((n - m)^2)
covariance work, so O(n (n - m)) in all, which is why the filter gets
cheaper as the measurement count grows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalFailure
from .nullspace import lq_factorize, particular_solution
from .problem import RecoveryResult, SensingProblem
from .schedule import (MODE_AITKEN, MODE_GEOMETRIC, ScheduleState,
                       contract_push, next_target)


@dataclass(frozen=True)
class NkfConfig:
    """Filter and schedule parameters.

    q_scale and r_scalar are the process and observation noise levels
    (identity-scaled). The stop rule fires when the relative change of
    the l1 norm across ``stop_window`` consecutive iterations falls
    below ``stop_tol``.

    In geometric mode the shrink factor is annealed: each time the stop
    rule fires with gamma still below gamma_min, the per-step shrink
    rate (1 - gamma) is multiplied by gamma_anneal and the run
    continues; the run only terminates once the stop rule fires at
    gamma >= gamma_min. The coarse early stages punch through the kinks
    of the l1 surface where a fine schedule wedges into a limit cycle,
    and the fine late stages remove the error floor a coarse schedule
    leaves behind (the floor scales with 1 - gamma). Setting
    gamma_min <= gamma disables annealing.

    In aitken-steffensen mode the analogous knob is the push rate
    r_tilde: each time the stop rule fires with r_tilde still above
    1 - gamma_min, the rate is contracted (see
    schedule.contract_push, with the per-stall contraction capped at
    1 - gamma_anneal) and the run continues; the run terminates once
    the stop rule fires at r_tilde <= 1 - gamma_min.

    Around a kink of the l1 surface the iterate can orbit in a small
    limit cycle instead of settling, and a lagged comparison of trace
    values then never looks flat because it samples different phases of
    the cycle. The stop rule therefore also watches the best norm seen
    within the current stage: when that monotone envelope improves by
    less than ``stall_tol`` (relative) across ``stall_window``
    consecutive iterations, the stage is treated as exhausted just as
    if the trace had flattened. The long window matters: descent paths
    cross shoulders where the envelope pauses for a dozen iterations
    before dropping further, and advancing the schedule on such a pause
    parks the filter at a non-optimal kink that the coarser stage would
    have escaped.
    """

    q_scale: float = 1.0
    r_scalar: float = 1.0
    max_iter: int = 15000
    stop_tol: float = 1e-6
    stall_tol: float = 1e-3
    stop_window: int = 5
    stall_window: int = 50
    zero_mag_eps: float = 1e-12
    schedule_mode: str = MODE_GEOMETRIC
    gamma: float = 0.99
    gamma_min: float = 0.9998
    gamma_anneal: float = 0.5
    omega: float = 0.5
    r_tilde_init: float = 0.01
    trust_mult: float = 3.0
    negate_trend_target: bool = True

    def __post_init__(self):
        if self.q_scale < 0:
            raise ValueError("q_scale must be nonnegative")
        if self.r_scalar <= 0:
            raise ValueError("r_scalar must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.stop_tol <= 0:
            raise ValueError("stop_tol must be positive")
        if not self.stop_tol <= self.stall_tol < 1.0:
            raise ValueError("stall_tol must lie in [stop_tol, 1)")
        if self.stop_window < 1:
            raise ValueError("stop_window must be at least 1")
        if self.stall_window < self.stop_window:
            raise ValueError("stall_window must be at least stop_window")
        if self.zero_mag_eps <= 0:
            raise ValueError("zero_mag_eps must be positive")
        if self.schedule_mode not in (MODE_GEOMETRIC, MODE_AITKEN):
            raise ValueError(f"unknown schedule mode {self.schedule_mode!r}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not 0.0 < self.gamma_min < 1.0:
            raise ValueError("gamma_min must lie in (0, 1)")
        if not 0.0 < self.gamma_anneal < 1.0:
            raise ValueError("gamma_anneal must lie in (0, 1)")
        if not 0.0 <= self.r_tilde_init < 1.0:
            raise ValueError("r_tilde_init must lie in [0, 1)")
        if self.omega < 0.0:
            raise ValueError("omega must be nonnegative")
        if self.trust_mult <= 0.0:
            raise ValueError("trust_mult must be positive")

    @classmethod
    def from_dict(cls, d: dict) -> "NkfConfig":
        """Build from a JSON-style dict; unknown keys are an error."""
        top = dict(d)
        sched = top.pop("schedule", {})
        if not isinstance(sched, dict):
            raise ValueError("'schedule' must be an object")
        kwargs = {}
        allowed_top = {"q_scale", "r_scalar", "max_iter", "stop_tol",
                       "stall_tol", "stop_window", "stall_window",
                       "zero_mag_eps"}
        for key, val in top.items():
            if key not in allowed_top:
                raise ValueError(f"unknown config key: {key!r}")
            kwargs[key] = val
        renames = {"mode": "schedule_mode", "gamma": "gamma",
                   "gamma_min": "gamma_min", "gamma_anneal": "gamma_anneal",
                   "omega": "omega", "r_tilde_init": "r_tilde_init",
                   "trust_mult": "trust_mult",
                   "negate_trend_target": "negate_trend_target"}
        for key, val in sched.items():
            if key not in renames:
                raise ValueError(f"unknown config key: 'schedule.{key}'")
            kwargs[renames[key]] = val
        return cls(**kwargs)

    def schedule_state(self) -> ScheduleState:
        return ScheduleState(
            mode=self.schedule_mode,
            gamma=self.gamma,
            omega=self.omega,
            r_tilde=self.r_tilde_init,
            trust_mult=self.trust_mult,
            negate_trend_target=self.negate_trend_target,
        )


@dataclass
class NkfState:
    """Filter state, advanced in place by ``predict`` and ``update``.

    x_v are the nullspace coefficients and p_v their covariance; x is
    the assembled estimate x_p + E_N x_v, l_emp its l1 norm, and k the
    number of updates applied.
    """

    x_v: np.ndarray
    p_v: np.ndarray
    x: np.ndarray
    l_emp: float
    k: int = 0


def l1_norm(x) -> float:
    return float(np.sum(np.abs(x)))


def l1_jacobian_row(x, zero_mag_eps: float = 1e-12) -> np.ndarray:
    """Row Jacobian of the l1 norm: conj(x_i)/|x_i|, zero below eps.

    At a magnitude of exactly zero the norm is not differentiable; the
    zero entry is the subgradient selection that leaves small
    coordinates alone.
    """
    x = np.asarray(x, dtype=np.complex128)
    mag = np.abs(x)
    safe = np.where(mag > zero_mag_eps, mag, 1.0)
    return np.where(mag > zero_mag_eps, x.conj() / safe, 0.0)


def predict(state: NkfState, q_scale: float) -> None:
    """Random-walk prediction: coefficients held, q added to diag(P)."""
    d = state.p_v.shape[0]
    state.p_v.flat[::d + 1] += q_scale


def update(state: NkfState, x_p, e_n, y_target: float, r_scalar: float,
           zero_mag_eps: float = 1e-12) -> None:
    """One scalar measurement update against the l1-norm target.

    Linearizes the norm at the carried estimate, applies the Kalman
    gain to the (real) innovation, and downdates the covariance in
    place by the Hermitian rank-1 term w w^H, w = P c_v^H / sqrt(s2);
    both triangles take the same products up to rounding, so no
    symmetrization pass follows.
    Raises NumericalFailure if the innovation variance degenerates or
    any produced quantity is non-finite; x_v, x, l_emp and k then keep
    their values, while p_v may already be downdated.
    """
    h_row = l1_jacobian_row(state.x, zero_mag_eps)
    c_v = h_row @ e_n                     # 1 x d observation row
    p_ch = state.p_v @ c_v.conj()         # P C^H
    s2 = float(np.real(c_v @ p_ch)) + r_scalar
    if not np.isfinite(s2) or s2 <= 0.0:
        raise NumericalFailure(f"innovation variance degenerate: {s2!r}")
    gain = p_ch / s2
    x_v = state.x_v + gain * (y_target - state.l_emp)
    w = p_ch / np.sqrt(s2)
    state.p_v -= np.outer(w, w.conj())
    x = x_p + e_n @ x_v
    l_emp = l1_norm(x)
    # A NaN or inf anywhere in P makes its sum non-finite.
    if not (np.all(np.isfinite(x_v)) and np.isfinite(state.p_v.sum())
            and np.isfinite(l_emp)):
        raise NumericalFailure("non-finite filter state")
    state.x_v, state.x, state.l_emp = x_v, x, l_emp
    state.k += 1


def solve(problem: SensingProblem, config: NkfConfig | None = None,
          on_iterate=None) -> RecoveryResult:
    """Run the filter to convergence or the iteration cap.

    Parameters
    ----------
    problem : SensingProblem
    config : NkfConfig, optional
    on_iterate : callable, optional
        Called after every update with the assembled estimate (a fresh
        array each time); used by tests to audit feasibility of the
        whole iterate path.
    """
    if config is None:
        config = NkfConfig()
    t0 = time.perf_counter()
    decomp = lq_factorize(problem.c)
    x_p = particular_solution(decomp, problem.y)
    e_n = decomp.e_n
    d = e_n.shape[1]
    trace = [l1_norm(x_p)]

    if d == 0:
        # Square system: x_p is the unique solution, nothing to filter.
        wall = (time.perf_counter() - t0) * 1e3
        return RecoveryResult(
            solver="nkf", n=problem.n, m=problem.m, x_hat=x_p,
            iterations=0, termination="empty_nullspace",
            wall_time_ms=wall, l1_trace=trace,
        )

    sched = config.schedule_state()
    state = NkfState(
        x_v=np.zeros(d, dtype=np.complex128),
        p_v=np.zeros((d, d), dtype=np.complex128),
        x=x_p,
        l_emp=trace[0],
    )
    prev_l = state.l_emp
    annealing = config.schedule_mode == MODE_GEOMETRIC
    stage_start = 0
    best = [trace[0]]        # per-stage running minimum of the trace
    termination = "max_iter"
    for _ in range(config.max_iter):
        predict(state, config.q_scale)
        y_target, sched = next_target(sched, state.l_emp, prev_l)
        prev_l = state.l_emp
        try:
            update(state, x_p, e_n, y_target, config.r_scalar,
                   config.zero_mag_eps)
        except NumericalFailure as exc:
            exc.result = _result(problem, state, trace, "numerical_failure",
                                 t0)
            raise
        trace.append(state.l_emp)
        if len(trace) - 1 == stage_start:
            best.append(state.l_emp)
        else:
            best.append(min(best[-1], state.l_emp))
        if on_iterate is not None:
            on_iterate(state.x)
        w = config.stop_window
        sw = config.stall_window
        in_stage = len(trace) - stage_start
        fire = False
        if in_stage > w:
            ref = trace[-1 - w]
            fire = abs(trace[-1] - ref) <= config.stop_tol * max(ref, 1e-300)
        if not fire and in_stage > sw:
            bref = best[-1 - sw]
            fire = bref - best[-1] <= config.stall_tol * max(bref, 1e-300)
        if fire:
            if annealing and sched.gamma < config.gamma_min:
                new_gamma = min(
                    1.0 - (1.0 - sched.gamma) * config.gamma_anneal,
                    config.gamma_min,
                )
                sched = replace(sched, gamma=new_gamma)
                stage_start = len(trace)
                continue
            if not annealing and sched.r_tilde > 1.0 - config.gamma_min:
                sched = contract_push(
                    sched, state.l_emp,
                    r_hat_max=1.0 - config.gamma_anneal,
                    r_tilde_min=1.0 - config.gamma_min,
                )
                stage_start = len(trace)
                continue
            termination = "converged"
            break
    return _result(problem, state, trace, termination, t0)


def _result(problem, state, trace, termination, t0):
    wall = (time.perf_counter() - t0) * 1e3
    return RecoveryResult(
        solver="nkf", n=problem.n, m=problem.m, x_hat=state.x,
        iterations=state.k, termination=termination,
        wall_time_ms=wall, l1_trace=trace,
    )
