"""l1-minimizing Kalman filter over nullspace coordinates.

The solver takes a particular solution x_p and a nullspace basis E_N
from the problem's sensing operator (see csbench.operators), then runs
a scalar-output extended Kalman filter on the (n - m)-dimensional
nullspace coefficient vector. A dense matrix is factored once by LQ; a
partial 2-D Fourier operator needs no factorization. The synthetic
observation is the l1 norm of the assembled estimate, driven toward a
shrinking target, so every iterate satisfies the measurements exactly
while the norm is annealed downward. The targets come from
csbench.schedule, whose rates (GAMMA, GAMMA_MIN, GAMMA_ANNEAL,
TRUST_MULT) are constants, as are the process noise and the stop rule's
windows and tolerances below; a config sets only the iteration cap and
the schedule mode.

Each iteration applies the basis twice, E_N v and h E_N (two n x d
products for a dense matrix), d = n - m, and forms P c^H. P starts at
0 and every prediction adds q I, so after k steps
P = k q I - sum_j w_j w_j^H exactly, the w_j being the rank-1
downdate vectors. The filter holds that form: a scalar base sigma = k q
and the w_j as the rows of a block W, so P c^H = sigma c^H - W^H (W c^H)
costs two thin d x k products and no d x d matrix exists. W's room
doubles as it fills, from FOLD_BLOCK rows, so a short run reserves no
d x d block either. Only when W holds d rows, at k = d, where the thin
pair costs as much as a dense P c^H, is P formed as a d x d base
p_v = sigma I - W^T conj(W). From then on
the last downdates are held in a block of FOLD_BLOCK rows beside p_v,
P c^H is p_v c^H - W^H (W c^H), and every FOLD_BLOCK steps one matrix
product folds the block into p_v. Either way the covariance work of an
iteration is O(d min(k, d)) and the whole step O(n d), which is why the
filter gets cheaper as the measurement count grows; a run that stops
within d iterations, as the scene studies do, never forms P.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure
from .nullspace import lq_factorize, particular_solution
from .problem import RecoveryResult, SensingProblem, as_count
from .schedule import (MODE_AITKEN, MODE_GEOMETRIC, ScheduleState, next_stage,
                       next_target)

# Downdate vectors held back before one matrix product folds them into
# the covariance.
FOLD_BLOCK = 32

# Iterations the l1 trace must stay flat over for a stage to stop, and
# the most its range may span then, relative to its oldest value.
STOP_WINDOW = 5
STOP_TOL = 1e-6
# Long enough for the best-norm envelope to carry the filter across
# shoulders, short enough that a spent stage ends soon after it stalls.
STALL_WINDOW = 25
# Least relative envelope gain per STALL_WINDOW before a stage is spent.
STALL_TOL = 1e-3
# Process noise relative to the observation noise of 1; the filter is
# homogeneous in its covariance and both, so only the ratio matters.
Q_SCALE = 1.0

# A subnormal magnitude, below _TINY_MAG, keeps fewer bits, and from
# 2^-1024 down its reciprocal overflows; _LIFT makes every subnormal
# normal, exactly.
_TINY_MAG = 2.0 ** -1022
_LIFT = 2.0 ** 1000


@dataclass(frozen=True)
class NkfConfig:
    """Iteration cap and schedule mode.

    The process noise is fixed at Q_SCALE. The stop rule fires when the
    l1 norm is flat over the last STOP_WINDOW iterations: the whole
    window of STOP_WINDOW + 1 trace values spans at most STOP_TOL
    relative to its oldest value (see ``window_is_flat``). Each time it
    fires, schedule.next_stage moves the schedule to a finer push, and
    the run terminates once it fires at the finest one (see
    csbench.schedule, whose rates are constants).

    Around a kink of the l1 surface the iterate can orbit in a small
    limit cycle instead of settling, and the trace window then never
    looks flat because it spans the cycle's swing. The stop rule
    therefore also watches the best norm seen within the current stage:
    when that monotone envelope improves by less than STALL_TOL
    (relative) across STALL_WINDOW consecutive iterations, the stage is
    treated as exhausted just as if the trace had flattened.
    """

    max_iter: int = 15000
    schedule_mode: str = MODE_GEOMETRIC

    def __post_init__(self):
        # A float or bool count fails here rather than in solve's range().
        if as_count(self.max_iter) < 1:
            raise ValueError("max_iter must be at least 1")
        if self.schedule_mode not in (MODE_GEOMETRIC, MODE_AITKEN):
            raise ValueError(f"unknown schedule mode {self.schedule_mode!r}")


@dataclass
class NkfState:
    """Filter state, advanced in place by ``predict`` and ``update``.

    x_v are the nullspace coefficients; x is the assembled estimate
    x_p + E_N x_v, mag its entrywise magnitude |x| (taken from x when
    not given), l_emp its l1 norm, and k the number of updates applied.
    The covariance of x_v is held in delayed form,
    P = B - sum_j w_j w_j^H, where the downdate vectors w_j not yet
    folded into the base B are the first ``n_held`` rows of ``held``.
    The base is the d x d matrix p_v or, while p_v is None, the scalar
    sigma times the identity; ``held`` then starts at FOLD_BLOCK rows
    (d if fewer) and doubles as it fills, up to d rows, and once those
    are full ``update`` forms p_v from them (see csbench.nkf). With a
    given p_v, ``held`` has FOLD_BLOCK rows and sigma is not read.
    """

    x_v: np.ndarray
    p_v: np.ndarray | None
    x: np.ndarray
    l_emp: float
    k: int = 0
    sigma: float = 0.0
    held: np.ndarray | None = field(default=None, repr=False)
    n_held: int = 0
    mag: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.held is None:
            d = len(self.x_v)
            rows = FOLD_BLOCK if self.p_v is not None else min(FOLD_BLOCK, d)
            self.held = np.empty((rows, d), dtype=np.complex128)
        if self.mag is None:
            self.mag = np.abs(self.x)


def l1_norm(x) -> float:
    return float(np.sum(np.abs(x)))


def l1_jacobian_row(x, mag=None) -> np.ndarray:
    """Row Jacobian of the l1 norm: conj(x_i)/|x_i|, zero where x_i = 0.

    ``mag``, if given, must be |x|; passing it saves taking it again.

    At a magnitude of exactly zero the norm is not differentiable, and
    the zero entry is the subgradient selection that leaves such a
    coordinate alone. Every other entry keeps its unit phase, however
    small its magnitude, so the row does not depend on the scale of x.
    An entry of subnormal magnitude, whose 1/|x_i| can overflow, is
    scaled by 2^1000 before the division; the scale is exact, and every
    entry of normal magnitude is divided as it is.
    """
    x = np.asarray(x, dtype=np.complex128)
    if mag is None:
        mag = np.abs(x)
    tiny = mag < _TINY_MAG
    row = x.conj() / np.where(tiny, 1.0, mag)
    if tiny.any():
        lifted = x[tiny] * _LIFT
        lifted_mag = np.abs(lifted)
        row[tiny] = np.divide(lifted.conj(), lifted_mag,
                              out=np.zeros_like(lifted),
                              where=lifted_mag > 0.0)
    return row


def window_is_flat(trace, window: int, tol: float) -> bool:
    """True when the last ``window`` + 1 trace values are flat.

    Their range must be at most ``tol`` relative to the oldest of them.
    Comparing only the two ends is not enough: on an oscillating trace
    they can agree by coincidence while the values between still swing.
    """
    values = trace[-1 - window:]
    return max(values) - min(values) <= tol * values[0]


def predict(state: NkfState, q: float) -> None:
    """Random-walk prediction: coefficients held, q added to diag(P).

    q joins the scalar base sigma while p_v is unformed, and the
    diagonal of p_v in place once it is formed; adding q I commutes
    with the held downdates, so they stay held.
    """
    if state.p_v is None:
        state.sigma += q
    else:
        d = state.p_v.shape[0]
        state.p_v.flat[::d + 1] += q


def update(state: NkfState, x_p, op, y_target: float) -> None:
    """One scalar measurement update against the l1-norm target.

    ``op`` is the problem's sensing operator; the step reaches the
    nullspace basis only through its ``null_adjoint`` and ``null_map``.

    The observation noise variance is 1; ``predict``'s q sets the
    process noise relative to it.

    Linearizes the norm at the carried estimate (and its carried
    magnitudes, so |x| is taken once per step) and applies the Kalman
    gain to the (real) innovation. The covariance downdate w w^H,
    w = P c_v^H / sqrt(s2), is delayed: w joins the held block W, and
    P c_v^H is formed as B c_v^H - W^H (W c_v^H) from two thin
    products, the base B c_v^H being sigma c_v^H while p_v is unformed
    and p_v c_v^H after. While p_v is unformed a full W of fewer than
    d rows doubles its room. Otherwise one matrix product empties it
    into the base: the first time, at d rows, it forms
    p_v = sigma I - W^T conj(W); after that, every FOLD_BLOCK rows, it
    folds them in, p_v -= W^T conj(W). A step thus costs two d x j
    products (j <= d before p_v exists, j <= FOLD_BLOCK after), then
    also one d x d matrix-vector product and 1 / FOLD_BLOCK of a
    d x d x FOLD_BLOCK product, against a rank-1 d x d downdate every
    step.

    Raises NumericalFailure if the innovation variance degenerates, if
    x_v, x, l_emp, w or |w|^2 is non-finite, or if p_v is non-finite
    once formed or folded. x_v, x, mag, l_emp and k then keep their
    values, while the held block and p_v may already have changed.
    """
    held = state.held[:state.n_held]
    h_row = l1_jacobian_row(state.x, state.mag)
    c_v = op.null_adjoint(h_row)          # 1 x d observation row
    # P c_v^H = B c_v^H - sum_j w_j conj(w_j . c_v), the rows of held
    # being the w_j, so both thin products read the block as stored.
    c_h = c_v.conj()
    base_ch = state.sigma * c_h if state.p_v is None else state.p_v @ c_h
    p_ch = base_ch - (held @ c_v).conj() @ held
    s2 = float(np.real(c_v @ p_ch)) + 1.0
    if not np.isfinite(s2) or s2 <= 0.0:
        raise NumericalFailure(f"innovation variance degenerate: {s2!r}")
    gain = p_ch / s2
    x_v = state.x_v + gain * (y_target - state.l_emp)
    w = p_ch / np.sqrt(s2)
    x = x_p + op.null_map(x_v)
    mag = np.abs(x)
    l_emp = float(np.sum(mag))
    # |w|^2 bounds every entry of w w^H: it is non-finite if w is, and
    # it overflows no later than w w^H would.
    if not (np.all(np.isfinite(x_v)) and np.isfinite(l_emp)
            and np.isfinite(np.vdot(w, w).real)):
        raise NumericalFailure("non-finite filter state")
    state.held[state.n_held] = w
    state.n_held += 1
    if state.n_held == len(state.held):
        _make_room(state)
    state.x_v, state.x, state.mag, state.l_emp = x_v, x, mag, l_emp
    state.k += 1


def _make_room(state: NkfState) -> None:
    """Make room in the full held block. While p_v is unformed the block
    doubles, up to d rows, and at d rows it forms p_v; after that it is
    folded into p_v."""
    d = state.held.shape[1]
    if state.p_v is None and len(state.held) < d:
        held = state.held
        state.held = np.empty((min(2 * len(held), d), d), dtype=np.complex128)
        state.held[:len(held)] = held
        return
    downdate = state.held.T @ state.held.conj()
    state.n_held = 0
    if state.p_v is None:
        downdate *= -1.0
        downdate.flat[::d + 1] += state.sigma
        state.p_v = downdate
        state.held = np.empty((FOLD_BLOCK, d), dtype=np.complex128)
    else:
        state.p_v -= downdate
    # A NaN or inf anywhere in P makes its sum non-finite.
    if not np.isfinite(state.p_v.sum()):
        raise NumericalFailure("non-finite filter covariance")


def solve(problem: SensingProblem, config: NkfConfig = NkfConfig(),
          on_iterate=None) -> RecoveryResult:
    """Run the filter to convergence or the iteration cap.

    The problem's operator supplies x_p and the nullspace maps; without
    one, ``problem.c`` is factored by LQ. The returned estimate, but no
    iterate, takes one refinement step against ``problem.c``.

    Parameters
    ----------
    problem : SensingProblem
    config : NkfConfig, optional
    on_iterate : callable, optional
        Called after every update with the assembled estimate (a fresh
        array each time); used by tests to audit feasibility of the
        whole iterate path.
    """
    t0 = time.perf_counter()
    op = problem.operator
    if op is None:
        # A dense matrix is factored here, through this module's names,
        # so that a wrapper installed on them sees the factorization.
        op = lq_factorize(problem.c)
        x_p = particular_solution(op, problem.y)
    else:
        x_p = op.particular(problem.y)
    d = problem.n - problem.m
    trace = [l1_norm(x_p)]

    if d == 0:
        # Square system: x_p is the unique solution, nothing to filter.
        return _result(problem, _refine(problem, op, x_p), 0, trace,
                       "empty_nullspace", t0)

    sched = ScheduleState(config.schedule_mode)
    state = NkfState(
        x_v=np.zeros(d, dtype=np.complex128),
        p_v=None,
        x=x_p,
        l_emp=trace[0],
    )
    # Running minimum of the trace over the current stage, one entry per
    # trace value; its length counts the stage's values up to
    # STALL_WINDOW + 1.
    best = deque([trace[0]], maxlen=STALL_WINDOW + 1)
    termination = "max_iter"
    for _ in range(config.max_iter):
        predict(state, Q_SCALE)
        y_target = next_target(sched, state.l_emp)
        try:
            update(state, x_p, op, y_target)
        except NumericalFailure as exc:
            exc.result = _result(problem, state.x, state.k, trace,
                                 "numerical_failure", t0)
            raise
        trace.append(state.l_emp)
        best.append(min(best[-1], state.l_emp) if best else state.l_emp)
        if on_iterate is not None:
            on_iterate(state.x)
        fire = (len(best) > STOP_WINDOW
                and window_is_flat(trace, STOP_WINDOW, STOP_TOL))
        if not fire and len(best) > STALL_WINDOW:
            bref = best[0]
            fire = bref - best[-1] <= STALL_TOL * bref
        if fire:
            if not next_stage(sched):
                termination = "converged"
                break
            best.clear()
    return _result(problem, _refine(problem, op, state.x), state.k, trace,
                   termination, t0)


def _refine(problem, op, x):
    """x + particular(y - C x), C the problem's matrix.

    One step of iterative refinement: it takes the rounding of the
    operator's products out of the residual of the returned estimate.
    It is skipped when C x overflows, where it would add nothing finite.
    """
    r = problem.y - problem.c @ x
    if not np.all(np.isfinite(r)):
        return x
    return x + op.particular(r)


def _result(problem, x_hat, iterations, trace, termination, t0):
    wall = (time.perf_counter() - t0) * 1e3
    return RecoveryResult(
        solver="nkf", n=problem.n, m=problem.m, x_hat=x_hat,
        iterations=iterations, termination=termination,
        wall_time_ms=wall, l1_trace=trace,
    )
