"""Per-iteration targets for the synthetic l1-norm observation.

The Kalman solver never observes real data; it observes its own l1 norm
and is fed a target slightly below it. Both policies share one rate,
gamma: the target starts from y(k) = gamma * l1_current, a relative
shrink of 1 - gamma per step.

``geometric``
    The target is gamma * l1_current, nothing more. Robust, but the
    push never stops, so the filter can only track the constrained
    minimum up to a band whose width scales with (1 - gamma).

``aitken-steffensen``
    The same shrink, with extrapolation added. The second step's target
    follows the trend instead: the current norm plus omega times its
    latest decrement, scaled by gamma. ``negate_trend_target`` flips
    the sign of that one target, which the trust region below then
    holds at its floor: the second step pushes as hard as the region
    allows. It is the default, and the third step's extrapolation takes
    over from whatever state that push produces. Set it False for the
    unsigned variant. From the third step on, the target
    gamma * l1_current is replaced by the Aitken delta-squared
    extrapolant of the last three targets whenever the recent history
    is consistent with a decaying sequence (strictly falling magnitudes
    and an extrapolant between zero and gamma * l1_current); otherwise
    it is kept.

    Every aitken target is kept inside a trust region scaled by the
    push: it may demand at most min(0.5, trust_mult * (1 - gamma))
    relative shrink in one step, and is never above the current norm.
    Without the region, a jump straight to the predicted limit
    overshoots across the kinks of the l1 surface and the filter falls
    into a persistent limit cycle instead of settling.

Both policies run in stages, and gamma is changed only between them.
next_stage moves the schedule to a finer stage: it multiplies the push
1 - gamma by a factor ``keep``, up to gamma_min. Geometric mode keeps
gamma_anneal of the push. Aitken mode keeps 1 - r_hat, r_hat being the
ratio of the Steffensen extrapolant of the recent targets to the
previous target, clipped so that at least gamma_anneal is kept: near a
stall the raw ratio approaches 1 and would wipe out the push in a
single stage, freezing the filter far from its optimum. The push
shrinks stage by stage, so the target sequence approaches a limit
instead of pushing forever, which is what lets the filter settle
instead of orbiting its optimum. next_stage returns False once gamma
>= gamma_min. A ScheduleState is advanced in place by next_target and
next_stage.
"""

from __future__ import annotations

from dataclasses import dataclass

MODE_GEOMETRIC = "geometric"
MODE_AITKEN = "aitken-steffensen"
_MODES = (MODE_GEOMETRIC, MODE_AITKEN)

# Relative guard on the Aitken denominator; below it the provisional
# target is returned unchanged.
_DENOM_GUARD = 1e-14


@dataclass
class ScheduleState:
    """Schedule state; next_target and next_stage advance it in place."""

    mode: str = MODE_GEOMETRIC
    gamma: float = 0.99
    gamma_min: float = 0.9998
    gamma_anneal: float = 0.5
    omega: float = 0.5
    trust_mult: float = 3.0
    negate_trend_target: bool = True
    k: int = 0
    y_hist: tuple = ()           # past targets, most recent first, at most 2
    l_prev: float | None = None  # the norm passed to the last next_target

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not 0.0 < self.gamma_min < 1.0:
            raise ValueError("gamma_min must lie in (0, 1)")
        if not 0.0 < self.gamma_anneal < 1.0:
            raise ValueError("gamma_anneal must lie in (0, 1)")
        if self.omega < 0.0:
            raise ValueError("omega must be nonnegative")
        if self.trust_mult <= 0.0:
            raise ValueError("trust_mult must be positive")


def steffensen_extrapolate(y_k: float, y_km1: float, y_km2: float) -> float:
    """Aitken delta-squared estimate of the sequence limit.

    Returns (y_k * y_km2 - y_km1^2) / (y_k - 2 y_km1 + y_km2), or y_k
    unchanged when the denominator is negligible relative to the inputs
    (a constant or near-constant sequence carries no trend to remove).
    The guard is relative to the largest input alone, so scaling all
    three inputs by a power of two scales the result exactly.
    """
    denom = y_k - 2.0 * y_km1 + y_km2
    scale = max(abs(y_k), abs(y_km1), abs(y_km2))
    if abs(denom) <= _DENOM_GUARD * scale:
        return y_k
    return (y_k * y_km2 - y_km1 * y_km1) / denom


def next_target(sched: ScheduleState, l_cur: float) -> float:
    """Target for the next filter update; advances ``sched`` in place.

    ``l_cur`` is the l1 norm the filter currently sits at.
    """
    sched.k += 1
    gamma = sched.gamma
    y = gamma * l_cur
    if sched.mode == MODE_AITKEN:
        if sched.k == 2:
            y = gamma * (l_cur + sched.omega * (l_cur - sched.l_prev))
            if sched.negate_trend_target:
                y = -y
        elif sched.k > 2:
            y1, y2 = sched.y_hist
            y_ext = steffensen_extrapolate(y, y1, y2)
            if abs(y) < abs(y1) < abs(y2) and 0.0 <= y_ext <= y:
                y = y_ext
        cap = min(0.5, sched.trust_mult * (1.0 - gamma))
        y = min(max(y, (1.0 - cap) * l_cur), l_cur)
    sched.y_hist = (y,) + sched.y_hist[:1]
    sched.l_prev = l_cur
    return y


def next_stage(sched: ScheduleState, l_emp: float) -> bool:
    """Move ``sched`` to its next, finer stage in place.

    Multiplies the push 1 - gamma by ``keep``, stopping at gamma_min:
    gamma_anneal in geometric mode, 1 - r_hat in aitken mode (see the
    module docstring), where r_hat is 0 until two targets are kept and
    while the last one is 0.
    ``l_emp`` is the norm the filter sits at. Returns False, leaving
    ``sched`` as it is, when the schedule is already at its finest
    stage, gamma >= gamma_min.
    """
    if sched.gamma >= sched.gamma_min:
        return False
    keep = sched.gamma_anneal
    if sched.mode == MODE_AITKEN:
        r_hat = 0.0
        if len(sched.y_hist) == 2 and sched.y_hist[0] != 0.0:
            y1, y2 = sched.y_hist
            r_hat = steffensen_extrapolate(sched.gamma * l_emp, y1, y2) / y1
        keep = min(max(1.0 - r_hat, keep), 1.0)
    sched.gamma = min(1.0 - keep * (1.0 - sched.gamma), sched.gamma_min)
    return True
