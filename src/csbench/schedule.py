"""Per-iteration targets for the synthetic l1-norm observation.

The Kalman solver never observes real data; it observes its own l1 norm
and is fed a target slightly below it. Two policies are provided.

``geometric``
    y(k) = gamma * l1_current with a constant 0 < gamma < 1: a fixed
    relative shrink every step. Robust, but the push never stops, so the
    filter can only track the constrained minimum up to a band whose
    width scales with (1 - gamma).

``aitken-steffensen``
    Starts from the same shrink with gamma = 1 - r_tilde. The second
    step switches to a trend-extrapolated target: the current norm plus
    omega times its latest decrement, scaled by (1 - r_tilde).
    ``negate_trend_target`` flips the sign of that one target, turning
    the second step into a hard push toward zero; it is the default,
    and the third step's extrapolation takes over from whatever state
    that push produces. Set it False for the unsigned variant. From
    the third step on, the provisional target
    (1 - r_tilde) * l1_current is replaced by the Aitken delta-squared
    extrapolant of the last three targets whenever the recent history is
    consistent with a decaying sequence (strictly falling magnitudes and
    an extrapolant between zero and the provisional value); otherwise
    the provisional target is used unchanged.

    Extrapolated jumps are kept inside a trust region scaled by the
    current push rate: with r_tilde > 0 the target may demand at most
    min(0.5, trust_mult * r_tilde) relative shrink in one step, and is
    never above the current norm. Without the region, a jump straight
    to the predicted limit overshoots across the kinks of the l1
    surface and the filter falls into a persistent limit cycle instead
    of settling. With r_tilde = 0 there is no scheduled push and the
    extrapolant is returned untouched.

    r_tilde itself is not changed per step. When the solver's stop rule
    fires, next_stage contracts it through contract_push: r_tilde is
    multiplied by (1 - r_hat), r_hat being the clipped ratio of the
    Steffensen extrapolant to the previous target, down to a floor of
    1 - gamma_min. The push shrinks stage by stage, so the target
    sequence approaches a limit instead of pushing forever, which is
    what lets the filter settle instead of orbiting its optimum.

Both policies run in stages. next_stage moves the schedule to a finer
one: geometric mode multiplies 1 - gamma by gamma_anneal, up to
gamma_min, and aitken mode contracts r_tilde. It returns False once
the finest stage is reached. A ScheduleState is advanced in place by
next_target and next_stage.
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
    r_tilde: float = 0.01
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
        if not 0.0 <= self.r_tilde < 1.0:
            raise ValueError("r_tilde must lie in [0, 1)")
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


def _trust_clamp(y: float, l_cur: float, r_tilde: float,
                 trust_mult: float) -> float:
    if r_tilde <= 0.0:
        return y
    cap = min(0.5, trust_mult * r_tilde)
    return min(max(y, (1.0 - cap) * l_cur), l_cur)


def next_target(sched: ScheduleState, l_cur: float) -> float:
    """Target for the next filter update; advances ``sched`` in place.

    ``l_cur`` is the l1 norm the filter currently sits at.
    """
    sched.k += 1
    if sched.mode == MODE_GEOMETRIC:
        y = sched.gamma * l_cur
    else:
        r_tilde = sched.r_tilde
        if sched.k == 1:
            y = (1.0 - r_tilde) * l_cur
        elif sched.k == 2:
            trend = l_cur + sched.omega * (l_cur - sched.l_prev)
            y = (1.0 - r_tilde) * trend
            if sched.negate_trend_target:
                y = -y
        else:
            provisional = (1.0 - r_tilde) * l_cur
            y1, y2 = sched.y_hist
            y_ext = steffensen_extrapolate(provisional, y1, y2)
            decaying = abs(provisional) < abs(y1) < abs(y2)
            if decaying and 0.0 <= y_ext <= provisional:
                y = y_ext
            else:
                y = provisional
        y = _trust_clamp(y, l_cur, r_tilde, sched.trust_mult)
    sched.y_hist = (y,) + sched.y_hist[:1]
    sched.l_prev = l_cur
    return y


def contract_push(sched: ScheduleState, l_emp: float) -> None:
    """Shrink the push rate r_tilde in place after a stall.

    r_hat is the ratio of the Steffensen extrapolant of the recent
    targets to the previous target, clipped into [0, 1 - gamma_anneal];
    r_tilde is multiplied by (1 - r_hat) and floored at 1 - gamma_min.
    The clip keeps each contraction a gradual rate change: near a stall
    the raw ratio approaches 1 and would wipe out the push in a single
    step, freezing the filter far from its optimum.
    """
    if len(sched.y_hist) < 2:
        r_hat = 0.0
    else:
        y1, y2 = sched.y_hist
        provisional = (1.0 - sched.r_tilde) * l_emp
        y_ext = steffensen_extrapolate(provisional, y1, y2)
        ratio = y_ext / y1 if y1 != 0.0 else 0.0
        r_hat = min(max(ratio, 0.0), 1.0 - sched.gamma_anneal)
    sched.r_tilde = max((1.0 - r_hat) * sched.r_tilde, 1.0 - sched.gamma_min)


def next_stage(sched: ScheduleState, l_emp: float) -> bool:
    """Move ``sched`` to its next, finer stage in place.

    Geometric mode multiplies 1 - gamma by gamma_anneal, stopping at
    gamma_min; aitken mode contracts r_tilde (see contract_push).
    ``l_emp`` is the norm the filter sits at. Returns False, leaving
    ``sched`` as it is, when the schedule is already at its finest
    stage: gamma >= gamma_min, or r_tilde <= 1 - gamma_min.
    """
    if sched.mode == MODE_GEOMETRIC:
        if sched.gamma >= sched.gamma_min:
            return False
        sched.gamma = min(1.0 - (1.0 - sched.gamma) * sched.gamma_anneal,
                          sched.gamma_min)
        return True
    if sched.r_tilde <= 1.0 - sched.gamma_min:
        return False
    contract_push(sched, l_emp)
    return True
