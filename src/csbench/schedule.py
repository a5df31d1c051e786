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
    The same shrink, with extrapolation added. Every aitken target is
    kept inside a trust region scaled by the push: it may demand at
    most min(0.5, TRUST_MULT * (1 - gamma)) relative shrink in one
    step. Without the region, a jump straight to the predicted limit
    overshoots across the kinks of the l1 surface and the filter falls
    into a persistent limit cycle instead of settling. The second
    step's target is the region's floor: it pushes as hard as the
    region allows, and the third step's extrapolation takes over from
    whatever state that push produces. From the third step on, the
    target gamma * l1_current is replaced by the Aitken delta-squared
    extrapolant of the last three targets whenever the recent history
    is consistent with a decaying sequence (strictly falling magnitudes
    and an extrapolant between zero and gamma * l1_current); otherwise
    it is kept.

Both policies run in stages, and gamma is changed only between them.
It starts at the constant GAMMA, and next_stage moves the schedule to a
finer stage by one rule for both: it multiplies the push 1 - gamma by
GAMMA_ANNEAL, up to the constant GAMMA_MIN. The push shrinks stage by
stage, so the target sequence approaches a limit instead of pushing
forever, which is what lets the filter settle instead of orbiting its
optimum. next_stage returns False once gamma >= GAMMA_MIN. None of
these numbers is a setting; the mode is the schedule's only one.

A ScheduleState holds the mode, checked when the state is made, and
what a run changes: gamma and the last two targets. next_target and
next_stage advance it in place.
"""

from __future__ import annotations

from dataclasses import dataclass

MODE_GEOMETRIC = "geometric"
MODE_AITKEN = "aitken-steffensen"

# Relative guard on the Aitken denominator; below it the provisional
# target is returned unchanged.
_DENOM_GUARD = 1e-14

# First stage's rate: a 5% push punches through the kinks of the l1
# surface where a fine schedule wedges into a limit cycle.
GAMMA = 0.95
# Finest stage's rate: the error floor a stage leaves scales with its
# push, so the last stage's 0.02% sets the floor of the answer.
GAMMA_MIN = 0.9998
# Share of the push 1 - gamma kept by each promotion.
GAMMA_ANNEAL = 0.25
# Aitken trust region in units of the push; wider overshoots the kinks.
TRUST_MULT = 3.0


@dataclass
class ScheduleState:
    """Schedule state; next_target and next_stage advance it in place."""

    mode: str
    gamma: float = GAMMA
    y_hist: tuple = ()           # past targets, most recent first, at most 2

    def __post_init__(self):
        if self.mode not in (MODE_GEOMETRIC, MODE_AITKEN):
            raise ValueError(f"unknown schedule mode {self.mode!r}")


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
    gamma = sched.gamma
    y = gamma * l_cur
    if sched.mode == MODE_AITKEN:
        if len(sched.y_hist) == 2:
            y1, y2 = sched.y_hist
            y_ext = steffensen_extrapolate(y, y1, y2)
            if abs(y) < abs(y1) < abs(y2) and 0.0 <= y_ext <= y:
                y = y_ext
        floor = (1.0 - min(0.5, TRUST_MULT * (1.0 - gamma))) * l_cur
        y = floor if len(sched.y_hist) == 1 else max(y, floor)
    sched.y_hist = (y,) + sched.y_hist[:1]
    return y


def next_stage(sched: ScheduleState) -> bool:
    """Move ``sched`` to its next, finer stage in place.

    Multiplies the push 1 - gamma by GAMMA_ANNEAL, stopping at
    GAMMA_MIN. Returns False, leaving ``sched`` as it is, when the
    schedule is already at its finest stage, gamma >= GAMMA_MIN.
    """
    if sched.gamma >= GAMMA_MIN:
        return False
    sched.gamma = min(1.0 - GAMMA_ANNEAL * (1.0 - sched.gamma), GAMMA_MIN)
    return True
