"""Target schedules: geometric shrink and trend extrapolation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csbench.nkf import NkfConfig
from csbench.schedule import (GAMMA, GAMMA_ANNEAL, GAMMA_MIN, MODE_AITKEN,
                              MODE_GEOMETRIC, TRUST_MULT, ScheduleState,
                              next_stage, next_target,
                              steffensen_extrapolate)


def _state(gamma=GAMMA, y_hist=(), mode=MODE_GEOMETRIC):
    # The push is a constant of the schedule, so a test that needs
    # another one sets it on the state.
    state = ScheduleState(mode, y_hist=y_hist)
    state.gamma = gamma
    return state


def _aitken_state(gamma=GAMMA, y_hist=()):
    return _state(gamma, y_hist, MODE_AITKEN)


def test_geometric_target_value():
    assert next_target(_state(gamma=0.99), 10.0) == pytest.approx(
        9.9, rel=1e-15)
    assert next_target(_state(gamma=0.5), 0.0) == 0.0


def test_next_target_geometric_advances_state():
    s = _state()
    y1 = next_target(s, 10.0)
    assert y1 == pytest.approx(9.5, rel=1e-15)
    assert s.y_hist == (y1,)
    y2 = next_target(s, y1)
    assert y2 == pytest.approx(0.95 * y1, rel=1e-15)
    y3 = next_target(s, y2)
    y4 = next_target(s, y3)
    assert len(s.y_hist) == 2
    assert s.y_hist == (y4, y3)


def test_steffensen_examples():
    assert steffensen_extrapolate(0.25, 0.5, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert steffensen_extrapolate(0.44, 0.6, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
    # constant sequence has a vanishing denominator: fall back to y_k
    assert steffensen_extrapolate(1.0, 1.0, 1.0) == 1.0


def test_steffensen_exact_on_geometric_sequences():
    # y_j = L + A r^j is mapped exactly to its limit L.
    rng = np.random.default_rng(77)
    for _ in range(100):
        r = rng.uniform(-0.9, 0.9)
        if abs(r) < 0.1:
            r = 0.1 if r >= 0 else -0.1
        a = rng.uniform(0.1, 10.0) * (1 if rng.random() < 0.5 else -1)
        lim = rng.uniform(-10.0, 10.0)
        seq = [lim + a * r ** j for j in range(3)]
        y_ext = steffensen_extrapolate(seq[2], seq[1], seq[0])
        assert abs(y_ext - lim) <= 1e-9
        # The denominator guard is relative, so the same sequence in
        # other units extrapolates to the same limit, bit for bit.
        tiny = [v * 2.0 ** -60 for v in seq]
        assert (steffensen_extrapolate(tiny[2], tiny[1], tiny[0])
                == y_ext * 2.0 ** -60)


def test_aitken_first_step_is_plain_shrink():
    s = _aitken_state(gamma=0.99)
    y = next_target(s, 10.0)
    assert y == pytest.approx(0.99 * 10.0, rel=1e-15)
    assert s.y_hist == (y,)


def test_aitken_frozen_three_step_example():
    # Norms 1, 0.5, 0.375 with gamma = 0.8, where the trust region is
    # capped at half the norm. The first target is 0.8; the second is
    # held at the trust floor 0.25, so the history no longer decays, and
    # the third target is the plain shrink 0.8 * 0.375.
    assert TRUST_MULT * (1.0 - 0.8) >= 0.5
    s = _aitken_state(gamma=0.8)
    y1 = next_target(s, 1.0)
    assert y1 == 0.8
    y2 = next_target(s, 0.5)
    assert y2 == pytest.approx(0.25, rel=1e-15)
    y3 = next_target(s, 0.375)
    assert y3 == pytest.approx(0.3, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    gamma=st.floats(min_value=1e-3, max_value=1.0 - 1e-6),
    l_first=st.floats(min_value=0.0, max_value=1e9),
    l_cur=st.floats(min_value=0.0, max_value=1e9),
    promote=st.booleans(),
)
def test_aitken_second_target_is_trust_floor(gamma, l_first, l_cur,
                                             promote):
    # Whatever the first norm, and whether or not a promotion comes
    # between the two steps, the second target pushes as hard as the
    # trust region allows.
    s = _aitken_state(gamma=gamma)
    next_target(s, l_first)
    if promote:
        next_stage(s)
    floor = (1.0 - min(0.5, TRUST_MULT * (1.0 - s.gamma))) * l_cur
    assert next_target(s, l_cur) == floor
    assert s.y_hist[0] == floor


# In the three third-step tests below, the trust region at gamma = 0.88
# is [0.64, 1] times the norm and at gamma = 0.5 it is [0.5, 1]; it does
# not bind on the targets they check.
def test_aitken_third_step_accepts_decaying_extrapolant():
    # Provisional target 0.88 * 0.5 = 0.44; the floor is 0.32.
    s = _aitken_state(gamma=0.88, y_hist=(0.6, 1.0))
    y = next_target(s, 0.5)
    assert y == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_aitken_third_step_rejects_non_decaying_history():
    s = _aitken_state(gamma=0.88, y_hist=(0.5, 0.4))
    y = next_target(s, 0.5)
    assert y == pytest.approx(0.44, rel=1e-15)


def test_aitken_third_step_rejects_out_of_range_extrapolant():
    # steffensen(0.25, 0.75, 1.0) = 1.25, above the provisional target
    # 0.5 * 0.5 = 0.25.
    s = _aitken_state(gamma=0.5, y_hist=(0.75, 1.0))
    y = next_target(s, 0.5)
    assert y == pytest.approx(0.25, rel=1e-15)


def test_aitken_trust_clamp_limits_extrapolated_jump():
    # The extrapolant 0.11667 demands a 45% one-step shrink; with
    # gamma = 0.99 the trust region allows only 3%.
    l_cur = 0.2125 / 0.99
    s = _aitken_state(gamma=0.99, y_hist=(0.325, 0.55))
    y = next_target(s, l_cur)
    assert y == pytest.approx(0.97 * l_cur, rel=1e-12)
    assert s.y_hist[0] == y     # history keeps the clamped value


# The contract_push tests check how a promotion contracts the push
# 1 - gamma.
def test_contract_push_clips_ratio():
    # The push quarters: GAMMA_ANNEAL = 0.25.
    assert GAMMA_ANNEAL == 0.25
    s = _aitken_state(gamma=0.99, y_hist=(0.5, 0.55))
    assert next_stage(s)
    assert 1.0 - s.gamma == pytest.approx(0.0025, rel=1e-12)


def test_contract_push_respects_floor():
    s = _aitken_state(gamma=1.0 - 3e-4, y_hist=(0.5, 0.55))
    assert next_stage(s)
    assert 1.0 - s.gamma == pytest.approx(2e-4, rel=1e-12)
    assert s.gamma == GAMMA_MIN


@pytest.mark.parametrize("gamma", [0.5, 0.75, 0.3])
def test_next_stage_aitken_at_clip_matches_geometric(gamma):
    # From any starting gamma, an aitken promotion keeps GAMMA_ANNEAL of
    # the push, bit for bit as a geometric one does.
    geo = _state(gamma=gamma)
    ait = _aitken_state(gamma=gamma, y_hist=(0.5, 0.55))
    while next_stage(geo):
        assert next_stage(ait)
        assert ait.gamma == geo.gamma
    assert not next_stage(ait)


@settings(max_examples=200, deadline=None)
@given(
    gamma=st.floats(min_value=1e-3, max_value=1.0 - 1e-6),
    hist=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                  max_size=2),
)
def test_next_stage_aitken_is_geometric(gamma, hist):
    # A promotion reads neither the mode nor the target history: from
    # any gamma and history, an aitken schedule steps through the same
    # gammas as a geometric one, bit for bit.
    geo = _state(gamma)
    ait = _aitken_state(gamma, tuple(hist))
    while next_stage(geo):
        assert next_stage(ait)
        assert ait.gamma == geo.gamma
    assert not next_stage(ait)
    assert ait.gamma == geo.gamma
    assert ait.y_hist == tuple(hist)


def test_next_stage_geometric_anneals_up_to_gamma_min():
    assert (GAMMA, GAMMA_MIN) == (0.95, 0.9998)
    s = ScheduleState(MODE_GEOMETRIC)
    gammas = []
    while next_stage(s):
        gammas.append(s.gamma)
    # 1 - gamma quarters per promotion, 0.05 -> 7.8125e-4, then stops at
    # 1 - GAMMA_MIN = 2e-4 instead of going on to 1.953125e-4.
    expected = [1.0 - 0.05 * 0.25 ** i for i in range(1, 4)] + [0.9998]
    assert gammas == pytest.approx(expected, rel=1e-15)
    assert s.gamma == 0.9998
    assert not next_stage(s)
    assert s.gamma == 0.9998
    # A schedule that starts at its finest stage is never promoted.
    fine = _state(gamma=0.9999)
    assert not next_stage(fine)
    assert fine.gamma == 0.9999


def test_next_stage_aitken_contracts_to_floor():
    # Each promotion keeps GAMMA_ANNEAL of the push, whatever the target
    # history, until GAMMA_MIN: 0.05 -> 7.8125e-4, then 2e-4.
    s = _aitken_state(y_hist=(0.5, 0.55))
    pushes = []
    while next_stage(s):
        pushes.append(1.0 - s.gamma)
    expected = ([0.05 * GAMMA_ANNEAL ** i for i in range(1, 4)]
                + [1.0 - GAMMA_MIN])
    assert pushes == pytest.approx(expected, rel=1e-12)
    assert s.gamma == GAMMA_MIN
    assert not next_stage(s)
    assert s.gamma == GAMMA_MIN
    assert s.y_hist == (0.5, 0.55)


def test_schedule_state_validation():
    # The mode, the schedule's one setting, is validated once, by the
    # config. The state holds only what a run changes besides it, and
    # starts at the constant GAMMA.
    with pytest.raises(ValueError):
        NkfConfig(schedule_mode="newton")
    assert ([f.name for f in dataclasses.fields(ScheduleState)]
            == ["mode", "gamma", "y_hist"])
    s = ScheduleState(MODE_AITKEN)
    assert (s.gamma, s.y_hist) == (GAMMA, ())


@settings(max_examples=200, deadline=None)
@given(
    gamma=st.floats(min_value=1e-3, max_value=1.0 - 1e-6),
    l_cur=st.floats(min_value=1e-6, max_value=1e6),
    steps=st.sampled_from([0, 1, 2]),
    h0=st.floats(min_value=-10.0, max_value=10.0),
    h1=st.floats(min_value=-10.0, max_value=10.0),
)
def test_aitken_targets_stay_in_trust_region(gamma, l_cur, steps, h0, h1):
    hist = (h0, h1)[:steps]
    s = _aitken_state(gamma=gamma, y_hist=hist)
    y = next_target(s, l_cur)
    cap = min(0.5, TRUST_MULT * (1.0 - gamma))
    assert y <= l_cur * (1 + 1e-15)
    assert y >= (1.0 - cap) * l_cur * (1 - 1e-15)


@settings(max_examples=100, deadline=None)
@given(
    gamma=st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
    l_cur=st.floats(min_value=0.0, max_value=1e9),
)
def test_geometric_target_scales_exactly(gamma, l_cur):
    assert next_target(_state(gamma=gamma), l_cur) == gamma * l_cur
