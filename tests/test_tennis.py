from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from cvslab import TennisConfig, TennisEnv
from cvslab.tennis import ACTION_DOWN, ACTION_STAY, ACTION_UP, COLS, ROWS, _pack, _unpack


FIELDS = ("brow", "bcol", "h_dir", "v_dir", "agent", "opp")  # _pack's parameters


def view(s: int) -> SimpleNamespace:
    """The fields of a state id, by name."""
    return SimpleNamespace(**dict(zip(FIELDS, _unpack(s))))


def random_fields(rng) -> tuple[int, ...]:
    """In-range ``_pack`` arguments drawn uniformly."""
    return (
        int(rng.integers(ROWS)),
        int(rng.integers(COLS)),
        -1 if rng.integers(2) == 0 else 1,
        int(rng.integers(3)) - 1,
        int(rng.integers(ROWS)),
        int(rng.integers(ROWS)),
    )


def test_state_space_size():
    env = TennisEnv()
    assert env.num_states == ROWS * COLS * 6 * ROWS * ROWS + 1
    assert env.num_states == 1_920_001
    assert env.action_layout() == (3, {env.terminal: 0})


def test_encode_decode_round_trip():
    env = TennisEnv()
    rng = np.random.default_rng(0)
    for _ in range(1000):
        fields = random_fields(rng)
        sid = _pack(*fields)
        assert 0 <= sid < env.terminal
        assert _unpack(sid) == fields


def test_reset_serves_toward_agent():
    env = TennisEnv()
    rng = np.random.default_rng(2)
    n = 10_000
    v_counts = np.zeros(3)
    for _ in range(n):
        brow, bcol, h_dir, v_dir, agent, opp = _unpack(env.reset(rng))
        assert (brow, bcol, h_dir, agent, opp) == (10, 20, -1, 10, 10)
        v_counts[v_dir + 1] += 1
    assert np.all(np.abs(v_counts / n - 1 / 3) < 0.02)


def test_agent_racket_bounces_ball():
    env = TennisEnv(TennisConfig(p_optimal=1.0))
    rng = np.random.default_rng(0)
    s = _pack(brow=5, bcol=2, h_dir=-1, v_dir=0, agent=5, opp=5)
    tr = env.step(s, ACTION_STAY, rng)
    assert not tr.terminal
    state = view(tr.next_state)
    assert (state.bcol, state.h_dir) == (1, 1)


def test_missed_ball_scores_against_agent():
    env = TennisEnv(TennisConfig(p_optimal=1.0))
    rng = np.random.default_rng(0)
    s = _pack(brow=5, bcol=2, h_dir=-1, v_dir=0, agent=0, opp=5)
    tr = env.step(s, ACTION_STAY, rng)
    assert not tr.terminal
    tr = env.step(tr.next_state, ACTION_STAY, rng)
    assert tr.terminal
    assert tr.reward == -1.0


def test_ball_already_past_racket_is_lost():
    env = TennisEnv(TennisConfig(p_optimal=1.0))
    rng = np.random.default_rng(0)
    # at column 1 still heading left: the catch happened (or not) last step
    s = _pack(brow=5, bcol=1, h_dir=-1, v_dir=0, agent=5, opp=5)
    tr = env.step(s, ACTION_STAY, rng)
    assert tr.terminal
    assert tr.reward == -1.0


def test_opponent_miss_scores_for_agent():
    env = TennisEnv(TennisConfig(p_optimal=1.0))
    rng = np.random.default_rng(0)
    # opponent too far away to reach row 0 in one move
    s = _pack(brow=0, bcol=37, h_dir=1, v_dir=0, agent=5, opp=19)
    tr = env.step(s, ACTION_STAY, rng)
    assert not tr.terminal
    tr = env.step(tr.next_state, ACTION_STAY, rng)
    assert tr.terminal
    assert tr.reward == 1.0


def test_perfect_opponent_returns_reachable_ball():
    env = TennisEnv(TennisConfig(p_optimal=1.0))
    rng = np.random.default_rng(0)
    s = _pack(brow=4, bcol=37, h_dir=1, v_dir=0, agent=5, opp=5)
    tr = env.step(s, ACTION_STAY, rng)
    assert not tr.terminal
    state = view(tr.next_state)
    assert (state.bcol, state.h_dir) == (38, -1)
    assert state.opp == 4


def test_ball_reflects_off_walls():
    env = TennisEnv(TennisConfig(p_optimal=1.0))
    rng = np.random.default_rng(0)
    s = _pack(brow=0, bcol=20, h_dir=1, v_dir=-1, agent=5, opp=5)
    tr = env.step(s, ACTION_STAY, rng)
    state = view(tr.next_state)
    assert (state.brow, state.v_dir) == (1, 1)
    s = _pack(brow=19, bcol=20, h_dir=1, v_dir=1, agent=5, opp=5)
    tr = env.step(s, ACTION_STAY, rng)
    state = view(tr.next_state)
    assert (state.brow, state.v_dir) == (18, -1)


def test_agent_moves_clamp_at_walls():
    env = TennisEnv(TennisConfig(p_optimal=1.0))
    rng = np.random.default_rng(0)
    s = _pack(brow=10, bcol=20, h_dir=1, v_dir=0, agent=0, opp=10)
    tr = env.step(s, ACTION_UP, rng)
    assert view(tr.next_state).agent == 0
    s = _pack(brow=10, bcol=20, h_dir=1, v_dir=0, agent=19, opp=10)
    tr = env.step(s, ACTION_DOWN, rng)
    assert view(tr.next_state).agent == 19


def test_rally_cap_ends_with_zero_reward():
    env = TennisEnv(TennisConfig(max_steps=1))
    rng = np.random.default_rng(0)
    s = env.reset(rng)
    tr = env.step(s, ACTION_STAY, rng)
    assert tr.terminal
    assert tr.reward == 0.0


def test_opponent_follows_ball_at_stated_frequency():
    env = TennisEnv()
    rng = np.random.default_rng(3)
    n = 20_000
    matched = 0
    counted = 0
    s = env.reset(rng)
    for _ in range(n):
        brow, _, _, _, _, opp = _unpack(s)
        want = (opp < brow) - (opp > brow)  # the row delta that closes on the ball
        tr = env.step(s, int(rng.integers(3)), rng)
        if tr.terminal:
            s = env.reset(rng)
            continue
        if 1 <= opp <= ROWS - 2:
            counted += 1
            matched += (_unpack(tr.next_state)[5] - opp) == want
        s = tr.next_state
    assert counted > n // 2
    freq = matched / counted
    assert abs(freq - (0.8 + 0.2 / 3)) < 0.02


def test_criticality_tracks_ball_direction():
    env = TennisEnv()
    h = env.criticality()
    rng = np.random.default_rng(4)
    for _ in range(5000):
        fields = random_fields(rng)
        want = 1.0 if fields[2] == -1 else 0.0
        assert h(_pack(*fields)) == want
    assert h(env.terminal) == 0.0


def test_config_validation():
    with pytest.raises(ValueError, match="p_optimal"):
        TennisConfig(p_optimal=1.5)
    with pytest.raises(ValueError, match="max_steps"):
        TennisConfig(max_steps=0)
