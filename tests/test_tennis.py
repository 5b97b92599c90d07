from __future__ import annotations

import numpy as np
import pytest

from cvslab import TennisConfig, TennisEnv
from cvslab.tennis import ACTION_DOWN, ACTION_STAY, ACTION_UP, COLS, ROWS, TennisState


def encode(env: TennisEnv, **kwargs) -> int:
    return env.encode_state(TennisState(**kwargs))


def test_state_space_size():
    env = TennisEnv()
    assert env.num_states == ROWS * COLS * 6 * ROWS * ROWS + 1
    assert env.num_states == 1_920_001
    assert env.num_actions(env.terminal) == 0
    assert env.num_actions(0) == 3


def test_encode_decode_round_trip():
    env = TennisEnv()
    rng = np.random.default_rng(0)
    for _ in range(1000):
        state = TennisState(
            ball_row=int(rng.integers(ROWS)),
            ball_col=int(rng.integers(COLS)),
            h_dir=-1 if rng.integers(2) == 0 else 1,
            v_dir=int(rng.integers(3)) - 1,
            agent_row=int(rng.integers(ROWS)),
            opponent_row=int(rng.integers(ROWS)),
        )
        sid = env.encode_state(state)
        assert 0 <= sid < env.terminal
        assert env.decode_state(sid) == state


def test_encode_rejects_out_of_range():
    env = TennisEnv()
    base = dict(ball_row=0, ball_col=0, h_dir=-1, v_dir=0, agent_row=0, opponent_row=0)
    for key, bad in [
        ("ball_row", ROWS),
        ("ball_col", -1),
        ("h_dir", 0),
        ("v_dir", 2),
        ("agent_row", 99),
        ("opponent_row", -3),
    ]:
        with pytest.raises(ValueError, match=key):
            env.encode_state(TennisState(**{**base, key: bad}))
    with pytest.raises(ValueError):
        env.decode_state(env.terminal)


def test_reset_serves_toward_agent():
    env = TennisEnv()
    rng = np.random.default_rng(2)
    n = 10_000
    v_counts = np.zeros(3)
    for _ in range(n):
        state = env.decode_state(env.reset(rng))
        assert (state.ball_row, state.ball_col) == (10, 20)
        assert state.h_dir == -1
        assert (state.agent_row, state.opponent_row) == (10, 10)
        v_counts[state.v_dir + 1] += 1
    assert np.all(np.abs(v_counts / n - 1 / 3) < 0.02)


def test_agent_racket_bounces_ball():
    env = TennisEnv(TennisConfig(p_optimal=1.0))
    rng = np.random.default_rng(0)
    s = encode(env, ball_row=5, ball_col=2, h_dir=-1, v_dir=0, agent_row=5, opponent_row=5)
    tr = env.step(s, ACTION_STAY, rng)
    assert not tr.terminal
    state = env.decode_state(tr.next_state)
    assert (state.ball_col, state.h_dir) == (1, 1)


def test_missed_ball_scores_against_agent():
    env = TennisEnv(TennisConfig(p_optimal=1.0))
    rng = np.random.default_rng(0)
    s = encode(env, ball_row=5, ball_col=2, h_dir=-1, v_dir=0, agent_row=0, opponent_row=5)
    tr = env.step(s, ACTION_STAY, rng)
    assert not tr.terminal
    tr = env.step(tr.next_state, ACTION_STAY, rng)
    assert tr.terminal
    assert tr.reward == -1.0


def test_ball_already_past_racket_is_lost():
    env = TennisEnv(TennisConfig(p_optimal=1.0))
    rng = np.random.default_rng(0)
    # at column 1 still heading left: the catch happened (or not) last step
    s = encode(env, ball_row=5, ball_col=1, h_dir=-1, v_dir=0, agent_row=5, opponent_row=5)
    tr = env.step(s, ACTION_STAY, rng)
    assert tr.terminal
    assert tr.reward == -1.0


def test_opponent_miss_scores_for_agent():
    env = TennisEnv(TennisConfig(p_optimal=1.0))
    rng = np.random.default_rng(0)
    # opponent too far away to reach row 0 in one move
    s = encode(env, ball_row=0, ball_col=37, h_dir=1, v_dir=0, agent_row=5, opponent_row=19)
    tr = env.step(s, ACTION_STAY, rng)
    assert not tr.terminal
    tr = env.step(tr.next_state, ACTION_STAY, rng)
    assert tr.terminal
    assert tr.reward == 1.0


def test_perfect_opponent_returns_reachable_ball():
    env = TennisEnv(TennisConfig(p_optimal=1.0))
    rng = np.random.default_rng(0)
    s = encode(env, ball_row=4, ball_col=37, h_dir=1, v_dir=0, agent_row=5, opponent_row=5)
    tr = env.step(s, ACTION_STAY, rng)
    assert not tr.terminal
    state = env.decode_state(tr.next_state)
    assert (state.ball_col, state.h_dir) == (38, -1)
    assert state.opponent_row == 4


def test_ball_reflects_off_walls():
    env = TennisEnv(TennisConfig(p_optimal=1.0))
    rng = np.random.default_rng(0)
    s = encode(env, ball_row=0, ball_col=20, h_dir=1, v_dir=-1, agent_row=5, opponent_row=5)
    tr = env.step(s, ACTION_STAY, rng)
    state = env.decode_state(tr.next_state)
    assert (state.ball_row, state.v_dir) == (1, 1)
    s = encode(env, ball_row=19, ball_col=20, h_dir=1, v_dir=1, agent_row=5, opponent_row=5)
    tr = env.step(s, ACTION_STAY, rng)
    state = env.decode_state(tr.next_state)
    assert (state.ball_row, state.v_dir) == (18, -1)


def test_agent_moves_clamp_at_walls():
    env = TennisEnv(TennisConfig(p_optimal=1.0))
    rng = np.random.default_rng(0)
    s = encode(env, ball_row=10, ball_col=20, h_dir=1, v_dir=0, agent_row=0, opponent_row=10)
    tr = env.step(s, ACTION_UP, rng)
    assert env.decode_state(tr.next_state).agent_row == 0
    s = encode(env, ball_row=10, ball_col=20, h_dir=1, v_dir=0, agent_row=19, opponent_row=10)
    tr = env.step(s, ACTION_DOWN, rng)
    assert env.decode_state(tr.next_state).agent_row == 19


def test_rally_cap_ends_with_zero_reward():
    env = TennisEnv(TennisConfig(max_steps=1))
    rng = np.random.default_rng(0)
    s = env.reset(rng)
    tr = env.step(s, ACTION_STAY, rng)
    assert tr.terminal
    assert tr.reward == 0.0


def test_opponent_optimal_action_helper():
    env = TennisEnv()
    state = TennisState(ball_row=8, ball_col=20, h_dir=1, v_dir=0, agent_row=5, opponent_row=5)
    assert env.opponent_optimal_action(state) == 1
    assert env.opponent_optimal_action(
        TennisState(ball_row=2, ball_col=20, h_dir=1, v_dir=0, agent_row=5, opponent_row=5)
    ) == -1
    assert env.opponent_optimal_action(
        TennisState(ball_row=5, ball_col=20, h_dir=1, v_dir=0, agent_row=5, opponent_row=5)
    ) == 0


def test_opponent_follows_ball_at_stated_frequency():
    env = TennisEnv()
    rng = np.random.default_rng(3)
    n = 20_000
    matched = 0
    counted = 0
    s = env.reset(rng)
    for _ in range(n):
        state = env.decode_state(s)
        want = env.opponent_optimal_action(state)
        tr = env.step(s, int(rng.integers(3)), rng)
        if tr.terminal:
            s = env.reset(rng)
            continue
        after = env.decode_state(tr.next_state)
        if 1 <= state.opponent_row <= ROWS - 2:
            counted += 1
            matched += (after.opponent_row - state.opponent_row) == want
        s = tr.next_state
    assert counted > n // 2
    freq = matched / counted
    assert abs(freq - (0.8 + 0.2 / 3)) < 0.02


def test_criticality_tracks_ball_direction():
    env = TennisEnv()
    h = env.criticality()
    rng = np.random.default_rng(4)
    for _ in range(5000):
        state = TennisState(
            ball_row=int(rng.integers(ROWS)),
            ball_col=int(rng.integers(COLS)),
            h_dir=-1 if rng.integers(2) == 0 else 1,
            v_dir=int(rng.integers(3)) - 1,
            agent_row=int(rng.integers(ROWS)),
            opponent_row=int(rng.integers(ROWS)),
        )
        want = 1.0 if state.h_dir == -1 else 0.0
        assert h(env.encode_state(state)) == want
    assert h(env.terminal) == 0.0


def test_config_validation():
    with pytest.raises(ValueError, match="p_optimal"):
        TennisConfig(p_optimal=1.5)
    with pytest.raises(ValueError, match="max_steps"):
        TennisConfig(max_steps=0)
