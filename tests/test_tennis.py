from __future__ import annotations

import contextlib
import random
from types import SimpleNamespace

import numpy as np
import pytest

from cvslab import ConfigError, TennisEnv
from cvslab import tennis
from cvslab.core import DrawStream
from cvslab.tennis import ACTION_DOWN, ACTION_STAY, ACTION_UP, COLS, ROWS, _pack, _unpack

from references import reference_tennis_step


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
    assert env.terminal + 1 == ROWS * COLS * 6 * ROWS * ROWS + 1
    assert env.terminal + 1 == 1_920_001
    assert env.action_layout() == (3, {}, 3)


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
    env = TennisEnv(p_optimal=1.0)
    rng = np.random.default_rng(0)
    s = _pack(brow=5, bcol=2, h_dir=-1, v_dir=0, agent=5, opp=5)
    _, s2 = env.step(s, ACTION_STAY, rng)
    assert s2 != env.terminal
    state = view(s2)
    assert (state.bcol, state.h_dir) == (1, 1)


def test_missed_ball_scores_against_agent():
    env = TennisEnv(p_optimal=1.0)
    rng = np.random.default_rng(0)
    s = _pack(brow=5, bcol=2, h_dir=-1, v_dir=0, agent=0, opp=5)
    _, s2 = env.step(s, ACTION_STAY, rng)
    assert s2 != env.terminal
    assert env.step(s2, ACTION_STAY, rng) == (-1.0, env.terminal)


def test_ball_already_past_racket_is_lost():
    env = TennisEnv(p_optimal=1.0)
    rng = np.random.default_rng(0)
    # at column 1 still heading left: the catch happened (or not) last step
    s = _pack(brow=5, bcol=1, h_dir=-1, v_dir=0, agent=5, opp=5)
    assert env.step(s, ACTION_STAY, rng) == (-1.0, env.terminal)


def test_opponent_miss_scores_for_agent():
    env = TennisEnv(p_optimal=1.0)
    rng = np.random.default_rng(0)
    # opponent too far away to reach row 0 in one move
    s = _pack(brow=0, bcol=37, h_dir=1, v_dir=0, agent=5, opp=19)
    _, s2 = env.step(s, ACTION_STAY, rng)
    assert s2 != env.terminal
    assert env.step(s2, ACTION_STAY, rng) == (1.0, env.terminal)


def test_perfect_opponent_returns_reachable_ball():
    env = TennisEnv(p_optimal=1.0)
    rng = np.random.default_rng(0)
    s = _pack(brow=4, bcol=37, h_dir=1, v_dir=0, agent=5, opp=5)
    _, s2 = env.step(s, ACTION_STAY, rng)
    assert s2 != env.terminal
    state = view(s2)
    assert (state.bcol, state.h_dir) == (38, -1)
    assert state.opp == 4


def test_ball_reflects_off_walls():
    env = TennisEnv(p_optimal=1.0)
    rng = np.random.default_rng(0)
    s = _pack(brow=0, bcol=20, h_dir=1, v_dir=-1, agent=5, opp=5)
    _, s2 = env.step(s, ACTION_STAY, rng)
    state = view(s2)
    assert (state.brow, state.v_dir) == (1, 1)
    s = _pack(brow=19, bcol=20, h_dir=1, v_dir=1, agent=5, opp=5)
    _, s2 = env.step(s, ACTION_STAY, rng)
    state = view(s2)
    assert (state.brow, state.v_dir) == (18, -1)


def test_agent_moves_clamp_at_walls():
    env = TennisEnv(p_optimal=1.0)
    rng = np.random.default_rng(0)
    s = _pack(brow=10, bcol=20, h_dir=1, v_dir=0, agent=0, opp=10)
    _, s2 = env.step(s, ACTION_UP, rng)
    assert view(s2).agent == 0
    s = _pack(brow=10, bcol=20, h_dir=1, v_dir=0, agent=19, opp=10)
    _, s2 = env.step(s, ACTION_DOWN, rng)
    assert view(s2).agent == 19


def test_rally_cap_ends_with_zero_reward():
    env = TennisEnv(max_steps=1)
    rng = np.random.default_rng(0)
    s = env.reset(rng)
    assert env.step(s, ACTION_STAY, rng) == (0.0, env.terminal)


@pytest.mark.parametrize(
    "fields, reward",
    [
        ((5, 1, -1, 0, 0, 5), -1.0),  # the agent misses
        ((5, 38, 1, 0, 5, 19), 1.0),  # the opponent misses
        ((5, 2, -1, 0, 5, 5), 0.0),  # the agent returns it
        ((5, 37, 1, 0, 5, 5), 0.0),  # the opponent returns it
    ],
)
def test_score_beats_the_cap_and_the_cap_beats_a_bounce(fields, reward):
    s = _pack(*fields)
    env = TennisEnv(p_optimal=1.0, max_steps=1)
    assert env.step(s, ACTION_STAY, np.random.default_rng(0)) == (reward, env.terminal)
    # Below the cap only a score ends the rally.
    env = TennisEnv(p_optimal=1.0, max_steps=2)
    got, s2 = env.step(s, ACTION_STAY, np.random.default_rng(0))
    assert got == reward
    assert (s2 == env.terminal) == (reward != 0.0)


@pytest.mark.parametrize("h_dir", [-1, 1])
def test_ball_in_an_end_column_stays_in_the_state_space(h_dir):
    # (0, 0, -1, 0, 5, 5) once stepped to -1896, (19, 39, 1, 0, 5, 5) to an
    # id past the sink and (7, 39, 1, 0, 5, 5) wrapped to (8, 0, ...).
    env = TennisEnv(p_optimal=1.0)
    rng = DrawStream(0)
    for brow in range(ROWS):
        for bcol in range(COLS):
            for v_dir in (-1, 0, 1):
                s = _pack(brow, bcol, h_dir, v_dir, 5, 5)
                for a in (ACTION_UP, ACTION_STAY, ACTION_DOWN):
                    env.reset(rng)
                    reward, s2 = env.step(s, a, rng)
                    assert s2 == env.terminal or 0 <= s2 < env.terminal, (_unpack(s), a, s2)
                    if not 0 <= bcol + h_dir < COLS:
                        assert (reward, s2) == (float(h_dir), env.terminal), (_unpack(s), a)


def test_step_matches_reference_on_every_ball():
    """The memoised flight against the step it replaced: every ball id, racket
    rows at the walls and at and next to the ball, every action, step counts
    below, at and past the cap, and three opponents, from a cold memo and
    then a warm one.  Both sides draw from their own stream, and the next two
    draws after each step (a half-word, then a word) must agree too."""
    cap = 1000
    envs = {p: (TennisEnv(p, cap), TennisEnv(p, cap)) for p in (0.0, 0.8, 1.0)}
    streams = DrawStream(7), DrawStream(7)
    pick = random.Random(0)
    tennis._FLIGHT.clear()
    for _ in range(2):
        for ball in range(ROWS * COLS * 6):
            brow = _unpack(ball * ROWS * ROWS)[0]
            rows = sorted({0, ROWS - 1, brow} | {r for r in (brow - 1, brow + 1) if 0 <= r < ROWS})
            for agent in rows:
                for a in (ACTION_UP, ACTION_STAY, ACTION_DOWN):
                    s = (ball * ROWS + agent) * ROWS + pick.choice(rows)
                    env, ref = envs[pick.choice((0.0, 0.8, 1.0))]
                    env._steps = ref._steps = pick.choice((0, cap - 1, cap))
                    got = env.step(s, a, streams[0])
                    want = reference_tennis_step(ref, s, a, streams[1])
                    assert got == want, (_unpack(s), a, env._p_optimal, ref._steps)
                    assert env._steps == ref._steps
                    assert streams[0].integers(2**32) == streams[1].integers(2**32), _unpack(s)
                    assert streams[0].random() == streams[1].random(), _unpack(s)
    assert len(tennis._FLIGHT) <= ROWS * COLS * 6


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
        _, s2 = env.step(s, int(rng.integers(3)), rng)
        if s2 == env.terminal:
            s = env.reset(rng)
            continue
        if 1 <= opp <= ROWS - 2:
            counted += 1
            matched += (_unpack(s2)[5] - opp) == want
        s = s2
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
    cases = [
        ({"p_optimal": 1.5}, "p_optimal"),
        ({"p_optimal": True}, "p_optimal"),
        ({"max_steps": 0}, "max_steps"),
        ({"max_steps": 2.5}, "max_steps"),
    ]
    for kwargs, key in cases:
        with pytest.raises(ConfigError) as info:
            TennisEnv(**kwargs)
        assert info.value.key == key, kwargs


def test_a_float_state_id_stores_no_flight(monkeypatch):
    # A float id's ball hashes as the int ball, so a flight computed from it
    # would be read, as floats, by every later step of that ball.
    monkeypatch.setattr(tennis, "_FLIGHT", {})
    s = _pack(5, 20, -1, 1, 10, 10)
    with contextlib.suppress(TypeError):
        TennisEnv().step(float(s), ACTION_STAY, DrawStream(0))
    got = TennisEnv().step(s, ACTION_STAY, DrawStream(0))
    assert repr(got) == repr(reference_tennis_step(TennisEnv(), s, ACTION_STAY, DrawStream(0)))
