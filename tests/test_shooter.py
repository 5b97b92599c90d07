from __future__ import annotations

import numpy as np
import pytest

from cvslab import ShooterConfig, ShooterEnv
from cvslab.shooter import (
    ACTION_NOOP,
    ACTION_SHOOT_DOWN,
    ACTION_SHOOT_FLAT,
    ACTION_SHOOT_UP,
    COLS,
    ROWS,
    _pack,
    _unpack,
)


def bullet(s: int) -> tuple:
    """The bullet's (row, col, vertical_dir) of a state, all None before the shot."""
    return _unpack(s)[3:]


def test_state_space_size():
    env = ShooterEnv()
    assert env.num_states == 200 + 120_000 + 1
    assert env.terminal == env.num_states - 1
    assert env.action_layout() == (4, {env.terminal: 0})


def test_encode_decode_round_trip():
    # every id below TERMINAL decodes to in-range fields that pack back to it
    for s in range(ShooterEnv().terminal):
        gun, trow, tdir, brow, bcol, bdir = fields = _unpack(s)
        assert _pack(*fields) == s
        assert 0 <= gun < ROWS and 0 <= trow < ROWS and tdir in (-1, 1)
        if s < 200:
            assert brow is bcol is bdir is None
        else:
            assert 0 <= brow < ROWS and 0 <= bcol < COLS and bdir in (-1, 0, 1)


def test_reset_distributions():
    env = ShooterEnv()
    rng = np.random.default_rng(1)
    n = 10_000
    gun_counts = np.zeros(ROWS)
    up = 0
    for _ in range(n):
        gun, _, tdir, brow, _, _ = _unpack(env.reset(rng))
        assert brow is None
        gun_counts[gun] += 1
        up += tdir == -1
    assert np.all(np.abs(gun_counts / n - 0.1) < 0.02)
    assert abs(up / n - 0.5) < 0.02


def test_hit_on_last_column():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    # flat bullet one column short of the edge, target sitting on its row
    s = _pack(gun=3, trow=2, tdir=1, brow=2, bcol=18, bdir=0)
    tr = env.step(s, ACTION_NOOP, rng)
    assert tr.reward == 1.0
    assert tr.terminal
    assert tr.next_state == env.terminal


def test_hit_compares_against_pre_move_target_row():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    # the target would move off row 2 this step; the arrival still counts
    s = _pack(gun=0, trow=2, tdir=1, brow=2, bcol=18, bdir=0)
    assert env.step(s, ACTION_NOOP, rng).reward == 1.0
    # and a target moving onto the row arrives too late
    s = _pack(gun=0, trow=1, tdir=1, brow=2, bcol=18, bdir=0)
    assert env.step(s, ACTION_NOOP, rng).reward == -1.0


def test_miss_on_last_column_ends_episode():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    s = _pack(gun=3, trow=7, tdir=-1, brow=2, bcol=18, bdir=0)
    tr = env.step(s, ACTION_NOOP, rng)
    assert tr.reward == -1.0
    assert tr.terminal


def test_obstacle_blocks_middle_rows():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    s = _pack(gun=0, trow=9, tdir=1, brow=4, bcol=6, bdir=0)
    tr = env.step(s, ACTION_NOOP, rng)
    assert tr.reward == -1.0
    assert tr.terminal
    # a row the obstacle does not cover lets the bullet through
    s = _pack(gun=0, trow=9, tdir=1, brow=3, bcol=6, bdir=0)
    tr = env.step(s, ACTION_NOOP, rng)
    assert not tr.terminal
    assert bullet(tr.next_state) == (3, 7, 0)


def test_bullet_reflects_off_walls():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    s = _pack(gun=5, trow=9, tdir=1, brow=0, bcol=3, bdir=-1)
    tr = env.step(s, ACTION_NOOP, rng)
    assert bullet(tr.next_state) == (1, 4, 1)
    s = _pack(gun=5, trow=9, tdir=1, brow=9, bcol=3, bdir=1)
    tr = env.step(s, ACTION_NOOP, rng)
    assert bullet(tr.next_state) == (8, 4, -1)


def test_shoot_launches_bullet_at_column_one():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    tr = env.step(_pack(gun=5, trow=0, tdir=1), ACTION_SHOOT_FLAT, rng)
    assert bullet(tr.next_state) == (5, 1, 0)
    assert _unpack(tr.next_state)[0] == 5
    tr = env.step(_pack(gun=5, trow=0, tdir=1), ACTION_SHOOT_UP, rng)
    assert bullet(tr.next_state) == (4, 1, -1)
    tr = env.step(_pack(gun=5, trow=0, tdir=1), ACTION_SHOOT_DOWN, rng)
    assert bullet(tr.next_state) == (6, 1, 1)


def test_shoot_from_wall_reflects_immediately():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    tr = env.step(_pack(gun=0, trow=5, tdir=1), ACTION_SHOOT_UP, rng)
    assert bullet(tr.next_state) == (1, 1, 1)
    tr = env.step(_pack(gun=9, trow=5, tdir=1), ACTION_SHOOT_DOWN, rng)
    assert bullet(tr.next_state) == (8, 1, -1)


def test_target_oscillates_between_walls():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    tr = env.step(_pack(gun=5, trow=0, tdir=-1), ACTION_NOOP, rng)
    assert _unpack(tr.next_state)[1:] == (1, 1, None, None, None)
    tr = env.step(_pack(gun=5, trow=9, tdir=1), ACTION_NOOP, rng)
    assert _unpack(tr.next_state)[1:3] == (8, -1)


def test_noop_before_firing_keeps_gun_row():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    s = _pack(gun=7, trow=4, tdir=1)
    for _ in range(20):
        tr = env.step(s, ACTION_NOOP, rng)
        gun, _, _, brow, _, _ = _unpack(tr.next_state)
        assert brow is None
        assert gun == 7
        s = tr.next_state


def test_episode_cap_scores_minus_one():
    env = ShooterEnv(ShooterConfig(max_steps=3))
    rng = np.random.default_rng(0)
    s = env.reset(rng)
    for i in range(3):
        tr = env.step(s, ACTION_NOOP, rng)
        if i < 2:
            assert not tr.terminal
            s = tr.next_state
    assert tr.terminal
    assert tr.reward == -1.0


def test_random_episode_invariants():
    env = ShooterEnv()
    rng = np.random.default_rng(7)
    for _ in range(200):
        s = env.reset(rng)
        fired_col = None
        while True:
            a = int(rng.integers(4))
            prev_col = _unpack(s)[4]
            tr = env.step(s, a, rng)
            if not tr.terminal:
                assert tr.reward == 0.0
                col = _unpack(tr.next_state)[4]
                if prev_col is not None:
                    # shoot actions are spent once a bullet exists
                    assert col == prev_col + 1
                if col is not None:
                    if fired_col is not None:
                        assert col == fired_col + 1
                    fired_col = col
                s = tr.next_state
            else:
                assert tr.reward in (-1.0, 1.0)
                assert tr.next_state == env.terminal
                break


def test_criticality_is_one_only_before_the_shot():
    env = ShooterEnv()
    h = env.criticality()
    assert h(_pack(gun=0, trow=0, tdir=1)) == 1.0
    assert h(_pack(gun=9, trow=9, tdir=-1)) == 1.0
    assert h(_pack(gun=0, trow=0, tdir=1, brow=5, bcol=5, bdir=0)) == 0.0
    assert h(env.terminal) == 0.0


def test_config_validation():
    with pytest.raises(ValueError, match="obstacle row"):
        ShooterConfig(obstacle_rows=(4, 12))
    with pytest.raises(ValueError, match="max_steps"):
        ShooterConfig(max_steps=0)


def test_custom_obstacle_rows():
    env = ShooterEnv(ShooterConfig(obstacle_rows=(0,)))
    rng = np.random.default_rng(0)
    s = _pack(gun=0, trow=9, tdir=1, brow=0, bcol=6, bdir=0)
    assert env.step(s, ACTION_NOOP, rng).reward == -1.0
    s = _pack(gun=0, trow=9, tdir=1, brow=4, bcol=6, bdir=0)
    assert not env.step(s, ACTION_NOOP, rng).terminal
