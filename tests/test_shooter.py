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
    Bullet,
    ShooterState,
)


def pre_state(env: ShooterEnv, gun: int, trow: int, tdir: int) -> int:
    return env.encode_state(ShooterState(gun_row=gun, target_row=trow, target_dir=tdir))


def flying(env: ShooterEnv, gun: int, trow: int, tdir: int, brow: int, bcol: int, bdir: int) -> int:
    return env.encode_state(
        ShooterState(gun_row=gun, target_row=trow, target_dir=tdir, bullet=Bullet(brow, bcol, bdir))
    )


def test_state_space_size():
    env = ShooterEnv()
    assert env.num_states == 200 + 120_000 + 1
    assert env.terminal == env.num_states - 1
    assert env.num_actions(env.terminal) == 0
    assert env.num_actions(0) == 4


def test_encode_decode_round_trip():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    for _ in range(1000):
        state = ShooterState(
            gun_row=int(rng.integers(ROWS)),
            target_row=int(rng.integers(ROWS)),
            target_dir=-1 if rng.integers(2) == 0 else 1,
            bullet=None
            if rng.integers(2) == 0
            else Bullet(int(rng.integers(ROWS)), int(rng.integers(COLS)), int(rng.integers(3)) - 1),
        )
        sid = env.encode_state(state)
        assert 0 <= sid < env.terminal
        assert env.decode_state(sid) == state


def test_encode_rejects_out_of_range():
    env = ShooterEnv()
    with pytest.raises(ValueError):
        env.encode_state(ShooterState(gun_row=-1, target_row=0, target_dir=1))
    with pytest.raises(ValueError):
        env.encode_state(ShooterState(gun_row=0, target_row=0, target_dir=0))
    with pytest.raises(ValueError):
        env.encode_state(
            ShooterState(gun_row=0, target_row=0, target_dir=1, bullet=Bullet(0, COLS, 0))
        )
    with pytest.raises(ValueError):
        env.decode_state(env.terminal)


def test_reset_distributions():
    env = ShooterEnv()
    rng = np.random.default_rng(1)
    n = 10_000
    gun_counts = np.zeros(ROWS)
    up = 0
    for _ in range(n):
        state = env.decode_state(env.reset(rng))
        assert state.bullet is None
        gun_counts[state.gun_row] += 1
        up += state.target_dir == -1
    assert np.all(np.abs(gun_counts / n - 0.1) < 0.02)
    assert abs(up / n - 0.5) < 0.02


def test_hit_on_last_column():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    # flat bullet one column short of the edge, target sitting on its row
    s = flying(env, gun=3, trow=2, tdir=1, brow=2, bcol=18, bdir=0)
    tr = env.step(s, ACTION_NOOP, rng)
    assert tr.reward == 1.0
    assert tr.terminal
    assert tr.next_state == env.terminal


def test_hit_compares_against_pre_move_target_row():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    # the target would move off row 2 this step; the arrival still counts
    s = flying(env, gun=0, trow=2, tdir=1, brow=2, bcol=18, bdir=0)
    assert env.step(s, ACTION_NOOP, rng).reward == 1.0
    # and a target moving onto the row arrives too late
    s = flying(env, gun=0, trow=1, tdir=1, brow=2, bcol=18, bdir=0)
    assert env.step(s, ACTION_NOOP, rng).reward == -1.0


def test_miss_on_last_column_ends_episode():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    s = flying(env, gun=3, trow=7, tdir=-1, brow=2, bcol=18, bdir=0)
    tr = env.step(s, ACTION_NOOP, rng)
    assert tr.reward == -1.0
    assert tr.terminal


def test_obstacle_blocks_middle_rows():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    s = flying(env, gun=0, trow=9, tdir=1, brow=4, bcol=6, bdir=0)
    tr = env.step(s, ACTION_NOOP, rng)
    assert tr.reward == -1.0
    assert tr.terminal
    # a row the obstacle does not cover lets the bullet through
    s = flying(env, gun=0, trow=9, tdir=1, brow=3, bcol=6, bdir=0)
    tr = env.step(s, ACTION_NOOP, rng)
    assert not tr.terminal
    assert env.decode_state(tr.next_state).bullet == Bullet(3, 7, 0)


def test_bullet_reflects_off_walls():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    s = flying(env, gun=5, trow=9, tdir=1, brow=0, bcol=3, bdir=-1)
    tr = env.step(s, ACTION_NOOP, rng)
    b = env.decode_state(tr.next_state).bullet
    assert b == Bullet(1, 4, 1)
    s = flying(env, gun=5, trow=9, tdir=1, brow=9, bcol=3, bdir=1)
    tr = env.step(s, ACTION_NOOP, rng)
    assert env.decode_state(tr.next_state).bullet == Bullet(8, 4, -1)


def test_shoot_launches_bullet_at_column_one():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    tr = env.step(pre_state(env, gun=5, trow=0, tdir=1), ACTION_SHOOT_FLAT, rng)
    state = env.decode_state(tr.next_state)
    assert state.bullet == Bullet(5, 1, 0)
    assert state.gun_row == 5
    tr = env.step(pre_state(env, gun=5, trow=0, tdir=1), ACTION_SHOOT_UP, rng)
    assert env.decode_state(tr.next_state).bullet == Bullet(4, 1, -1)
    tr = env.step(pre_state(env, gun=5, trow=0, tdir=1), ACTION_SHOOT_DOWN, rng)
    assert env.decode_state(tr.next_state).bullet == Bullet(6, 1, 1)


def test_shoot_from_wall_reflects_immediately():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    tr = env.step(pre_state(env, gun=0, trow=5, tdir=1), ACTION_SHOOT_UP, rng)
    assert env.decode_state(tr.next_state).bullet == Bullet(1, 1, 1)
    tr = env.step(pre_state(env, gun=9, trow=5, tdir=1), ACTION_SHOOT_DOWN, rng)
    assert env.decode_state(tr.next_state).bullet == Bullet(8, 1, -1)


def test_target_oscillates_between_walls():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    tr = env.step(pre_state(env, gun=5, trow=0, tdir=-1), ACTION_NOOP, rng)
    state = env.decode_state(tr.next_state)
    assert (state.target_row, state.target_dir) == (1, 1)
    assert state.bullet is None
    tr = env.step(pre_state(env, gun=5, trow=9, tdir=1), ACTION_NOOP, rng)
    state = env.decode_state(tr.next_state)
    assert (state.target_row, state.target_dir) == (8, -1)


def test_noop_before_firing_keeps_gun_row():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    s = pre_state(env, gun=7, trow=4, tdir=1)
    for _ in range(20):
        tr = env.step(s, ACTION_NOOP, rng)
        state = env.decode_state(tr.next_state)
        assert state.bullet is None
        assert state.gun_row == 7
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
            prev = env.decode_state(s)
            tr = env.step(s, a, rng)
            if not tr.terminal:
                assert tr.reward == 0.0
                state = env.decode_state(tr.next_state)
                if prev.fired:
                    # shoot actions are spent once a bullet exists
                    assert state.fired
                    assert state.bullet.col == prev.bullet.col + 1
                if state.fired:
                    if fired_col is not None:
                        assert state.bullet.col == fired_col + 1
                    fired_col = state.bullet.col
                s = tr.next_state
            else:
                assert tr.reward in (-1.0, 1.0)
                assert tr.next_state == env.terminal
                break


def test_criticality_is_one_only_before_the_shot():
    env = ShooterEnv()
    h = env.criticality()
    assert h(pre_state(env, gun=0, trow=0, tdir=1)) == 1.0
    assert h(pre_state(env, gun=9, trow=9, tdir=-1)) == 1.0
    assert h(flying(env, gun=0, trow=0, tdir=1, brow=5, bcol=5, bdir=0)) == 0.0
    assert h(env.terminal) == 0.0


def test_config_validation():
    with pytest.raises(ValueError, match="obstacle row"):
        ShooterConfig(obstacle_rows=(4, 12))
    with pytest.raises(ValueError, match="max_steps"):
        ShooterConfig(max_steps=0)


def test_custom_obstacle_rows():
    env = ShooterEnv(ShooterConfig(obstacle_rows=(0,)))
    rng = np.random.default_rng(0)
    s = flying(env, gun=0, trow=9, tdir=1, brow=0, bcol=6, bdir=0)
    assert env.step(s, ACTION_NOOP, rng).reward == -1.0
    s = flying(env, gun=0, trow=9, tdir=1, brow=4, bcol=6, bdir=0)
    assert not env.step(s, ACTION_NOOP, rng).terminal
