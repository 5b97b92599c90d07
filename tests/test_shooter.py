from __future__ import annotations

import contextlib

import numpy as np
import pytest

from cvslab import ConfigError, ShooterEnv
from cvslab.shooter import (
    ACTION_NOOP,
    ACTION_SHOOT_DOWN,
    ACTION_SHOOT_FLAT,
    ACTION_SHOOT_UP,
    COLS,
    ROWS,
    _OUTCOMES,
    _pack,
    _unpack,
)
from references import reference_shooter_step


def bullet(s: int) -> tuple:
    """The bullet's (row, col, vertical_dir) of a state, all None before the shot."""
    return _unpack(s)[3:]


def test_state_space_size():
    env = ShooterEnv()
    assert env.terminal + 1 == 200 + 120_000 + 1
    assert env.action_layout() == (4, {}, 4)


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
    assert env.step(s, ACTION_NOOP, rng) == (1.0, env.terminal)


def test_hit_compares_against_pre_move_target_row():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    # the target would move off row 2 this step; the arrival still counts
    s = _pack(gun=0, trow=2, tdir=1, brow=2, bcol=18, bdir=0)
    assert env.step(s, ACTION_NOOP, rng)[0] == 1.0
    # and a target moving onto the row arrives too late
    s = _pack(gun=0, trow=1, tdir=1, brow=2, bcol=18, bdir=0)
    assert env.step(s, ACTION_NOOP, rng)[0] == -1.0


def test_miss_on_last_column_ends_episode():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    s = _pack(gun=3, trow=7, tdir=-1, brow=2, bcol=18, bdir=0)
    assert env.step(s, ACTION_NOOP, rng) == (-1.0, env.terminal)


def test_obstacle_blocks_middle_rows():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    s = _pack(gun=0, trow=9, tdir=1, brow=4, bcol=6, bdir=0)
    assert env.step(s, ACTION_NOOP, rng) == (-1.0, env.terminal)
    # a row the obstacle does not cover lets the bullet through
    s = _pack(gun=0, trow=9, tdir=1, brow=3, bcol=6, bdir=0)
    _, s2 = env.step(s, ACTION_NOOP, rng)
    assert s2 != env.terminal
    assert bullet(s2) == (3, 7, 0)


def test_bullet_reflects_off_walls():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    s = _pack(gun=5, trow=9, tdir=1, brow=0, bcol=3, bdir=-1)
    _, s2 = env.step(s, ACTION_NOOP, rng)
    assert bullet(s2) == (1, 4, 1)
    s = _pack(gun=5, trow=9, tdir=1, brow=9, bcol=3, bdir=1)
    _, s2 = env.step(s, ACTION_NOOP, rng)
    assert bullet(s2) == (8, 4, -1)


def test_shoot_launches_bullet_at_column_one():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    _, s2 = env.step(_pack(gun=5, trow=0, tdir=1), ACTION_SHOOT_FLAT, rng)
    assert bullet(s2) == (5, 1, 0)
    assert _unpack(s2)[0] == 5
    _, s2 = env.step(_pack(gun=5, trow=0, tdir=1), ACTION_SHOOT_UP, rng)
    assert bullet(s2) == (4, 1, -1)
    _, s2 = env.step(_pack(gun=5, trow=0, tdir=1), ACTION_SHOOT_DOWN, rng)
    assert bullet(s2) == (6, 1, 1)


def test_shoot_from_wall_reflects_immediately():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    _, s2 = env.step(_pack(gun=0, trow=5, tdir=1), ACTION_SHOOT_UP, rng)
    assert bullet(s2) == (1, 1, 1)
    _, s2 = env.step(_pack(gun=9, trow=5, tdir=1), ACTION_SHOOT_DOWN, rng)
    assert bullet(s2) == (8, 1, -1)


def test_target_oscillates_between_walls():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    _, s2 = env.step(_pack(gun=5, trow=0, tdir=-1), ACTION_NOOP, rng)
    assert _unpack(s2)[1:] == (1, 1, None, None, None)
    _, s2 = env.step(_pack(gun=5, trow=9, tdir=1), ACTION_NOOP, rng)
    assert _unpack(s2)[1:3] == (8, -1)


def test_noop_before_firing_keeps_gun_row():
    env = ShooterEnv()
    rng = np.random.default_rng(0)
    s = _pack(gun=7, trow=4, tdir=1)
    for _ in range(20):
        _, s2 = env.step(s, ACTION_NOOP, rng)
        gun, _, _, brow, _, _ = _unpack(s2)
        assert brow is None
        assert gun == 7
        s = s2


def test_episode_cap_scores_minus_one():
    env = ShooterEnv(max_steps=3)
    rng = np.random.default_rng(0)
    s = env.reset(rng)
    for i in range(3):
        r, s2 = env.step(s, ACTION_NOOP, rng)
        if i < 2:
            assert s2 != env.terminal
            s = s2
    assert s2 == env.terminal
    assert r == -1.0


def test_random_episode_invariants():
    env = ShooterEnv()
    rng = np.random.default_rng(7)
    for _ in range(200):
        s = env.reset(rng)
        fired_col = None
        while True:
            a = int(rng.integers(4))
            prev_col = _unpack(s)[4]
            r, s2 = env.step(s, a, rng)
            if s2 != env.terminal:
                assert r == 0.0
                col = _unpack(s2)[4]
                if prev_col is not None:
                    # shoot actions are spent once a bullet exists
                    assert col == prev_col + 1
                if col is not None:
                    if fired_col is not None:
                        assert col == fired_col + 1
                    fired_col = col
                s = s2
            else:
                assert r in (-1.0, 1.0)
                assert s2 == env.terminal
                break


def test_criticality_is_one_only_before_the_shot():
    env = ShooterEnv()
    h = env.criticality()
    assert h(_pack(gun=0, trow=0, tdir=1)) == 1.0
    assert h(_pack(gun=9, trow=9, tdir=-1)) == 1.0
    assert h(_pack(gun=0, trow=0, tdir=1, brow=5, bcol=5, bdir=0)) == 0.0
    assert h(env.terminal) == 0.0


def test_criticality_is_one_exactly_where_the_action_matters():
    # The shooter's h is structural: 1 exactly at the field ids where two
    # actions give different steps.  No step here meets the cap.
    env = ShooterEnv(max_steps=10**9)
    h = env.criticality()
    width = env.action_layout()[0]
    for s in range(env.terminal):
        steps = {env.step(s, a, None) for a in range(width)}
        assert h(s) == (1.0 if len(steps) > 1 else 0.0), s


def test_config_validation():
    cases = [
        ({"obstacle_rows": (4, 12)}, "obstacle_rows"),
        ({"obstacle_rows": [4, True]}, "obstacle_rows"),
        ({"obstacle_rows": 5}, "obstacle_rows"),
        ({"max_steps": 0}, "max_steps"),
        ({"max_steps": True}, "max_steps"),
        ({"max_steps": 2.5}, "max_steps"),
    ]
    for kwargs, key in cases:
        with pytest.raises(ConfigError) as info:
            ShooterEnv(**kwargs)
        assert info.value.key == key, kwargs


def test_custom_obstacle_rows():
    env = ShooterEnv(obstacle_rows=(0,))
    rng = np.random.default_rng(0)
    s = _pack(gun=0, trow=9, tdir=1, brow=0, bcol=6, bdir=0)
    assert env.step(s, ACTION_NOOP, rng)[0] == -1.0
    s = _pack(gun=0, trow=9, tdir=1, brow=4, bcol=6, bdir=0)
    assert env.step(s, ACTION_NOOP, rng)[1] != env.terminal


def sweep(step, env, steps_before):
    """``step(env, s, a, None)`` on every state x action, each as step
    ``steps_before + 1`` of its episode.  No rng: a shooter step makes no
    draw."""
    out = []
    for s in range(env.terminal):
        for a in range(4):
            env._steps = steps_before
            out.append(step(env, s, a, None))
    return out


def test_cached_steps_equal_the_reference_on_every_state_and_action():
    _OUTCOMES.pop(frozenset((4, 5, 6)), None)
    env = ShooterEnv()
    want = sweep(reference_shooter_step, env, 0)
    for cache in ("cold", "warm"):
        got = sweep(ShooterEnv.step, env, 0)
        assert got == want, cache
        assert all(type(step) is tuple for step in got), cache
    assert len(env._outcomes) == 4 * 200 + 120_000

    # At the cap the reference ends every step that decides nothing with -1.
    end = (-1.0, env.terminal)
    capped = [step if step[1] == env.terminal else end for step in want]
    for max_steps in (1, 2):
        got = sweep(ShooterEnv.step, ShooterEnv(max_steps=max_steps), max_steps - 1)
        assert got == capped, max_steps
        assert all(type(step) is tuple for step in got), max_steps

    # a first visit at the cap leaves the uncapped outcome behind
    _OUTCOMES.pop(frozenset((4, 5, 6)), None)
    assert ShooterEnv(max_steps=1).step(0, ACTION_NOOP, None) == end
    assert ShooterEnv().step(0, ACTION_NOOP, None) == want[0] != end


def test_obstacle_sets_keep_their_own_outcomes():
    assert ShooterEnv(obstacle_rows=[6, 5, 4])._outcomes is ShooterEnv()._outcomes
    # a flat bullet reaching column 7 at row 4 is stopped only by (4, 5, 6)
    s = _pack(gun=4, trow=0, tdir=1, brow=4, bcol=6, bdir=0)
    blocked = (-1.0, ShooterEnv().terminal)
    for order in [((4, 5, 6), (), (0, 9)), ((), (0, 9), (4, 5, 6))]:
        for rows in order:
            _OUTCOMES.pop(frozenset(rows), None)
        for rows in order:
            step = ShooterEnv(obstacle_rows=rows).step(s, ACTION_NOOP, None)
            assert (step == blocked) == (rows == (4, 5, 6)), (order, rows)


@pytest.mark.parametrize("s", [2, _pack(gun=2, trow=3, tdir=1, brow=5, bcol=4, bdir=-1)])
def test_a_float_state_id_stores_no_outcome(monkeypatch, s):
    # A float id hashes as its int, so an outcome computed from it would be
    # stored under the int's key and returned, as floats, to every later step.
    monkeypatch.setitem(_OUTCOMES, frozenset((4, 5, 6)), {})
    with contextlib.suppress(TypeError):
        ShooterEnv().step(float(s), ACTION_SHOOT_UP, None)
    got = ShooterEnv().step(s, ACTION_SHOOT_UP, None)
    assert repr(got) == repr(reference_shooter_step(ShooterEnv(), s, ACTION_SHOOT_UP, None))
