from __future__ import annotations

import hashlib
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvslab import (
    AgentParams,
    QTable,
    RoadTreeEnv,
    ShooterEnv,
    TennisEnv,
    Transition,
    epsilon_greedy,
    fig1_tree,
    greedy_actions,
)
from cvslab.core import _DRAW_BLOCK, DrawStream, q_index, q_update, q_update_traced


def layout_of(counts):
    """The action layout of a per-state count list."""
    width = max(1, max(counts))
    return width, {s: k for s, k in enumerate(counts) if k < width}


def make_table(counts, terminal, initial=0.0):
    return QTable(len(counts), layout_of(counts), terminal, initial)


def test_agent_params_defaults():
    p = AgentParams()
    assert p.alpha == 0.1
    assert p.epsilon == 0.1
    assert p.gamma == 1.0
    assert p.lam == 0.9
    assert p.n == 1


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        ({"alpha": 0.0}, "alpha"),
        ({"alpha": 1.5}, "alpha"),
        ({"epsilon": -0.1}, "epsilon"),
        ({"epsilon": 1.1}, "epsilon"),
        ({"gamma": 0.0}, "gamma"),
        ({"gamma": 1.2}, "gamma"),
        ({"lam": -0.5}, "lambda"),
        ({"lam": 1.5}, "lambda"),
        ({"n": 0}, "n"),
        ({"n": 2.5}, "n"),
        ({"n": True}, "n"),
        ({"alpha": True}, "alpha"),
        ({"epsilon": False}, "epsilon"),
        ({"gamma": True}, "gamma"),
        ({"lam": False}, "lambda"),
        ({"alpha": "0.5"}, "alpha"),
        ({"lam": None}, "lambda"),
    ],
)
def test_agent_params_rejects_bad_values(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        AgentParams(**kwargs)


def test_qtable_padding_and_terminal_row():
    q = make_table([2, 3, 0], terminal=2, initial=0.5)
    assert q.num_states == 3
    assert q.num_actions(0) == 2
    assert q.num_actions(1) == 3
    arr = q.as_array()
    assert arr.shape == (3, 3)
    assert arr[0, 2] == -np.inf
    assert np.all(arr[2] == 0.0)
    assert np.all(arr[0, :2] == 0.5)
    assert q[1, 2] == 0.5


GUARDED_CALLS = {
    "q_update": lambda q, s: q_update(q, s, 0, 1.0, 0.5),
    "q_index": lambda q, s: q_index(q, s, 0),
    "greedy_actions": greedy_actions,
    "epsilon_greedy": lambda q, s: epsilon_greedy(q, s, 0.5, np.random.default_rng(0)),
    "row_max": lambda q, s: q.row_max(s),
    "num_actions": lambda q, s: q.num_actions(s),
    "getitem": lambda q, s: q[s, 0],
}
GUARD_ENVS = {
    "tennis": TennisEnv,
    "shooter": ShooterEnv,
    "fig1": lambda: RoadTreeEnv(fig1_tree()),
}


@pytest.mark.parametrize("call", sorted(GUARDED_CALLS))
@pytest.mark.parametrize("env_name", sorted(GUARD_ENVS))
def test_out_of_range_states_are_rejected(env_name, call):
    env = GUARD_ENVS[env_name]()
    q = QTable.for_env(env, 0.0)
    # Row -1 is TERMINAL's; a call that took s = -1 for a full row would
    # write or read there through numpy's negative indexing.
    before = hashlib.sha256(q._values).digest()
    for s in (-1, env.num_states):
        with pytest.raises(ValueError, match="out of range"):
            GUARDED_CALLS[call](q, s)
    assert hashlib.sha256(q._values).digest() == before
    assert q.writes == 0


@pytest.mark.parametrize("env_name", sorted(GUARD_ENVS))
def test_envs_reject_out_of_range_states(env_name):
    env = GUARD_ENVS[env_name]()
    rng = np.random.default_rng(0)
    for s in (-1, env.num_states):
        with pytest.raises(ValueError, match=f"state {s} out of range"):
            env.step(s, 0, rng)
    with pytest.raises(ValueError, match="cannot step from the TERMINAL state"):
        env.step(env.terminal, 0, rng)


@pytest.mark.parametrize("a", [-1, 1, 2])
def test_getitem_rejects_actions_the_state_lacks(a):
    # fig1's state 1 is a road state: one action in a row two slots wide
    env = RoadTreeEnv(fig1_tree())
    q = QTable.for_env(env, 0.0)
    assert env.action_layout()[1][1] == 1
    assert q._width == 2
    for read in (lambda: q[1, a], lambda: q_update(q, 1, a, 1.0, 0.5)):
        with pytest.raises(ValueError, match=f"action {a} invalid for state 1"):
            read()
    assert q[1, 0] == 0.0
    assert q.writes == 0


def reference_qtable_values(counts, terminal, initial):
    """Construction before zero pages: fill every slot, then mask the padding."""
    counts = np.asarray(counts, dtype=np.int16)
    width = max(1, int(counts.max()))
    values = np.full((len(counts), width), float(initial), dtype=np.float64)
    values[np.arange(width) >= counts[:, None]] = -np.inf
    values[terminal, :] = 0.0
    return values


@given(
    counts=st.lists(st.integers(0, 4), min_size=1, max_size=12),
    initial=st.sampled_from((0.0, -0.0, 5.0, -1.5)),
    data=st.data(),
)
def test_qtable_construction_matches_fill_and_mask_reference(counts, initial, data):
    terminal = data.draw(st.integers(0, len(counts) - 1))
    q = make_table(counts, terminal, initial)
    # tobytes tells -0.0 from 0.0, which == does not
    assert q.as_array().tobytes() == reference_qtable_values(counts, terminal, initial).tobytes()


def test_qtable_row_and_row_max():
    q = make_table([3, 1], terminal=1)
    q_update(q, 0, 1, 5.0, 1.0)
    # the valid action values of a row, copied out of the table
    row = q.as_array()[0, : q.num_actions(0)]
    assert row.tolist() == [0.0, 5.0, 0.0]
    assert q.row_max(0) == 5.0
    # as_array() hands out a copy, not a view
    row[0] = 99.0
    assert q[0, 0] == 0.0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("initial", [0.0, 0.5])
def test_qtable_memory_is_private_to_its_process(initial):
    q = make_table([2, 1], terminal=1, initial=initial)
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child process
        q_update(q, 0, 0, 7.0, 1.0)
        os._exit(0 if q[0, 0] == 7.0 else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert q[0, 0] == initial
    q_update(q, 0, 1, 3.0, 1.0)
    assert q[0, 1] == 3.0


def test_qtable_rejects_bad_shapes():
    with pytest.raises(ValueError, match="num_states"):
        QTable(0, (1, {}), 0)
    with pytest.raises(ValueError, match="width"):
        QTable(2, (0, {}), 0)
    with pytest.raises(ValueError, match="terminal"):
        make_table([1, 1], terminal=5)
    for narrow in ({2: 0}, {-1: 0}, {0: 2}, {0: -1}):
        with pytest.raises(ValueError, match="does not fit"):
            QTable(2, (2, narrow), 1)


def test_tennis_table_allocates_no_per_state_array():
    env = TennisEnv()
    tracemalloc.start()
    try:
        q = QTable.for_env(env)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert q._values.nbytes > 40e6  # the table itself lives on zero pages
    assert peak < 64 * 1024


def test_q_update_moves_toward_target():
    q = make_table([2, 1], terminal=1)
    q_update(q, 0, 0, 1.0, 0.1)
    assert q[0, 0] == 0.1
    q_update(q, 0, 0, 1.0, 0.1)
    assert q[0, 0] == 0.1 + 0.1 * (1.0 - 0.1)
    assert q.writes == 2


def test_q_update_guards():
    q = make_table([2, 1], terminal=1)
    with pytest.raises(ValueError):
        q_update(q, 1, 0, 1.0, 0.1)
    with pytest.raises(ValueError):
        q_update(q, 0, 2, 1.0, 0.1)
    assert q.writes == 0


def test_q_index_applies_the_q_update_guards():
    q = make_table([2, 1], terminal=1)
    assert q_index(q, 0, 1) == 1
    with pytest.raises(ValueError, match="TERMINAL"):
        q_index(q, 1, 0)
    with pytest.raises(ValueError, match="invalid"):
        q_index(q, 0, 2)


def test_q_update_traced_matches_one_q_update_per_entry():
    rng = np.random.default_rng(9)
    q = make_table([3, 2, 0, 3], terminal=2, initial=0.7)
    ref = make_table([3, 2, 0, 3], terminal=2, initial=0.7)
    pairs = [(3, 2), (0, 1), (1, 0), (0, 0)]
    idx = np.array([q_index(q, s, a) for s, a in pairs])
    traces = rng.random(len(pairs))
    delta, alpha = 0.37, 0.3
    targets = q_update_traced(q, idx, traces, delta, alpha, fresh=2, fresh_target=-1.25)
    for i, (s, a) in enumerate(pairs):
        target = -1.25 if i == 2 else ref[s, a] + delta * traces[i]
        assert targets[i] == target
        q_update(ref, s, a, target, alpha)
    assert q.as_array().tobytes() == ref.as_array().tobytes()
    assert q.writes == ref.writes == 4


def test_greedy_actions_orders_ties_ascending():
    q = make_table([4, 1], terminal=1)
    assert greedy_actions(q, 0) == [0, 1, 2, 3]
    q_update(q, 0, 2, 1.0, 1.0)
    assert greedy_actions(q, 0) == [2]
    q_update(q, 0, 0, 1.0, 1.0)
    assert greedy_actions(q, 0) == [0, 2]


def test_greedy_actions_guards():
    q = make_table([2, 1], terminal=1)
    with pytest.raises(ValueError):
        greedy_actions(q, 1)


def test_epsilon_greedy_uniform_when_fully_random():
    q = make_table([4, 1], terminal=1)
    rng = np.random.default_rng(0)
    n = 10_000
    counts = np.zeros(4)
    for _ in range(n):
        counts[epsilon_greedy(q, 0, 1.0, rng)] += 1
    freqs = counts / n
    assert np.all(np.abs(freqs - 0.25) < 0.02)


def test_epsilon_greedy_mostly_greedy():
    q = make_table([2, 1], terminal=1)
    q_update(q, 0, 0, 5.0, 1.0)
    rng = np.random.default_rng(1)
    n = 20_000
    hits = sum(epsilon_greedy(q, 0, 0.1, rng) == 0 for _ in range(n))
    # greedy action frequency: 0.9 + 0.1 / 2
    assert abs(hits / n - 0.95) < 0.01


def test_epsilon_greedy_breaks_ties_uniformly():
    q = make_table([2, 1], terminal=1)
    rng = np.random.default_rng(2)
    n = 10_000
    hits = sum(epsilon_greedy(q, 0, 0.0, rng) == 0 for _ in range(n))
    assert abs(hits / n - 0.5) < 0.02


def test_epsilon_greedy_single_action_consumes_no_randomness():
    q = make_table([1, 2, 1], terminal=2)
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    assert epsilon_greedy(q, 0, 0.5, rng) == 0
    assert rng.bit_generator.state == before


def test_epsilon_greedy_guards():
    q = make_table([2, 1], terminal=1)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        epsilon_greedy(q, 0, 1.5, rng)
    with pytest.raises(ValueError):
        epsilon_greedy(q, 1, 0.1, rng)


def test_terminal_row_survives_everything():
    q = make_table([2, 3, 1], terminal=1, initial=2.0)
    rng = np.random.default_rng(4)
    for _ in range(50):
        q_update(q, 0, int(rng.integers(2)), float(rng.normal()), 0.3)
        q_update(q, 2, 0, float(rng.normal()), 0.3)
    assert np.all(q.as_array()[1] == 0.0)


def test_transition_is_an_immutable_tuple():
    tr = Transition(1.5, 3, False)
    assert (tr.reward, tr.next_state, tr.terminal) == (1.5, 3, False)
    assert tuple(tr) == (1.5, 3, False)
    with pytest.raises(AttributeError):
        tr.reward = 2.0


# The numpy-scalar versions of the per-step helpers, kept as references for
# the Python-scalar ones in cvslab.core.


def reference_getitem(q, sa):
    return float(q._values[sa])


def reference_row_max(q, s):
    k = q.num_actions(s)
    if k == 0:
        raise ValueError(f"state {s} has no actions")
    return float(q._values[s, :k].max())


def reference_greedy_actions(q, s):
    if s == q.terminal:
        raise ValueError("greedy_actions is undefined at the TERMINAL state")
    k = q.num_actions(s)
    if k == 0:
        raise ValueError(f"state {s} has no actions")
    row = q._values[s]
    best = row[0]
    ties = [0]
    for a in range(1, k):
        v = row[a]
        if v > best:
            best = v
            ties = [a]
        elif v == best:
            ties.append(a)
    return ties


def reference_epsilon_greedy(q, s, epsilon, rng):
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if s == q.terminal:
        raise ValueError("epsilon_greedy is undefined at the TERMINAL state")
    k = q.num_actions(s)
    if k == 0:
        raise ValueError(f"state {s} has no actions")
    if k == 1:
        return 0
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(k))
    ties = reference_greedy_actions(q, s)
    if len(ties) == 1:
        return ties[0]
    return ties[int(rng.integers(len(ties)))]


# Few distinct values, so that ties (and ties between 0.0 and -0.0) are common.
ROW_VALUES = (-1.0, -0.0, 0.0, 1.0, 2.0)


@st.composite
def filled_tables(draw):
    """A table of 1-4 action rows plus a TERMINAL, valid slots drawn from
    ROW_VALUES; narrower rows keep their -inf padding."""
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6)) + [0]
    q = make_table(counts, terminal=len(counts) - 1)
    for s, k in enumerate(counts[:-1]):
        q._values[s, :k] = draw(st.lists(st.sampled_from(ROW_VALUES), min_size=k, max_size=k))
    return q


@given(q=filled_tables(), seed=st.integers(0, 2**32 - 1))
def test_hot_path_matches_numpy_scalar_references(q, seed):
    width = q._values.shape[1]
    for s in range(q.num_states - 1):
        assert greedy_actions(q, s) == reference_greedy_actions(q, s)
        k = q.num_actions(s)
        for a in range(k):
            assert q[s, a].hex() == reference_getitem(q, (s, a)).hex()
        for a in (-1, *range(k, width + 1)):
            with pytest.raises(ValueError, match="invalid"):
                q[s, a]
        got, want = q.row_max(s), reference_row_max(q, s)
        if want != 0.0:
            assert got.hex() == want.hex()
        else:
            # Only the sign of a zero maximum may differ, and it vanishes in
            # every target built from it: rewards are never -0.0.
            assert got == 0.0
            for r in (0.0, 1.0, -1.0):
                for gamma in (1.0, 0.9):
                    assert (r + gamma * got).hex() == (r + gamma * want).hex()
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for epsilon in (0.0, 0.1, 0.5, 1.0):
        for s in range(q.num_states - 1):
            for _ in range(3):
                assert epsilon_greedy(q, s, epsilon, rng) == reference_epsilon_greedy(q, s, epsilon, ref_rng)
                assert rng.bit_generator.state == ref_rng.bit_generator.state


def reference_q_update(q, s, a, target, alpha):
    """The numpy-scalar q_update, kept as the reference for the Python-float one."""
    if s == q.terminal:
        raise ValueError("the TERMINAL Q-row is immutable")
    if not 0 <= a < q.num_actions(s):
        raise ValueError(f"action {a} invalid for state {s}")
    v = q._values[s, a]
    q._values[s, a] = v + alpha * (target - v)
    q._writes += 1


# Signed zeros and a few exact values, plus arbitrary finite ones.
UPDATE_VALUES = st.one_of(
    st.sampled_from((-1.5, -0.0, 0.0, 2.0)),
    st.floats(-1e6, 1e6, allow_nan=False),
)


@given(
    counts=st.lists(st.integers(0, 3), min_size=1, max_size=5),
    terminal_at=st.integers(0, 5),
    data=st.data(),
)
def test_q_update_matches_numpy_scalar_reference(counts, terminal_at, data):
    terminal = terminal_at % len(counts)
    q = make_table(counts, terminal)
    for s, k in enumerate(counts):
        if s != terminal:
            q._values[s, :k] = data.draw(st.lists(UPDATE_VALUES, min_size=k, max_size=k))
    ref = make_table(counts, terminal)
    ref._values[:] = q._values
    ops = st.tuples(
        st.integers(0, len(counts) - 1),
        st.integers(-1, 3),
        UPDATE_VALUES,
        st.floats(0.0, 1.0, exclude_min=True),
    )
    for s, a, target, alpha in data.draw(st.lists(ops, max_size=40)):
        errors = []
        for update, table in ((q_update, q), (reference_q_update, ref)):
            try:
                update(table, s, a, target, alpha)
                errors.append(None)
            except ValueError as exc:
                errors.append(str(exc))
        assert errors[0] == errors[1]
        assert q._values.tobytes() == ref._values.tobytes()
        assert q.writes == ref.writes


# ----------------------------------------------------------------------
# DrawStream against numpy's Generator on the same SeedSequence
# ----------------------------------------------------------------------

# Bounds around the Lemire rejection edge cases: powers of two, the largest
# 32-bit bounds (tiny and huge thresholds) and 2**32 itself.
DRAW_BOUNDS = (1, 2, 3, 4, 5, 10, 20, 1000, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32)
DRAW_OPS = st.one_of(
    st.just(None),  # random()
    st.sampled_from(DRAW_BOUNDS),
    st.integers(1, 2**32),
)


@given(
    entropy=st.integers(0, 2**64 - 1),
    run=st.integers(0, 3),
    pattern=st.lists(DRAW_OPS, min_size=1, max_size=20).filter(
        lambda ops: any(k != 1 for k in ops)
    ),
)
def test_draw_stream_matches_default_rng(entropy, run, pattern):
    seed_seq = np.random.SeedSequence(entropy, spawn_key=(run,))
    rng, stream = np.random.default_rng(seed_seq), DrawStream(seed_seq)
    # Every call but integers(1) takes at least half a word, so this many
    # calls cross several blocks.
    calls = 6 * _DRAW_BLOCK
    for i in range(calls):
        k = pattern[i % len(pattern)]
        if k is None:
            got, want = stream.random(), rng.random()
            assert type(got) is float
            assert got.hex() == want.hex(), f"call {i}: random()"
        else:
            got, want = stream.integers(k), int(rng.integers(k))
            assert type(got) is int
            assert got == want, f"call {i}: integers({k})"
    # Same word position, then the same buffered half-word.
    assert stream.random().hex() == rng.random().hex()
    assert stream.integers(2**32) == int(rng.integers(2**32))


@pytest.mark.parametrize("k", [0, -1, 2**32 + 1, True, False, 3.0, "3", None])
def test_draw_stream_rejects_bad_bounds(k):
    stream = DrawStream(np.random.SeedSequence(0))
    with pytest.raises(ValueError, match="k must be an int"):
        stream.integers(k)
