from __future__ import annotations

import numpy as np
import pytest

from cvslab import AgentParams, QTable, epsilon_greedy, greedy_actions, q_update
from cvslab.core import q_index, q_update_traced


def make_table(counts, terminal, initial=0.0):
    return QTable(np.array(counts, dtype=np.int16), terminal, initial)


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
    assert q.initial_value == 0.5


def test_qtable_row_and_row_max():
    q = make_table([3, 1], terminal=1)
    q_update(q, 0, 1, 5.0, 1.0)
    assert q.row(0).tolist() == [0.0, 5.0, 0.0]
    assert q.row_max(0) == 5.0
    # row() hands out a copy, not a view
    q.row(0)[0] = 99.0
    assert q[0, 0] == 0.0


def test_qtable_rejects_bad_shapes():
    with pytest.raises(ValueError):
        QTable(np.zeros((2, 2), dtype=np.int16), 0)
    with pytest.raises(ValueError):
        QTable(np.array([], dtype=np.int16), 0)
    with pytest.raises(ValueError):
        make_table([1, 1], terminal=5)


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
