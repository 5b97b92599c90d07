from __future__ import annotations

import hashlib
from bisect import bisect_left
from functools import partial
from itertools import accumulate, repeat
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvslab.agents as agents
from cvslab import (
    ALGORITHM_NAMES,
    AgentParams,
    Environment,
    QTable,
    RoadTreeEnv,
    ShooterEnv,
    TennisEnv,
    TreeEdge,
    TreeNode,
    TreeSpec,
    cvs_episode,
    fig1_tree,
    fig3_tree,
    fig4_tree,
    fig6_tree,
    mc_episode,
    n_step_sarsa_episode,
    q_learning_episode,
    watkins_qlambda_episode,
)
from cvslab.agents import _CRT_EPS
from cvslab.core import DrawStream, q_update
from recorder import Recorder, side_by_side
from references import (
    reference_cvs_episode,
    reference_mc_episode,
    reference_n_step_sarsa_episode,
    reference_qlambda_episode,
    reference_sarsa_lambda_s_episode,
)
from strategies import FixedStartMDP, road_mdps, road_trees, small_mdps

approx = lambda x: pytest.approx(x, rel=1e-12, abs=0.0)


class ChainEnv(Environment):
    """Single-action corridor: step i pays rewards[i], the last one terminates."""

    def __init__(self, rewards):
        self._rewards = tuple(float(r) for r in rewards)

    @property
    def terminal(self):
        return len(self._rewards)

    def action_layout(self):
        return 1, {}, 1

    def reset(self, rng):
        return 0

    def step(self, s, a, rng):
        return self._rewards[s], s + 1

    def criticality(self):
        return lambda s: 1.0


class LoopEnv(Environment):
    """One state with one action that loops back to itself: step i pays
    rewards[i], the last one terminates."""

    def __init__(self, rewards):
        self._rewards = tuple(float(r) for r in rewards)
        self._t = 0

    @property
    def terminal(self):
        return 1

    def action_layout(self):
        return 1, {}, 1

    def reset(self, rng):
        self._t = 0
        return 0

    def step(self, s, a, rng):
        r = self._rewards[self._t]
        self._t += 1
        return r, 1 if self._t == len(self._rewards) else 0

    def criticality(self):
        return lambda s: 1.0


class RevisitEnv(Environment):
    """State 0 has two actions and steps into state 1, whose one action
    loops on it ``loop`` times and then steps back to 0; the ``laps``-th
    step from 0 enters the sink.  Only the steps from 0 pay."""

    def __init__(self, loop=30, laps=3):
        self._loop, self._laps = loop, laps

    @property
    def terminal(self):
        return 2

    def action_layout(self):
        return 2, {1: 1}, 2

    def reset(self, rng):
        self._t, self._left = 0, self._laps
        return 0

    def step(self, s, a, rng):
        if s == 0:
            self._left -= 1
            return 1.0, 1 if self._left else 2
        self._t += 1
        return 0.0, 1 if self._t % self._loop else 0

    def criticality(self):
        return lambda s: 1.0


class CycleEnv(Environment):
    """State 0, with two actions, and state 1, with one, step into each other
    and pay -1 a step; the ``length``-th step enters the sink."""

    def __init__(self, length=12):
        self._length = length

    @property
    def terminal(self):
        return 2

    def action_layout(self):
        return 2, {1: 1}, 2

    def reset(self, rng):
        self._t = 0
        return 0

    def step(self, s, a, rng):
        self._t += 1
        return -1.0, 2 if self._t == self._length else 1 - s

    def criticality(self):
        return lambda s: 1.0


def fresh(env, initial=0.0):
    return QTable.for_env(env, initial)


def test_q_learning_targets_on_chain():
    env = ChainEnv([0.5, 2.0])
    q = fresh(env)
    params = AgentParams(alpha=0.1, gamma=0.5, epsilon=0.1)
    log = q_learning_episode(env, q, params, DrawStream(0))
    assert log.total_reward == 2.5
    assert log.steps == 2
    assert q[0, 0] == approx(0.1 * (0.5 + 0.5 * 0.0))
    assert q[1, 0] == approx(0.1 * 2.0)
    q_learning_episode(env, q, params, DrawStream(0))
    assert q[1, 0] == approx(0.2 + 0.1 * (2.0 - 0.2))
    assert q[0, 0] == approx(0.05 + 0.1 * (0.5 + 0.5 * 0.2 - 0.05))


def test_n_step_sarsa_two_step_targets():
    env = ChainEnv([1.0, 2.0])
    q = fresh(env)
    params = AgentParams(alpha=0.1, gamma=0.5, n=2)
    n_step_sarsa_episode(env, q, params, DrawStream(0))
    assert q[0, 0] == approx(0.1 * (1.0 + 0.5 * 2.0))
    assert q[1, 0] == approx(0.1 * 2.0)


def test_n_step_sarsa_bootstraps_inside_long_episodes():
    env = ChainEnv([0.0, 0.0, 1.0])
    q = fresh(env)
    params = AgentParams(alpha=0.1, gamma=1.0, n=2)
    n_step_sarsa_episode(env, q, params, DrawStream(0))
    assert q[0, 0] == 0.0
    assert q[1, 0] == approx(0.1)
    assert q[2, 0] == approx(0.1)
    n_step_sarsa_episode(env, q, params, DrawStream(0))
    # second pass sees Q(2) = 0.1 through the two-step bootstrap
    assert q[0, 0] == approx(0.1 * (0.0 + 0.0 + 0.1))


def test_n_step_longer_than_episode_falls_back_to_full_return():
    env = ChainEnv([1.0, 2.0])
    q = fresh(env)
    params = AgentParams(alpha=0.1, gamma=1.0, n=5)
    n_step_sarsa_episode(env, q, params, DrawStream(0))
    assert q[0, 0] == approx(0.3)
    assert q[1, 0] == approx(0.2)


def test_n_step_beyond_any_episode_ends_with_the_episode():
    # An n past every episode's length updates toward full returns, as any
    # such n does; the agent must not count up to n after the last step.
    def run_with(n):
        params = AgentParams(alpha=0.1, gamma=0.9, epsilon=0.1, n=n)
        return lambda env, q, rng: n_step_sarsa_episode(env, q, params, rng)

    longest = RoadTreeEnv(fig3_tree()).terminal + 1  # a tree visits no state twice
    for seed in (0, 1):
        side_by_side(lambda: RoadTreeEnv(fig3_tree()), 0.0, seed, 10, run_with(longest), run_with(10**12))


def test_mc_discounted_returns_on_chain():
    env = ChainEnv([1.0, 2.0])
    q = fresh(env)
    params = AgentParams(alpha=0.1, gamma=0.5)
    log = mc_episode(env, q, params, DrawStream(0))
    assert log.steps == 2
    assert q[0, 0] == approx(0.1 * (1.0 + 0.5 * 2.0))
    assert q[1, 0] == approx(0.1 * 2.0)


def test_watkins_trace_decay_on_chain():
    env = ChainEnv([0.0, 0.0, 1.0])
    q = fresh(env)
    params = AgentParams(alpha=0.1, gamma=1.0, lam=0.9)
    watkins_qlambda_episode(env, q, params, DrawStream(0))
    assert q[2, 0] == approx(0.1)
    assert q[1, 0] == approx(0.1 * 0.9)
    assert q[0, 0] == approx(0.1 * 0.81)


@pytest.mark.parametrize("lam, last_trace", [(1.0, 3.0), (0.5, 1.75)])
def test_watkins_traces_accumulate_on_revisits(lam, last_trace):
    env = LoopEnv([0.0, 0.0, 1.0])
    q = fresh(env)
    params = AgentParams(alpha=0.1, gamma=1.0, lam=lam)
    with Recorder(env) as rec:
        watkins_qlambda_episode(env, q, params, DrawStream(0))
    # one traced pair, bumped on each of three visits and decayed by lambda
    # in between; only the last step has a nonzero TD error
    assert [(s, a, target) for s, a, target, _ in rec.updates] == [
        (0, 0, 0.0),
        (0, 0, 0.0),
        (0, 0, last_trace),
    ]
    assert q[0, 0] == approx(0.1 * last_trace)
    # the next episode starts from zero traces, not from the carried-over one
    v = q[0, 0]
    with Recorder(env) as rec:
        watkins_qlambda_episode(env, q, params, DrawStream(0))
    assert rec.updates[-1][2] == approx(v + (1.0 - v) * last_trace)
    assert q.writes == 6


def test_watkins_zero_lambda_clears_traces():
    env = ChainEnv([0.0, 0.0, 1.0])
    q = fresh(env)
    params = AgentParams(alpha=0.1, gamma=1.0, lam=0.0)
    with Recorder(env) as rec:
        watkins_qlambda_episode(env, q, params, DrawStream(0))
    # a zero decay factor drops every trace, so each step updates only the
    # pair just acted on
    assert [(s, a) for s, a, _, _ in rec.updates] == [(0, 0), (1, 0), (2, 0)]
    assert q.writes == 3
    assert q[2, 0] == approx(0.1)
    assert q[1, 0] == 0.0


def mini_two_junction_tree() -> TreeSpec:
    return TreeSpec(
        root=0,
        nodes=(TreeNode(0, 0.0), TreeNode(1, 3.0), TreeNode(2, 5.0)),
        edges=(TreeEdge(0, 1, 2), TreeEdge(1, 2, 2)),
    )


def test_cvs_matures_at_the_first_critical_state():
    env = RoadTreeEnv(mini_two_junction_tree())
    q = fresh(env)
    params = AgentParams(alpha=0.1, gamma=1.0)
    with Recorder(env) as rec:
        log = cvs_episode(env, q, env.criticality(), params, DrawStream(0))
    assert log.total_reward == 8.0
    root = env.root_state
    j1 = env.junction_moves[root][0][1]  # node 1's state
    # pairs queued before the junction update toward it; later ones ride to the end
    assert q[root, 0] == approx(0.3)
    assert q[j1, 0] == approx(0.5)
    boot = {(s, a): b for s, a, _, b in rec.updates}
    assert boot[root, 0] == j1
    assert boot[j1, 0] is None


def test_cvs_discounts_waiting_rewards():
    env = RoadTreeEnv(mini_two_junction_tree())
    q = fresh(env)
    params = AgentParams(alpha=0.1, gamma=0.5)
    cvs_episode(env, q, env.criticality(), params, DrawStream(0))
    root = env.root_state
    j1 = env.junction_moves[root][0][1]  # node 1's state
    road1 = root + 1
    assert q[root, 0] == approx(0.1 * (0.5 * 3.0))
    assert q[road1, 0] == approx(0.1 * 3.0)
    assert q[j1, 0] == approx(0.1 * (0.5 * 5.0))


def test_cvs_flushes_whole_branch_on_terminal():
    env = RoadTreeEnv(fig3_tree())
    q = fresh(env)
    params = AgentParams(alpha=0.1, gamma=1.0, epsilon=0.1)
    with Recorder(env) as rec:
        log = cvs_episode(env, q, env.criticality(), params, DrawStream(5))
    first_action = rec.trace[0][1]
    branch_value = 2.0 if first_action == 1 else 1.0
    assert log.total_reward == branch_value
    for s, a, _r in rec.trace:
        assert q[s, a] == approx(0.1 * branch_value)
    assert q[env.root_state, 1 - first_action] == 0.0


def test_cvs_rejects_criticality_outside_unit_interval():
    env = ChainEnv([0.0, 1.0])
    q = fresh(env)
    with pytest.raises(ValueError, match="criticality"):
        cvs_episode(env, q, lambda s: 1.5, AgentParams(), DrawStream(0))


def test_watkins_cuts_traces_after_exploratory_action():
    env = RoadTreeEnv(fig3_tree())
    q = fresh(env)
    root = env.root_state
    q_update(q, root, 0, 0.5, 1.0)
    params = AgentParams(alpha=0.1, gamma=1.0, lam=0.9, epsilon=1.0)
    seed = next(s for s in range(50) if (lambda g: g.random() < 1.0 and g.integers(2) == 1)(DrawStream(s)))
    with Recorder(env) as rec:
        log = watkins_qlambda_episode(env, q, params, DrawStream(seed))
    assert rec.trace[0][1] == 1
    assert log.total_reward == 2.0
    # the exploratory root choice was cut from the traces, so the terminal
    # reward never reached it; the final pair got its plain 1-step update
    assert q[root, 1] == 0.0
    assert q[root, 0] == 0.5
    last_s, last_a, _ = rec.trace[-1]
    assert q[last_s, last_a] == approx(0.2)


def const_h(value):
    return lambda s: value


def cvs_at(h):
    """cvs with the constant criticality ``h``, called as the references are."""
    return lambda env, q, params, rng: cvs_episode(env, q, const_h(h), params, rng)


@pytest.mark.parametrize("h, n", [(1.0, 1), (0.5, 2), (1 / 3, 3), (0.4, 3), (0.26, 4)])
def test_cvs_constant_criticality_equals_n_step_sarsa(h, n):
    # gamma < 1 makes a wrong discount power visible
    for gamma in (1.0, 0.9):
        params = AgentParams(alpha=0.1, gamma=gamma, epsilon=0.1, n=n)
        for seed in (0, 1, 2):
            side_by_side(
                lambda: RoadTreeEnv(fig3_tree()), 0.0, seed, 15, cvs_at(h), reference_n_step_sarsa_episode, params
            )


def test_n_copies_of_one_over_n_first_mature_at_the_nth():
    # Why constant h = 1/n is n-step SARSA exactly: a pair's criticality sum
    # reaches 1 - _CRT_EPS at its n-th term, not one step early or late.
    mature = 1.0 - _CRT_EPS
    for n in [*range(1, 2001), 10**4, 10**5, 10**6]:
        # adding a positive term never lowers a float sum, so the list is sorted
        sums = list(accumulate(repeat(1 / n, n)))
        assert bisect_left(sums, mature) == n - 1, n


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_cvs_zero_criticality_equals_monte_carlo(gamma):
    params = AgentParams(alpha=0.1, gamma=gamma, epsilon=0.1)
    for seed in (0, 1):
        side_by_side(lambda: RoadTreeEnv(fig1_tree()), 0.0, seed, 15, cvs_at(0.0), reference_mc_episode, params)


REDUCTION_GAMMAS = (1.0, 0.9, 0.5, 0.37)


@given(
    tree=road_trees(),
    gamma=st.sampled_from(REDUCTION_GAMMAS),
    q_init=st.sampled_from((0.0, 5.0, -1.5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_cvs_zero_criticality_equals_monte_carlo_on_random_trees(tree, gamma, q_init, seed):
    params = AgentParams(alpha=0.1, gamma=gamma, epsilon=0.1)
    side_by_side(lambda: RoadTreeEnv(tree), q_init, seed, 15, cvs_at(0.0), reference_mc_episode, params)


@given(
    tree=road_trees(),
    n=st.integers(1, 6),
    gamma=st.sampled_from(REDUCTION_GAMMAS),
    q_init=st.sampled_from((0.0, 5.0, -1.5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_cvs_constant_criticality_equals_n_step_sarsa_on_random_trees(
    tree, n, gamma, q_init, seed
):
    params = AgentParams(alpha=0.1, gamma=gamma, epsilon=0.1, n=n)
    side_by_side(lambda: RoadTreeEnv(tree), q_init, seed, 15, cvs_at(1 / n), reference_n_step_sarsa_episode, params)


def test_cvs_unit_criticality_equals_sarsa_on_shooter():
    # Ten episodes from a zero table bootstrap on zeros only, whatever their
    # discount, so the 0.5 start is what makes the discount power visible.
    for gamma, initial in [(1.0, 0.0), (0.9, 0.0), (0.9, 0.5)]:
        params = AgentParams(alpha=0.1, gamma=gamma, epsilon=0.1, n=1)
        side_by_side(ShooterEnv, initial, 0, 10, cvs_at(1.0), reference_n_step_sarsa_episode, params)


# Trees are acyclic and deterministic with a 0/1 h; the small MDPs add
# revisits, self-loops, random steps, fractional h and a step cap.
TREES_AND_MDPS = st.one_of(road_trees().map(lambda tree: partial(RoadTreeEnv, tree)), small_mdps())
# Watkins Q(0) is 1-step Q-learning (Sutton & Barto 2018, section 12.10): a
# trace of 1.0 on the fresh pair alone, which takes the TD target directly.
REDUCTION_ENVS = {
    "fig1": lambda: RoadTreeEnv(fig1_tree()),
    "fig3": lambda: RoadTreeEnv(fig3_tree()),
    "fig6": lambda: RoadTreeEnv(fig6_tree()),
    "shooter": ShooterEnv,
    "tennis": TennisEnv,
}


@pytest.mark.parametrize("q_init", [0.0, 0.5])
@pytest.mark.parametrize("gamma", [1.0, 0.9])
@pytest.mark.parametrize("name", sorted(REDUCTION_ENVS))
def test_watkins_zero_lambda_is_q_learning_bit_for_bit(name, gamma, q_init):
    params = AgentParams(alpha=0.1, gamma=gamma, epsilon=0.1, lam=0.0)
    for seed in (0, 1):
        side_by_side(REDUCTION_ENVS[name], q_init, seed, 30, watkins_qlambda_episode, q_learning_episode, params)


@pytest.mark.parametrize("gamma", [1.0, 0.9])
@settings(max_examples=50)
@given(make_env=TREES_AND_MDPS, q_init=st.sampled_from((0.0, 0.5)), seed=st.integers(0, 2**32 - 1))
def test_watkins_zero_lambda_is_q_learning_on_random_trees_and_mdps(gamma, make_env, q_init, seed):
    params = AgentParams(alpha=0.1, gamma=gamma, epsilon=0.1, lam=0.0)
    side_by_side(make_env, q_init, seed, 15, watkins_qlambda_episode, q_learning_episode, params)


def q_learning_with_an_unlogged_write(env, q, params, rng):
    log = q_learning_episode(env, q, params, rng)
    q_update(q, env.root_state, 0, 1.0, 0.5)  # cvslab.core's, which no Recorder wraps
    return log


# Without these, a runner that compared two empty logs would pass.
@pytest.mark.parametrize(
    "run, other, params, message",
    [
        (cvs_at(1 / 3), reference_n_step_sarsa_episode, AgentParams(n=2), "the update lists differ"),
        (watkins_qlambda_episode, q_learning_episode, AgentParams(lam=0.5), "the update lists differ"),
        (q_learning_with_an_unlogged_write, q_learning_episode, AgentParams(), "25 updates logged, 26 written"),
    ],
    ids=["cvs-one-third-vs-2-step", "qlambda-half-vs-q-learning", "unlogged-write"],
)
def test_side_by_side_tells_sides_apart(run, other, params, message):
    with pytest.raises(AssertionError, match=f"^episode 0: {message}$"):
        side_by_side(lambda: RoadTreeEnv(fig1_tree()), 0.0, 0, 5, run, other, params)


def sarsa_lambda_s_gap(make_env, q_init, seed, episodes):
    """``(episode, gap)``: the first episode after which cvs and the
    SARSA(lambda(s)) reference hold different tables at gamma 1, and the
    largest difference then; ``(None, 0.0)`` if they never part."""
    params = AgentParams(alpha=0.1, gamma=1.0, epsilon=0.1)
    env, env_ref = make_env(), make_env()
    q, q_ref = fresh(env, q_init), fresh(env_ref, q_init)
    rng, rng_ref = DrawStream(seed), DrawStream(seed)
    h = env.criticality()
    for episode in range(episodes):
        log = cvs_episode(env, q, h, params, rng)
        total, steps, _ = reference_sarsa_lambda_s_episode(env_ref, q_ref, h, params, rng_ref)
        a, b = q.as_array(), q_ref.as_array()
        if (log.total_reward, log.steps) != (total, steps) or a.tobytes() != b.tobytes():
            apart = a != b  # not the padding, equal in both
            return episode, float(np.max(np.abs(a[apart] - b[apart]), initial=0.0))
    return None, 0.0


@given(
    tree=road_trees(),
    q_init=st.sampled_from((0.0, 0.5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_cvs_equals_sarsa_lambda_s_at_unit_gamma_on_trees(tree, q_init, seed):
    # A tree's h is 0 or 1, so cvs is SARSA(lambda(s)) with lambda = 1 - h
    # computed forward; the reference computes it backward.
    assert sarsa_lambda_s_gap(lambda: RoadTreeEnv(tree), q_init, seed, 30) == (None, 0.0)


@settings(max_examples=50)
@given(make_env=road_mdps(), q_init=st.sampled_from((0.0, 0.5)), seed=st.integers(0, 2**32 - 1))
def test_cvs_equals_sarsa_lambda_s_on_road_mdps(make_env, q_init, seed):
    # Off trees too, while every road is entered by one pair, always and at
    # reward 0: junctions may be shared, revisited, looped on and stepped
    # into at random.
    assert sarsa_lambda_s_gap(make_env, q_init, seed, 15) == (None, 0.0)


# The smallest MDP found for each feature that parts the two at gamma 1 from a
# zero table: (outcomes, h, cap, seed, episodes), outcomes as SmallMDP's,
# state 0 the start and the last id + 1 the sink.
SARSA_LAMBDA_S_BREAKERS = {
    # a pair revisited within a stretch of h = 0: its trace reaches 2
    "revisit": (((((0.0, 1),),), (((1.0, 0),),)), (0.0, 0.0), 3, 0, 1),
    # a self-loop at a state of h = 0, the one-state case of the above
    "self-loop": ((((((1.0, 0),),),), (0.0,), 2, 0, 2)),
    # a junction pair that enters its road or ends the episode at random
    "stochastic step": (((((0.0, 1), (1.0, 2)),), (((1.0, 2),),)), (1.0, 0.0), 100, 0, 4),
    # a road entered from two pairs, so it has its own update history
    "shared history": (((((0.0, 1),), ((0.0, 1),)), (((1.0, 2),),)), (1.0, 0.0), 100, 0, 9),
}


@pytest.mark.parametrize("feature", sorted(SARSA_LAMBDA_S_BREAKERS))
def test_what_parts_cvs_from_sarsa_lambda_s_off_trees(feature):
    outcomes, h, cap, seed, episodes = SARSA_LAMBDA_S_BREAKERS[feature]
    episode, gap = sarsa_lambda_s_gap(partial(FixedStartMDP, outcomes, h, cap), 0.0, seed, episodes)
    assert episode == episodes - 1  # equal until the last episode
    if feature in ("revisit", "self-loop"):
        assert gap > 1e-3  # far beyond rounding: they part in exact arithmetic too
    else:
        assert 0.0 < gap < 1e-15  # the same sums, added in another order


def test_episode_log_bookkeeping():
    env = RoadTreeEnv(fig1_tree())
    q = fresh(env)
    params = AgentParams()
    with Recorder(env) as rec:
        log = cvs_episode(env, q, env.criticality(), params, DrawStream(3))
    assert log.total_reward == sum(r for _, _, r in rec.trace)
    assert log.steps == len(rec.trace)
    assert q.writes == len(rec.updates)
    # every pair acted on received exactly one update
    assert sorted((s, a) for s, a, _ in rec.trace) == sorted((s, a) for s, a, _, _ in rec.updates)


def test_terminal_row_stays_zero_across_agents():
    env = RoadTreeEnv(fig3_tree())
    params = AgentParams()
    runs = [
        lambda e, q, r: cvs_episode(e, q, e.criticality(), params, r),
        lambda e, q, r: q_learning_episode(e, q, params, r),
        lambda e, q, r: n_step_sarsa_episode(e, q, params, r),
        lambda e, q, r: watkins_qlambda_episode(e, q, params, r),
        lambda e, q, r: mc_episode(e, q, params, r),
    ]
    for i, run in enumerate(runs):
        q = fresh(env)
        rng = DrawStream(i)
        for _ in range(5):
            run(env, q, rng)
        assert np.all(q.as_array()[env.terminal] == 0.0)


GAMMAS = (1.0, 0.9, 0.5)
LAMBDAS = (0.0, 0.5, 0.9, 1.0)
Q_INITS = st.one_of(st.sampled_from((0.0, 0.5)), st.floats(-5.0, 5.0))
# Uneven per-state criticalities put float rounding on the claim that the
# mature waitlist entries are always a prefix.
H_VALUES = (0.0, 0.1, 0.3, 1 / 3, 0.7, 1.0)


def draw_criticality(data, env):
    kind = data.draw(st.sampled_from(("env", "constant", "per_state")))
    if kind == "env":
        return env.criticality()
    if kind == "constant":
        return const_h(data.draw(st.sampled_from((0.0, 1 / 3, 1.0))))
    n = env.terminal + 1
    values = data.draw(st.lists(st.sampled_from(H_VALUES), min_size=n, max_size=n))
    return values.__getitem__


@given(
    make_env=TREES_AND_MDPS,
    gamma=st.sampled_from(GAMMAS),
    epsilon=st.sampled_from((0.1, 0.5)),
    q_init=Q_INITS,
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_cvs_matches_list_reference(make_env, gamma, epsilon, q_init, seed, data):
    h = draw_criticality(data, make_env())
    params = AgentParams(alpha=0.1, gamma=gamma, epsilon=epsilon)
    side_by_side(make_env, q_init, seed, 5, cvs_episode, reference_cvs_episode, h, params)


@given(
    make_env=TREES_AND_MDPS,
    gamma=st.sampled_from(GAMMAS),
    lam=st.sampled_from(LAMBDAS),
    epsilon=st.sampled_from((0.1, 0.5)),
    q_init=Q_INITS,
    seed=st.integers(0, 2**32 - 1),
)
def test_qlambda_matches_dict_reference(make_env, gamma, lam, epsilon, q_init, seed):
    params = AgentParams(alpha=0.1, gamma=gamma, epsilon=epsilon, lam=lam)
    side_by_side(make_env, q_init, seed, 5, watkins_qlambda_episode, reference_qlambda_episode, params)


@pytest.mark.parametrize("lam, gamma", [(0.0, 0.9), (0.0, 1.0), (0.9, 0.9), (0.9, 1.0)])
@settings(max_examples=25)
@given(
    tree=road_trees(),
    epsilon=st.sampled_from((0.1, 0.5)),
    q_init=st.one_of(st.just(0.0), st.floats(-5.0, 5.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_qlambda_one_scan_matches_two_scan_reference(lam, gamma, tree, epsilon, q_init, seed):
    params = AgentParams(alpha=0.1, gamma=gamma, epsilon=epsilon, lam=lam)
    side_by_side(lambda: RoadTreeEnv(tree), q_init, seed, 5, watkins_qlambda_episode, reference_qlambda_episode, params)


# Trees pay at junctions and leaves only; a loop pays a drawn reward at every
# step, so every power of gamma meets a nonzero reward.
ENV_FACTORIES = st.one_of(
    TREES_AND_MDPS,
    st.lists(st.sampled_from((0.0, 1.0, -2.0, 0.3)), min_size=1, max_size=40).map(
        lambda rewards: partial(LoopEnv, rewards)
    ),
)


@given(
    make_env=ENV_FACTORIES,
    n=st.integers(1, 45),
    gamma=st.sampled_from(REDUCTION_GAMMAS),
    q_init=st.sampled_from((0.0, 0.5, 5.0, -1.5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_n_step_sarsa_matches_power_per_reward_reference(make_env, n, gamma, q_init, seed):
    params = AgentParams(alpha=0.1, gamma=gamma, epsilon=0.1, n=n)
    side_by_side(make_env, q_init, seed, 5, n_step_sarsa_episode, reference_n_step_sarsa_episode, params)


@given(
    make_env=ENV_FACTORIES,
    gamma=st.sampled_from(REDUCTION_GAMMAS),
    q_init=st.sampled_from((0.0, 0.5, 5.0, -1.5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_mc_matches_full_return_reference(make_env, gamma, q_init, seed):
    params = AgentParams(alpha=0.1, gamma=gamma, epsilon=0.1)
    side_by_side(make_env, q_init, seed, 5, mc_episode, reference_mc_episode, params)


# The mixed draws above may leave a (gamma, q_init) pair without a small MDP;
# this runs all four references on each pair.
@pytest.mark.parametrize("q_init", [0.0, 0.5])
@pytest.mark.parametrize("gamma", [1.0, 0.9])
@settings(max_examples=10)
@given(make_env=small_mdps(), n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_agents_match_references_on_small_mdps(gamma, q_init, make_env, n, seed):
    params = AgentParams(alpha=0.1, gamma=gamma, epsilon=0.1, lam=0.8, n=n)
    h = make_env().criticality()
    checks = [
        (cvs_episode, reference_cvs_episode, h, params),
        (n_step_sarsa_episode, reference_n_step_sarsa_episode, params),
        (mc_episode, reference_mc_episode, params),
        (watkins_qlambda_episode, reference_qlambda_episode, params),
    ]
    for run, reference, *args in checks:
        side_by_side(make_env, q_init, seed, 10, run, reference, *args)


# Shooter and tennis criticality is 1 in mid-episode states, so cvs updates
# bootstrap inside episodes as well as flushing at the end.
GRID_ENVS = {
    "shooter": lambda: ShooterEnv(max_steps=200),
    "tennis": lambda: TennisEnv(max_steps=200),
}


@pytest.mark.parametrize("name", sorted(GRID_ENVS))
def test_cvs_matches_list_reference_on_grid_envs(name):
    params = AgentParams(alpha=0.1, gamma=0.9, epsilon=0.1)
    h = GRID_ENVS[name]().criticality()
    side_by_side(GRID_ENVS[name], 0.0, 11, 20, cvs_episode, reference_cvs_episode, h, params)


@pytest.mark.parametrize("gamma", [1.0, 0.37])
@pytest.mark.parametrize("name", sorted(GRID_ENVS))
def test_mc_matches_full_return_reference_on_grid_envs(name, gamma):
    params = AgentParams(alpha=0.1, gamma=gamma, epsilon=0.1)
    side_by_side(GRID_ENVS[name], 0.0, 11, 20, mc_episode, reference_mc_episode, params)


EPISODES = {
    "cvs": lambda env, q, params, rng: cvs_episode(env, q, env.criticality(), params, rng),
    "qlearning": q_learning_episode,
    "nstep_sarsa": n_step_sarsa_episode,
    "qlambda": watkins_qlambda_episode,
    "mc": mc_episode,
}


INT_ENVS = {"fig1": lambda: RoadTreeEnv(fig1_tree()), "fig6": lambda: RoadTreeEnv(fig6_tree()), **GRID_ENVS}


@pytest.mark.parametrize(
    "draws", [lambda: DrawStream(0, (0,)), lambda: np.random.default_rng(0)], ids=["DrawStream", "Generator"]
)
@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
@pytest.mark.parametrize("name", sorted(INT_ENVS))
def test_agents_pass_env_step_only_ints(name, algorithm, draws):
    # Environment.step's contract: a numpy Generator draws numpy ints, but
    # every state id and action an agent passes, and every next state a step
    # returns, is an int (TennisEnv.step would return a numpy id for a numpy one).
    env = INT_ENVS[name]()
    step = env.step
    seen = []

    def checked_step(s, a, rng):
        r, s2 = step(s, a, rng)
        seen.append((type(s), type(a), type(s2)))
        return r, s2

    env.step = checked_step
    q, rng = fresh(env), draws()
    for _ in range(20):
        EPISODES[algorithm](env, q, AgentParams(), rng)
    assert seen and set(seen) == {(int, int, int)}


def test_qlambda_rewrites_a_fresh_pair_before_the_last_traced_position(monkeypatch):
    # Over 30 loop steps at gamma * lambda = 0.25 the trace of the pair taken
    # at state 0 decays below 2**-53, so the revisit bumps it back to exactly
    # 1.0: a fresh pair at position 0, ahead of the loop's pair.  This catches
    # a fresh value read after the pass instead of before it.  The overwrite
    # itself is pinned by the kernel test in test_core.py: with a trace of
    # exactly 1.0, the pass's own write to that slot nearly always has the
    # same bits.
    assert 0.25**30 + 1.0 == 1.0
    seen = []
    traced = agents.q_update_traced

    def spy(q, idx, traces, delta, alpha, fresh, fresh_target):
        seen.append((fresh, len(idx)))
        traced(q, idx, traces, delta, alpha, fresh, fresh_target)

    monkeypatch.setattr(agents, "q_update_traced", spy)
    params = AgentParams(alpha=0.1, gamma=0.5, epsilon=0.0, lam=0.5)
    side_by_side(RevisitEnv, 0.0, 7, 3, watkins_qlambda_episode, reference_qlambda_episode, params)
    assert (0, 2) in seen


# Greedy on the cycle, the trace is never cut.  The third step enters state
# 0 by its other action while the first is traced, every pass lowers both
# rows' maxima, and both states' pairs are bumped again: the row max must be
# read again and the decay chain dropped.  The corridor holds 400 pairs in one
# trace with no second bump, so the chain runs down to 0.0.
@pytest.mark.parametrize(
    "make_env, gamma, lam, underflows",
    [
        (CycleEnv, 0.9, 0.9, False),
        (CycleEnv, 1.0, 1.0, False),
        (partial(ChainEnv, [1.0] * 400), 0.9, 0.1, True),
    ],
    ids=["cycle", "cycle-unit-decay", "corridor-underflow"],
)
def test_qlambda_bookkeeping_matches_dict_reference(make_env, gamma, lam, underflows):
    chain = list(accumulate(repeat(gamma * lam, make_env().terminal), mul, initial=1.0))
    assert (chain[-1] == 0.0) == underflows
    params = AgentParams(alpha=0.1, gamma=gamma, epsilon=0.0, lam=lam)
    side_by_side(make_env, 0.0, 3, 3, watkins_qlambda_episode, reference_qlambda_episode, params)


@pytest.mark.parametrize("lam", [0.0, 0.9])
def test_qlambda_reads_a_row_max_again_only_after_the_pass_wrote_that_row(monkeypatch, lam):
    reads, written = [], []
    row_max, traced = QTable.row_max, agents.q_update_traced

    def counting_row_max(q, s):
        reads.append(s)
        return row_max(q, s)

    def spy(q, idx, traces, delta, alpha, fresh, fresh_target):
        written.append({i // q._width for i in idx})
        traced(q, idx, traces, delta, alpha, fresh, fresh_target)

    monkeypatch.setattr(QTable, "row_max", counting_row_max)
    monkeypatch.setattr(agents, "q_update_traced", spy)
    env = CycleEnv()
    params = AgentParams(alpha=0.1, gamma=0.9, epsilon=0.0, lam=lam)
    with Recorder(env) as rec:
        watkins_qlambda_episode(env, fresh(env), params, DrawStream(3))
    states = [s for s, _, _ in rec.trace]
    # One read of the first state and of each next state, and a second one
    # where the step before wrote that state's row.  At lambda = 0 each pass
    # writes only the row it left, so every state is read once.
    expected = [states[0]] + [s for rows, s in zip(written, states[1:]) for _ in range(1 + (s in rows))]
    assert reads == expected
    assert (reads == states) == (lam == 0.0)


@pytest.mark.parametrize("name", sorted(GRID_ENVS))
def test_qlambda_matches_dict_reference_on_grid_envs(name):
    params = AgentParams(alpha=0.1, gamma=0.9, epsilon=0.1, lam=0.9)
    side_by_side(GRID_ENVS[name], 0.0, 11, 20, watkins_qlambda_episode, reference_qlambda_episode, params)


# The CSV pins and the presets miss a trace that skips one decay (the chain
# sliced one entry short): on a road tree the greedy path, returns and write
# count stay the same, and only the table's values move.  Hashing
# as_array(), not the raw storage, keeps unused slots out of the pin.
@pytest.mark.parametrize(
    "make_tree, digest, writes",
    [
        (fig4_tree, "f08a656b4daa090172327d97e615495ebc3f2648469e86a1561a8954b17cd855", 25451),
        (fig1_tree, "acf06dbd3639dbd9ef498b87cf9e6ee45cda649a4953aa576f6914eabadb67b6", 7028),
    ],
    ids=["fig4", "fig1"],
)
def test_qlambda_table_after_20_tree_episodes_is_pinned(make_tree, digest, writes):
    env = RoadTreeEnv(make_tree())
    q = fresh(env)
    params = AgentParams(alpha=0.1, gamma=1.0, epsilon=0.1, lam=0.9)
    rng = DrawStream(0, (0,))
    for _ in range(20):
        watkins_qlambda_episode(env, q, params, rng)
    assert (hashlib.sha256(q.as_array().tobytes()).hexdigest(), q.writes) == (digest, writes)
