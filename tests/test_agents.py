from __future__ import annotations

import hashlib
from bisect import bisect_left
from functools import partial
from itertools import accumulate, repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvslab.agents as agents
from cvslab import (
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
    fig6_tree,
    mc_episode,
    n_step_sarsa_episode,
    q_learning_episode,
    watkins_qlambda_episode,
)
from cvslab.agents import _CRT_EPS
from cvslab.core import DrawStream, q_update
from cvslab.roadtree import KIND_JUNCTION, KIND_TERMINAL
from recorder import Recorder
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
        return 1, {}

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
        return 1, {}

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
        return 2, {1: 1}

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


def fresh(env, initial=0.0):
    return QTable.for_env(env, initial)


def rng_for(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def test_q_learning_targets_on_chain():
    env = ChainEnv([0.5, 2.0])
    q = fresh(env)
    params = AgentParams(alpha=0.1, gamma=0.5, epsilon=0.1)
    log = q_learning_episode(env, q, params, rng_for(0))
    assert log.total_reward == 2.5
    assert log.steps == 2
    assert q[0, 0] == approx(0.1 * (0.5 + 0.5 * 0.0))
    assert q[1, 0] == approx(0.1 * 2.0)
    q_learning_episode(env, q, params, rng_for(0))
    assert q[1, 0] == approx(0.2 + 0.1 * (2.0 - 0.2))
    assert q[0, 0] == approx(0.05 + 0.1 * (0.5 + 0.5 * 0.2 - 0.05))


def test_n_step_sarsa_two_step_targets():
    env = ChainEnv([1.0, 2.0])
    q = fresh(env)
    params = AgentParams(alpha=0.1, gamma=0.5, n=2)
    n_step_sarsa_episode(env, q, params, rng_for(0))
    assert q[0, 0] == approx(0.1 * (1.0 + 0.5 * 2.0))
    assert q[1, 0] == approx(0.1 * 2.0)


def test_n_step_sarsa_bootstraps_inside_long_episodes():
    env = ChainEnv([0.0, 0.0, 1.0])
    q = fresh(env)
    params = AgentParams(alpha=0.1, gamma=1.0, n=2)
    n_step_sarsa_episode(env, q, params, rng_for(0))
    assert q[0, 0] == 0.0
    assert q[1, 0] == approx(0.1)
    assert q[2, 0] == approx(0.1)
    n_step_sarsa_episode(env, q, params, rng_for(0))
    # second pass sees Q(2) = 0.1 through the two-step bootstrap
    assert q[0, 0] == approx(0.1 * (0.0 + 0.0 + 0.1))


def test_n_step_longer_than_episode_falls_back_to_full_return():
    env = ChainEnv([1.0, 2.0])
    q = fresh(env)
    params = AgentParams(alpha=0.1, gamma=1.0, n=5)
    n_step_sarsa_episode(env, q, params, rng_for(0))
    assert q[0, 0] == approx(0.3)
    assert q[1, 0] == approx(0.2)


def test_n_step_beyond_any_episode_ends_with_the_episode():
    # An n past every episode's length updates toward full returns, as any
    # such n does; the agent must not count up to n after the last step.
    def run_with(n):
        params = AgentParams(alpha=0.1, gamma=0.9, epsilon=0.1, n=n)
        return lambda env, q, rng: n_step_sarsa_episode(env, q, params, rng)

    longest = RoadTreeEnv(fig3_tree()).num_states  # a tree visits no state twice
    ok, where = paired_tables_match(
        lambda: RoadTreeEnv(fig3_tree()), run_with(longest), run_with(10**12), seeds=(0, 1), episodes=10
    )
    assert ok, f"tables diverged at (seed, episode) {where}"


def test_mc_discounted_returns_on_chain():
    env = ChainEnv([1.0, 2.0])
    q = fresh(env)
    params = AgentParams(alpha=0.1, gamma=0.5)
    log = mc_episode(env, q, params, rng_for(0))
    assert log.steps == 2
    assert q[0, 0] == approx(0.1 * (1.0 + 0.5 * 2.0))
    assert q[1, 0] == approx(0.1 * 2.0)


def test_watkins_trace_decay_on_chain():
    env = ChainEnv([0.0, 0.0, 1.0])
    q = fresh(env)
    params = AgentParams(alpha=0.1, gamma=1.0, lam=0.9)
    watkins_qlambda_episode(env, q, params, rng_for(0))
    assert q[2, 0] == approx(0.1)
    assert q[1, 0] == approx(0.1 * 0.9)
    assert q[0, 0] == approx(0.1 * 0.81)


@pytest.mark.parametrize("lam, last_trace", [(1.0, 3.0), (0.5, 1.75)])
def test_watkins_traces_accumulate_on_revisits(lam, last_trace):
    env = LoopEnv([0.0, 0.0, 1.0])
    q = fresh(env)
    params = AgentParams(alpha=0.1, gamma=1.0, lam=lam)
    with Recorder(env) as rec:
        watkins_qlambda_episode(env, q, params, rng_for(0))
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
        watkins_qlambda_episode(env, q, params, rng_for(0))
    assert rec.updates[-1][2] == approx(v + (1.0 - v) * last_trace)
    assert q.writes == 6


def test_watkins_zero_lambda_clears_traces():
    env = ChainEnv([0.0, 0.0, 1.0])
    q = fresh(env)
    params = AgentParams(alpha=0.1, gamma=1.0, lam=0.0)
    with Recorder(env) as rec:
        watkins_qlambda_episode(env, q, params, rng_for(0))
    # a zero decay factor drops every trace, so each step updates only the
    # pair just acted on
    assert [(s, a) for s, a, _, _ in rec.updates] == [(0, 0), (1, 0), (2, 0)]
    assert q.writes == 3
    assert q[2, 0] == approx(0.1)
    assert q[1, 0] == 0.0


def mini_two_junction_tree() -> TreeSpec:
    return TreeSpec(
        root=0,
        nodes=(
            TreeNode(0, 0.0, KIND_JUNCTION),
            TreeNode(1, 3.0, KIND_JUNCTION),
            TreeNode(2, 5.0, KIND_TERMINAL),
        ),
        edges=(TreeEdge(0, 1, 2), TreeEdge(1, 2, 2)),
    )


def test_cvs_matures_at_the_first_critical_state():
    env = RoadTreeEnv(mini_two_junction_tree())
    q = fresh(env)
    params = AgentParams(alpha=0.1, gamma=1.0)
    with Recorder(env) as rec:
        log = cvs_episode(env, q, env.criticality(), params, rng_for(0))
    assert log.total_reward == 8.0
    j1 = env.node_state(1)
    root = env.root_state
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
    cvs_episode(env, q, env.criticality(), params, rng_for(0))
    root = env.root_state
    j1 = env.node_state(1)
    road1 = root + 1
    assert q[root, 0] == approx(0.1 * (0.5 * 3.0))
    assert q[road1, 0] == approx(0.1 * 3.0)
    assert q[j1, 0] == approx(0.1 * (0.5 * 5.0))


def test_cvs_flushes_whole_branch_on_terminal():
    env = RoadTreeEnv(fig3_tree())
    q = fresh(env)
    params = AgentParams(alpha=0.1, gamma=1.0, epsilon=0.1)
    with Recorder(env) as rec:
        log = cvs_episode(env, q, env.criticality(), params, rng_for(5))
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
        cvs_episode(env, q, lambda s: 1.5, AgentParams(), rng_for(0))


def test_watkins_cuts_traces_after_exploratory_action():
    env = RoadTreeEnv(fig3_tree())
    q = fresh(env)
    root = env.root_state
    q_update(q, root, 0, 0.5, 1.0)
    params = AgentParams(alpha=0.1, gamma=1.0, lam=0.9, epsilon=1.0)
    seed = next(
        s
        for s in range(50)
        if (lambda g: g.random() < 1.0 and int(g.integers(2)) == 1)(np.random.default_rng(s))
    )
    with Recorder(env) as rec:
        log = watkins_qlambda_episode(env, q, params, np.random.default_rng(seed))
    assert rec.trace[0][1] == 1
    assert log.total_reward == 2.0
    # the exploratory root choice was cut from the traces, so the terminal
    # reward never reached it; the final pair got its plain 1-step update
    assert q[root, 1] == 0.0
    assert q[root, 0] == 0.5
    last_s, last_a, _ = rec.trace[-1]
    assert q[last_s, last_a] == approx(0.2)


def paired_tables_match(env_factory, run_a, run_b, seeds, episodes, initial=0.0):
    for seed in seeds:
        env_a, env_b = env_factory(), env_factory()
        q_a, q_b = fresh(env_a, initial), fresh(env_b, initial)
        rng_a, rng_b = rng_for(seed), rng_for(seed)
        for ep in range(episodes):
            run_a(env_a, q_a, rng_a)
            run_b(env_b, q_b, rng_b)
            if not np.array_equal(q_a.as_array(), q_b.as_array()):
                return False, (seed, ep)
    return True, None


def const_h(value):
    return lambda s: value


@pytest.mark.parametrize("h, n", [(1.0, 1), (0.5, 2), (1 / 3, 3), (0.4, 3), (0.26, 4)])
def test_cvs_constant_criticality_equals_n_step_sarsa(h, n):
    # gamma < 1 makes a wrong discount power visible
    for gamma in (1.0, 0.9):
        params = AgentParams(alpha=0.1, gamma=gamma, epsilon=0.1, n=n)
        ok, where = paired_tables_match(
            lambda: RoadTreeEnv(fig3_tree()),
            lambda env, q, rng: cvs_episode(env, q, const_h(h), params, rng),
            lambda env, q, rng: reference_n_step_sarsa_episode(env, q, params, rng),
            seeds=(0, 1, 2),
            episodes=15,
        )
        assert ok, f"gamma {gamma}: tables diverged at (seed, episode) {where}"


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
    ok, where = paired_tables_match(
        lambda: RoadTreeEnv(fig1_tree()),
        lambda env, q, rng: cvs_episode(env, q, const_h(0.0), params, rng),
        lambda env, q, rng: reference_mc_episode(env, q, params, rng),
        seeds=(0, 1),
        episodes=15,
    )
    assert ok, f"tables diverged at (seed, episode) {where}"


REDUCTION_GAMMAS = (1.0, 0.9, 0.5, 0.37)


def assert_same_tables_on_tree(tree, q_init, seed, episodes, run_a, run_b):
    """Run two agents side by side on one tree, each from its own DrawStream
    on the same seed, and compare the table bytes after every episode."""
    env_a, env_b = RoadTreeEnv(tree), RoadTreeEnv(tree)
    q_a, q_b = fresh(env_a, q_init), fresh(env_b, q_init)
    rng_a, rng_b = DrawStream(seed), DrawStream(seed)
    for episode in range(episodes):
        run_a(env_a, q_a, rng_a)
        run_b(env_b, q_b, rng_b)
        assert q_a.as_array().tobytes() == q_b.as_array().tobytes(), f"episode {episode}"


@given(
    tree=road_trees(),
    gamma=st.sampled_from(REDUCTION_GAMMAS),
    q_init=st.sampled_from((0.0, 5.0, -1.5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_cvs_zero_criticality_equals_monte_carlo_on_random_trees(tree, gamma, q_init, seed):
    params = AgentParams(alpha=0.1, gamma=gamma, epsilon=0.1)
    assert_same_tables_on_tree(
        tree,
        q_init,
        seed,
        15,
        lambda env, q, rng: cvs_episode(env, q, const_h(0.0), params, rng),
        lambda env, q, rng: reference_mc_episode(env, q, params, rng),
    )


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
    assert_same_tables_on_tree(
        tree,
        q_init,
        seed,
        15,
        lambda env, q, rng: cvs_episode(env, q, const_h(1 / n), params, rng),
        lambda env, q, rng: reference_n_step_sarsa_episode(env, q, params, rng),
    )


def test_cvs_unit_criticality_equals_sarsa_on_shooter():
    # Ten episodes from a zero table bootstrap on zeros only, whatever their
    # discount, so the 0.5 start is what makes the discount power visible.
    for gamma, initial in [(1.0, 0.0), (0.9, 0.0), (0.9, 0.5)]:
        params = AgentParams(alpha=0.1, gamma=gamma, epsilon=0.1, n=1)
        ok, where = paired_tables_match(
            ShooterEnv,
            lambda env, q, rng: cvs_episode(env, q, const_h(1.0), params, rng),
            lambda env, q, rng: reference_n_step_sarsa_episode(env, q, params, rng),
            seeds=(0,),
            episodes=10,
            initial=initial,
        )
        assert ok, f"gamma {gamma}, q_init {initial}: tables diverged at (seed, episode) {where}"


@given(
    tree=road_trees(),
    q_init=st.sampled_from((0.0, 0.5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_cvs_equals_sarsa_lambda_s_at_unit_gamma_on_trees(tree, q_init, seed):
    # A tree's h is 0 or 1, so cvs is SARSA(lambda(s)) with lambda = 1 - h
    # computed forward; the reference computes it backward.
    params = AgentParams(alpha=0.1, gamma=1.0, epsilon=0.1)
    env, env_ref = RoadTreeEnv(tree), RoadTreeEnv(tree)
    q, q_ref = fresh(env, q_init), fresh(env_ref, q_init)
    rng, rng_ref = DrawStream(seed), DrawStream(seed)
    h = env.criticality()
    for episode in range(30):
        log = cvs_episode(env, q, h, params, rng)
        total, steps, _ = reference_sarsa_lambda_s_episode(env_ref, q_ref, h, params, rng_ref)
        assert (log.total_reward, log.steps) == (total, steps), f"episode {episode}"
        assert q.as_array().tobytes() == q_ref.as_array().tobytes(), f"episode {episode}"


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


def test_qlambda_zero_lambda_equals_q_learning():
    params = AgentParams(alpha=0.1, gamma=1.0, epsilon=0.1, lam=0.0)
    ok, where = paired_tables_match(
        lambda: RoadTreeEnv(fig3_tree()),
        lambda env, q, rng: watkins_qlambda_episode(env, q, params, rng),
        lambda env, q, rng: q_learning_episode(env, q, params, rng),
        seeds=(0, 1),
        episodes=20,
    )
    assert ok, f"tables diverged at (seed, episode) {where}"


REDUCTION_ENVS = {
    "fig1": lambda: RoadTreeEnv(fig1_tree()),
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
        env_a, env_b = REDUCTION_ENVS[name](), REDUCTION_ENVS[name]()
        q_a, q_b = fresh(env_a, q_init), fresh(env_b, q_init)
        rng_a, rng_b = DrawStream(seed, (0,)), DrawStream(seed, (0,))
        for episode in range(30):
            a = watkins_qlambda_episode(env_a, q_a, params, rng_a)
            b = q_learning_episode(env_b, q_b, params, rng_b)
            assert (a.total_reward, a.steps) == (b.total_reward, b.steps), (seed, episode)
        assert q_a.writes == q_b.writes
        assert hashlib.sha256(q_a._values).digest() == hashlib.sha256(q_b._values).digest()
        assert rng_a.random().hex() == rng_b.random().hex()


def test_episode_log_bookkeeping():
    env = RoadTreeEnv(fig1_tree())
    q = fresh(env)
    params = AgentParams()
    with Recorder(env) as rec:
        log = cvs_episode(env, q, env.criticality(), params, rng_for(3))
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
        rng = rng_for(i)
        for _ in range(5):
            run(env, q, rng)
        assert np.all(q.as_array()[env.terminal] == 0.0)


def hexed(updates):
    return [(s, a, float(target).hex(), boot) for s, a, target, boot in updates]


def assert_matches_reference(make_env, q_init, seed, episodes, run, reference):
    """Run ``run`` under a recorder and ``reference`` side by side from equal
    tables and seeds."""
    env, env_ref = make_env(), make_env()
    q, q_ref = fresh(env, q_init), fresh(env_ref, q_init)
    rng, rng_ref = rng_for(seed), rng_for(seed)
    for episode in range(episodes):
        with Recorder(env) as rec:
            log = run(env, q, rng)
        total, steps, updates = reference(env_ref, q_ref, rng_ref)
        assert (log.total_reward, log.steps) == (total, steps), f"episode {episode}"
        assert hexed(rec.updates) == hexed(updates), f"episode {episode}"
    assert q.writes == q_ref.writes
    assert q.as_array().tobytes() == q_ref.as_array().tobytes()
    assert rng.random() == rng_ref.random(), "the two consumed different draws"


GAMMAS = (1.0, 0.9, 0.5)
LAMBDAS = (0.0, 0.5, 0.9, 1.0)
Q_INITS = st.one_of(st.sampled_from((0.0, 0.5)), st.floats(-5.0, 5.0))
# Trees are acyclic and deterministic with a 0/1 h; the small MDPs add
# revisits, self-loops, random steps, fractional h and a step cap.
TREES_AND_MDPS = st.one_of(road_trees().map(lambda tree: partial(RoadTreeEnv, tree)), small_mdps())
# Uneven per-state criticalities put float rounding on the claim that the
# mature waitlist entries are always a prefix.
H_VALUES = (0.0, 0.1, 0.3, 1 / 3, 0.7, 1.0)


def draw_criticality(data, env):
    kind = data.draw(st.sampled_from(("env", "constant", "per_state")))
    if kind == "env":
        return env.criticality()
    if kind == "constant":
        return const_h(data.draw(st.sampled_from((0.0, 1 / 3, 1.0))))
    n = env.num_states
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
    assert_matches_reference(
        make_env,
        q_init,
        seed,
        5,
        lambda env, q, rng: cvs_episode(env, q, h, params, rng),
        lambda env, q, rng: reference_cvs_episode(env, q, h, params, rng),
    )


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
    assert_matches_reference(
        make_env,
        q_init,
        seed,
        5,
        lambda env, q, rng: watkins_qlambda_episode(env, q, params, rng),
        lambda env, q, rng: reference_qlambda_episode(env, q, params, rng),
    )


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
    assert_matches_reference(
        lambda: RoadTreeEnv(tree),
        q_init,
        seed,
        5,
        lambda env, q, rng: watkins_qlambda_episode(env, q, params, rng),
        lambda env, q, rng: reference_qlambda_episode(env, q, params, rng),
    )


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
    assert_matches_reference(
        make_env,
        q_init,
        seed,
        5,
        lambda env, q, rng: n_step_sarsa_episode(env, q, params, rng),
        lambda env, q, rng: reference_n_step_sarsa_episode(env, q, params, rng),
    )


@given(
    make_env=ENV_FACTORIES,
    gamma=st.sampled_from(REDUCTION_GAMMAS),
    q_init=st.sampled_from((0.0, 0.5, 5.0, -1.5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_mc_matches_full_return_reference(make_env, gamma, q_init, seed):
    params = AgentParams(alpha=0.1, gamma=gamma, epsilon=0.1)
    assert_matches_reference(
        make_env,
        q_init,
        seed,
        5,
        lambda env, q, rng: mc_episode(env, q, params, rng),
        lambda env, q, rng: reference_mc_episode(env, q, params, rng),
    )


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
        (
            lambda env, q, rng: cvs_episode(env, q, h, params, rng),
            lambda env, q, rng: reference_cvs_episode(env, q, h, params, rng),
        ),
        (
            lambda env, q, rng: n_step_sarsa_episode(env, q, params, rng),
            lambda env, q, rng: reference_n_step_sarsa_episode(env, q, params, rng),
        ),
        (
            lambda env, q, rng: mc_episode(env, q, params, rng),
            lambda env, q, rng: reference_mc_episode(env, q, params, rng),
        ),
        (
            lambda env, q, rng: watkins_qlambda_episode(env, q, params, rng),
            lambda env, q, rng: reference_qlambda_episode(env, q, params, rng),
        ),
    ]
    for run, reference in checks:
        assert_matches_reference(make_env, q_init, seed, 10, run, reference)


# Shooter and tennis criticality is 1 in mid-episode states, so cvs updates
# bootstrap inside episodes as well as flushing at the end.
GRID_ENVS = {
    "shooter": lambda: ShooterEnv(max_steps=200),
    "tennis": lambda: TennisEnv(max_steps=200),
}


@pytest.mark.parametrize("name", sorted(GRID_ENVS))
def test_cvs_matches_list_reference_on_grid_envs(name):
    params = AgentParams(alpha=0.1, gamma=0.9, epsilon=0.1)
    assert_matches_reference(
        GRID_ENVS[name],
        0.0,
        11,
        20,
        lambda env, q, rng: cvs_episode(env, q, env.criticality(), params, rng),
        lambda env, q, rng: reference_cvs_episode(env, q, env.criticality(), params, rng),
    )


@pytest.mark.parametrize("gamma", [1.0, 0.37])
@pytest.mark.parametrize("name", sorted(GRID_ENVS))
def test_mc_matches_full_return_reference_on_grid_envs(name, gamma):
    params = AgentParams(alpha=0.1, gamma=gamma, epsilon=0.1)
    assert_matches_reference(
        GRID_ENVS[name],
        0.0,
        11,
        20,
        lambda env, q, rng: mc_episode(env, q, params, rng),
        lambda env, q, rng: reference_mc_episode(env, q, params, rng),
    )


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
    assert_matches_reference(
        RevisitEnv,
        0.0,
        7,
        3,
        lambda env, q, rng: watkins_qlambda_episode(env, q, params, rng),
        lambda env, q, rng: reference_qlambda_episode(env, q, params, rng),
    )
    assert (0, 2) in seen


@pytest.mark.parametrize("name", sorted(GRID_ENVS))
def test_qlambda_matches_dict_reference_on_grid_envs(name):
    params = AgentParams(alpha=0.1, gamma=0.9, epsilon=0.1, lam=0.9)
    assert_matches_reference(
        GRID_ENVS[name],
        0.0,
        11,
        20,
        lambda env, q, rng: watkins_qlambda_episode(env, q, params, rng),
        lambda env, q, rng: reference_qlambda_episode(env, q, params, rng),
    )
