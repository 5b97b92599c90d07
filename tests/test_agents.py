from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvslab import (
    AgentParams,
    Environment,
    QTable,
    RoadTreeEnv,
    ShooterConfig,
    ShooterEnv,
    TennisConfig,
    TennisEnv,
    Transition,
    TreeEdge,
    TreeNode,
    TreeSpec,
    cvs_episode,
    epsilon_greedy,
    fig1_tree,
    fig3_tree,
    greedy_actions,
    mc_episode,
    n_step_sarsa_episode,
    q_learning_episode,
    watkins_qlambda_episode,
)
from cvslab.agents import _CRT_EPS
from cvslab.core import DrawStream, q_update
from cvslab.roadtree import KIND_JUNCTION, KIND_TERMINAL
from recorder import Recorder
from strategies import road_trees

approx = lambda x: pytest.approx(x, rel=1e-12, abs=0.0)


class ChainEnv(Environment):
    """Single-action corridor: step i pays rewards[i], the last one terminates."""

    def __init__(self, rewards):
        self._rewards = tuple(float(r) for r in rewards)

    @property
    def num_states(self):
        return len(self._rewards) + 1

    @property
    def terminal(self):
        return len(self._rewards)

    def action_layout(self):
        return 1, {self.terminal: 0}

    def reset(self, rng):
        return 0

    def step(self, s, a, rng):
        nxt = s + 1
        return Transition(self._rewards[s], nxt, nxt == self.terminal)

    def criticality(self):
        return lambda s: 1.0


class LoopEnv(Environment):
    """One state with one action that loops back to itself: step i pays
    rewards[i], the last one terminates."""

    def __init__(self, rewards):
        self._rewards = tuple(float(r) for r in rewards)
        self._t = 0

    @property
    def num_states(self):
        return 2

    @property
    def terminal(self):
        return 1

    def action_layout(self):
        return 1, {1: 0}

    def reset(self, rng):
        self._t = 0
        return 0

    def step(self, s, a, rng):
        r = self._rewards[self._t]
        self._t += 1
        done = self._t == len(self._rewards)
        return Transition(r, 1 if done else 0, done)

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


def paired_tables_match(env_factory, run_a, run_b, seeds, episodes):
    for seed in seeds:
        env_a, env_b = env_factory(), env_factory()
        q_a, q_b = fresh(env_a), fresh(env_b)
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
    params = AgentParams(alpha=0.1, gamma=1.0, epsilon=0.1, n=n)
    ok, where = paired_tables_match(
        lambda: RoadTreeEnv(fig3_tree()),
        lambda env, q, rng: cvs_episode(env, q, const_h(h), params, rng),
        lambda env, q, rng: n_step_sarsa_episode(env, q, params, rng),
        seeds=(0, 1, 2),
        episodes=15,
    )
    assert ok, f"tables diverged at (seed, episode) {where}"


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_cvs_zero_criticality_equals_monte_carlo(gamma):
    params = AgentParams(alpha=0.1, gamma=gamma, epsilon=0.1)
    ok, where = paired_tables_match(
        lambda: RoadTreeEnv(fig1_tree()),
        lambda env, q, rng: cvs_episode(env, q, const_h(0.0), params, rng),
        lambda env, q, rng: mc_episode(env, q, params, rng),
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
    seed_seq = np.random.SeedSequence(seed)
    rng_a, rng_b = DrawStream(seed_seq), DrawStream(seed_seq)
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
        lambda env, q, rng: mc_episode(env, q, params, rng),
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
        lambda env, q, rng: n_step_sarsa_episode(env, q, params, rng),
    )


def test_cvs_unit_criticality_equals_sarsa_on_shooter():
    params = AgentParams(alpha=0.1, gamma=1.0, epsilon=0.1, n=1)
    ok, where = paired_tables_match(
        ShooterEnv,
        lambda env, q, rng: cvs_episode(env, q, const_h(1.0), params, rng),
        lambda env, q, rng: n_step_sarsa_episode(env, q, params, rng),
        seeds=(0,),
        episodes=10,
    )
    assert ok, f"tables diverged at (seed, episode) {where}"


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


# ----------------------------------------------------------------------
# Slow references: the per-entry loops the agents replaced.  The fast agents
# must reproduce them bit for bit (same RNG draws, same float operations).
# ----------------------------------------------------------------------


@dataclass
class _WaitEntry:
    state: int
    action: int
    reward_acc: float = 0.0
    crt_cum: float = 0.0
    steps: int = 0


def reference_cvs_episode(env, q, h, params, rng):
    """cvs with a list waitlist that every step walks in full."""
    alpha, gamma, eps = params.alpha, params.gamma, params.epsilon
    updates = []
    waitlist = []
    total = 0.0
    steps = 0
    s = env.reset(rng)
    a = epsilon_greedy(q, s, eps, rng)
    while True:
        tr = env.step(s, a, rng)
        steps += 1
        total += tr.reward
        waitlist.append(_WaitEntry(s, a))
        for e in waitlist:
            e.reward_acc += (gamma**e.steps) * tr.reward
            e.steps += 1
        if tr.terminal:
            for e in waitlist:
                q_update(q, e.state, e.action, e.reward_acc, alpha)
                updates.append((e.state, e.action, e.reward_acc, None))
            break
        s2 = tr.next_state
        a2 = epsilon_greedy(q, s2, eps, rng)
        hs = float(h(s2))
        for e in waitlist:
            e.crt_cum += hs
        boot = q[s2, a2]
        keep = []
        for e in waitlist:
            if e.crt_cum >= 1.0 - _CRT_EPS:
                target = e.reward_acc + (gamma**e.steps) * boot
                q_update(q, e.state, e.action, target, alpha)
                updates.append((e.state, e.action, target, s2))
            else:
                keep.append(e)
        waitlist = keep
        s, a = s2, a2
    return total, steps, updates


def reference_qlambda_episode(env, q, params, rng):
    """Watkins Q(lambda) with a trace dict walked by one q_update per entry."""
    alpha, gamma, eps, lam = params.alpha, params.gamma, params.epsilon, params.lam
    updates = []
    traces: dict[tuple[int, int], float] = {}
    total = 0.0
    steps = 0
    s = env.reset(rng)
    while True:
        exploratory_pool = greedy_actions(q, s)
        a = epsilon_greedy(q, s, eps, rng)
        exploratory = a not in exploratory_pool
        tr = env.step(s, a, rng)
        steps += 1
        total += tr.reward
        boot_value = 0.0 if tr.terminal else q.row_max(tr.next_state)
        td_target = tr.reward + gamma * boot_value
        delta = td_target - q[s, a]
        traces[s, a] = traces.get((s, a), 0.0) + 1.0
        boot = None if tr.terminal else tr.next_state
        for (es, ea), e in traces.items():
            if es == s and ea == a and e == 1.0:
                target = td_target
            else:
                target = q[es, ea] + delta * e
            q_update(q, es, ea, target, alpha)
            updates.append((es, ea, target, boot))
        if tr.terminal:
            break
        factor = gamma * lam
        if exploratory or factor == 0.0:
            traces.clear()
        else:
            for key in traces:
                traces[key] *= factor
        s = tr.next_state
    return total, steps, updates


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


GAMMAS = (1.0, 0.9, 0.5)
LAMBDAS = (0.0, 0.5, 0.9, 1.0)
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
    tree=road_trees(),
    gamma=st.sampled_from(GAMMAS),
    epsilon=st.sampled_from((0.1, 0.5)),
    q_init=st.one_of(st.just(0.0), st.floats(-5.0, 5.0)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_cvs_matches_list_reference(tree, gamma, epsilon, q_init, seed, data):
    h = draw_criticality(data, RoadTreeEnv(tree))
    params = AgentParams(alpha=0.1, gamma=gamma, epsilon=epsilon)
    assert_matches_reference(
        lambda: RoadTreeEnv(tree),
        q_init,
        seed,
        5,
        lambda env, q, rng: cvs_episode(env, q, h, params, rng),
        lambda env, q, rng: reference_cvs_episode(env, q, h, params, rng),
    )


@given(
    tree=road_trees(),
    gamma=st.sampled_from(GAMMAS),
    lam=st.sampled_from(LAMBDAS),
    epsilon=st.sampled_from((0.1, 0.5)),
    q_init=st.one_of(st.just(0.0), st.floats(-5.0, 5.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_qlambda_matches_dict_reference(tree, gamma, lam, epsilon, q_init, seed):
    params = AgentParams(alpha=0.1, gamma=gamma, epsilon=epsilon, lam=lam)
    assert_matches_reference(
        lambda: RoadTreeEnv(tree),
        q_init,
        seed,
        5,
        lambda env, q, rng: watkins_qlambda_episode(env, q, params, rng),
        lambda env, q, rng: reference_qlambda_episode(env, q, params, rng),
    )


# Shooter and tennis criticality is 1 in mid-episode states, so cvs updates
# bootstrap inside episodes as well as flushing at the end.
GRID_ENVS = {
    "shooter": lambda: ShooterEnv(ShooterConfig(max_steps=200)),
    "tennis": lambda: TennisEnv(TennisConfig(max_steps=200)),
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
