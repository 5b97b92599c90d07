from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvslab import (
    AgentParams,
    ConfigError,
    ExperimentConfig,
    QTable,
    RoadTreeEnv,
    RunResult,
    ShooterEnv,
    TennisEnv,
    average_over_runs,
    cvs_episode,
    episodes_to_convergence,
    episodes_to_threshold,
    fig3_tree,
    greedy_actions,
    greedy_policy_return,
    make_env,
    mc_episode,
    n_step_sarsa_episode,
    optimal_return_oracle,
    q_learning_episode,
    run_experiment,
    running_average,
    watkins_qlambda_episode,
)
from cvslab import harness
from cvslab.core import q_update
from cvslab.harness import _run_one
from strategies import road_trees


def small_cfg(**overrides):
    base = dict(
        environment={"name": "roadtree:fig3"},
        algorithm="cvs",
        params=AgentParams(),
        episodes=10,
        runs=3,
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_running_average_spec_examples():
    assert running_average([1, 1, 1], 2) == [1, 1, 1]
    assert running_average([0, 2, 4], 2) == [0, 1, 3]
    assert running_average([7], 100) == [7]


def test_running_average_window_and_prefix():
    out = running_average([0, 0, 0, 4, 4, 4], 3)
    assert out == [0, 0, 0, 4 / 3, 8 / 3, 4]
    assert running_average([], 5) == []
    with pytest.raises(ValueError):
        running_average([1.0], 0)


def test_episodes_to_threshold_index_semantics():
    assert episodes_to_threshold([-1, 0, 1], 0) == 1
    assert episodes_to_threshold([5], 0) == 0
    assert episodes_to_threshold([-1, -1], 0) is None
    assert episodes_to_threshold([], 0) is None


def test_episodes_to_convergence():
    assert episodes_to_convergence([]) is None
    assert episodes_to_convergence([True]) == 1
    assert episodes_to_convergence([False, True, True]) == 2
    assert episodes_to_convergence([True, False, True]) == 3
    assert episodes_to_convergence([True, True, False]) is None
    assert episodes_to_convergence([True] * 5) == 1


def test_average_over_runs():
    results = [RunResult([1.0, 2.0]), RunResult([3.0, 6.0])]
    assert average_over_runs(results) == [2.0, 4.0]
    with pytest.raises(ValueError, match="no runs"):
        average_over_runs([])
    with pytest.raises(ValueError, match="differing episode counts"):
        average_over_runs([RunResult([1.0]), RunResult([1.0, 2.0])])


def curve_values(rnd, n):
    """``n`` values mixing signed zeros with magnitudes 1e-20 to 1e20 of
    either sign, so that the order of the additions shows in a sum."""
    return [
        rnd.choice((0.0, -0.0))
        if rnd.random() < 0.2
        else rnd.choice((-1, 1)) * rnd.random() * 10.0 ** rnd.randint(-20, 20)
        for _ in range(n)
    ]


def hexes(values):
    return [float(v).hex() for v in values]


@given(
    runs=st.integers(1, 300),
    episodes=st.sampled_from((1, 1, 2, 3, 7)),
    seed=st.integers(0, 2**32 - 1),
    negative_zeros=st.booleans(),
)
def test_average_over_runs_matches_numpy_mean(runs, episodes, seed, negative_zeros):
    rnd = random.Random(seed)
    if negative_zeros:
        rows = [[-0.0] * episodes for _ in range(runs)]
    else:
        rows = [curve_values(rnd, episodes) for _ in range(runs)]
    want = np.array(rows, dtype=np.float64).mean(axis=0)
    assert hexes(average_over_runs([RunResult(row) for row in rows])) == hexes(want)


def numpy_running_average(series, window):
    """``running_average`` as it was computed with numpy, kept as its reference."""
    values = np.asarray(series, dtype=np.float64)
    if values.size == 0:
        return []
    csum = np.cumsum(values)
    out = np.empty_like(values)
    if values.size <= window:
        out[:] = csum / np.arange(1, values.size + 1)
    else:
        out[:window] = csum[:window] / np.arange(1, window + 1)
        out[window:] = (csum[window:] - csum[:-window]) / window
    return out.tolist()


@given(n=st.integers(0, 60), window=st.integers(1, 80), seed=st.integers(0, 2**32 - 1))
def test_running_average_matches_numpy_cumsum(n, window, seed):
    series = curve_values(random.Random(seed), n)
    assert hexes(running_average(series, window)) == hexes(numpy_running_average(series, window))


def test_make_env_builds_every_name():
    assert isinstance(make_env({"name": "roadtree:fig1"}), RoadTreeEnv)
    assert isinstance(make_env({"name": "roadtree:fig6", "k": 3, "distance": 2}), RoadTreeEnv)
    assert isinstance(make_env({"name": "shooter", "max_steps": 50}), ShooterEnv)
    assert isinstance(make_env({"name": "tennis", "p_optimal": 0.5}), TennisEnv)
    custom = {"name": "roadtree", "tree": fig3_tree().to_dict()}
    env = make_env(custom)
    assert isinstance(env, RoadTreeEnv)
    assert env.tree == fig3_tree()


def fig3_doc(part, key, value):
    """A custom roadtree config: fig3's document with ``key`` of its first
    ``part`` entry (``nodes`` or ``edges``) set to ``value``."""
    doc = fig3_tree().to_dict()
    doc[part][0][key] = value
    return {"name": "roadtree", "tree": doc}


@pytest.mark.parametrize(
    "cfg, key",
    [
        ({"name": "nowhere"}, "environment.name"),
        ({"name": "roadtree:fig9"}, "environment.name"),
        ({}, "environment.name"),
        ({"name": "shooter", "bogus": 1}, "environment.bogus"),
        ({"name": "roadtree"}, "environment.tree"),
        ({"name": "roadtree", "tree": {"root": 0}}, "environment.tree"),
        ({"name": "tennis", "p_optimal": 7}, "environment.p_optimal"),
        ({"name": "shooter", "obstacle_rows": [55]}, "environment.obstacle_rows"),
        ({"name": "roadtree:fig6", "k": 0}, "environment.k"),
        ({"name": "roadtree:fig6", "distance": 0}, "environment.distance"),
        ({"name": "roadtree:fig6", "k": "many"}, "environment.k"),
        ({"name": "shooter", "max_steps": 0}, "environment.max_steps"),
        ({"name": "tennis", "max_steps": 0}, "environment.max_steps"),
        ({"name": "tennis", "max_steps": 2.5}, "environment.max_steps"),
        ({"name": "shooter", "max_steps": True}, "environment.max_steps"),
        ({"name": "tennis", "p_optimal": "high"}, "environment.p_optimal"),
        ({"name": "tennis", "p_optimal": True}, "environment.p_optimal"),
        ({"name": "tennis", "p_optimal": "0.5"}, "environment.p_optimal"),
        ({"name": "shooter", "obstacle_rows": [4.5, True]}, "environment.obstacle_rows"),
        ({"name": "shooter", "obstacle_rows": [4, True]}, "environment.obstacle_rows"),
        ({"name": "shooter", "obstacle_rows": [4.0]}, "environment.obstacle_rows"),
        (fig3_doc("nodes", "reward", "nan"), "environment.tree"),
        (fig3_doc("nodes", "reward", True), "environment.tree"),
        (fig3_doc("edges", "distance", 2.9), "environment.tree"),
        (fig3_doc("edges", "distance", "3"), "environment.tree"),
        (fig3_doc("nodes", "id", 0.7), "environment.tree"),
        ({"name": "tennis", "p_optimal": 10**400}, "environment.p_optimal"),
        (fig3_doc("nodes", "reward", 10**400), "environment.tree"),
    ],
)
def test_make_env_names_offending_key(cfg, key):
    with pytest.raises(ConfigError) as info:
        make_env(cfg)
    assert info.value.key == key


def test_config_validation_names_offending_key():
    cases = [
        (dict(algorithm="sarsa99"), "algorithm"),
        (dict(episodes=0), "episodes"),
        (dict(runs=0), "runs"),
        (dict(episodes=True), "episodes"),
        (dict(runs=True), "runs"),
        (dict(seed=1.5), "seed"),
        (dict(seed=False), "seed"),
        (dict(seed=-5), "seed"),
        (dict(q_init="abc"), "q_init"),
        (dict(q_init=True), "q_init"),
        (dict(q_init=float("nan")), "q_init"),
        (dict(q_init=float("inf")), "q_init"),
        (dict(q_init=10**400), "q_init"),
        (dict(environment={"name": "nope"}), "environment.name"),
        (dict(params={"alpha": 0.2}), "params"),
        (dict(params=None), "params"),
    ]
    for overrides, key in cases:
        with pytest.raises(ConfigError) as info:
            small_cfg(**overrides)  # raises when built
        assert info.value.key == key, key
    cfg = small_cfg(runs=1)
    cfg.environment["name"] = "nope"  # a block changed after the check fails in the run
    with pytest.raises(ConfigError) as info:
        run_experiment(cfg)
    assert info.value.key == "environment.name"


def test_run_experiment_rejects_a_negative_seed():
    for seed in (-1, -(2**70)):
        with pytest.raises(ConfigError) as info:
            run_experiment(small_cfg(seed=seed))
        assert info.value.key == "seed"


def run_on(monkeypatch, threads, cfg):
    """``run_experiment`` with ``CVS_LAB_THREADS`` set to ``threads``."""
    monkeypatch.setenv("CVS_LAB_THREADS", str(threads))
    return run_experiment(cfg)


def test_run_experiment_is_reproducible(monkeypatch):
    cfg = small_cfg()
    first = run_on(monkeypatch, 1, cfg)
    second = run_on(monkeypatch, 1, cfg)
    assert [r.returns for r in first] == [r.returns for r in second]
    assert [r.greedy_optimal for r in first] == [r.greedy_optimal for r in second]


def test_runs_are_independent_of_execution_order(monkeypatch):
    cfg = small_cfg()
    whole = run_on(monkeypatch, 1, cfg)
    for i in range(cfg.runs):
        alone = _run_one(cfg, i)
        assert alone.returns == whole[i].returns


def test_parallel_runs_match_sequential(monkeypatch):
    cfg = small_cfg(runs=4)
    sequential = run_on(monkeypatch, 1, cfg)
    parallel = run_on(monkeypatch, 2, cfg)
    assert [r.returns for r in sequential] == [r.returns for r in parallel]
    assert [r.greedy_optimal for r in sequential] == [r.greedy_optimal for r in parallel]


def test_worker_env_var_is_validated(monkeypatch):
    cfg = small_cfg(runs=2)
    monkeypatch.setenv("CVS_LAB_THREADS", "nonsense")
    with pytest.raises(ConfigError, match="CVS_LAB_THREADS"):
        run_experiment(cfg)
    monkeypatch.setenv("CVS_LAB_THREADS", "0")
    with pytest.raises(ConfigError, match="CVS_LAB_THREADS"):
        run_experiment(cfg)
    monkeypatch.setenv("CVS_LAB_THREADS", "1")
    assert len(run_experiment(cfg)) == 2


def test_caller_pool_gives_the_same_results_and_stays_open(monkeypatch):
    cfg = small_cfg(runs=3)
    own = run_on(monkeypatch, 2, cfg)
    serial = run_on(monkeypatch, 1, cfg)
    with ProcessPoolExecutor(max_workers=2) as pool:
        shared = run_experiment(cfg, pool=pool)
        assert pool.submit(pow, 2, 10).result() == 1024
        again = run_experiment(cfg, pool=pool)
    for results in (own, shared, again):
        assert [r.returns for r in results] == [r.returns for r in serial]
        assert [r.greedy_optimal for r in results] == [r.greedy_optimal for r in serial]


def test_result_shapes(monkeypatch):
    cfg = small_cfg(episodes=7, runs=2)
    results = run_on(monkeypatch, 1, cfg)
    assert len(results) == 2
    for r in results:
        assert len(r.returns) == 7
        assert len(r.greedy_optimal) == 7


def test_oracle_flags_only_on_road_trees():
    cfg = small_cfg(
        environment={"name": "shooter", "max_steps": 30}, episodes=2, runs=1, algorithm="qlearning"
    )
    result = run_experiment(cfg)[0]
    assert result.greedy_optimal is None


def test_every_algorithm_runs_end_to_end():
    for algorithm in ("cvs", "qlearning", "nstep_sarsa", "qlambda", "mc"):
        cfg = small_cfg(algorithm=algorithm, episodes=3, runs=1)
        result = run_experiment(cfg)[0]
        assert len(result.returns) == 3
        assert all(v in (1.0, 2.0) for v in result.returns)


def test_greedy_policy_return_follows_the_table():
    env = RoadTreeEnv(fig3_tree())
    q = QTable.for_env(env)
    # all-zero table ties at the root; ties resolve to the lower action
    assert greedy_policy_return(env, q) == 1.0
    q_update(q, env.root_state, 1, 1.0, 1.0)
    assert greedy_policy_return(env, q) == 2.0


def test_q_init_seeds_the_tables():
    cfg = small_cfg(q_init=5.0, episodes=1, runs=1)
    optimistic = run_experiment(cfg)[0]
    assert optimistic.returns[0] in (1.0, 2.0)


def greedy_rollout_return(env, q):
    """Reference oracle check: drive the greedy policy (ties to the lowest
    action) one environment step at a time and sum the rewards."""
    rng = np.random.default_rng(0)
    s = env.reset(rng)
    total = 0.0
    for _ in range(100_000):
        r, s2 = env.step(s, greedy_actions(q, s)[0], rng)
        total += r
        if s2 == env.terminal:
            return total
        s = s2
    raise RuntimeError("greedy rollout did not terminate")


# Few distinct values, so greedy ties are common.
Q_VALUES = (-1.0, 0.0, 1.0, 2.0)


@given(
    tree=road_trees(),
    q_init=st.one_of(st.sampled_from(Q_VALUES), st.floats(-5.0, 5.0)),
    data=st.data(),
)
def test_greedy_walk_matches_step_rollout(tree, q_init, data):
    env = RoadTreeEnv(tree)
    q = QTable.for_env(env, q_init)
    for s, moves in env.junction_moves.items():
        for a in range(len(moves)):
            value = data.draw(st.one_of(st.none(), st.sampled_from(Q_VALUES)))
            if value is not None:
                q_update(q, s, a, value, 1.0)
    walked = greedy_policy_return(env, q)
    assert walked.hex() == greedy_rollout_return(env, q).hex()


@pytest.mark.parametrize("q_init", [0.0, 5.0])
@pytest.mark.parametrize("algorithm", ["cvs", "qlearning", "nstep_sarsa", "qlambda", "mc"])
def test_run_flags_match_step_rollout(monkeypatch, algorithm, q_init):
    cfg = small_cfg(
        environment={"name": "roadtree:fig6", "k": 3, "distance": 3},
        algorithm=algorithm,
        episodes=40,
        q_init=q_init,
        params=AgentParams(n=3),
    )
    walked = _run_one(cfg, 0)
    monkeypatch.setattr(harness, "greedy_policy_return", greedy_rollout_return)
    rolled = _run_one(cfg, 0)
    assert walked.returns == rolled.returns
    assert walked.greedy_optimal == rolled.greedy_optimal


def reference_run_one(cfg, run_index):
    """``_run_one`` as it was before DrawStream: one numpy Generator per run."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(run_index,)))
    env = make_env(cfg.environment)
    q = QTable.for_env(env, cfg.q_init)
    params = cfg.params
    algorithm = cfg.algorithm
    h = env.criticality() if algorithm == "cvs" else None

    oracle_return = None
    flags = None
    if isinstance(env, RoadTreeEnv):
        oracle_return, _ = optimal_return_oracle(env)
        flags = []

    returns = []
    for _ in range(cfg.episodes):
        if algorithm == "cvs":
            log = cvs_episode(env, q, h, params, rng)
        elif algorithm == "qlearning":
            log = q_learning_episode(env, q, params, rng)
        elif algorithm == "nstep_sarsa":
            log = n_step_sarsa_episode(env, q, params, rng)
        elif algorithm == "qlambda":
            log = watkins_qlambda_episode(env, q, params, rng)
        else:
            log = mc_episode(env, q, params, rng)
        returns.append(log.total_reward)
        if flags is not None:
            flags.append(greedy_policy_return(env, q) == oracle_return)
    return RunResult(returns, flags)


@pytest.mark.parametrize(
    "env_name, algorithm",
    [("roadtree:fig6", a) for a in ("cvs", "qlearning", "nstep_sarsa", "qlambda", "mc")]
    + [(name, a) for name in ("shooter", "tennis") for a in ("cvs", "qlearning")],
)
def test_run_matches_default_rng_reference(env_name, algorithm):
    environment = {"name": env_name}
    if env_name in ("shooter", "tennis"):
        environment["max_steps"] = 100
    cfg = small_cfg(
        environment=environment,
        algorithm=algorithm,
        episodes=30,
        seed=5,
        params=AgentParams(gamma=0.9, n=3),
    )
    for run_index in range(2):
        assert _run_one(cfg, run_index) == reference_run_one(cfg, run_index)
