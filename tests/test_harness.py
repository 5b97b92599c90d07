from __future__ import annotations

import gc
import os
import random
import signal
import sys
import threading
import time
import weakref
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
from cvslab.harness import _ForkPool, _run_one
from cvslab.roadtree import _config_tree
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
    # numpy adds a strided axis run by run, but sums a contiguous one (a
    # single column) pairwise; a padding column keeps the runs axis strided
    want = np.array([row + [0.0] for row in rows], dtype=np.float64).mean(axis=0)[:episodes]
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
    assert repr(env.junction_moves) == repr(RoadTreeEnv(fig3_tree()).junction_moves)


def test_a_built_road_tree_keeps_no_tree_spec(monkeypatch):
    spec = fig3_tree()
    ref = weakref.ref(spec)
    env = RoadTreeEnv(spec)
    del spec
    gc.collect()
    assert ref() is None
    refs = []

    def spy(tree):
        built = _config_tree(tree)
        refs.append(weakref.ref(built))
        return built

    monkeypatch.setitem(harness._BUILDERS, "roadtree", spy)
    env = make_env({"name": "roadtree", "tree": fig3_tree().to_dict()})
    gc.collect()
    assert isinstance(env, RoadTreeEnv)
    assert len(refs) == 1 and refs[0]() is None


def fig3_doc(part, key, value):
    """A custom roadtree config: fig3's document with ``key`` of its first
    ``part`` entry (``nodes`` or ``edges``) set to ``value``."""
    doc = fig3_tree().to_dict()
    doc[part][0][key] = value
    return {"name": "roadtree", "tree": doc}


def fig3_distances(d0, d1):
    """fig3's document with edge distances ``d0`` and ``d1``: one junction
    and two edges, so a Q-table of d0 + d1 states x 2 actions."""
    doc = fig3_tree().to_dict()
    doc["edges"][0]["distance"], doc["edges"][1]["distance"] = d0, d1
    return doc


# 1024 junctions below the root, each with one terminal: 1026 states x 1024
# actions, too many for the table bound even with every distance 1.
WIDE_TREE_DOC = {
    "root": 0,
    "nodes": [{"id": i, "reward": 0.0, "kind": "junction" if i <= 1024 else "terminal"} for i in range(2049)],
    "edges": [{"parent": 0, "child": i, "distance": 1} for i in range(1, 1025)]
    + [{"parent": i, "child": i + 1024, "distance": 1} for i in range(1, 1025)],
}


def test_a_tree_document_may_fill_the_table_bound():
    assert [e.distance for e in _config_tree(fig3_distances(2**18, 2**18)).edges] == [2**18, 2**18]


@pytest.mark.parametrize(
    "cfg, key",
    [
        ({"name": "nowhere"}, "environment.name"),
        ({"name": "roadtree:fig9"}, "environment.name"),
        ({}, "environment.name"),
        ({"name": "shooter", "bogus": 1}, "environment.bogus"),
        ({"name": "roadtree"}, "environment.tree"),
        ({"name": "roadtree", "tree": {"root": 0}}, "environment.tree.nodes"),
        ({"name": "roadtree", "tree": {**fig3_tree().to_dict(), "root": 0.0}}, "environment.tree.root"),
        ({"name": "roadtree", "tree": [fig3_tree().to_dict()]}, "environment.tree"),
        ({"name": "roadtree", "tree": {**fig3_tree().to_dict(), "nodes": {"id": 0}}}, "environment.tree.nodes"),
        ({"name": "roadtree", "tree": {**fig3_tree().to_dict(), "edges": 5}}, "environment.tree.edges"),
        (
            {"name": "roadtree", "tree": {"root": 0, "nodes": [{"id": 0, "reward": 0}, {}], "edges": []}},
            "environment.tree.nodes[1].id",
        ),
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
        (fig3_doc("nodes", "reward", "nan"), "environment.tree.nodes[0].reward"),
        (fig3_doc("nodes", "reward", True), "environment.tree.nodes[0].reward"),
        (fig3_doc("edges", "distance", 2.9), "environment.tree.edges[0].distance"),
        (fig3_doc("edges", "distance", "3"), "environment.tree.edges[0].distance"),
        (fig3_doc("nodes", "id", 0.7), "environment.tree.nodes[0].id"),
        ({"name": "tennis", "p_optimal": 10**400}, "environment.p_optimal"),
        (fig3_doc("nodes", "reward", 10**400), "environment.tree.nodes[0].reward"),
        # past the table bound: the first edge whose road states overflow it
        ({"name": "roadtree", "tree": fig3_distances(2**18, 2**18 + 1)}, "environment.tree.edges[1].distance"),
        ({"name": "roadtree", "tree": fig3_distances(2**19, 1)}, "environment.tree.edges[0].distance"),
        ({"name": "roadtree", "tree": fig3_distances(2**19, 2**19)}, "environment.tree.edges[0].distance"),
        ({"name": "roadtree", "tree": WIDE_TREE_DOC}, "environment.tree"),
    ],
)
def test_make_env_names_offending_key(cfg, key):
    with pytest.raises(ConfigError) as info:
        make_env(cfg)
    assert info.value.key == key


def test_config_validation_names_offending_key(monkeypatch):
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
    for threads, runs in ((1, 1), (2, 2)):  # in this process, and from a worker
        cfg = small_cfg(runs=runs)
        cfg.environment["name"] = "nope"  # a block changed after the check fails in the run
        with pytest.raises(ConfigError) as info:
            run_on(monkeypatch, threads, cfg)
        assert info.value.key == "environment.name"


def test_unknown_algorithm_message_lists_the_choices():
    with pytest.raises(ConfigError) as info:
        ExperimentConfig(algorithm="dyna")
    assert str(info.value) == "algorithm: must be one of cvs, qlearning, nstep_sarsa, qlambda, mc, got 'dyna'"


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


def test_worker_count_has_a_ceiling(monkeypatch):
    def no_fork():
        pytest.fail("forked a worker")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setenv("CVS_LAB_THREADS", "257")
    with pytest.raises(ConfigError) as info:
        run_experiment(small_cfg(runs=300))
    assert str(info.value) == "CVS_LAB_THREADS: must be at most 256, got '257'"
    monkeypatch.setenv("CVS_LAB_THREADS", "256")
    assert harness._resolve_workers() == 256
    # the processor count is capped at the same ceiling
    monkeypatch.delenv("CVS_LAB_THREADS")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(1000)), raising=False)
    assert harness._resolve_workers() == 256


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


def test_runs_without_fork_go_in_this_process(monkeypatch):
    cfg = small_cfg(runs=3)
    forked = run_on(monkeypatch, 2, cfg)
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(harness, "_ForkPool", None)  # opening a pool would fail
    alone = run_on(monkeypatch, 2, cfg)
    assert [r.returns for r in alone] == [r.returns for r in forked]
    assert [r.greedy_optimal for r in alone] == [r.greedy_optimal for r in forked]


def _after(seconds, outcome):
    time.sleep(seconds)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Fails a test still running after 30 s, where a pool fault would hang it."""

    def expire(signum, frame):
        raise TimeoutError("still running after 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_fork_pool_keeps_submission_order(deadline):
    with _ForkPool(2) as pool:
        # the later tasks finish first
        assert pool.map(_after, [0.2, 0.0, 0.1, 0.0], "abcd") == list("abcd")
        with pytest.raises(ValueError, match="first"):
            pool.map(_after, [0.2, 0.0, 0.0], [ValueError("first"), KeyError("second"), "c"])
        assert pool.map(pow, [2, 3], [10, 2]) == [1024, 9]  # still usable after a task raised
        assert pool.map(bytes, [1 << 20, 3]) == [bytes(1 << 20), bytes(3)]  # far beyond a pipe's buffer
    assert_no_child_left()


def _touch_unless_first(index, directory):
    if index == 0:
        raise ValueError("task 0")
    if index == 1:
        time.sleep(0.5)
    (directory / str(index)).touch()


def test_fork_pool_sends_no_task_after_one_raised(deadline, tmp_path):
    with _ForkPool(2) as pool:
        with pytest.raises(ValueError, match="task 0"):
            pool.map(_touch_unless_first, range(6), [tmp_path] * 6)
    # task 1 was in flight when task 0 raised; tasks 2-5 were never sent
    assert set(os.listdir(tmp_path)) == {"1"}
    assert_no_child_left()


def _half_a_reply(_):
    return [bytes(1 << 20), threading.Lock()]  # the lock fails to pickle after the bytes are sent


# sys.exit's SystemExit is no task failure: the worker ends, unwinding no further
@pytest.mark.parametrize("task, status", [(os._exit, 3), (sys.exit, 1), (_half_a_reply, 1)])
def test_a_dead_worker_raises_and_no_child_is_left(deadline, task, status):
    with _ForkPool(2) as pool:
        with pytest.raises(RuntimeError, match=rf"pool worker \d+ died \(exit status {status}\)"):
            pool.map(task, [3])
    assert_no_child_left()


def process_state(pid):
    """The one-letter state in ``/proc/<pid>/stat``; ``Z`` is a zombie."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        return stat.read().rpartition(")")[2].split()[0]


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_a_worker_dead_before_its_task_is_written_raises(deadline):
    with _ForkPool(2) as pool:
        # map hands out tasks by popping a copy of the worker list, so the
        # first worker gets the second task
        pid = pool._workers[0][0]
        os.kill(pid, signal.SIGKILL)
        while process_state(pid) != "Z":  # its pipe ends are closed: the write fails
            time.sleep(0.01)
        with pytest.raises(RuntimeError, match=rf"^pool worker {pid} died \(exit status -9\)$"):
            pool.map(pow, [2, 3], [10, 2])
    assert_no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
@pytest.mark.parametrize(
    "error",
    [OSError(11, "Resource temporarily unavailable"), KeyboardInterrupt()],
    ids=["OSError", "KeyboardInterrupt"],
)
def test_a_failed_fork_reaps_the_workers_forked_before_it(monkeypatch, deadline, error):
    fork, forked = os.fork, []

    def fork_once():
        if forked:
            raise error
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    fds = sorted(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", fork_once)
    with pytest.raises(type(error)) as raised:
        _ForkPool(3)
    assert raised.value is error
    assert len(forked) == 1
    with pytest.raises(ChildProcessError):  # reaped already
        os.waitpid(forked[0], os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == fds
    assert_no_child_left()


def test_leaving_a_fork_pool_on_an_exception_kills_its_workers(deadline):
    class StatusPool(_ForkPool):
        def close(self, kill=False):
            self.statuses = super().close(kill)
            return self.statuses

    with pytest.raises(KeyError):
        with StatusPool(2) as pool:
            pool.map(pow, [2], [3])
            raise KeyError("caller")
    assert list(pool.statuses.values()) == [-signal.SIGKILL] * 2
    assert_no_child_left()


def _freeze_count(_):
    return gc.get_freeze_count()


@pytest.mark.parametrize("caller_frozen_and_disabled", [False, True])
def test_workers_freeze_their_inherited_heap_and_the_caller_keeps_its_collector(
    monkeypatch, deadline, caller_frozen_and_disabled
):
    enabled = gc.isenabled()
    if caller_frozen_and_disabled:
        gc.freeze()
        gc.disable()
    try:
        state = gc.get_freeze_count(), gc.isenabled()
        with _ForkPool(2) as pool:
            assert (gc.get_freeze_count(), gc.isenabled()) == state
            assert all(pool.map(_freeze_count, range(4)))
        assert (gc.get_freeze_count(), gc.isenabled()) == state
        run_on(monkeypatch, 2, small_cfg(runs=2, episodes=2))
        assert (gc.get_freeze_count(), gc.isenabled()) == state
    finally:
        if caller_frozen_and_disabled:
            gc.unfreeze()
        if enabled:
            gc.enable()
    assert_no_child_left()


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


# A chain worth 0.1, 0.2 and 0.3 against a leaf worth 0: summed from the
# root down, as a rollout adds it, the chain pays 0.6000000000000001, and
# summed from the leaf up 0.6.
TENTHS_DOC = {
    "root": 0,
    "nodes": [{"id": i, "reward": r} for i, r in enumerate((0.0, 0.1, 0.2, 0.3, 0.0))],
    "edges": [{"parent": p, "child": c, "distance": 2} for p, c in ((0, 1), (1, 2), (2, 3), (0, 4))],
}


def test_every_flag_is_set_when_rewards_are_inexact_floats():
    # Only the root chooses.  Its action 1 pays 0 and ends the episode, so
    # its value stays 0 and greedy keeps action 0, the chain, from the start.
    cfg = small_cfg(environment={"name": "roadtree", "tree": TENTHS_DOC}, episodes=300, runs=2)
    results = run_experiment(cfg)
    assert [len(r.greedy_optimal) for r in results] == [300, 300]
    assert all(all(r.greedy_optimal) for r in results)


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
