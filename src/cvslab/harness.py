"""Seeded experiment harness.

An experiment is (environment, algorithm, hyper-parameters, episodes, runs,
seed).  Every draw of run ``i``, env resets included, comes from one
``DrawStream(seed, (i,))``, whose values equal those of numpy's
``default_rng(SeedSequence(seed, spawn_key=(i,)))``, so results are
bit-reproducible from the config alone and independent of run order or
worker count.  ``run_experiment`` hands its runs to a
caller's pool when given one (``pool=``, any object with an Executor-style
``map``), so several experiments can share one pool (``cvslab run`` forks one
set of workers per comparison, sized by its largest block).  Otherwise it
sizes its own from the ``CVS_LAB_THREADS`` environment variable (default: the
number of available processors; either at most 256), capped at the run count,
and runs in this process at one worker, or where ``os.fork`` does not exist;
results are the same either way.  An ``ExperimentConfig`` holds only what a
run reads; smoothing windows belong to the caller of ``running_average``.
"""

from __future__ import annotations

__all__ = [
    "ExperimentConfig", "RunResult", "average_over_runs", "episodes_to_convergence", "episodes_to_threshold",
    "greedy_policy_return", "make_env", "run_experiment", "running_average",
]

import gc
import inspect
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from typing import BinaryIO, NoReturn

from .agents import (
    ALGORITHM_NAMES,
    cvs_episode,
    mc_episode,
    n_step_sarsa_episode,
    q_learning_episode,
    watkins_qlambda_episode,
)
from .core import AgentParams, ConfigError, DrawStream, Environment, QTable, greedy_actions
from .core import _finite_real, _is_int, _positive_int, _setting
from .roadtree import RoadTreeEnv, TreeSpec, _config_tree, fig1_tree, fig3_tree, fig4_tree, fig6_tree
from .roadtree import optimal_return_oracle
from .shooter import ShooterEnv
from .tennis import TennisEnv


# name -> builder of the environment or of its tree.  A builder's keyword
# parameters are the environment's config keys; it states their defaults and
# checks them, raising a ConfigError that names the parameter.
_BUILDERS = {
    "roadtree:fig1": fig1_tree,
    "roadtree:fig3": fig3_tree,
    "roadtree:fig4": fig4_tree,
    "roadtree:fig6": fig6_tree,
    "roadtree": _config_tree,
    "shooter": ShooterEnv,
    "tennis": TennisEnv,
}
ENVIRONMENT_NAMES = tuple(_BUILDERS)


def make_env(env_cfg: dict) -> Environment:
    """Build an environment from its config block: ``name`` (one of
    ``ENVIRONMENT_NAMES``) plus the keyword parameters of its builder.

    ``roadtree:<fig>`` calls the built-in tree function (``fig6`` takes ``k``
    and ``distance``), ``roadtree`` reads a ``tree`` document, and
    ``shooter``/``tennis`` call :class:`ShooterEnv`/:class:`TennisEnv`.  Keys
    the block leaves out take the builder's defaults.  An unknown name, an
    unknown or missing key, or a bad value raises a :class:`ConfigError`
    whose key starts with ``environment.``.
    """
    built = _checked_build(env_cfg)
    return RoadTreeEnv(built) if isinstance(built, TreeSpec) else built


def _checked_build(env_cfg: dict) -> TreeSpec | Environment:
    """What ``env_cfg``'s builder makes (a tree for a road tree), checked as
    :func:`make_env` checks it, without expanding a tree's states."""
    if not isinstance(env_cfg, dict):
        raise ConfigError("environment", "must be an object with a 'name' entry")
    name = env_cfg.get("name")
    builder = _BUILDERS.get(name) if isinstance(name, str) else None
    if builder is None:
        raise ConfigError("environment.name", f"must be one of {', '.join(_BUILDERS)}, got {name!r}")
    params = {k: v for k, v in env_cfg.items() if k != "name"}
    accepted = inspect.signature(builder).parameters
    for key in sorted(params):
        if key not in accepted:
            raise ConfigError(f"environment.{key}", "unknown environment parameter")
    for key, parameter in accepted.items():
        if parameter.default is parameter.empty and key not in params:
            raise ConfigError(f"environment.{key}", f"{name} needs a {key!r} entry")
    return _setting("environment", params, lambda p: builder(**p))


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, checked when built (``environment`` through its
    builder): a bad setting raises a :class:`ConfigError` naming its key."""

    environment: dict = field(default_factory=lambda: {"name": "roadtree:fig3"})
    algorithm: str = "cvs"
    params: AgentParams = AgentParams()
    episodes: int = 100
    runs: int = 1
    seed: int = 0
    q_init: float = 0.0

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHM_NAMES:
            raise ConfigError("algorithm", f"must be one of {', '.join(ALGORITHM_NAMES)}, got {self.algorithm!r}")
        if not isinstance(self.params, AgentParams):
            raise ConfigError("params", f"must be an AgentParams, got {self.params!r}")
        _setting("episodes", self.episodes, _positive_int)
        _setting("runs", self.runs, _positive_int)
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError("seed", "must be a non-negative integer")
        _setting("q_init", self.q_init, _finite_real)
        _checked_build(self.environment)


@dataclass
class RunResult:
    """Per-episode returns of one run, plus the greedy-vs-oracle flag where
    the environment has an exact oracle (road trees)."""

    returns: list[float]
    greedy_optimal: list[bool] | None = None


def greedy_policy_return(env: RoadTreeEnv, q: QTable) -> float:
    """Undiscounted return of the greedy policy (ties to the lowest action).

    Walks ``env.junction_moves`` from junction to junction.  Road states have
    one action and pay exactly 0.0, which leaves a float sum unchanged, so the
    result equals a step-by-step rollout's bit for bit.  Trees are acyclic, so
    the walk ends.
    """
    moves, sink = env.junction_moves, env.terminal
    s = env.root_state
    total = 0.0
    while s != sink:
        reward, s = moves[s][greedy_actions(q, s)[0]]
        total += reward
    return total


def _run_one(cfg: ExperimentConfig, run_index: int) -> RunResult:
    rng = DrawStream(cfg.seed, (run_index,))
    env = make_env(cfg.environment)
    q = QTable.for_env(env, cfg.q_init)
    # built per run, not at import, so it holds whatever these module names
    # are bound to now (a tracer may have wrapped them since)
    agent = {
        "cvs": cvs_episode, "qlearning": q_learning_episode, "nstep_sarsa": n_step_sarsa_episode,
        "qlambda": watkins_qlambda_episode, "mc": mc_episode,
    }[cfg.algorithm]
    args = (env, q, env.criticality(), cfg.params, rng) if cfg.algorithm == "cvs" else (env, q, cfg.params, rng)
    oracle_return, flags = (optimal_return_oracle(env)[0], []) if isinstance(env, RoadTreeEnv) else (None, None)

    returns: list[float] = []
    for _ in range(cfg.episodes):
        returns.append(agent(*args).total_reward)
        if flags is not None:
            flags.append(greedy_policy_return(env, q) == oracle_return)
    return RunResult(returns, flags)


# The most workers one pool forks, whatever CVS_LAB_THREADS or the processor count says.
_MAX_WORKERS = 256


def _resolve_workers() -> int:
    raw = os.environ.get("CVS_LAB_THREADS")
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            value = 0
        if value < 1:
            raise ConfigError("CVS_LAB_THREADS", f"must be a positive integer, got {raw!r}")
        if value > _MAX_WORKERS:
            raise ConfigError("CVS_LAB_THREADS", f"must be at most {_MAX_WORKERS}, got {raw!r}")
        return value
    try:
        return min(len(os.sched_getaffinity(0)), _MAX_WORKERS)
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return min(os.cpu_count() or 1, _MAX_WORKERS)


class _ForkPool:
    """``workers`` forked processes that run one pickled task at a time each.

    The workers live until ``close``, so what a run memoises stays warm for
    the next.  Leaving the ``with`` block closes the pool; leaving it on an
    exception kills the workers first.  Either way every worker is reaped.

    Both simpler designs ran slower on the fig1-oracle benchmark (calibrated
    ``wall_s``, alternating pairs): a static split (worker k runs tasks k, k + n,
    ...) 0.811 s against 0.775 s in 6 of 6 pairs; fresh workers forked per block
    0.790 s against 0.737 s in 7 of 7, with ``setup_s`` 0.319 s against 0.282 s.

    A worker starts cheap: ``pickle`` and ``select`` are loaded before the
    fork, so no worker imports them itself, and a worker's first act is
    ``gc.freeze()``, so its collections never visit, and so never copy the
    pages of, the objects it inherited.  Freezing in the worker, not around
    the fork, leaves the caller's collector as it was.
    """

    def __init__(self, workers: int):
        import pickle  # noqa: F401  # loaded once here, for every worker
        import select  # noqa: F401

        self._workers: list[tuple[int, int, BinaryIO]] = []  # (pid, task fd, result reader)
        try:
            for _ in range(workers):
                self._fork()
        except BaseException:
            self.close(kill=True)
            raise

    def _fork(self) -> None:
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except BaseException:  # an interrupt in here must not leak the fds either
            for fd in fds:
                os.close(fd)
            raise
        task_r, task_w, result_r, result_w = fds
        if pid == 0:  # the worker never returns into its parent's stack
            status = 1
            try:
                gc.freeze()
                # it holds no parent end of any pipe, so it sees its task pipe end
                # when the parent closes it, and so do the workers forked before it
                os.close(task_w)
                os.close(result_r)
                for _, earlier_task_w, earlier_reader in self._workers:
                    os.close(earlier_task_w)
                    earlier_reader.close()
                _serve(task_r, result_w)
                status = 0
            finally:
                os._exit(status)
        os.close(task_r)
        os.close(result_w)
        self._workers.append((pid, task_w, open(result_r, "rb")))

    def map(self, fn, *iterables) -> list:
        """``list(map(fn, *iterables))``, computed by the workers.

        A task goes to a worker only when it is idle, so no pipe fills while
        its reader waits.  Once a task has raised, no new task is sent; the
        ones in flight finish, and the earliest task's exception is raised.
        A worker that dies kills the pool and raises a ``RuntimeError``.
        """
        import pickle
        import select

        tasks = enumerate(zip(*iterables))
        idle, busy, replies = list(self._workers), {}, {}  # busy: result fd -> (worker, index)
        poll = select.poll()
        while True:
            while idle and (task := next(tasks, None)):
                worker = pid, task_w, reader = idle.pop()
                view = memoryview(pickle.dumps((fn, task[1])))
                try:
                    while view:
                        view = view[os.write(task_w, view) :]
                except BrokenPipeError:
                    self._died(pid)
                busy[reader.fileno()] = worker, task[0]
                poll.register(reader, select.POLLIN)
            if not busy:
                break
            for fd, _ in poll.poll():
                poll.unregister(fd)
                worker, index = busy.pop(fd)
                pid, _, reader = worker
                try:
                    ok, _ = replies[index] = pickle.load(reader)
                except (EOFError, pickle.UnpicklingError):  # the pipe ended, or mid-reply
                    self._died(pid)
                if not ok:
                    tasks = iter(())  # send nothing more; the tasks in flight finish
                idle.append(worker)
        ordered = [replies[index] for index in sorted(replies)]
        for ok, value in ordered:
            if not ok:
                raise value
        return [value for _, value in ordered]

    def _died(self, pid: int) -> NoReturn:
        # a worker ends a pipe only on its way out, so this one exits unkilled
        # and its status is its own
        status = self.close(kill=True, spare=pid)[pid]
        raise RuntimeError(f"pool worker {pid} died (exit status {status})")

    def close(self, kill: bool = False, spare: int | None = None) -> dict[int, int]:
        """End the task pipes, at whose end a worker exits, having killed every
        worker but ``spare`` when ``kill``; returns each reaped worker's exit
        status by pid."""
        import signal

        workers, self._workers = self._workers, []
        for pid, task_w, reader in workers:
            if kill and pid != spare:
                os.kill(pid, signal.SIGKILL)
            os.close(task_w)
            reader.close()
        return {pid: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _, _ in workers}

    def __enter__(self) -> _ForkPool:
        return self

    def __exit__(self, exc_type, *_) -> None:
        self.close(kill=exc_type is not None)


def _serve(task_r: int, result_w: int) -> None:
    """A worker's loop: read a pickled ``(fn, args)`` and write back the
    pickled ``(True, fn(*args))`` or ``(False, exception)``, until the task
    pipe ends.  A failed write ends the worker."""
    import pickle

    with open(task_r, "rb") as tasks, open(result_w, "wb") as results:
        while True:
            try:
                fn, args = pickle.load(tasks)
            except EOFError:
                return
            try:
                reply = True, fn(*args)
            except Exception as exc:
                reply = False, exc
            pickle.dump(reply, results)
            results.flush()


def _open_pool(runs: int):
    """A pool of ``min(_resolve_workers(), runs)`` forked processes, or
    ``nullcontext()`` at 1 or where ``os.fork`` does not exist."""
    workers = min(_resolve_workers(), runs)
    if workers <= 1 or not hasattr(os, "fork"):
        return nullcontext()
    return _ForkPool(workers)


def run_experiment(cfg: ExperimentConfig, *, pool=None) -> list[RunResult]:
    """Execute all runs of an experiment; results are ordered by run index.

    With a ``pool`` (any object with an Executor-style ``map``, such as a
    ``ProcessPoolExecutor``), the runs go to it and it is left open for the
    caller; a caller that runs threads passes one, since forking a threaded
    process is unsafe.  Without one, ``min(workers, cfg.runs)`` forked
    processes run them, ``workers`` coming from ``CVS_LAB_THREADS`` or the
    processor count, in a pool opened and closed here, or this process runs
    them when that is 1 or ``os.fork`` does not exist.  ``cfg`` was checked
    when built; each run builds its environment anew, and fails there, with
    a :class:`ConfigError` that reaches the caller from any worker, if the
    ``environment`` block was changed since into a bad one.
    """
    with nullcontext(pool) if pool is not None else _open_pool(cfg.runs) as pool:
        run_map = map if pool is None else pool.map
        return list(run_map(_run_one, repeat(cfg, cfg.runs), range(cfg.runs)))


# ----------------------------------------------------------------------
# Curve utilities
# ----------------------------------------------------------------------


def running_average(series, window: int) -> list[float]:
    """Trailing mean over ``window`` points; shorter prefixes average what exists.

    Each mean is a difference of left-to-right cumulative sums, as numpy's
    ``cumsum`` computes them, divided by the point count.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    csum = list(accumulate(map(float, series)))
    out = [c / n for n, c in enumerate(csum[:window], 1)]
    out += [(c - before) / window for c, before in zip(csum[window:], csum)]
    return out


def average_over_runs(results: list[RunResult]) -> list[float]:
    """Element-wise mean of per-run return series (all runs same length).

    One rule for every episode count: each episode's sum starts at 0.0 and
    adds the runs in run order, then divides by the run count, so a curve's
    first points do not depend on how many episodes the runs had.
    """
    if not results:
        raise ValueError("no runs to average")
    lengths = {len(r.returns) for r in results}
    if len(lengths) != 1:
        raise ValueError(f"runs have differing episode counts: {sorted(lengths)}")
    (episodes,) = lengths
    sums = [0.0] * episodes
    for r in results:
        sums = [total + float(x) for total, x in zip(sums, r.returns)]
    return [total / len(results) for total in sums]


def episodes_to_threshold(curve, threshold: float) -> int | None:
    """First index at which ``curve`` reaches ``threshold``, or None."""
    for i, v in enumerate(curve):
        if v >= threshold:
            return i
    return None


def episodes_to_convergence(flags) -> int | None:
    """Episode count (1-based) after which the flag stays True to the end.

    ``None`` when the final flag is False (never converged) or the series is
    empty.
    """
    flags = list(flags)
    if not flags or not flags[-1]:
        return None
    i = len(flags)
    while i > 0 and flags[i - 1]:
        i -= 1
    return i + 1
