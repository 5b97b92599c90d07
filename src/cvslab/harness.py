"""Seeded experiment harness.

An experiment is (environment, algorithm, hyper-parameters, episodes, runs,
seed).  Every draw of run ``i``, env resets included, comes from one
``DrawStream(seed, (i,))``, whose values equal those of numpy's
``default_rng(SeedSequence(seed, spawn_key=(i,)))``, so results are
bit-reproducible from the config alone and independent of run order or
worker count.  ``run_experiment`` submits its runs to a
caller's process pool when given one (``pool=``), so several experiments can
share one pool (the CLI opens one per comparison, sized by its largest block).
Otherwise it sizes its own from the ``CVS_LAB_THREADS`` environment variable
(default: the number of available processors), capped at the run count, and
runs in this process at one worker.  An ``ExperimentConfig`` holds only what
a run reads; smoothing windows belong to the caller of ``running_average``.
"""

from __future__ import annotations

import inspect
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import accumulate
from typing import TYPE_CHECKING

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
from .roadtree import BUILTIN_TREES, RoadTreeEnv, TreeSpec, optimal_return_oracle
from .shooter import ShooterEnv
from .tennis import TennisEnv

if TYPE_CHECKING:  # a serial run never loads concurrent.futures
    from concurrent.futures import Executor


def _custom_tree(tree) -> TreeSpec:
    return _setting("tree", tree, TreeSpec.from_dict)


# name -> builder of the environment or of its tree.  A builder's keyword
# parameters are the environment's config keys; it states their defaults and
# checks them, raising a ConfigError that names the parameter.
_BUILDERS = {
    **{f"roadtree:{name}": tree for name, tree in BUILTIN_TREES.items()},
    "roadtree": _custom_tree,
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
    try:
        built = builder(**params)
    except ConfigError as exc:
        raise ConfigError(f"environment.{exc.key}", exc.message) from exc
    return RoadTreeEnv(built) if isinstance(built, TreeSpec) else built


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, checked when built (``environment`` by building it):
    a bad setting raises a :class:`ConfigError` naming its key."""

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
        make_env(self.environment)


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
    params = cfg.params
    algorithm = cfg.algorithm
    h = env.criticality() if algorithm == "cvs" else None

    oracle_return: float | None = None
    flags: list[bool] | None = None
    if isinstance(env, RoadTreeEnv):
        oracle_return, _ = optimal_return_oracle(env)
        flags = []

    returns: list[float] = []
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


def _resolve_workers() -> int:
    raw = os.environ.get("CVS_LAB_THREADS")
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            value = 0
        if value < 1:
            raise ConfigError("CVS_LAB_THREADS", f"must be a positive integer, got {raw!r}")
        return value
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _open_pool(runs: int):
    """A pool of ``min(_resolve_workers(), runs)`` processes, or ``nullcontext()`` at 1."""
    workers = min(_resolve_workers(), runs)
    if workers <= 1:
        return nullcontext()
    # imported here: 2.6 MB and ~40 ms that a serial run skips
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers)


def run_experiment(cfg: ExperimentConfig, *, pool: Executor | None = None) -> list[RunResult]:
    """Execute all runs of an experiment; results are ordered by run index.

    With a ``pool``, the runs go to it and it is left open for the caller.
    Without one, ``min(workers, cfg.runs)`` processes run them, ``workers``
    coming from ``CVS_LAB_THREADS`` or the processor count, in a pool opened
    and closed here, or in this process when that is 1.  ``cfg`` was checked
    when built; each run builds its environment anew, and fails there if the
    ``environment`` block was changed since into a bad one.
    """
    with nullcontext(pool) if pool is not None else _open_pool(cfg.runs) as pool:
        if pool is None:
            return [_run_one(cfg, i) for i in range(cfg.runs)]
        futures = [pool.submit(_run_one, cfg, i) for i in range(cfg.runs)]
        return [f.result() for f in futures]


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

    Bit for bit numpy's ``mean(axis=0)`` over the runs x episodes array: each
    episode's sum starts at 0.0 and adds the runs in run order, except that
    a one-episode series is summed pairwise, as numpy sums a contiguous axis.
    """
    if not results:
        raise ValueError("no runs to average")
    lengths = {len(r.returns) for r in results}
    if len(lengths) != 1:
        raise ValueError(f"runs have differing episode counts: {sorted(lengths)}")
    (episodes,) = lengths
    runs = len(results)
    if episodes == 1:
        return [(0.0 + _pairwise_sum([float(r.returns[0]) for r in results])) / runs]
    sums = [0.0] * episodes
    for r in results:
        sums = [total + float(x) for total, x in zip(sums, r.returns)]
    return [total / runs for total in sums]


def _pairwise_sum(values: list[float]) -> float:
    """numpy's ``pairwise_sum`` for doubles: eight accumulators over blocks of
    up to 128 values, and larger inputs split in halves on a multiple of 8."""
    n = len(values)
    if n < 8:
        total = 0.0
        for x in values:
            total += x
        return total
    if n <= 128:
        acc = values[:8]
        end = n - n % 8
        for i in range(8, end, 8):
            for j in range(8):
                acc[j] += values[i + j]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for x in values[end:]:
            total += x
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


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
