"""Seeded experiment harness.

An experiment is (environment, algorithm, hyper-parameters, episodes, runs,
seed).  Run ``i`` seeds its draws from ``SeedSequence(seed, spawn_key=(i,))``,
so results are bit-reproducible from the config alone and independent of run
order or worker count.  Every draw of a run, env resets included, comes from
one ``DrawStream`` on that seed, whose values equal those of
``np.random.default_rng`` on it.  ``run_experiment`` submits its runs to a
caller's process pool when given one (``pool=``), so several experiments can
share one pool (the CLI opens one per comparison, sized by its largest block).
Otherwise it sizes its own from the ``CVS_LAB_THREADS`` environment variable
(default: the number of available processors), capped at the run count, and
runs in this process at one worker.  An ``ExperimentConfig`` holds only what
a run reads; smoothing windows belong to the caller of ``running_average``.
"""

from __future__ import annotations

import os
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .agents import (
    ALGORITHM_NAMES,
    cvs_episode,
    mc_episode,
    n_step_sarsa_episode,
    q_learning_episode,
    watkins_qlambda_episode,
)
from .core import AgentParams, DrawStream, Environment, QTable, greedy_actions
from .core import _finite_real, _is_int
from .roadtree import BUILTIN_TREES, RoadTreeEnv, TreeSpec, fig6_tree, optimal_return_oracle
from .shooter import ShooterConfig, ShooterEnv
from .tennis import TennisConfig, TennisEnv

ENVIRONMENT_NAMES = (*(f"roadtree:{tree}" for tree in BUILTIN_TREES), "roadtree", "shooter", "tennis")


class ConfigError(ValueError):
    """Invalid experiment configuration; ``key`` names the offending entry."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


def _positive_int(value) -> int:
    if not _is_int(value) or value < 1:
        raise ValueError(f"must be a positive integer, got {value!r}")
    return value


def _int_list(value) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)) or not all(_is_int(v) for v in value):
        raise ValueError(f"must be a list of integers, got {value!r}")
    return tuple(value)


def make_env(env_cfg: dict) -> Environment:
    """Build an environment from its config block (``name`` plus parameters)."""
    if not isinstance(env_cfg, dict):
        raise ConfigError("environment", "must be an object with a 'name' entry")
    name = env_cfg.get("name")
    if not isinstance(name, str):
        raise ConfigError("environment.name", "missing or not a string")
    params = {k: v for k, v in env_cfg.items() if k != "name"}

    def take(key: str, default, convert):
        """Pop parameter ``key`` and convert it; failures name that key."""
        try:
            return convert(params.pop(key, default))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"environment.{key}", str(exc)) from exc

    def reject_unknown() -> None:
        if params:
            key = sorted(params)[0]
            raise ConfigError(f"environment.{key}", "unknown environment parameter")

    if name.startswith("roadtree:"):
        variant = name.split(":", 1)[1]
        if variant not in BUILTIN_TREES:
            raise ConfigError("environment.name", f"unknown built-in tree {variant!r}")
        if variant == "fig6":
            k = take("k", 10, _positive_int)
            distance = take("distance", 10, _positive_int)
            reject_unknown()
            return RoadTreeEnv(fig6_tree(k=k, distance=distance))
        reject_unknown()
        return RoadTreeEnv(BUILTIN_TREES[variant]())
    if name == "roadtree":
        tree_doc = params.pop("tree", None)
        reject_unknown()
        if tree_doc is None:
            raise ConfigError("environment.tree", "a custom roadtree needs a 'tree' document")
        try:
            return RoadTreeEnv(TreeSpec.from_dict(tree_doc))
        except ValueError as exc:
            raise ConfigError("environment.tree", str(exc)) from exc
    if name == "shooter":
        max_steps = take("max_steps", 200, _positive_int)
        config = take(
            "obstacle_rows", (4, 5, 6), lambda rows: ShooterConfig(_int_list(rows), max_steps)
        )
        reject_unknown()
        return ShooterEnv(config)
    if name == "tennis":
        max_steps = take("max_steps", 1000, _positive_int)
        config = take("p_optimal", 0.8, lambda p: TennisConfig(_finite_real(p), max_steps))
        reject_unknown()
        return TennisEnv(config)
    raise ConfigError("environment.name", f"unknown environment {name!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    environment: dict = field(default_factory=lambda: {"name": "roadtree:fig3"})
    algorithm: str = "cvs"
    params: AgentParams = AgentParams()
    episodes: int = 100
    runs: int = 1
    seed: int = 0
    q_init: float = 0.0

    def validate(self) -> None:
        if self.algorithm not in ALGORITHM_NAMES:
            raise ConfigError("algorithm", f"unknown algorithm {self.algorithm!r}")
        for key in ("episodes", "runs"):
            value = getattr(self, key)
            if not _is_int(value) or value < 1:
                raise ConfigError(key, "must be a positive integer")
        if not _is_int(self.seed):
            raise ConfigError("seed", "must be an integer")
        try:
            _finite_real(self.q_init)
        except ValueError as exc:
            raise ConfigError("q_init", str(exc)) from exc
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
    moves = env.junction_moves
    s = env.root_state
    total = 0.0
    while s is not None:
        reward, s = moves[s][greedy_actions(q, s)[0]]
        total += reward
    return total


def _run_one(cfg: ExperimentConfig, run_index: int) -> RunResult:
    rng = DrawStream(np.random.SeedSequence(cfg.seed, spawn_key=(run_index,)))
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
        elif algorithm == "mc":
            log = mc_episode(env, q, params, rng)
        else:  # pragma: no cover - validate() rejects this earlier
            raise ConfigError("algorithm", f"unknown algorithm {algorithm!r}")
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


def run_experiment(cfg: ExperimentConfig, *, pool: Executor | None = None) -> list[RunResult]:
    """Execute all runs of an experiment; results are ordered by run index.

    With a ``pool``, the runs go to it and it is left open for the caller.
    Without one, ``min(workers, cfg.runs)`` processes run them, ``workers``
    coming from ``CVS_LAB_THREADS`` or the processor count, in a pool opened
    and closed here, or in this process when that is 1.
    """
    cfg.validate()
    if pool is not None:
        return _run_all(pool, cfg)
    workers = min(_resolve_workers(), cfg.runs)
    if workers <= 1:
        return [_run_one(cfg, i) for i in range(cfg.runs)]
    with ProcessPoolExecutor(workers) as own:
        return _run_all(own, cfg)


def _run_all(pool: Executor, cfg: ExperimentConfig) -> list[RunResult]:
    futures = [pool.submit(_run_one, cfg, i) for i in range(cfg.runs)]
    return [f.result() for f in futures]


# ----------------------------------------------------------------------
# Curve utilities
# ----------------------------------------------------------------------


def running_average(series, window: int) -> list[float]:
    """Trailing mean over ``window`` points; shorter prefixes average what exists."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
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


def average_over_runs(results: list[RunResult]) -> list[float]:
    """Element-wise mean of per-run return series (all runs same length)."""
    if not results:
        raise ValueError("no runs to average")
    lengths = {len(r.returns) for r in results}
    if len(lengths) != 1:
        raise ValueError(f"runs have differing episode counts: {sorted(lengths)}")
    stacked = np.array([r.returns for r in results], dtype=np.float64)
    return stacked.mean(axis=0).tolist()


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
