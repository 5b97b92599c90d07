"""Core tabular-MDP pieces shared by every agent and environment.

States and actions are dense non-negative integers.  Each environment owns a
single absorbing TERMINAL sink state whose Q-row is pinned to zero; episodes
end on the transition that enters it.  All value mutation goes through
:func:`q_update` or its batched twin :func:`q_update_traced` so that learning
code can be audited via the table's write counter, and all randomness flows
through one ``numpy.random.Generator`` per run.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

StateId = int
ActionId = int

# Criticality function: maps a state id to a value in [0, 1].
CriticalityFn = Callable[[StateId], float]


@dataclass(frozen=True)
class Transition:
    """Result of one environment step."""

    reward: float
    next_state: StateId
    terminal: bool


@dataclass(frozen=True)
class AgentParams:
    """Shared learning hyper-parameters.

    ``lam`` is the eligibility-trace decay (config key ``lambda``) and ``n``
    the lookahead of the fixed-stepnumber SARSA agent; both are ignored by
    agents that do not use them.
    """

    alpha: float = 0.1
    epsilon: float = 0.1
    gamma: float = 1.0
    lam: float = 0.9
    n: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lam}")
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")


class Environment(ABC):
    """Tabular episodic MDP with integer states and a shared TERMINAL sink.

    Implementations keep their dynamics immutable; the only per-episode
    bookkeeping an environment may hold is a step counter for episode caps,
    which ``reset`` clears.  Independent runs therefore each build their own
    instance.
    """

    @property
    @abstractmethod
    def num_states(self) -> int:
        raise NotImplementedError

    @property
    @abstractmethod
    def terminal(self) -> StateId:
        """Id of the absorbing sink state."""
        raise NotImplementedError

    @abstractmethod
    def num_actions(self, s: StateId) -> int:
        raise NotImplementedError

    @abstractmethod
    def reset(self, rng: np.random.Generator) -> StateId:
        """Start a new episode and return a non-terminal initial state."""
        raise NotImplementedError

    @abstractmethod
    def step(self, s: StateId, a: ActionId, rng: np.random.Generator) -> Transition:
        raise NotImplementedError

    @abstractmethod
    def criticality(self) -> CriticalityFn:
        """Deterministic state criticality, values in [0, 1]."""
        raise NotImplementedError

    def action_counts(self) -> np.ndarray:
        """Per-state action counts (0 for states without actions)."""
        return np.array([self.num_actions(s) for s in range(self.num_states)], dtype=np.int16)


class QTable:
    """Dense (state x action) value table.

    Rows are padded to the widest action set; padding slots hold ``-inf`` so
    they can never win an argmax.  The TERMINAL row reads as zero and rejects
    writes.  ``writes`` counts every value written by :func:`q_update` or
    :func:`q_update_traced`.
    """

    def __init__(self, action_counts: np.ndarray, terminal: StateId, initial_value: float = 0.0):
        counts = np.asarray(action_counts, dtype=np.int16)
        if counts.ndim != 1 or len(counts) == 0:
            raise ValueError("action_counts must be a non-empty 1-D array")
        if not 0 <= terminal < len(counts):
            raise ValueError(f"terminal id {terminal} out of range")
        self._counts = counts
        self._terminal = int(terminal)
        self._initial = float(initial_value)
        width = max(1, int(counts.max()))
        values = np.full((len(counts), width), float(initial_value), dtype=np.float64)
        values[np.arange(width) >= counts[:, None]] = -np.inf
        values[self._terminal, :] = 0.0
        self._values = values
        self._writes = 0

    @classmethod
    def for_env(cls, env: Environment, initial_value: float = 0.0) -> "QTable":
        return cls(env.action_counts(), env.terminal, initial_value)

    @property
    def num_states(self) -> int:
        return len(self._counts)

    @property
    def terminal(self) -> StateId:
        return self._terminal

    @property
    def initial_value(self) -> float:
        return self._initial

    @property
    def writes(self) -> int:
        """Number of value updates applied to this table."""
        return self._writes

    def num_actions(self, s: StateId) -> int:
        return int(self._counts[s])

    def __getitem__(self, sa: tuple[StateId, ActionId]) -> float:
        return float(self._values[sa])

    def row(self, s: StateId) -> np.ndarray:
        """Copy of the valid action values at ``s``."""
        return self._values[s, : self._counts[s]].copy()

    def row_max(self, s: StateId) -> float:
        k = self._counts[s]
        if k == 0:
            raise ValueError(f"state {s} has no actions")
        return float(self._values[s, :k].max())

    def as_array(self) -> np.ndarray:
        """Copy of the full padded table (for snapshots and comparisons)."""
        return self._values.copy()


def greedy_actions(q: QTable, s: StateId) -> list[ActionId]:
    """All actions of ``s`` tied at the maximal Q value, ascending."""
    if s == q.terminal:
        raise ValueError("greedy_actions is undefined at the TERMINAL state")
    k = q._counts[s]
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


def epsilon_greedy(q: QTable, s: StateId, epsilon: float, rng: np.random.Generator) -> ActionId:
    """Pick a greedy action, exploring uniformly with probability ``epsilon``.

    Greedy ties are broken uniformly at random.  Single-action states return
    action 0 without consuming randomness.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if s == q.terminal:
        raise ValueError("epsilon_greedy is undefined at the TERMINAL state")
    k = q._counts[s]
    if k == 0:
        raise ValueError(f"state {s} has no actions")
    if k == 1:
        return 0
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(k))
    ties = greedy_actions(q, s)
    if len(ties) == 1:
        return ties[0]
    return ties[int(rng.integers(len(ties)))]


def q_update(q: QTable, s: StateId, a: ActionId, target: float, alpha: float) -> None:
    """Move Q(s, a) toward ``target`` by step size ``alpha``.

    Together with :func:`q_update_traced` this is the only mutation path into
    a QTable.
    """
    _check_writable(q, s, a)
    v = q._values[s, a]
    q._values[s, a] = v + alpha * (target - v)
    q._writes += 1


def _check_writable(q: QTable, s: StateId, a: ActionId) -> None:
    if s == q.terminal:
        raise ValueError("the TERMINAL Q-row is immutable")
    if not 0 <= a < q._counts[s]:
        raise ValueError(f"action {a} invalid for state {s}")


def q_index(q: QTable, s: StateId, a: ActionId) -> int:
    """Flat index of (s, a) for :func:`q_update_traced`.

    Applies the same checks as :func:`q_update`, so a pair that gets an index
    may be written.
    """
    _check_writable(q, s, a)
    return s * q._values.shape[1] + a


def q_update_traced(
    q: QTable,
    idx: np.ndarray,
    traces: np.ndarray,
    delta: float,
    alpha: float,
    fresh: int | None,
    fresh_target: float,
) -> np.ndarray:
    """Batched :func:`q_update` for eligibility traces; returns the targets.

    The value ``v`` at each flat index ``idx[i]`` (from :func:`q_index`; the
    indices must be distinct) moves toward ``v + delta * traces[i]`` by step
    size ``alpha``, except position ``fresh`` (if not None), which moves
    toward ``fresh_target``.  The float operations are those of one
    ``q_update`` per entry, so the table ends up bit-identical to that loop.
    """
    flat = q._values.reshape(-1)  # a view: the table is C-contiguous
    v = flat[idx]
    targets = v + delta * traces
    if fresh is not None:
        targets[fresh] = fresh_target
    flat[idx] = v + alpha * (targets - v)
    q._writes += len(targets)
    return targets
