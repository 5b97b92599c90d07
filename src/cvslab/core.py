"""Core tabular-MDP pieces shared by every agent and environment.

States and actions are dense non-negative integers.  Each environment owns a
single absorbing TERMINAL sink state whose Q-row is pinned to zero; episodes
end on the transition that enters it.  All value mutation goes through
:func:`q_update` or its batched twin :func:`q_update_traced` so that learning
code can be audited via the table's write counter.

The per-step helpers (:class:`Transition`, :func:`greedy_actions`,
:func:`epsilon_greedy`, :func:`q_update`, :meth:`QTable.row_max`,
``QTable.__getitem__``) read single values as Python floats and ints
(``ndarray.item``/``tolist``) rather than as numpy scalars: the comparisons
and float values are the same, and a numpy scalar or reduction per step costs
several times more on rows of 1-4 actions.

A table is built from its environment's action layout: the widest action
count plus the few states with fewer actions (TERMINAL among them).  It holds
no per-state count array, so a run's resident table is the pages it writes.

All randomness of a run flows through one draw source, which the harness
passes to ``env.reset``, ``env.step`` and the agent alike.  Agents and
environments call only ``rng.random()`` and ``rng.integers(k)`` (the
:class:`Draws` protocol), so the source may be a ``numpy.random.Generator`` or
the harness's ``DrawStream``, which serves the same values from blocks of raw
PCG64 words at a fraction of numpy's per-call cost.
"""

from __future__ import annotations

import math
import mmap
from abc import ABC, abstractmethod
from dataclasses import dataclass
from numbers import Real
from typing import Callable, NamedTuple, Protocol

import numpy as np

StateId = int
ActionId = int

# Criticality function: maps a state id to a value in [0, 1].
CriticalityFn = Callable[[StateId], float]


def _is_int(value) -> bool:
    """True for an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {value!r}")
    return float(value)


class Draws(Protocol):
    """The draw calls agents and environments make: a ``numpy.random.Generator``
    or a :class:`DrawStream` serves them."""

    def random(self) -> float: ...

    def integers(self, k: int) -> int: ...


class Transition(NamedTuple):
    """Result of one environment step (an immutable tuple)."""

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
        for key, value in (
            ("alpha", self.alpha),
            ("epsilon", self.epsilon),
            ("gamma", self.gamma),
            ("lambda", self.lam),
        ):
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{key} must be a real number, got {value!r}")
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

    Each fact of the dynamics is stated once: a state's action count only by
    :meth:`action_layout`, which tables and agents read.  A custom environment
    provides the six abstract members below.

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
    def action_layout(self) -> tuple[int, dict[StateId, int]]:
        """``(width, narrow)``: the widest action count (at least 1), and each
        state with fewer actions mapped to its count, TERMINAL included.  A
        state's action count is ``narrow.get(s, width)``."""
        raise NotImplementedError

    @abstractmethod
    def reset(self, rng: Draws) -> StateId:
        """Start a new episode and return a non-terminal initial state."""
        raise NotImplementedError

    @abstractmethod
    def step(self, s: StateId, a: ActionId, rng: Draws) -> Transition:
        """Take action ``a`` in ``s``; raises ``ValueError`` for TERMINAL, an
        id outside ``[0, num_states)`` or an action ``s`` lacks."""
        raise NotImplementedError

    @abstractmethod
    def criticality(self) -> CriticalityFn:
        """Deterministic state criticality, values in [0, 1]."""
        raise NotImplementedError


class QTable:
    """Dense (state x action) value table.

    Built from an action layout ``(width, narrow)`` (see
    :meth:`Environment.action_layout`): every row is ``width`` slots wide,
    and a state in ``narrow`` with ``k`` actions has its slots from ``k`` on
    padded with ``-inf``, so they can never win an argmax.  A state's action
    count is ``narrow.get(s, width)``; the table keeps no per-state array.
    Every reader checks ``0 <= s < num_states`` first: that lookup would give
    ``s = -1`` a full row, and numpy would index it as the last one.
    ``q[s, a]`` also rejects an action outside ``s``'s count, as
    :func:`q_update` does, so it never returns padding.  The TERMINAL row,
    which has no actions, is zero in :meth:`as_array` and rejects writes.
    ``writes`` counts every value written by :func:`q_update` or
    :func:`q_update_traced`.

    A +0.0 initial value gets a private anonymous mapping of its own, so the
    table starts on zero pages instead of being filled, only the 4 KiB pages
    a run writes become resident, and all of them go back to the system when
    the table is freed; any other value (``-0.0`` included) is filled with
    ``np.full``.
    """

    def __init__(
        self,
        num_states: int,
        layout: tuple[int, dict[StateId, int]],
        terminal: StateId,
        initial_value: float = 0.0,
    ):
        width, narrow = layout
        if num_states < 1:
            raise ValueError(f"num_states must be >= 1, got {num_states}")
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        if not 0 <= terminal < num_states:
            raise ValueError(f"terminal id {terminal} out of range")
        self._num_states = int(num_states)
        self._width = int(width)
        self._narrow = dict(narrow)
        self._terminal = int(terminal)
        initial = float(initial_value)
        shape = (self._num_states, self._width)
        if initial == 0.0 and math.copysign(1.0, initial) > 0.0:
            # Not np.zeros: malloc would reuse a freed table's heap pages or
            # map new ones depending on the heap's history, and numpy backs
            # arrays of 4 MiB and more with 2 MiB huge pages; either makes
            # peak RSS depend on more than the pages a run writes.
            buf = mmap.mmap(-1, shape[0] * shape[1] * 8, access=mmap.ACCESS_COPY)
            values = np.frombuffer(buf, dtype=np.float64).reshape(shape)
        else:
            values = np.full(shape, initial, dtype=np.float64)
        for s, k in self._narrow.items():
            if not (0 <= s < num_states and 0 <= k < width):
                raise ValueError(f"narrow state {s} with {k} actions does not fit the table")
            values[s, k:] = -np.inf
        values[self._terminal, :] = 0.0
        self._values = values
        self._writes = 0

    @classmethod
    def for_env(cls, env: Environment, initial_value: float = 0.0) -> "QTable":
        return cls(env.num_states, env.action_layout(), env.terminal, initial_value)

    @property
    def num_states(self) -> int:
        return self._num_states

    @property
    def terminal(self) -> StateId:
        return self._terminal

    @property
    def writes(self) -> int:
        """Number of value updates applied to this table."""
        return self._writes

    def num_actions(self, s: StateId) -> int:
        if not 0 <= s < self._num_states:
            raise ValueError(f"state {s} out of range")
        return self._narrow.get(s, self._width)

    def __getitem__(self, sa: tuple[StateId, ActionId]) -> float:
        s, a = sa
        if not 0 <= s < self._num_states:
            raise ValueError(f"state {s} out of range")
        if not 0 <= a < self._narrow.get(s, self._width):
            raise ValueError(f"action {a} invalid for state {s}")
        return self._values.item(s, a)

    def row_max(self, s: StateId) -> float:
        if not 0 <= s < self._num_states:
            raise ValueError(f"state {s} out of range")
        k = self._narrow.get(s, self._width)
        if k == 0:
            raise ValueError(f"state {s} has no actions")
        row = self._values[s].tolist()
        return max(row if k == len(row) else row[:k])

    def as_array(self) -> np.ndarray:
        """Copy of the full padded table (for snapshots and comparisons)."""
        return self._values.copy()


def greedy_actions(q: QTable, s: StateId) -> list[ActionId]:
    """All actions of ``s`` tied at the maximal Q value, ascending."""
    if s == q.terminal:
        raise ValueError("greedy_actions is undefined at the TERMINAL state")
    if not 0 <= s < q._num_states:
        raise ValueError(f"state {s} out of range")
    k = q._narrow.get(s, q._width)
    if k == 0:
        raise ValueError(f"state {s} has no actions")
    row = q._values[s].tolist()
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


# Raw PCG64 words pulled per refill of a DrawStream.
_DRAW_BLOCK = 256
_TWO_POW_32 = 1 << 32
_TWO_POW_M53 = 2.0**-53


class DrawStream:
    """The ``random()`` and ``integers(k)`` draws of ``np.random.default_rng(seed_seq)``.

    Each call returns the value numpy's ``Generator`` would, in the same
    order, computed from raw PCG64 words pulled in blocks of ``_DRAW_BLOCK``.
    ``random()`` is numpy's ``next_double``: the top 53 bits of the next word.
    ``integers(k)`` is numpy's bounded Lemire draw
    (``buffered_bounded_lemire_uint32``; Lemire 2019) on PCG64's 32-bit
    half-words: a word yields its low half and buffers its high half for the
    next half-word draw, and ``random()`` neither reads nor clears that
    buffer.  ``k == 1`` draws nothing.
    """

    __slots__ = ("_bitgen", "_next", "_half")

    def __init__(self, seed_seq: np.random.SeedSequence):
        self._bitgen = np.random.PCG64(seed_seq)
        self._next = iter(()).__next__
        self._half: int | None = None

    def _refill(self) -> int:
        """Pull the next block of words and return its first one."""
        self._next = iter(self._bitgen.random_raw(_DRAW_BLOCK).tolist()).__next__
        return self._next()

    def random(self) -> float:
        try:
            w = self._next()
        except StopIteration:
            w = self._refill()
        return (w >> 11) * _TWO_POW_M53

    def integers(self, k: int) -> int:
        """Uniform int in ``[0, k)`` for ``1 <= k <= 2**32``."""
        if type(k) is not int or not 0 < k <= _TWO_POW_32:
            raise ValueError(f"k must be an int in [1, 2**32], got {k!r}")
        if k == 1:
            return 0
        while True:
            half = self._half
            if half is not None:
                self._half = None
                m = half * k
            else:
                try:
                    w = self._next()
                except StopIteration:
                    w = self._refill()
                self._half = w >> 32
                m = (w & 0xFFFFFFFF) * k
            # numpy rejects a leftover below (2**32 - k) % k, which is < k,
            # and computes that bound only for leftovers below k
            leftover = m & 0xFFFFFFFF
            if leftover >= k or leftover >= (_TWO_POW_32 - k) % k:
                return m >> 32


def epsilon_greedy(q: QTable, s: StateId, epsilon: float, rng: Draws) -> ActionId:
    """Pick a greedy action, exploring uniformly with probability ``epsilon``.

    Greedy ties are broken uniformly at random.  Single-action states return
    action 0 without consuming randomness.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if s == q.terminal:
        raise ValueError("epsilon_greedy is undefined at the TERMINAL state")
    if not 0 <= s < q._num_states:
        raise ValueError(f"state {s} out of range")
    k = q._narrow.get(s, q._width)
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
    v = q._values.item(s, a)
    q._values[s, a] = v + alpha * (target - v)
    q._writes += 1


def _check_writable(q: QTable, s: StateId, a: ActionId) -> None:
    if s == q.terminal:
        raise ValueError("the TERMINAL Q-row is immutable")
    if not 0 <= s < q._num_states:
        raise ValueError(f"state {s} out of range")
    if not 0 <= a < q._narrow.get(s, q._width):
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
