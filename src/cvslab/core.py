"""Core tabular-MDP pieces shared by every agent and environment.

States and actions are dense non-negative integers.  Each environment owns a
single absorbing TERMINAL sink, its last state id and the only state without
actions, whose Q-row is pinned to zero; a step returns
``(reward, next_state)``, and the step into the sink ends the episode.  All
value mutation goes through :func:`q_update` or its batched twin
:func:`q_update_traced`, so learning code can be audited by its write count.

A table's values are a flat ``memoryview`` of doubles, so the per-step
helpers (:func:`greedy_actions`, :func:`epsilon_greedy`, :func:`q_update`,
:meth:`QTable.row_max`, ``QTable.__getitem__``) read and write Python floats
and ints, and a row is the ``tolist()`` of its slice.
Each checks its guards once, a single bound ``0 <= s < terminal`` on the
state.  Nothing on a run's path imports numpy; only :meth:`QTable.as_array`
does.

A table is built from its environment's action layout and sink id: the
widest action count, a default count and each state below the sink whose
count differs (none on shooter and tennis, the forks of a road tree).  It
builds nothing per state; its values live in a mapping of its own.

All randomness of a run flows through one draw source, which the harness
passes to ``env.reset``, ``env.step`` and the agent alike.  Agents and
environments call only ``rng.random()`` and ``rng.integers(k)`` (the
:class:`Draws` protocol), so the source may be a ``numpy.random.Generator`` or
the harness's ``DrawStream``, which computes the same values in Python from
its own PCG64 words.
"""

from __future__ import annotations

__all__ = ["AgentParams", "ConfigError", "Environment", "QTable", "epsilon_greedy", "greedy_actions"]

import math
import mmap
import operator
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import chain
from numbers import Real
from typing import Callable, Iterator, Protocol

StateId = int
ActionId = int

# Criticality function: maps a state id to a value in [0, 1].
CriticalityFn = Callable[[StateId], float]


class ConfigError(ValueError):
    """An invalid setting; ``key`` names it.

    Raised by the code that reads the setting: an environment's constructor
    names its parameter (``max_steps``), ``make_env`` prefixes
    ``environment.`` to that, and ``ExperimentConfig`` (when built) and the
    CLI name their own keys.  The message reads ``"<key>: <reason>"``.
    """

    def __init__(self, key: str, message: str):
        self.key = key
        self.message = message
        super().__init__(f"{key}: {message}")

    def __reduce__(self):
        # rebuilt from (key, message), so it crosses from a pool worker intact
        return type(self), (self.key, self.message)


def _setting(key: str, value, convert):
    """``convert(value)``; a :class:`ConfigError` it raises is renamed
    ``<key>.<its key>``, and any other ``TypeError`` or ``ValueError`` becomes
    a :class:`ConfigError` naming ``key``."""
    try:
        return convert(value)
    except ConfigError as exc:
        raise ConfigError(f"{key}.{exc.key}", exc.message) from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(key, str(exc)) from exc


def _is_int(value) -> bool:
    """True for an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(value) -> int:
    if not _is_int(value):
        raise ValueError(f"must be an integer, got {value!r}")
    return value


def _positive_int(value) -> int:
    if not _is_int(value) or value < 1:
        raise ValueError(f"must be a positive integer, got {value!r}")
    return value


def _finite_real(value) -> float:
    try:
        finite = not isinstance(value, bool) and isinstance(value, Real) and math.isfinite(value)
    except OverflowError:  # an int beyond the range of a float
        finite = False
    if not finite:
        raise ValueError(f"must be a finite number, got {value!r}")
    return float(value)


def _probability(value) -> float:
    p = _finite_real(value)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"must be in [0, 1], got {value!r}")
    return p


def _positive_fraction(value) -> float:
    x = _finite_real(value)
    if not 0.0 < x <= 1.0:
        raise ValueError(f"must be in (0, 1], got {value!r}")
    return x


class Draws(Protocol):
    """The draw calls agents and environments make: a ``numpy.random.Generator``
    or a :class:`DrawStream` serves them."""

    def random(self) -> float: ...

    def integers(self, k: int) -> int: ...


@dataclass(frozen=True)
class AgentParams:
    """Shared learning hyper-parameters.

    ``lam`` is the eligibility-trace decay (config key ``lambda``) and ``n``
    the lookahead of the fixed-stepnumber SARSA agent; both are ignored by
    agents that do not use them.  A bad value raises a :class:`ConfigError`
    naming its key.
    """

    alpha: float = 0.1
    epsilon: float = 0.1
    gamma: float = 1.0
    lam: float = 0.9
    n: int = 1

    def __post_init__(self) -> None:
        _setting("alpha", self.alpha, _positive_fraction)
        _setting("epsilon", self.epsilon, _probability)
        _setting("gamma", self.gamma, _positive_fraction)
        _setting("lambda", self.lam, _probability)
        _setting("n", self.n, _positive_int)


class Environment(ABC):
    """Tabular episodic MDP with integer states and one absorbing TERMINAL sink.

    Each fact of the dynamics is stated once: the state space only by
    :attr:`terminal`, the last id, a state's action count only by
    :meth:`action_layout`, and the end of an episode only by a step into
    :attr:`terminal`.  The states are ``[0, terminal]``; every one below the
    sink has at least one action, and the sink has none.  A custom
    environment provides the five abstract members below.

    Implementations keep their dynamics immutable; the only per-episode
    bookkeeping an environment may hold is a step counter for episode caps,
    which ``reset`` clears.  Independent runs therefore each build their own
    instance.  An environment may memoise the outcomes of dynamics that make
    no draw, in a cache shared by instances with equal parameters, or by all
    instances when those dynamics read no parameter, as long as a lookup
    returns what the dynamics would compute.
    """

    @property
    @abstractmethod
    def terminal(self) -> StateId:
        """Id of the absorbing sink state, the last state."""
        raise NotImplementedError

    @abstractmethod
    def action_layout(self) -> tuple[int, dict[StateId, int], int]:
        """``(width, counts, default)``: the widest action count (at least 1),
        each state below the sink whose count is not ``default`` mapped to
        its count, and ``default``, all counts in ``[1, width]``.  A state's
        action count is ``counts.get(s, default)``."""
        raise NotImplementedError

    @abstractmethod
    def reset(self, rng: Draws) -> StateId:
        """Start a new episode and return a non-terminal initial state."""
        raise NotImplementedError

    @abstractmethod
    def step(self, s: StateId, a: ActionId, rng: Draws) -> tuple[float, StateId]:
        """``(reward, next_state)`` of action ``a`` in ``s``; raises ``ValueError``
        for TERMINAL, an id outside ``[0, terminal]`` or an action ``s`` lacks.
        State ids are ints: agents pass ``s`` and ``a`` as ``int``, whatever
        the draw source, and a step returns an ``int`` next state for them.  A
        step need not check their type, but must not cache what it computes
        from one that is not."""
        raise NotImplementedError

    @abstractmethod
    def criticality(self) -> CriticalityFn:
        """Deterministic state criticality, values in [0, 1]."""
        raise NotImplementedError


def _state_error(terminal: StateId, s: StateId, at_sink: str) -> ValueError:
    """The error for a state ``s`` outside ``[0, terminal)``: ``at_sink`` at the sink."""
    return ValueError(at_sink if s == terminal else f"state {s} out of range")


def _index(value) -> int:
    """``value`` as an ``int`` if it is an integer (numpy's too) but not a
    ``bool``, else -1, which every bound in :class:`QTable` rejects."""
    try:
        return -1 if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return -1


def _reflect(row: int, d: int, rows: int) -> tuple[int, int]:
    """``(row, d)`` after ``row`` moves by ``d``, mirroring off rows 0 and
    ``rows - 1``: the bounce of the grid environments' walls."""
    r = row + d
    if r < 0:
        return -r, -d
    if r > rows - 1:
        return 2 * (rows - 1) - r, -d
    return r, d


class QTable:
    """Dense (state x action) value table.

    Built from an action layout ``(width, counts, default)`` (see
    :meth:`Environment.action_layout`) and the sink id ``terminal``: a row
    for each state ``[0, terminal]``, ``width`` slots wide, of which state
    ``s`` uses the first ``counts.get(s, default)``.  No reader looks past
    them.  It keeps ``counts`` as given, uncopied, and no per-state array:
    the values are one flat ``memoryview`` of doubles, ``(s, a)`` at
    ``s * width + a``.  Every reader checks ``0 <= s < terminal`` first: that
    lookup would give ``s = -1`` a full row, and a negative index counts from
    the end.  ``q[s, a]`` also rejects an action outside ``s``'s count, as
    :func:`q_update` does.  The TERMINAL row, which has no actions, is zero
    in :meth:`as_array` and rejects writes.  ``writes`` counts every value
    written by :func:`q_update` or :func:`q_update_traced`.  The table
    restates no fact of the layout: a state's action count and the sink id
    are the environment's (:meth:`Environment.action_layout`,
    :attr:`Environment.terminal`).

    Every table is a private anonymous mapping of its own: it starts on zero
    pages, only the pages written become resident, and all of them go back to
    the system when the table is freed.  A start value other than +0.0 is
    copied over the rows below the sink in place, with no temporary.
    """

    def __init__(
        self,
        layout: tuple[int, dict[StateId, int], int],
        terminal: StateId,
        initial_value: float = 0.0,
    ):
        width, counts, default = layout
        self._width, self._default = _index(width), _index(default)
        if not 1 <= self._default <= self._width:
            raise ValueError(f"width {width} and default count {default} must be ints, 1 <= default <= width")
        self._terminal = _index(terminal)
        if self._terminal < 0:
            raise ValueError(f"terminal id {terminal} out of range")
        width, terminal = self._width, self._terminal
        for s, k in counts.items():
            if not (0 <= _index(s) < terminal and 1 <= _index(k) <= width and k != default):
                raise ValueError(f"state {s} with {k} actions does not fit the table")
        self._counts = counts
        initial = float(initial_value)
        filled = terminal * width  # the sink's row stays +0.0
        # Not the heap: malloc may keep a freed table's pages resident.
        values = memoryview(mmap.mmap(-1, (filled + width) * 8, access=mmap.ACCESS_COPY)).cast("d")
        if filled and (initial != 0.0 or math.copysign(1.0, initial) < 0.0):
            values[0], done = initial, 1
            while done < filled:  # double the written prefix
                step = min(done, filled - done)
                values[done : done + step] = values[:step]
                done += step
        self._values = values
        self._writes = 0

    @classmethod
    def for_env(cls, env: Environment, initial_value: float = 0.0) -> "QTable":
        return cls(env.action_layout(), env.terminal, initial_value)

    @property
    def writes(self) -> int:
        """Number of value updates applied to this table."""
        return self._writes

    def __getitem__(self, sa: tuple[StateId, ActionId]) -> float:
        s, a = sa
        if not 0 <= s < self._terminal:
            raise _state_error(self._terminal, s, f"action {a} invalid for state {s}")
        if not 0 <= a < self._counts.get(s, self._default):
            raise ValueError(f"action {a} invalid for state {s}")
        return self._values[s * self._width + a]

    def row_max(self, s: StateId) -> float:
        if not 0 <= s < self._terminal:
            raise _state_error(self._terminal, s, f"state {s} has no actions")
        row = s * self._width
        return max(self._values[row : row + self._counts.get(s, self._default)].tolist())

    def as_array(self) -> "numpy.ndarray":
        """Copy of the table as a ``(terminal + 1, width)`` numpy array, slots
        past a row's action count shown as ``-inf`` (for snapshots and
        comparisons).  Needs numpy, which only the ``test`` extra installs."""
        import numpy

        table = numpy.array(self._values).reshape(self._terminal + 1, self._width)
        counts = numpy.full(self._terminal, self._default)
        counts[list(self._counts)] = list(self._counts.values())
        table[:-1][numpy.arange(self._width) >= counts[:, None]] = -numpy.inf
        return table


def greedy_actions(q: QTable, s: StateId) -> list[ActionId]:
    """All actions of ``s`` tied at the maximal Q value, ascending."""
    if not 0 <= s < q._terminal:
        raise _state_error(q._terminal, s, "greedy_actions is undefined at the TERMINAL state")
    row = s * q._width
    return _ties(q._values[row : row + q._counts.get(s, q._default)].tolist())


def _ties(row: list[float]) -> list[ActionId]:
    """The actions of a non-empty ``row`` tied at its maximum, ascending."""
    best = row[0]
    ties = [0]
    for a in range(1, len(row)):
        v = row[a]
        if v > best:
            best = v
            ties = [a]
        elif v == best:
            ties.append(a)
    return ties


# Raw PCG64 words a DrawStream computes at a time.
_DRAW_BLOCK = 256
_TWO_POW_32 = 1 << 32
_TWO_POW_M53 = 2.0**-53
_MASK32 = _TWO_POW_32 - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


# A DrawStream holds a block's LCG states as the _DRAW_BLOCK lanes of one int,
# lane j in bits [256 j, 256 j + 256): a 128-bit state times a 128-bit factor
# fits its lane, so one multiply steps every lane and no lane carries into
# the next.
_LANE_BITS = 256
_BLOCK_BYTES = _DRAW_BLOCK * _LANE_BITS // 8


def _lanes(values: list[int]) -> int:
    """The int whose lane ``j`` holds ``values[j]``."""
    return int.from_bytes(b"".join(v.to_bytes(_LANE_BITS // 8, "little") for v in values), "little")


def _lcg_factors() -> tuple[list[int], list[int]]:
    """``j`` LCG steps take a state ``s`` to ``s * M**j + inc * sum(M**i for
    i < j)`` mod 2**128.  Returns the two factors, ``M**j`` and the sum, for
    ``j = 1 .. _DRAW_BLOCK``."""
    powers, sums = [], []
    power, total = 1, 0
    for _ in range(_DRAW_BLOCK):
        total = (total + power) & _MASK128
        power = (power * _PCG64_MULTIPLIER) & _MASK128
        powers.append(power)
        sums.append(total)
    return powers, sums


_LANE_ONES = _lanes([1] * _DRAW_BLOCK)
_LANES_MASK128 = _MASK128 * _LANE_ONES
_LANES_MASK64 = _MASK64 * _LANE_ONES
_LANES_ROTATION = (63 << 64) * _LANE_ONES  # bits 64..69 of each lane
# Lane j of a block is j + 1 LCG steps past the state before the block: the
# seeded state, or the last lane of the block before.
_FIRST_MUL, _FIRST_INC = map(_lanes, _lcg_factors())
# memoryview.cast reads native byte order; on a big-endian host the int's
# 64-bit chunks come out last first.
_CHUNK_ORDER = 1 if sys.byteorder == "little" else -1


def _uint32_words(n: int) -> list[int]:
    """The 32-bit words of ``n >= 0``, least significant first (``[0]`` for 0)."""
    words = []
    while True:
        words.append(n & _MASK32)
        n >>= 32
        if not n:
            return words


def _seed_sequence_state(entropy: int, spawn_key: tuple[int, ...]) -> list[int]:
    """``np.random.SeedSequence(entropy, spawn_key=spawn_key).generate_state(4, np.uint64)``.

    NumPy's hash mixing with its default pool of four 32-bit words, which
    NumPy keeps fixed across releases (NEP 19).
    """
    run = _uint32_words(entropy)
    spawn = [word for key in spawn_key for word in _uint32_words(key)]
    if spawn and len(run) < 4:
        run += [0] * (4 - len(run))  # so that spawn words never pass for run entropy
    words = run + spawn
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * 0x931E8875) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = 0x8B51F9DD
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * 0x58F38DED) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> 16))
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


def _word_blocks(state: int, inc: int) -> Iterator[list[int]]:
    """The raw PCG64 words after LCG ``state`` with increment ``inc``, one
    block of ``_DRAW_BLOCK`` at a time, each block from the last state of
    the one before."""
    inc_lanes = inc * _FIRST_INC & _LANES_MASK128
    while True:
        lanes = ((state * _FIRST_MUL & _LANES_MASK128) + inc_lanes) & _LANES_MASK128
        yield _xsl_rr(lanes)
        state = lanes >> _LANE_BITS * (_DRAW_BLOCK - 1)


def _xsl_rr(lanes: int) -> list[int]:
    """PCG64's output (XSL-RR) of each lane's state, lane 0 first."""
    # Lane j: the xor of the state's halves in bits 0..63, the rotation (the
    # state's top 6 bits) in bits 64..69.
    lanes = ((lanes >> 64 ^ lanes) & _LANES_MASK64) | (lanes >> 58 & _LANES_ROTATION)
    chunks = memoryview(lanes.to_bytes(_BLOCK_BYTES, sys.byteorder)).cast("Q")[::_CHUNK_ORDER]
    mask64 = _MASK64
    return [((x << 64 | x) >> r) & mask64 for x, r in zip(chunks[0::4].tolist(), chunks[1::4].tolist())]


class DrawStream:
    """The ``random()`` and ``integers(k)`` draws of
    ``np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=spawn_key))``,
    computed in plain Python.

    The stream seeds NumPy's ``PCG64`` as NumPy does (``SeedSequence``, then
    ``pcg64_set_seed``) and computes its raw words, ``_DRAW_BLOCK`` at a
    time: each steps the 128-bit LCG and outputs XSL-RR (O'Neill 2014).
    A block's 256 consecutive LCG states are the 256-bit lanes of one int
    (``_word_blocks``): the state before the block times the powers ``M**j``
    plus ``inc`` times the partial sums of those powers, mod 2**128.  That
    state is the seeded one for the first block and the last lane of the
    block before for each later one.  XSL-RR's xor and its rotation count
    are taken lane-wide too; only the rotation runs per word.
    Each call returns the value numpy's ``Generator`` would, in the same
    order.  ``random()`` is numpy's ``next_double``: the top 53 bits of the
    next word.  ``integers(k)`` is numpy's bounded Lemire draw
    (``buffered_bounded_lemire_uint32``; Lemire 2019) on PCG64's 32-bit
    half-words: a word yields its low half and buffers its high half for the
    next half-word draw, and ``random()`` neither reads nor clears that
    buffer.  ``k == 1`` draws nothing.
    """

    __slots__ = ("_next", "_half")

    def __init__(self, entropy: int, spawn_key: tuple[int, ...] = ()):
        for value in (entropy, *spawn_key):
            if not _is_int(value) or value < 0:
                raise ValueError(f"entropy and spawn key must be non-negative ints, got {value!r}")
        s_high, s_low, i_high, i_low = _seed_sequence_state(entropy, tuple(spawn_key))
        inc = ((i_high << 64 | i_low) << 1 | 1) & _MASK128
        # From state 0: step, add the seed, step.
        state = ((inc + (s_high << 64 | s_low)) * _PCG64_MULTIPLIER + inc) & _MASK128
        self._next = chain.from_iterable(_word_blocks(state, inc)).__next__
        self._half: int | None = None

    def random(self) -> float:
        return (self._next() >> 11) * _TWO_POW_M53

    def integers(self, k: int) -> int:
        """Uniform int in ``[0, k)`` for an integer ``1 <= k <= 2**32``, such
        as a numpy one, but not a ``bool``."""
        if type(k) is not int or not 0 < k <= _TWO_POW_32:
            n = _index(k)  # -1 for a bool or a non-integer
            if not 0 < n <= _TWO_POW_32:
                raise ValueError(f"k must be an int in [1, 2**32], got {k!r}")
            return self.integers(n)
        if k == 1:
            return 0
        while True:
            half = self._half
            if half is not None:
                self._half = None
                m = half * k
            else:
                w = self._next()
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
    if not 0 <= s < q._terminal:
        raise _state_error(q._terminal, s, "epsilon_greedy is undefined at the TERMINAL state")
    k = q._counts.get(s, q._default)
    if k == 1:
        return 0
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(k))
    row = s * q._width
    ties = _ties(q._values[row : row + k].tolist())
    if len(ties) == 1:
        return ties[0]
    return ties[int(rng.integers(len(ties)))]


def q_update(q: QTable, s: StateId, a: ActionId, target: float, alpha: float) -> None:
    """Move Q(s, a) toward ``target`` by step size ``alpha``.

    Together with :func:`q_update_traced` this is the only mutation path into
    a QTable.
    """
    i = q_index(q, s, a)
    v = q._values[i]
    q._values[i] = v + alpha * (target - v)
    q._writes += 1


def q_index(q: QTable, s: StateId, a: ActionId) -> int:
    """Flat index ``s * width + a`` of a writable pair: the one write guard.

    It raises for the TERMINAL row, a state out of range or an action ``s``
    lacks.  :func:`q_update` takes its index from here, and the indices
    :func:`q_update_traced` writes come from here, so no write skips it.
    """
    if not 0 <= s < q._terminal:
        raise _state_error(q._terminal, s, "the TERMINAL Q-row is immutable")
    if not 0 <= a < q._counts.get(s, q._default):
        raise ValueError(f"action {a} invalid for state {s}")
    return s * q._width + a


def q_update_traced(
    q: QTable,
    idx: list[int],
    traces: list[float],
    delta: float,
    alpha: float,
    fresh: int | None,
    fresh_target: float,
) -> None:
    """Batched :func:`q_update` for eligibility traces, in one pass.

    The value ``v`` at each flat index ``idx[i]`` (from :func:`q_index`; the
    indices must be distinct) moves toward ``v + delta * traces[i]`` by step
    size ``alpha``, except position ``fresh`` (if not None), which moves from
    its value before the pass toward ``fresh_target``, overwriting the pass's
    write.  The table ends up bit-identical to one ``q_update`` per entry.
    """
    values = q._values
    fresh_v = None if fresh is None else values[idx[fresh]]
    for i, trace in zip(idx, traces):
        v = values[i]
        values[i] = v + alpha * (v + delta * trace - v)
    if fresh is not None:
        values[idx[fresh]] = fresh_v + alpha * (fresh_target - fresh_v)
    q._writes += len(idx)
