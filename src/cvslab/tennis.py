"""Tennis (pong-like) environment on a 20 x 40 grid.

The agent's racket lives in column 1, the built-in opponent's in column 38;
both are one cell tall and move up/stay/down, clamped at the walls.  The ball
starts each episode at (10, 20) heading toward the agent with a random
vertical component, bounces off the top and bottom walls, and reverses its
horizontal direction when it enters a racket's column at the racket's row.
A ball reaching column 0 scores -1 (agent missed), column 39 scores +1; so
does a ball that would step past either end, which no episode reaches, so
that ``step`` from any field stays in the state space.  A score on the
step that meets the cap still counts; rallies longer than ``max_steps``
otherwise end with reward 0.

The opponent plays its distance-reducing move with probability ``p_optimal``
and a uniform-random one otherwise, so its optimal move is executed with
overall frequency p + (1 - p) / 3.

Criticality is 1 exactly while the ball travels toward the agent.

A state id splits as ``ball * ROWS**2 + agent * ROWS + opp``.  The ball's
flight in one step (its next row and column, its next ball id with the
horizontal direction kept and flipped, or the score) depends on the ball id
alone, so ``step`` reads it from the module dict ``_FLIGHT``, keyed by ball
id, which holds at most ``ROWS * COLS * 6 = 4 800`` entries.  The flight reads
no parameter, so every ``TennisEnv`` shares the dict: a run fills it in its
first rallies, and a worker's later runs find it full.
"""

from __future__ import annotations

__all__ = ["TennisEnv"]

import operator

from .core import CriticalityFn, Draws, Environment, StateId
from .core import _positive_int, _probability, _reflect, _setting, _state_error

ROWS = 20
COLS = 40
AGENT_COL = 1
OPPONENT_COL = 38

ACTION_UP = 0
ACTION_STAY = 1
ACTION_DOWN = 2
_N_ACTIONS = 3

_N_FIELD = ROWS * COLS * 6 * ROWS * ROWS
_RACKETS = ROWS * ROWS  # racket rows per ball id
# _RACKET_MOVE[row + m] is a racket's row after move m (0 up, 1 stay, 2 down), kept on the field.
_RACKET_MOVE = [0, *range(ROWS), ROWS - 1]

# Ball flights by ball id, shared by every instance (see the module docstring).
_Flight = tuple[int, int, int, int, int, tuple[float, StateId] | None]
_FLIGHT: dict[int, _Flight] = {}


def _pack(brow: int, bcol: int, h_dir: int, v_dir: int, agent: int, opp: int) -> StateId:
    """State id of a field: the ball's row and column, its horizontal
    direction (-1 toward the agent, +1 toward the opponent) and vertical
    direction (-1 up, 0 flat, +1 down), the agent's row and the opponent's
    row.  Field ids are ``[0, _N_FIELD)``; ``_N_FIELD`` is TERMINAL."""
    dir_idx = (0 if h_dir == -1 else 1) * 3 + (v_dir + 1)
    return (((brow * COLS + bcol) * 6 + dir_idx) * ROWS + agent) * ROWS + opp


def _unpack(s: StateId) -> tuple[int, int, int, int, int, int]:
    """The fields of a field state id, the inverse of :func:`_pack`."""
    opp = s % ROWS
    s //= ROWS
    agent = s % ROWS
    s //= ROWS
    dir_idx = s % 6
    s //= 6
    return s // COLS, s % COLS, -1 if dir_idx < 3 else 1, dir_idx % 3 - 1, agent, opp


def _flight(ball: int) -> _Flight:
    """``(row, next_col, next_row, kept, flipped, score)`` of a ball id: the
    ball's row, where it moves in one step, its next ball id with the
    horizontal direction kept and flipped, and the step's ``(reward, sink)``
    if the move scores, else None.  A non-int ``ball`` raises ``TypeError``,
    so it is never cached."""
    brow, bcol, h_dir, v_dir, _, _ = _unpack(operator.index(ball) * _RACKETS)
    next_row, v_dir = _reflect(brow, v_dir, ROWS)
    next_col = bcol + h_dir
    if next_col <= 0:
        return brow, next_col, next_row, -1, -1, (-1.0, _N_FIELD)
    if next_col >= COLS - 1:
        return brow, next_col, next_row, -1, -1, (1.0, _N_FIELD)
    kept = _pack(next_row, next_col, h_dir, v_dir, 0, 0) // _RACKETS
    flipped = _pack(next_row, next_col, -h_dir, v_dir, 0, 0) // _RACKETS
    return brow, next_col, next_row, kept, flipped, None


class TennisEnv(Environment):
    """The tennis rally against an opponent that plays its optimal move with
    probability ``p_optimal`` (a number in ``[0, 1]``), with an episode cap of
    ``max_steps`` (a positive integer).  A bad parameter raises a
    ``ConfigError`` naming it."""

    def __init__(self, p_optimal: float = 0.8, max_steps: int = 1000):
        self._p_optimal = _setting("p_optimal", p_optimal, _probability)
        self._max_steps = _setting("max_steps", max_steps, _positive_int)
        self._steps = 0

    @property
    def terminal(self) -> StateId:
        return _N_FIELD

    def action_layout(self) -> tuple[int, dict[StateId, int], int]:
        return _N_ACTIONS, {}, _N_ACTIONS

    def reset(self, rng: Draws) -> StateId:
        self._steps = 0
        v = int(rng.integers(3)) - 1
        return _pack(ROWS // 2, COLS // 2, -1, v, ROWS // 2, ROWS // 2)

    def step(self, s: StateId, a: int, rng: Draws) -> tuple[float, StateId]:
        if not 0 <= s < _N_FIELD:
            raise _state_error(_N_FIELD, s, "cannot step from the TERMINAL state")
        if not 0 <= a < _N_ACTIONS:
            raise ValueError(f"action {a} invalid for state {s}")
        self._steps += 1

        ball, rackets = divmod(s, _RACKETS)
        agent, opp = divmod(rackets, ROWS)
        flight = _FLIGHT.get(ball)
        if flight is None:
            flight = _FLIGHT[ball] = _flight(ball)
        row, next_col, next_row, kept, flipped, score = flight

        agent = _RACKET_MOVE[agent + a]
        if rng.random() < self._p_optimal:  # a step toward the ball's row stays on the field
            if opp < row:
                opp += 1
            elif opp > row:
                opp -= 1
        else:
            opp = _RACKET_MOVE[opp + int(rng.integers(3))]

        if score is not None:
            return score
        if self._steps >= self._max_steps:
            return 0.0, _N_FIELD
        if (next_col == AGENT_COL and next_row == agent) or (next_col == OPPONENT_COL and next_row == opp):
            return 0.0, (flipped * ROWS + agent) * ROWS + opp
        return 0.0, (kept * ROWS + agent) * ROWS + opp

    def criticality(self) -> CriticalityFn:
        sink = self.terminal

        def h(s: StateId) -> float:
            if s == sink:
                return 0.0
            return 1.0 if (s // (ROWS * ROWS)) % 6 < 3 else 0.0

        return h
