"""Tennis (pong-like) environment on a 20 x 40 grid.

The agent's racket lives in column 1, the built-in opponent's in column 38;
both are one cell tall and move up/stay/down, clamped at the walls.  The ball
starts each episode at (10, 20) heading toward the agent with a random
vertical component, bounces off the top and bottom walls, and reverses its
horizontal direction when it enters a racket's column at the racket's row.
A ball reaching column 0 scores -1 (agent missed), column 39 scores +1.
Rallies longer than ``max_steps`` end with reward 0.

The opponent plays its distance-reducing move with probability ``p_optimal``
and a uniform-random one otherwise, so its optimal move is executed with
overall frequency p + (1 - p) / 3.

Criticality is 1 exactly while the ball travels toward the agent.
"""

from __future__ import annotations

from .core import CriticalityFn, Draws, Environment, StateId
from .core import _positive_int, _probability, _setting, _state_error

ROWS = 20
COLS = 40
AGENT_COL = 1
OPPONENT_COL = 38

ACTION_UP = 0
ACTION_STAY = 1
ACTION_DOWN = 2
_N_ACTIONS = 3

_N_FIELD = ROWS * COLS * 6 * ROWS * ROWS


def _reflect_row(row: int, d: int) -> tuple[int, int]:
    r = row + d
    if r < 0:
        return -r, -d
    if r > ROWS - 1:
        return 2 * (ROWS - 1) - r, -d
    return r, d


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

    def action_layout(self) -> tuple[int, dict[StateId, int]]:
        return _N_ACTIONS, {}

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

        brow, bcol, h_dir, v_dir, agent, opp = _unpack(s)
        agent = min(ROWS - 1, max(0, agent + (a - 1)))

        if rng.random() < self._p_optimal:
            if opp < brow:
                delta = 1
            elif opp > brow:
                delta = -1
            else:
                delta = 0
        else:
            delta = int(rng.integers(3)) - 1
        opp = min(ROWS - 1, max(0, opp + delta))

        brow, v_dir = _reflect_row(brow, v_dir)
        bcol += h_dir
        if (bcol == AGENT_COL and brow == agent) or (bcol == OPPONENT_COL and brow == opp):
            h_dir = -h_dir

        if bcol == 0:
            return -1.0, _N_FIELD
        if bcol == COLS - 1:
            return 1.0, _N_FIELD
        if self._steps >= self._max_steps:
            return 0.0, _N_FIELD

        return 0.0, _pack(brow, bcol, h_dir, v_dir, agent, opp)

    def criticality(self) -> CriticalityFn:
        sink = self.terminal

        def h(s: StateId) -> float:
            if s == sink:
                return 0.0
            return 1.0 if (s // (ROWS * ROWS)) % 6 < 3 else 0.0

        return h
