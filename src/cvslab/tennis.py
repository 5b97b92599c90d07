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

from dataclasses import dataclass

from .core import CriticalityFn, Draws, Environment, StateId, Transition

ROWS = 20
COLS = 40
AGENT_COL = 1
OPPONENT_COL = 38

ACTION_UP = 0
ACTION_STAY = 1
ACTION_DOWN = 2

_N_FIELD = ROWS * COLS * 6 * ROWS * ROWS


@dataclass(frozen=True)
class TennisState:
    ball_row: int
    ball_col: int
    h_dir: int  # -1 toward the agent, +1 toward the opponent
    v_dir: int  # -1 up, 0 flat, +1 down
    agent_row: int
    opponent_row: int


@dataclass(frozen=True)
class TennisConfig:
    p_optimal: float = 0.8
    max_steps: int = 1000

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_optimal <= 1.0:
            raise ValueError(f"p_optimal must be in [0, 1], got {self.p_optimal}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


def _reflect_row(row: int, d: int) -> tuple[int, int]:
    r = row + d
    if r < 0:
        return -r, -d
    if r > ROWS - 1:
        return 2 * (ROWS - 1) - r, -d
    return r, d


def _pack(brow: int, bcol: int, h_dir: int, v_dir: int, agent: int, opp: int) -> StateId:
    """State id of a field, in :class:`TennisState` field order."""
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
    def __init__(self, config: TennisConfig = TennisConfig()):
        self.config = config
        self._steps = 0

    @property
    def num_states(self) -> int:
        return _N_FIELD + 1

    @property
    def terminal(self) -> StateId:
        return _N_FIELD

    def num_actions(self, s: StateId) -> int:
        if not 0 <= s < self.num_states:
            raise ValueError(f"state {s} out of range")
        return 0 if s == self.terminal else 3

    def action_layout(self) -> tuple[int, dict[StateId, int]]:
        return 3, {self.terminal: 0}

    def encode_state(self, state: TennisState) -> StateId:
        if not 0 <= state.ball_row < ROWS:
            raise ValueError(f"ball_row {state.ball_row} outside [0, {ROWS})")
        if not 0 <= state.ball_col < COLS:
            raise ValueError(f"ball_col {state.ball_col} outside [0, {COLS})")
        if state.h_dir not in (-1, 1):
            raise ValueError(f"h_dir must be -1 or +1, got {state.h_dir}")
        if state.v_dir not in (-1, 0, 1):
            raise ValueError(f"v_dir must be in -1/0/+1, got {state.v_dir}")
        if not 0 <= state.agent_row < ROWS:
            raise ValueError(f"agent_row {state.agent_row} outside [0, {ROWS})")
        if not 0 <= state.opponent_row < ROWS:
            raise ValueError(f"opponent_row {state.opponent_row} outside [0, {ROWS})")
        return _pack(
            state.ball_row,
            state.ball_col,
            state.h_dir,
            state.v_dir,
            state.agent_row,
            state.opponent_row,
        )

    def decode_state(self, s: StateId) -> TennisState:
        if not 0 <= s < _N_FIELD:
            raise ValueError(f"state id {s} is not a decodable field state")
        return TennisState(*_unpack(s))

    def reset(self, rng: Draws) -> StateId:
        self._steps = 0
        v = int(rng.integers(3)) - 1
        return _pack(ROWS // 2, COLS // 2, -1, v, ROWS // 2, ROWS // 2)

    def opponent_optimal_action(self, state: TennisState) -> int:
        """Row delta in {-1, 0, +1} that closes the gap to the ball's row."""
        if state.opponent_row < state.ball_row:
            return 1
        if state.opponent_row > state.ball_row:
            return -1
        return 0

    def step(self, s: StateId, a: int, rng: Draws) -> Transition:
        if s == self.terminal:
            raise ValueError("cannot step from the TERMINAL state")
        if not 0 <= a < 3:
            raise ValueError(f"action {a} invalid for state {s}")
        self._steps += 1

        brow, bcol, h_dir, v_dir, agent, opp = _unpack(s)
        agent = min(ROWS - 1, max(0, agent + (a - 1)))

        if rng.random() < self.config.p_optimal:
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
            return Transition(-1.0, self.terminal, True)
        if bcol == COLS - 1:
            return Transition(1.0, self.terminal, True)
        if self._steps >= self.config.max_steps:
            return Transition(0.0, self.terminal, True)

        return Transition(0.0, _pack(brow, bcol, h_dir, v_dir, agent, opp), False)

    def criticality(self) -> CriticalityFn:
        sink = self.terminal

        def h(s: StateId) -> float:
            if s == sink:
                return 0.0
            return 1.0 if (s // (ROWS * ROWS)) % 6 < 3 else 0.0

        return h
