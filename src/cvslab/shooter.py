"""Shooter environment: one gun, one moving target, one bullet.

The field is 10 rows by 20 columns.  The gun sits in column 0 at a random row
and may fire a single bullet diagonally up, diagonally down, or flat; the
target oscillates vertically in column 19.  Once fired, the bullet advances
one column per step, its vertical direction mirroring off the top and bottom
walls, and the episode is decided when it reaches an obstacle cell or the last
column: +1 if it arrives at the target's row, -1 otherwise.  Episodes that
drag past ``max_steps`` end with -1.

Within one step the order is: apply a shoot action, move the bullet, check
the obstacle, check the last-column hit against the target's current row,
then move the target.  A hit therefore means the bullet lands on the row the
target occupied when the bullet arrived.

Criticality is 1 before the shot (the only steps where anything is decided)
and 0 afterwards, including the TERMINAL sink.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CriticalityFn, Draws, Environment, StateId, Transition

ROWS = 10
COLS = 20
OBSTACLE_COL = 7

ACTION_NOOP = 0
ACTION_SHOOT_UP = 1
ACTION_SHOOT_DOWN = 2
ACTION_SHOOT_FLAT = 3

_SHOT_DIR = {ACTION_SHOOT_UP: -1, ACTION_SHOOT_DOWN: 1, ACTION_SHOOT_FLAT: 0}

_N_PRE = ROWS * ROWS * 2  # gun row x target row x target dir
_N_POST = ROWS * ROWS * COLS * 3 * ROWS * 2  # gun x bullet (row, col, dir) x target


@dataclass(frozen=True)
class Bullet:
    row: int
    col: int
    vertical_dir: int


@dataclass(frozen=True)
class ShooterState:
    """Field state; ``bullet`` is None exactly while the gun has not fired."""

    gun_row: int
    target_row: int
    target_dir: int
    bullet: Bullet | None = None

    @property
    def fired(self) -> bool:
        return self.bullet is not None


@dataclass(frozen=True)
class ShooterConfig:
    obstacle_rows: tuple[int, ...] = (4, 5, 6)
    max_steps: int = 200

    def __post_init__(self) -> None:
        for r in self.obstacle_rows:
            if not 0 <= r < ROWS:
                raise ValueError(f"obstacle row {r} outside [0, {ROWS})")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


def _reflect(row: int, d: int) -> tuple[int, int]:
    """Advance ``row`` by ``d``, mirroring off rows 0 and ROWS-1."""
    r = row + d
    if r < 0:
        return -r, -d
    if r > ROWS - 1:
        return 2 * (ROWS - 1) - r, -d
    return r, d


class ShooterEnv(Environment):
    def __init__(self, config: ShooterConfig = ShooterConfig()):
        self.config = config
        self._obstacle = frozenset(config.obstacle_rows)
        self._steps = 0

    @property
    def num_states(self) -> int:
        return _N_PRE + _N_POST + 1

    @property
    def terminal(self) -> StateId:
        return _N_PRE + _N_POST

    def num_actions(self, s: StateId) -> int:
        return 0 if s == self.terminal else 4

    def action_layout(self) -> tuple[int, dict[StateId, int]]:
        return 4, {self.terminal: 0}

    def encode_state(self, state: ShooterState) -> StateId:
        if not 0 <= state.gun_row < ROWS:
            raise ValueError(f"gun_row {state.gun_row} outside [0, {ROWS})")
        if not 0 <= state.target_row < ROWS:
            raise ValueError(f"target_row {state.target_row} outside [0, {ROWS})")
        if state.target_dir not in (-1, 1):
            raise ValueError(f"target_dir must be -1 or +1, got {state.target_dir}")
        tdir = 0 if state.target_dir == -1 else 1
        if state.bullet is None:
            return (state.gun_row * ROWS + state.target_row) * 2 + tdir
        b = state.bullet
        if not 0 <= b.row < ROWS:
            raise ValueError(f"bullet row {b.row} outside [0, {ROWS})")
        if not 0 <= b.col < COLS:
            raise ValueError(f"bullet col {b.col} outside [0, {COLS})")
        if b.vertical_dir not in (-1, 0, 1):
            raise ValueError(f"bullet vertical_dir must be in -1/0/+1, got {b.vertical_dir}")
        idx = state.gun_row
        idx = idx * ROWS + b.row
        idx = idx * COLS + b.col
        idx = idx * 3 + (b.vertical_dir + 1)
        idx = idx * ROWS + state.target_row
        idx = idx * 2 + tdir
        return _N_PRE + idx

    def decode_state(self, s: StateId) -> ShooterState:
        if not 0 <= s < self.terminal:
            raise ValueError(f"state id {s} is not a decodable field state")
        if s < _N_PRE:
            tdir = -1 if s % 2 == 0 else 1
            s //= 2
            return ShooterState(gun_row=s // ROWS, target_row=s % ROWS, target_dir=tdir)
        idx = s - _N_PRE
        tdir = -1 if idx % 2 == 0 else 1
        idx //= 2
        trow = idx % ROWS
        idx //= ROWS
        bdir = idx % 3 - 1
        idx //= 3
        bcol = idx % COLS
        idx //= COLS
        brow = idx % ROWS
        gun = idx // ROWS
        return ShooterState(
            gun_row=gun, target_row=trow, target_dir=tdir, bullet=Bullet(brow, bcol, bdir)
        )

    def reset(self, rng: Draws) -> StateId:
        self._steps = 0
        gun = int(rng.integers(ROWS))
        trow = int(rng.integers(ROWS))
        tdir = -1 if int(rng.integers(2)) == 0 else 1
        return (gun * ROWS + trow) * 2 + tdir_index(tdir)

    def step(self, s: StateId, a: int, rng: Draws) -> Transition:
        if s == self.terminal:
            raise ValueError("cannot step from the TERMINAL state")
        if not 0 <= a < 4:
            raise ValueError(f"action {a} invalid for state {s}")
        self._steps += 1

        if s < _N_PRE:
            tdir_idx = s % 2
            rest = s // 2
            gun, trow = rest // ROWS, rest % ROWS
            if a == ACTION_NOOP:
                brow = bcol = bdir = None
            else:
                # The bullet leaves the gun and advances within the same step.
                brow, bdir = _reflect(gun, _SHOT_DIR[a])
                bcol = 1
        else:
            idx = s - _N_PRE
            tdir_idx = idx % 2
            idx //= 2
            trow = idx % ROWS
            idx //= ROWS
            bdir = idx % 3 - 1
            idx //= 3
            bcol = idx % COLS
            idx //= COLS
            brow = idx % ROWS
            gun = idx // ROWS
            # Shoot actions are spent; the bullet just flies on.
            brow, bdir = _reflect(brow, bdir)
            bcol += 1

        if bcol is not None:
            if bcol == OBSTACLE_COL and brow in self._obstacle:
                return Transition(-1.0, self.terminal, True)
            if bcol == COLS - 1:
                hit = brow == trow
                return Transition(1.0 if hit else -1.0, self.terminal, True)

        tdir = -1 if tdir_idx == 0 else 1
        trow, tdir = _reflect(trow, tdir)
        if self._steps >= self.config.max_steps:
            return Transition(-1.0, self.terminal, True)

        new_tdir_idx = tdir_index(tdir)
        if bcol is None:
            return Transition(0.0, (gun * ROWS + trow) * 2 + new_tdir_idx, False)
        idx = gun
        idx = idx * ROWS + brow
        idx = idx * COLS + bcol
        idx = idx * 3 + (bdir + 1)
        idx = idx * ROWS + trow
        idx = idx * 2 + new_tdir_idx
        return Transition(0.0, _N_PRE + idx, False)

    def criticality(self) -> CriticalityFn:
        def h(s: StateId) -> float:
            return 1.0 if s < _N_PRE else 0.0

        return h


def tdir_index(tdir: int) -> int:
    return 0 if tdir == -1 else 1
