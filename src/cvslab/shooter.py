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

A step's outcome before the episode cap is a pure function of the state, the
action and the obstacle rows: it makes no draw, and once the bullet flies the
action no longer matters.  So ``step`` looks outcomes up in a dict shared by
every ``ShooterEnv`` with the same obstacle rows, keyed by ``(s, a)`` before
the shot and by ``s`` after it, and applies the cap to what it finds.  A dict
holds at most 800 + 120 000 entries; a whole shooter-serial benchmark run
(20 runs of 400 episodes) fills about 7.9 k of them, about 1.2 MB.
"""

from __future__ import annotations

from .core import CriticalityFn, Draws, Environment, StateId
from .core import _is_int, _positive_int, _setting, _state_error

ROWS = 10
COLS = 20
OBSTACLE_COL = 7

ACTION_NOOP = 0
ACTION_SHOOT_UP = 1
ACTION_SHOOT_DOWN = 2
ACTION_SHOOT_FLAT = 3
_N_ACTIONS = 4

_SHOT_DIR = {ACTION_SHOOT_UP: -1, ACTION_SHOOT_DOWN: 1, ACTION_SHOOT_FLAT: 0}

_N_PRE = ROWS * ROWS * 2  # gun row x target row x target dir
_N_POST = ROWS * ROWS * COLS * 3 * ROWS * 2  # gun x bullet (row, col, dir) x target
_TERMINAL = _N_PRE + _N_POST

# The step that meets the episode cap without deciding the shot.
_CAPPED = (-1.0, _TERMINAL)

# Step outcomes before the cap, one dict per obstacle set (see the module
# docstring).  Shared across instances because one run revisits too few
# states to gain from a cache of its own.
_OUTCOMES: dict[frozenset[int], dict[StateId | tuple[StateId, int], tuple[float, StateId]]] = {}


def _obstacle_rows(value) -> frozenset[int]:
    if not isinstance(value, (list, tuple)) or not all(_is_int(r) and 0 <= r < ROWS for r in value):
        raise ValueError(f"must be a list of integers in [0, {ROWS}), got {value!r}")
    return frozenset(value)


def _reflect(row: int, d: int) -> tuple[int, int]:
    """Advance ``row`` by ``d``, mirroring off rows 0 and ROWS-1."""
    r = row + d
    if r < 0:
        return -r, -d
    if r > ROWS - 1:
        return 2 * (ROWS - 1) - r, -d
    return r, d


def _pack(
    gun: int,
    trow: int,
    tdir: int,
    brow: int | None = None,
    bcol: int | None = None,
    bdir: int | None = None,
) -> StateId:
    """State id of a field: the gun's row, the target's row and direction
    (-1 up, +1 down), and the bullet's row, column and vertical direction
    (-1, 0 or +1), which are None before the shot.  Field ids are
    ``[0, _TERMINAL)``; the first ``_N_PRE`` are the states before the shot."""
    tdir_idx = 0 if tdir == -1 else 1
    if brow is None:
        return (gun * ROWS + trow) * 2 + tdir_idx
    idx = ((gun * ROWS + brow) * COLS + bcol) * 3 + (bdir + 1)
    return _N_PRE + (idx * ROWS + trow) * 2 + tdir_idx


def _unpack(s: StateId) -> tuple[int, int, int, int | None, int | None, int | None]:
    """``(gun, trow, tdir, brow, bcol, bdir)`` of a field state id, the
    inverse of :func:`_pack`."""
    if s < _N_PRE:
        rest = s // 2
        return rest // ROWS, rest % ROWS, -1 if s % 2 == 0 else 1, None, None, None
    idx = s - _N_PRE
    tdir = -1 if idx % 2 == 0 else 1
    idx //= 2
    trow = idx % ROWS
    idx //= ROWS
    bdir = idx % 3 - 1
    idx //= 3
    bcol = idx % COLS
    idx //= COLS
    return idx // ROWS, trow, tdir, idx % ROWS, bcol, bdir


class ShooterEnv(Environment):
    """The shooter field with a wall segment at ``obstacle_rows`` of column 7
    (a list of rows in ``[0, 10)``) and an episode cap of ``max_steps``
    (a positive integer).  A bad parameter raises a ``ConfigError`` naming it."""

    def __init__(self, obstacle_rows: tuple[int, ...] = (4, 5, 6), max_steps: int = 200):
        self._obstacle = _setting("obstacle_rows", obstacle_rows, _obstacle_rows)
        self._max_steps = _setting("max_steps", max_steps, _positive_int)
        self._outcomes = _OUTCOMES.setdefault(self._obstacle, {})
        self._steps = 0

    @property
    def terminal(self) -> StateId:
        return _TERMINAL

    def action_layout(self) -> tuple[int, dict[StateId, int]]:
        return _N_ACTIONS, {}

    def reset(self, rng: Draws) -> StateId:
        self._steps = 0
        gun = int(rng.integers(ROWS))
        trow = int(rng.integers(ROWS))
        tdir = -1 if int(rng.integers(2)) == 0 else 1
        return _pack(gun, trow, tdir)

    def step(self, s: StateId, a: int, rng: Draws) -> tuple[float, StateId]:
        if not 0 <= s < _TERMINAL:
            raise _state_error(_TERMINAL, s, "cannot step from the TERMINAL state")
        if not 0 <= a < _N_ACTIONS:
            raise ValueError(f"action {a} invalid for state {s}")
        self._steps += 1

        key = (s, a) if s < _N_PRE else s
        out = self._outcomes.get(key)
        if out is None:
            out = self._outcomes[key] = self._outcome(s, a)
        if self._steps < self._max_steps or out[1] == _TERMINAL:
            return out
        return _CAPPED

    def _outcome(self, s: StateId, a: int) -> tuple[float, StateId]:
        """The step from ``s`` under ``a`` as if the episode had no cap."""
        gun, trow, tdir, brow, bcol, bdir = _unpack(s)
        if bcol is not None:
            # Shoot actions are spent; the bullet just flies on.
            brow, bdir = _reflect(brow, bdir)
            bcol += 1
        elif a != ACTION_NOOP:
            # The bullet leaves the gun and advances within the same step.
            brow, bdir = _reflect(gun, _SHOT_DIR[a])
            bcol = 1

        if bcol is not None:
            if bcol == OBSTACLE_COL and brow in self._obstacle:
                return -1.0, _TERMINAL
            if bcol == COLS - 1:
                hit = brow == trow
                return (1.0 if hit else -1.0), _TERMINAL

        trow, tdir = _reflect(trow, tdir)
        return 0.0, _pack(gun, trow, tdir, brow, bcol, bdir)

    def criticality(self) -> CriticalityFn:
        def h(s: StateId) -> float:
            return 1.0 if s < _N_PRE else 0.0

        return h
