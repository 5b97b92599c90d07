"""Tabular control algorithms.

Five episodic learners over the shared :class:`~cvslab.core.QTable`:

* ``cvs_episode`` - criticality-driven variable-stepnumber TD control: every
  visited pair waits on a FIFO waitlist, absorbing rewards, until the
  criticality of the states encountered since has accumulated to 1; it then
  updates toward the current on-policy pair.  Constant criticality 1 reduces
  it to 1-step SARSA, constant 1/n to n-step SARSA, constant 0 to Monte-Carlo
  targets.
* ``q_learning_episode`` - 1-step Q-Learning.
* ``n_step_sarsa_episode`` - on-policy n-step SARSA, run as cvs with
  constant criticality ``1 / n``.
* ``watkins_qlambda_episode`` - Watkins Q(lambda) with accumulating traces,
  cut after exploratory actions; its traces are slices of one decay chain
  until a pair is bumped twice, and it reads a state's row max once unless
  the step's update wrote that row.
* ``mc_episode`` - every-visit constant-alpha Monte-Carlo control, run as cvs
  with constant criticality 0.

All of them pick actions with the same epsilon-greedy rule, mutate values
only through ``q_update`` (Q(lambda) through its batched twin
``q_update_traced``), treat the TERMINAL state as worth zero and end an
episode on the step into it.  Each returns an :class:`EpisodeLog` of its
return and step count and records nothing else.

``epsilon_greedy``, ``q_update`` and ``q_update_traced`` are looked up as
names of this module at call time, on purpose: they and ``env.step`` are the
seams through which an agent is observed.  The tests wrap them to record each
step and each value written (a traced pair's target is read off the table
before the call), and the benchmark's tracer wraps most of them to time and
count, with no option here.  ``greedy_actions`` is imported only for the tracer.
The tracer wraps the harness's ``cvs_episode``, not this module's, which the
n-step SARSA and MC agents call, so their steps stay under their own spans.

The cvs waitlist is a deque popped from the left: an older entry's
criticality sum is a left-to-right float sum over a superset of a younger
entry's non-negative terms, and float addition is monotone, so the mature
entries are always a prefix.  Adding an exact zero reward or criticality
leaves a sum unchanged, so those adds are skipped, and each entry's discount
exponent comes from the step at which it was enqueued.  On the long roads of
zero reward and zero criticality that trees are built from, upkeep is O(1)
per step.
"""

from __future__ import annotations

__all__ = [
    "ALGORITHM_NAMES", "EpisodeLog", "cvs_episode", "mc_episode", "n_step_sarsa_episode", "q_learning_episode",
    "watkins_qlambda_episode",
]

from collections import deque
from dataclasses import dataclass

from .core import (
    AgentParams,
    CriticalityFn,
    Draws,
    Environment,
    QTable,
    epsilon_greedy,
    greedy_actions,
    q_index,
    q_update,
    q_update_traced,
)

ALGORITHM_NAMES = ("cvs", "qlearning", "nstep_sarsa", "qlambda", "mc")

# Maturity threshold slack: a pair whose accumulated criticality is within one
# part in 10^9 of 1 counts as mature, so constant criticalities like 1/n are
# not betrayed by float rounding.
_CRT_EPS = 1e-9


@dataclass
class EpisodeLog:
    total_reward: float
    steps: int


def cvs_episode(
    env: Environment,
    q: QTable,
    h: CriticalityFn,
    params: AgentParams,
    rng: Draws,
) -> EpisodeLog:
    """One episode of criticality-driven variable-stepnumber control.

    Each step enqueues the pair just acted on.  Every queued pair absorbs the
    step's reward; a pair whose criticality sum has reached 1 updates toward
    the newly selected on-policy pair and leaves the queue (overshoot is
    discarded).  At episode end every remaining pair updates toward its plain
    accumulated return, the TERMINAL state being worth zero.

    The new state's criticality is added before the maturity check, so each
    pair's update target is the first state at which its criticality sum
    reaches 1.
    """
    alpha, gamma, eps = params.alpha, params.gamma, params.epsilon
    mature = 1.0 - _CRT_EPS
    # Oldest first: [state, action, enqueue step, reward sum, criticality sum].
    waitlist: deque[list] = deque()
    total = 0.0
    steps = 0

    sink = env.terminal
    s = env.reset(rng)
    a = epsilon_greedy(q, s, eps, rng)
    while True:
        r, s2 = env.step(s, a, rng)
        total += r
        waitlist.append([s, a, steps, 0.0, 0.0])
        if r != 0.0:
            for e in waitlist:
                e[3] += (gamma ** (steps - e[2])) * r
        steps += 1

        if s2 == sink:
            for es, ea, _, reward_acc, _ in waitlist:
                q_update(q, es, ea, reward_acc, alpha)
            break

        a2 = epsilon_greedy(q, s2, eps, rng)
        hs = float(h(s2))
        if not 0.0 <= hs <= 1.0:
            raise ValueError(f"criticality {hs} outside [0, 1] at state {s2}")

        if hs != 0.0:
            for e in waitlist:
                e[4] += hs
        if waitlist[0][4] >= mature:
            boot = q[s2, a2]
            while waitlist and waitlist[0][4] >= mature:
                es, ea, enqueued, reward_acc, _ = waitlist.popleft()
                target = reward_acc + (gamma ** (steps - enqueued)) * boot
                q_update(q, es, ea, target, alpha)
        s, a = s2, a2

    return EpisodeLog(total, steps)


def q_learning_episode(
    env: Environment,
    q: QTable,
    params: AgentParams,
    rng: Draws,
) -> EpisodeLog:
    """One episode of 1-step Q-Learning (off-policy max bootstrap)."""
    alpha, gamma, eps = params.alpha, params.gamma, params.epsilon
    total = 0.0
    steps = 0
    sink = env.terminal
    s = env.reset(rng)
    while True:
        a = epsilon_greedy(q, s, eps, rng)
        r, s2 = env.step(s, a, rng)
        steps += 1
        total += r
        if s2 == sink:
            q_update(q, s, a, r, alpha)
            break
        q_update(q, s, a, r + gamma * q.row_max(s2), alpha)
        s = s2
    return EpisodeLog(total, steps)


def n_step_sarsa_episode(
    env: Environment,
    q: QTable,
    params: AgentParams,
    rng: Draws,
) -> EpisodeLog:
    """One episode of on-policy n-step SARSA (``params.n`` rewards, then bootstrap).

    Runs cvs with constant criticality ``1 / n``.  That is exact because the
    left-to-right float sum of ``n`` copies of ``1 / n`` first reaches
    ``1 - _CRT_EPS`` at the ``n``-th term, as a test checks.  Int true
    division gives 0.0, not an OverflowError, for an n past any float.
    """
    h = 1 / params.n
    return cvs_episode(env, q, lambda _s: h, params, rng)


def watkins_qlambda_episode(
    env: Environment,
    q: QTable,
    params: AgentParams,
    rng: Draws,
) -> EpisodeLog:
    """One episode of Watkins Q(lambda) with accumulating traces.

    Traces start the episode at zero, decay by gamma*lambda per step, and are
    cut (after the step's updates) whenever the action taken was exploratory,
    i.e. not among the greedy actions at selection time.  Each step updates
    every traced pair in one ``q_update_traced`` call, in first-bump order.

    The bookkeeping around that call does the same float operations as
    decaying each trace every step and reading both row maxima every step:

    * ``chain[m]`` is 1.0 multiplied by gamma*lambda m times, left to right,
      built once per episode.  While no pair has been bumped twice since the
      last cut, the pair that joined m steps ago holds exactly that product,
      so the n decayed traces are the slice ``chain[n:0:-1]``.  A second
      bump breaks this, and the traces are decayed one by one until the next
      cut.
    * The row max of the next state, read for the TD target before the pass,
      is that state's row max at the next step's exploratory test, since
      only the pass writes in between.  If the pass wrote that row (a traced
      pair lies in it, as on a self-loop or a revisit), it is read again.
    """
    alpha, gamma, eps = params.alpha, params.gamma, params.epsilon
    factor = gamma * params.lam
    # Traced pairs in first-bump order, keyed by flat table index and mapped
    # to their position in ``idx`` and the traces ``e``; ``rows`` holds the
    # traced pairs' states, the rows the pass writes.  ``e`` is never
    # ``chain`` itself, since it is bumped in place.
    pos: dict[int, int] = {}
    idx: list[int] = []
    e: list[float] = []
    rows: set[int] = set()
    chain = [1.0]
    chained = True
    s_max = None  # the row max of s, if known
    total = 0.0
    steps = 0
    sink = env.terminal
    s = env.reset(rng)
    while True:
        a = epsilon_greedy(q, s, eps, rng)
        j = q_index(q, s, a)
        v = q._values[j]
        exploratory = v < (q.row_max(s) if s_max is None else s_max)
        r, s2 = env.step(s, a, rng)
        steps += 1
        total += r
        boot_value = 0.0 if s2 == sink else q.row_max(s2)
        td_target = r + gamma * boot_value
        delta = td_target - v
        # A trace of exactly 1.0 on the pair just acted on takes the TD
        # target directly, so that lambda = 0 matches 1-step updates exactly.
        i = pos.get(j)
        if i is None:
            fresh = pos[j] = len(idx)
            idx.append(j)
            e.append(1.0)
            rows.add(s)
        else:
            e[i] += 1.0
            fresh = i if e[i] == 1.0 else None
            chained = False
        q_update_traced(q, idx, e, delta, alpha, fresh, td_target)
        if s2 == sink:
            break
        # The pass left row s2 as row_max read it unless it wrote there.
        s_max = None if s2 in rows else boot_value
        if exploratory or factor == 0.0:
            pos.clear()
            idx.clear()
            e.clear()
            rows.clear()
            chained = True
        elif chained:
            n = len(e)
            if n == len(chain):
                chain.append(chain[-1] * factor)
            e = chain[n:0:-1]
        else:
            e = [trace * factor for trace in e]
        s = s2
    return EpisodeLog(total, steps)


def mc_episode(
    env: Environment,
    q: QTable,
    params: AgentParams,
    rng: Draws,
) -> EpisodeLog:
    """One episode of every-visit constant-alpha Monte-Carlo control: cvs with
    criticality 0, so every pair updates at episode end toward its return."""
    return cvs_episode(env, q, lambda _s: 0.0, params, rng)
