"""Tabular control algorithms.

Five episodic learners over the shared :class:`~cvslab.core.QTable`:

* ``cvs_episode`` - criticality-driven variable-stepnumber TD control: every
  visited pair waits on a FIFO waitlist, absorbing rewards, until the
  criticality of the states encountered since has accumulated to 1; it then
  updates toward the current on-policy pair.  Constant criticality 1 reduces
  it to 1-step SARSA, constant 1/n to n-step SARSA, constant 0 to Monte-Carlo
  targets.
* ``q_learning_episode`` - 1-step Q-Learning.
* ``n_step_sarsa_episode`` - on-policy n-step SARSA.
* ``watkins_qlambda_episode`` - Watkins Q(lambda) with accumulating traces,
  cut after exploratory actions.
* ``mc_episode`` - every-visit constant-alpha Monte-Carlo control.

All of them pick actions with the same epsilon-greedy rule, mutate values
only through ``q_update`` (Q(lambda) through its batched twin
``q_update_traced``), and treat the TERMINAL state as worth zero.  Each
returns an :class:`EpisodeLog` of its return and step count and records
nothing else.

``epsilon_greedy``, ``greedy_actions``, ``q_update`` and ``q_update_traced``
are looked up as names of this module at call time, on purpose: that and
``env.step`` are the seams through which an agent is observed.  The tests
wrap them to record each step and each value written, and the benchmark's
tracer wraps most of them to time and count; neither needs an option here.

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

from collections import deque
from dataclasses import dataclass

import numpy as np

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

    s = env.reset(rng)
    a = epsilon_greedy(q, s, eps, rng)
    while True:
        tr = env.step(s, a, rng)
        r = tr.reward
        total += r
        waitlist.append([s, a, steps, 0.0, 0.0])
        if r != 0.0:
            for e in waitlist:
                e[3] += (gamma ** (steps - e[2])) * r
        steps += 1

        if tr.terminal:
            for es, ea, _, reward_acc, _ in waitlist:
                q_update(q, es, ea, reward_acc, alpha)
            break

        s2 = tr.next_state
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
    s = env.reset(rng)
    while True:
        a = epsilon_greedy(q, s, eps, rng)
        tr = env.step(s, a, rng)
        steps += 1
        total += tr.reward
        if tr.terminal:
            q_update(q, s, a, tr.reward, alpha)
            break
        q_update(q, s, a, tr.reward + gamma * q.row_max(tr.next_state), alpha)
        s = tr.next_state
    return EpisodeLog(total, steps)


def n_step_sarsa_episode(
    env: Environment,
    q: QTable,
    params: AgentParams,
    rng: Draws,
) -> EpisodeLog:
    """One episode of on-policy n-step SARSA (``params.n`` rewards, then bootstrap)."""
    n, alpha, gamma, eps = params.n, params.alpha, params.gamma, params.epsilon
    total = 0.0

    s0 = env.reset(rng)
    states = [s0]
    actions = [epsilon_greedy(q, s0, eps, rng)]
    rewards: list[float] = []
    T: int | None = None
    t = 0
    while True:
        if T is None:
            tr = env.step(states[t], actions[t], rng)
            rewards.append(tr.reward)
            total += tr.reward
            states.append(tr.next_state)
            if tr.terminal:
                T = t + 1
            else:
                actions.append(epsilon_greedy(q, tr.next_state, eps, rng))
        tau = t - n + 1
        if tau >= 0:
            hi = tau + n if T is None else min(tau + n, T)
            g = 0.0
            for i in range(tau, hi):
                g += (gamma ** (i - tau)) * rewards[i]
            if T is None or tau + n < T:
                g += (gamma**n) * q[states[tau + n], actions[tau + n]]
            q_update(q, states[tau], actions[tau], g, alpha)
        if T is not None and tau >= T - 1:
            break
        t += 1
    return EpisodeLog(total, T)


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
    """
    alpha, gamma, eps, lam = params.alpha, params.gamma, params.epsilon, params.lam
    # Traced pairs in first-bump order, mapped to their position in the flat
    # table indices ``idx`` and the traces ``e``.
    pos: dict[tuple[int, int], int] = {}
    idx = np.empty(16, dtype=np.intp)
    e = np.empty(16)
    total = 0.0
    steps = 0
    s = env.reset(rng)
    while True:
        exploratory_pool = greedy_actions(q, s)
        a = epsilon_greedy(q, s, eps, rng)
        exploratory = a not in exploratory_pool
        tr = env.step(s, a, rng)
        steps += 1
        total += tr.reward
        boot_value = 0.0 if tr.terminal else q.row_max(tr.next_state)
        td_target = tr.reward + gamma * boot_value
        delta = td_target - q[s, a]
        i = pos.get((s, a))
        if i is None:
            i = pos[s, a] = len(pos)
            if i == len(idx):
                idx, e = np.resize(idx, 2 * i), np.resize(e, 2 * i)
            idx[i] = q_index(q, s, a)
            e[i] = 0.0
        e[i] += 1.0
        k = len(pos)
        # A fresh trace of the pair just acted on takes the TD target
        # directly, so that lambda = 0 matches 1-step updates exactly.
        fresh = i if e[i] == 1.0 else None
        q_update_traced(q, idx[:k], e[:k], delta, alpha, fresh, td_target)
        if tr.terminal:
            break
        factor = gamma * lam
        if exploratory or factor == 0.0:
            pos.clear()
        else:
            e[:k] *= factor
        s = tr.next_state
    return EpisodeLog(total, steps)


def mc_episode(
    env: Environment,
    q: QTable,
    params: AgentParams,
    rng: Draws,
) -> EpisodeLog:
    """One episode of every-visit constant-alpha Monte-Carlo control.

    The whole episode runs first; afterwards every visited pair updates toward
    its discounted return from that visit, in visit order.  Each return is
    summed left to right over the nonzero rewards from its visit on, the
    float operations of cvs's waitlist, so that ``h = 0`` cvs matches this
    agent bit for bit at every gamma.
    """
    alpha, gamma, eps = params.alpha, params.gamma, params.epsilon
    total = 0.0
    visited: list[tuple[int, int]] = []
    rewards: list[float] = []
    s = env.reset(rng)
    while True:
        a = epsilon_greedy(q, s, eps, rng)
        tr = env.step(s, a, rng)
        total += tr.reward
        visited.append((s, a))
        rewards.append(tr.reward)
        if tr.terminal:
            break
        s = tr.next_state

    # (step, reward) of the nonzero rewards at or after the current visit
    paid = deque((j, r) for j, r in enumerate(rewards) if r != 0.0)
    for i, (vs, va) in enumerate(visited):
        while paid and paid[0][0] < i:
            paid.popleft()
        tgt = 0.0
        for j, r in paid:
            tgt += (gamma ** (j - i)) * r
        q_update(q, vs, va, tgt, alpha)
    return EpisodeLog(total, len(rewards))
