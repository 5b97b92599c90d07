"""Slow agent references, kept apart from the code under test.

The cvs and Q(lambda) references are the per-entry loops the fast agents
replaced.  The n-step SARSA and Monte-Carlo references follow the textbook
definitions (Sutton & Barto 2018, ch. 5 and 7) and share no code with cvs,
which the shipped n-step SARSA and MC agents run; so the reduction tests
compare cvs with these, not with itself.  Each returns ``(return, steps,
updates)``, ``updates`` as ``tests/recorder.py`` logs them, and must be
matched bit for bit (same RNG draws, same float operations).  They write
through ``cvslab.core.q_update``, which a ``Recorder`` does not wrap.
"""

from __future__ import annotations

from dataclasses import dataclass

from cvslab import epsilon_greedy, greedy_actions
from cvslab.agents import _CRT_EPS
from cvslab.core import q_update


@dataclass
class _WaitEntry:
    state: int
    action: int
    reward_acc: float = 0.0
    crt_cum: float = 0.0
    steps: int = 0


def reference_cvs_episode(env, q, h, params, rng):
    """cvs with a list waitlist that every step walks in full."""
    alpha, gamma, eps = params.alpha, params.gamma, params.epsilon
    updates = []
    waitlist = []
    total = 0.0
    steps = 0
    s = env.reset(rng)
    a = epsilon_greedy(q, s, eps, rng)
    while True:
        tr = env.step(s, a, rng)
        steps += 1
        total += tr.reward
        waitlist.append(_WaitEntry(s, a))
        for e in waitlist:
            e.reward_acc += (gamma**e.steps) * tr.reward
            e.steps += 1
        if tr.terminal:
            for e in waitlist:
                q_update(q, e.state, e.action, e.reward_acc, alpha)
                updates.append((e.state, e.action, e.reward_acc, None))
            break
        s2 = tr.next_state
        a2 = epsilon_greedy(q, s2, eps, rng)
        hs = float(h(s2))
        for e in waitlist:
            e.crt_cum += hs
        boot = q[s2, a2]
        keep = []
        for e in waitlist:
            if e.crt_cum >= 1.0 - _CRT_EPS:
                target = e.reward_acc + (gamma**e.steps) * boot
                q_update(q, e.state, e.action, target, alpha)
                updates.append((e.state, e.action, target, s2))
            else:
                keep.append(e)
        waitlist = keep
        s, a = s2, a2
    return total, steps, updates


def reference_qlambda_episode(env, q, params, rng):
    """Watkins Q(lambda) with a trace dict walked by one q_update per entry.

    An action is exploratory when it is not in ``greedy_actions``, scanned
    before ``epsilon_greedy`` scans the same row again."""
    alpha, gamma, eps, lam = params.alpha, params.gamma, params.epsilon, params.lam
    updates = []
    traces: dict[tuple[int, int], float] = {}
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
        traces[s, a] = traces.get((s, a), 0.0) + 1.0
        boot = None if tr.terminal else tr.next_state
        for (es, ea), e in traces.items():
            if es == s and ea == a and e == 1.0:
                target = td_target
            else:
                target = q[es, ea] + delta * e
            q_update(q, es, ea, target, alpha)
            updates.append((es, ea, target, boot))
        if tr.terminal:
            break
        factor = gamma * lam
        if exploratory or factor == 0.0:
            traces.clear()
        else:
            for key in traces:
                traces[key] *= factor
        s = tr.next_state
    return total, steps, updates


def reference_n_step_sarsa_episode(env, q, params, rng):
    """n-step SARSA that computes ``gamma ** (i - tau)`` for every reward of
    every update and counts t up to the end one by one."""
    n, alpha, gamma, eps = params.n, params.alpha, params.gamma, params.epsilon
    updates = []
    total = 0.0
    s0 = env.reset(rng)
    states = [s0]
    actions = [epsilon_greedy(q, s0, eps, rng)]
    rewards = []
    boot = None
    T = None
    t = 0
    while True:
        if T is None:
            tr = env.step(states[t], actions[t], rng)
            rewards.append(tr.reward)
            total += tr.reward
            states.append(tr.next_state)
            boot = None if tr.terminal else tr.next_state
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
            updates.append((states[tau], actions[tau], g, boot))
        if T is not None and tau >= T - 1:
            break
        t += 1
    return total, T, updates


def reference_mc_episode(env, q, params, rng):
    """Every-visit constant-alpha MC: after the episode, each visit ``i`` in
    order updates toward ``0.0`` plus ``gamma ** (j - i) * r_j`` summed over
    ``j = i .. T-1``, zero rewards included."""
    alpha, gamma, eps = params.alpha, params.gamma, params.epsilon
    updates = []
    visited = []
    rewards = []
    total = 0.0
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
    T = len(rewards)
    for i, (vs, va) in enumerate(visited):
        g = 0.0
        for j in range(i, T):
            g += (gamma ** (j - i)) * rewards[j]
        q_update(q, vs, va, g, alpha)
        updates.append((vs, va, g, None))
    return total, T, updates
