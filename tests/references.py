"""Slow references, kept apart from the code under test.

The cvs and Q(lambda) references are the per-entry loops the fast agents
replaced.  The n-step SARSA and Monte-Carlo references follow the textbook
definitions (Sutton & Barto 2018, ch. 5 and 7) and share no code with cvs,
which the shipped n-step SARSA and MC agents run; so the reduction tests
compare cvs with these, not with itself.  Each returns ``(return, steps,
updates)``, ``updates`` as ``tests/recorder.py`` logs them, and must be
matched bit for bit (same RNG draws, same float operations).  They write
through ``cvslab.core.q_update``, which a ``Recorder`` does not wrap.

``reference_sarsa_lambda_s_episode`` is SARSA(lambda) with the state-dependent
lambda ``1 - h``, in the backward view (Sutton & Barto 2018, sec. 12.7 and
12.8).  It shares nothing with cvs either, and matches it only where its
docstring says.

``reference_shooter_step`` is the shooter's step computed afresh on every
call, with no outcome cache, and ``reference_tennis_step`` the tennis step
decoding, moving and re-encoding the whole field on every call, with no
flight memo.  ``reference_road_tree`` is ``RoadTreeEnv``'s expansion of
every state into its own row of steps.
"""

from __future__ import annotations

from dataclasses import dataclass

from cvslab import epsilon_greedy, greedy_actions
from cvslab.agents import _CRT_EPS
from cvslab.core import _reflect, q_index, q_update
from cvslab.shooter import (
    ACTION_NOOP,
    COLS,
    OBSTACLE_COL,
    ROWS,
    _SHOT_DIR,
    _TERMINAL,
    _pack,
    _unpack,
)
from cvslab import tennis


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
        r, s2 = env.step(s, a, rng)
        steps += 1
        total += r
        waitlist.append(_WaitEntry(s, a))
        for e in waitlist:
            e.reward_acc += (gamma**e.steps) * r
            e.steps += 1
        if s2 == env.terminal:
            for e in waitlist:
                q_update(q, e.state, e.action, e.reward_acc, alpha)
                updates.append((e.state, e.action, e.reward_acc, None))
            break
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
        r, s2 = env.step(s, a, rng)
        steps += 1
        total += r
        boot = None if s2 == env.terminal else s2
        boot_value = 0.0 if boot is None else q.row_max(s2)
        td_target = r + gamma * boot_value
        delta = td_target - q[s, a]
        traces[s, a] = traces.get((s, a), 0.0) + 1.0
        for (es, ea), e in traces.items():
            if es == s and ea == a and e == 1.0:
                target = td_target
            else:
                target = q[es, ea] + delta * e
            q_update(q, es, ea, target, alpha)
            updates.append((es, ea, target, boot))
        if boot is None:
            break
        factor = gamma * lam
        if exploratory or factor == 0.0:
            traces.clear()
        else:
            for key in traces:
                traces[key] *= factor
        s = s2
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
            r, s2 = env.step(states[t], actions[t], rng)
            rewards.append(r)
            total += r
            states.append(s2)
            boot = None if s2 == env.terminal else s2
            if boot is None:
                T = t + 1
            else:
                actions.append(epsilon_greedy(q, s2, eps, rng))
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
        r, s2 = env.step(s, a, rng)
        total += r
        visited.append((s, a))
        rewards.append(r)
        if s2 == env.terminal:
            break
        s = s2
    T = len(rewards)
    for i, (vs, va) in enumerate(visited):
        g = 0.0
        for j in range(i, T):
            g += (gamma ** (j - i)) * rewards[j]
        q_update(q, vs, va, g, alpha)
        updates.append((vs, va, g, None))
    return total, T, updates


def reference_sarsa_lambda_s_episode(env, q, h, params, rng):
    """Online SARSA(lambda(s)) with accumulating traces and ``lambda = 1 - h``.

    Each step computes ``delta = r + gamma * Q(s', a') - Q(s, a)`` (``Q`` of
    TERMINAL being 0), bumps the trace of ``(s, a)`` by 1, moves every traced
    pair by ``alpha * delta * e`` and then decays every trace by
    ``gamma * (1 - h(s'))``, cutting them all when that is 0.  It writes
    ``Q + alpha * delta * e`` straight into the table, past ``q_index``'s
    checks, and logs one update per traced pair and step, with the value
    written in the place of a target.

    With a 0/1 ``h``, ``gamma = 1`` and a uniform initial table, on a tree it
    equals cvs bit for bit.  Every pair then waits for the next state of
    criticality 1, and the pairs waiting together always get the same update,
    so they keep one shared value: each ``delta`` but the last of a stretch is
    an exact ``0.0``, and the last one is cvs's ``target - v``.

    Off trees the same holds wherever every state of ``h = 0`` is entered by
    one pair, always, with reward 0: states of ``h = 1`` may be entered from
    several pairs, revisited, looped on and stepped into at random
    (``road_mdps`` in ``tests/strategies.py``).  Two kinds of feature break
    it.  A pair revisited within a stretch, such as a self-loop at a state of
    ``h = 0``, gets a trace of 2 where cvs updates each visit in turn, so the
    two part in exact arithmetic too.  A random step into or out of a
    stretch, or a state of ``h = 0`` entered from two pairs, gives that state
    its own update history: the interior ``delta`` stop being zeros, the
    online updates add the same sums in another order, and the tables part in
    the last bits, after which a tie can break differently and later draws
    differ.  A step cap that cuts a stretch counts as a random step, and on
    ``small_mdps`` every pair may step into the sink, so nearly all of those
    draws have one.

    At ``gamma < 1`` the two part: a trace is ``gamma ** k``, the pairs of a
    stretch drift apart and the interior ``delta`` stop being zero, so the
    online updates no longer add up to cvs's one update per pair (the forward
    and backward views agree exactly only for offline updates; Sutton & Barto
    2018, sec. 12.5).  On random trees at ``gamma = 0.9`` the tables differ
    within 30 episodes in most cases.
    """
    alpha, gamma, eps = params.alpha, params.gamma, params.epsilon
    values = q._values
    updates = []
    traces: dict[tuple[int, int], float] = {}
    total = 0.0
    steps = 0
    s = env.reset(rng)
    a = epsilon_greedy(q, s, eps, rng)
    while True:
        r, s2 = env.step(s, a, rng)
        steps += 1
        total += r
        boot = None if s2 == env.terminal else s2
        if boot is None:
            delta = r + gamma * 0.0 - q[s, a]
        else:
            a2 = epsilon_greedy(q, s2, eps, rng)
            delta = r + gamma * q[s2, a2] - q[s, a]
        traces[s, a] = traces.get((s, a), 0.0) + 1.0
        for (es, ea), e in traces.items():
            i = q_index(q, es, ea)
            values[i] = values[i] + alpha * delta * e
            updates.append((es, ea, values[i], boot))
        if boot is None:
            break
        factor = gamma * (1.0 - h(s2))
        if factor == 0.0:
            traces.clear()
        else:
            for key in traces:
                traces[key] *= factor
        s, a = s2, a2
    return total, steps, updates


def reference_shooter_step(env, s, a, rng):
    """``env.step(s, a, rng)`` for a ``ShooterEnv``, decoding, moving and
    re-encoding the field on every call; it advances ``env``'s step counter
    and reads its obstacle rows and cap."""
    if not 0 <= s < _TERMINAL:
        if s == _TERMINAL:
            raise ValueError("cannot step from the TERMINAL state")
        raise ValueError(f"state {s} out of range")
    if not 0 <= a < 4:
        raise ValueError(f"action {a} invalid for state {s}")
    env._steps += 1

    gun, trow, tdir, brow, bcol, bdir = _unpack(s)
    if bcol is not None:
        # Shoot actions are spent; the bullet just flies on.
        brow, bdir = _reflect(brow, bdir, ROWS)
        bcol += 1
    elif a != ACTION_NOOP:
        # The bullet leaves the gun and advances within the same step.
        brow, bdir = _reflect(gun, _SHOT_DIR[a], ROWS)
        bcol = 1

    if bcol is not None:
        if bcol == OBSTACLE_COL and brow in env._obstacle:
            return -1.0, _TERMINAL
        if bcol == COLS - 1:
            hit = brow == trow
            return (1.0 if hit else -1.0), _TERMINAL

    trow, tdir = _reflect(trow, tdir, ROWS)
    if env._steps >= env._max_steps:
        return -1.0, _TERMINAL
    return 0.0, _pack(gun, trow, tdir, brow, bcol, bdir)


def reference_tennis_step(env, s, a, rng):
    """``env.step(s, a, rng)`` for a ``TennisEnv``: the step as it was
    before the flight memo, with a ball that would step past an end column
    scoring; it advances ``env``'s step counter and reads its opponent
    probability and cap."""
    if not 0 <= s < tennis._N_FIELD:
        if s == tennis._N_FIELD:
            raise ValueError("cannot step from the TERMINAL state")
        raise ValueError(f"state {s} out of range")
    if not 0 <= a < 3:
        raise ValueError(f"action {a} invalid for state {s}")
    env._steps += 1

    brow, bcol, h_dir, v_dir, agent, opp = tennis._unpack(s)
    agent = min(tennis.ROWS - 1, max(0, agent + (a - 1)))

    if rng.random() < env._p_optimal:
        if opp < brow:
            delta = 1
        elif opp > brow:
            delta = -1
        else:
            delta = 0
    else:
        delta = int(rng.integers(3)) - 1
    opp = min(tennis.ROWS - 1, max(0, opp + delta))

    brow, v_dir = _reflect(brow, v_dir, tennis.ROWS)
    bcol += h_dir
    if (bcol == tennis.AGENT_COL and brow == agent) or (bcol == tennis.OPPONENT_COL and brow == opp):
        h_dir = -h_dir

    if bcol <= 0:
        return -1.0, tennis._N_FIELD
    if bcol >= tennis.COLS - 1:
        return 1.0, tennis._N_FIELD
    if env._steps >= env._max_steps:
        return 0.0, tennis._N_FIELD

    return 0.0, tennis._pack(brow, bcol, h_dir, v_dir, agent, opp)


def reference_road_tree(tree):
    """The dynamics of ``RoadTreeEnv(tree)``, one row per state:
    ``(rows, node_state, junction_moves, h)``.  ``rows[s]`` lists the
    ``(reward, next_state)`` of each action of state ``s`` below the sink,
    so ``len(rows)`` is the sink's id; ``h`` covers the sink too.  It reads
    ``tree.nodes`` and ``tree.edges`` only, through indexes of its own."""
    reward = {n.id: n.reward for n in tree.nodes}
    children = {}
    for e in tree.edges:
        children.setdefault(e.parent, []).append(e)
    sink = len(children) + sum(e.distance - 1 for e in tree.edges)
    rows = [[]]
    node_state = {tree.root: 0}
    moves = {}
    order = [tree.root]
    for p in order:  # grows: each junction after its parent
        p_state = node_state[p]
        moves[p_state] = []
        for e in children[p]:
            last = p_state
            for _ in range(e.distance - 1):
                rows[last].append((0.0, len(rows)))
                last = len(rows)
                rows.append([])
            if e.child not in children:
                entered = sink
            else:
                entered = node_state[e.child] = len(rows)
                rows.append([])
                order.append(e.child)
            rows[last].append((reward[e.child], entered))
            moves[p_state].append((reward[e.child], entered))
    h = [1.0 if s in moves else 0.0 for s in range(sink)] + [1.0]
    return rows, node_state, moves, h
