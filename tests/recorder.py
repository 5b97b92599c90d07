"""Observe an agent from outside, through the seams it calls at run time.

Agents record nothing themselves.  They call ``env.step`` on the environment
they are given, and ``cvslab.agents`` looks up ``q_update`` and
``q_update_traced`` as module names at call time, so wrapping those three
sees every step taken and every value written.  ``q_update_traced`` returns
nothing, so the targets of its traced pairs are computed here, from the
table before the call, by the float operations the kernel performs.

``side_by_side`` runs an agent against another agent or against a slower
reference from ``tests/references.py``, and checks that the two are the same
algorithm, bit for bit.
"""

from __future__ import annotations

import cvslab.agents as agents
from cvslab import QTable
from cvslab.core import DrawStream


class Recorder:
    """Context manager that records one agent's steps and value writes.

    ``trace`` gets ``(s, a, r)`` for every ``env.step``.  ``updates`` gets
    ``(s, a, target, bootstrap)`` for every value written, in write order;
    ``bootstrap`` is the ``next_state`` of the latest step, or None when that
    step entered the TERMINAL sink.  Inside the ``with`` block every agent's
    writes are recorded, so use one recorder at a time.
    """

    def __init__(self, env):
        self.env = env
        self.trace: list[tuple[int, int, float]] = []
        self.updates: list[tuple[int, int, float, int | None]] = []
        self._boot: int | None = None

    def __enter__(self) -> "Recorder":
        step = self.env.step
        sink = self.env.terminal
        q_update, q_update_traced = self._saved = agents.q_update, agents.q_update_traced

        def recording_step(s, a, rng):
            r, s2 = step(s, a, rng)
            self.trace.append((s, a, r))
            self._boot = None if s2 == sink else s2
            return r, s2

        def recording_update(q, s, a, target, alpha):
            q_update(q, s, a, target, alpha)
            self.updates.append((s, a, target, self._boot))

        def recording_traced(q, idx, traces, delta, alpha, fresh, fresh_target):
            targets = [q._values[i] + delta * trace for i, trace in zip(idx, traces)]
            if fresh is not None:
                targets[fresh] = fresh_target
            q_update_traced(q, idx, traces, delta, alpha, fresh, fresh_target)
            for i, target in zip(idx, targets):
                s, a = divmod(i, q._width)
                self.updates.append((s, a, target, self._boot))

        self.env.step = recording_step
        agents.q_update, agents.q_update_traced = recording_update, recording_traced
        return self

    def __exit__(self, *exc) -> None:
        del self.env.step
        agents.q_update, agents.q_update_traced = self._saved


def hexed(updates):
    return [(s, a, float(target).hex(), boot) for s, a, target, boot in updates]


def side_by_side(make_env, q_init, seed, episodes, run, other, *args):
    """Run ``run`` and ``other`` for ``episodes`` episodes, each on its own
    ``make_env()``, table of ``q_init`` and ``DrawStream(seed)``, called as
    ``fn(env, q, *args, rng)``.  A side is an agent, which returns an
    ``EpisodeLog`` and is observed by a ``Recorder``, or a reference, which
    returns ``(return, steps, updates)``.

    After every episode the two must have the same return, step count and
    update list, and each must have logged one update per write its table
    counted, so equal updates kept the tables equal.  After the last episode
    they must have the same ``writes``, table bytes and next draw.
    """
    sides = []
    for fn in (run, other):
        env = make_env()
        sides.append((fn, env, QTable.for_env(env, q_init), DrawStream(seed)))
    for episode in range(episodes):
        seen = []
        for fn, env, q, rng in sides:
            writes = q.writes
            with Recorder(env) as rec:
                out = fn(env, q, *args, rng)
            total, steps, updates = out if isinstance(out, tuple) else (out.total_reward, out.steps, rec.updates)
            assert len(updates) == q.writes - writes, (
                f"episode {episode}: {len(updates)} updates logged, {q.writes - writes} written"
            )
            seen.append(((total, steps), hexed(updates)))
        (ends, updates), (other_ends, other_updates) = seen
        assert ends == other_ends, f"episode {episode}: return and steps {ends} vs {other_ends}"
        assert updates == other_updates, f"episode {episode}: the update lists differ"
    (_, _, q, rng), (_, _, other_q, other_rng) = sides
    assert q.writes == other_q.writes, f"writes {q.writes} vs {other_q.writes}"
    assert bytes(q._values) == bytes(other_q._values), "the table bytes differ"
    assert rng.random() == other_rng.random(), "the two consumed different draws"
