"""Observe an agent from outside, through the seams it calls at run time.

Agents record nothing themselves.  They call ``env.step`` on the environment
they are given, and ``cvslab.agents`` looks up ``q_update`` and
``q_update_traced`` as module names at call time, so wrapping those three
sees every step taken and every value written.  ``q_update_traced`` returns
nothing, so the targets of its traced pairs are computed here, from the
table before the call, by the float operations the kernel performs.
"""

from __future__ import annotations

import cvslab.agents as agents


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
