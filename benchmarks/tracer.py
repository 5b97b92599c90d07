"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of each cvslab module at the names their
callers look them up by (``cvslab.agents.epsilon_greedy``,
``cvslab.harness.greedy_policy_return``, ``RoadTreeEnv.step``, ...).  The
program itself is not changed; ``install`` patches and ``uninstall`` restores.

Spans are aggregated per ``(name, parent name)`` as they close, so memory
stays bounded however many calls a run makes.  A span's self time is its
duration minus the time its child spans cover; the tracer's own bookkeeping
for a child is charged to neither.

Counts that need no extra hook in the program are derived from outside:
env steps are ``step`` spans whose parent is an agent episode, rollout steps
are those under the oracle check, and cvs lookaheads follow from the fact
that cvs updates leave its waitlist in FIFO order, so the k-th ``q_update``
of an episode belongs to the pair visited at step k, and its lookahead is the
episode's step count at that moment minus k plus one.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

AGENT_SPANS = {
    "cvs_episode": "agents.cvs",
    "q_learning_episode": "agents.qlearning",
    "n_step_sarsa_episode": "agents.nstep_sarsa",
    "watkins_qlambda_episode": "agents.qlambda",
    "mc_episode": "agents.mc",
}
AGENT_NAMES = frozenset(AGENT_SPANS.values())
ENV_STEP_SPANS = ("roadtree.step", "shooter.step", "tennis.step")
ORACLE = "harness.oracle_check"

# (module, attribute path, span name) for every wrapped lookup name.  One
# function looked up under several names gets one wrapper.
PATCHES: list[tuple[str, str, str]] = [
    ("cvslab.cli", "main", "cli.main"),
    ("cvslab.cli", "run_experiment", "harness.run_experiment"),
    ("cvslab.cli", "average_over_runs", "harness.curves"),
    ("cvslab.cli", "running_average", "harness.curves"),
    ("cvslab.harness", "make_env", "harness.make_env"),
    ("cvslab.harness", "greedy_policy_return", ORACLE),
    ("cvslab.harness", "optimal_return_oracle", "roadtree.oracle"),
    *[("cvslab.harness", fn, span) for fn, span in AGENT_SPANS.items()],
    ("cvslab.agents", "epsilon_greedy", "core.epsilon_greedy"),
    ("cvslab.agents", "greedy_actions", "core.greedy_actions"),
    ("cvslab.core", "greedy_actions", "core.greedy_actions"),
    ("cvslab.harness", "greedy_actions", "core.greedy_actions"),
    ("cvslab.agents", "q_update", "core.q_update"),
    ("cvslab.core", "QTable.row_max", "core.row_max"),
    ("cvslab.core", "QTable.for_env", "core.qtable_alloc"),
    ("cvslab.roadtree", "RoadTreeEnv.__init__", "roadtree.env_build"),
    ("cvslab.roadtree", "RoadTreeEnv.step", "roadtree.step"),
    ("cvslab.shooter", "ShooterEnv.step", "shooter.step"),
    ("cvslab.shooter", "ShooterEnv.reset", "shooter.reset"),
    ("cvslab.tennis", "TennisEnv.step", "tennis.step"),
    ("cvslab.tennis", "TennisEnv.reset", "tennis.reset"),
]

# Span sets: per-block wall times only, env-step counting, everything.
BLOCK_SPANS = frozenset({"cli.main", "harness.run_experiment"})
COUNT_SPANS = BLOCK_SPANS | set(AGENT_SPANS.values()) | set(ENV_STEP_SPANS) | {ORACLE}
ALL_SPANS = frozenset(span for _, _, span in PATCHES)


class Tracer:
    """Aggregating span tracer over the cvslab modules; see the module docstring."""

    def __init__(self, spans=ALL_SPANS):
        self.spans = frozenset(spans)
        self.agg: dict[tuple[str, str], list] = {}  # (name, parent) -> [calls, self_s, total_s]
        self.block_s: dict[str, float] = {}  # algorithm -> run_experiment wall time
        self.agent_steps: Counter = Counter()
        self.agent_updates: Counter = Counter()
        self.lookaheads: Counter = Counter()  # cvs lookahead -> number of updates
        self.max_waitlist = 0
        self.rollout_steps = 0
        self.rollout_decisions = 0
        self.alloc_bytes = 0
        self._ep_steps = 0
        self._ep_updates = 0
        self._stack: list[list] = [["root", 0.0]]
        self._saved: list[tuple[object, str, object]] = []

    # -- observers, run after a span closes and charged to no span ---------

    def _on_step(self, parent, args, result, dt):
        if parent in AGENT_NAMES:
            self._ep_steps += 1
            self.agent_steps[parent] += 1
            if parent == "agents.cvs":
                waiting = self._ep_steps - self._ep_updates
                if waiting > self.max_waitlist:
                    self.max_waitlist = waiting
        elif parent == ORACLE:
            self.rollout_steps += 1
            env, s = args[0], args[1]
            if env.num_actions(s) > 1:
                self.rollout_decisions += 1

    def _on_update(self, parent, args, result, dt):
        if parent in AGENT_NAMES:
            self._ep_updates += 1
            self.agent_updates[parent] += 1
            if parent == "agents.cvs":
                self.lookaheads[self._ep_steps - self._ep_updates + 1] += 1

    def _on_alloc(self, parent, args, result, dt):
        self.alloc_bytes += result._values.nbytes

    def _on_block(self, parent, args, result, dt):
        algorithm = args[0].algorithm
        self.block_s[algorithm] = self.block_s.get(algorithm, 0.0) + dt

    def _on_episode_start(self):
        self._ep_steps = 0
        self._ep_updates = 0

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        stack, agg, clock = self._stack, self.agg, time.perf_counter
        observe = {
            "core.q_update": self._on_update,
            "core.qtable_alloc": self._on_alloc,
            "harness.run_experiment": self._on_block,
        }.get(name, self._on_step if name in ENV_STEP_SPANS else None)
        on_enter = self._on_episode_start if name in AGENT_NAMES else None

        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            if on_enter is not None:
                on_enter()
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            dt = t1 - t0
            key = (name, parent[0])
            rec = agg.get(key)
            if rec is None:
                rec = agg[key] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dt - frame[1]
            rec[2] += dt
            if observe is not None:
                observe(parent[0], args, result, dt)
            parent[1] += clock() - t0
            return result

        span.__wrapped__ = fn
        return span

    def install(self) -> "Tracer":
        wrappers: dict[int, object] = {}
        for module_name, path, name in PATCHES:
            if name not in self.spans:
                continue
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(name, fn)
            wrapper = wrappers[id(fn)]
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results --------------------------------------------------------------

    def totals(self, name: str) -> tuple[int, float, float]:
        """(calls, self seconds, total seconds) of ``name`` over all parents."""
        calls, self_s, total = 0, 0.0, 0.0
        for (n, _), (c, s, t) in self.agg.items():
            if n == name:
                calls, self_s, total = calls + c, self_s + s, total + t
        return calls, self_s, total

    @property
    def env_steps(self) -> int:
        return sum(self.agent_steps.values())

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values of everything the tracer measured.

        Scaling efficiency and trace overhead need untraced runs, and CSV
        bytes need the output files; the caller adds those.
        """
        out: dict[str, float] = {}
        for name in sorted({n for n, _ in self.agg} - {"cli.main", "harness.curves"}):
            calls, self_s, _ = self.totals(name)
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out["harness.curves.self_s"] = self.totals("harness.curves")[1]
        _, cli_self, cli_total = self.totals("cli.main")
        out["cli.self_s"] = cli_self
        out["harness.oracle_check.rollout_steps"] = self.rollout_steps
        out["harness.oracle_check.steps_per_decision"] = (
            self.rollout_steps / self.rollout_decisions if self.rollout_decisions else 0.0
        )
        out["harness.oracle_check.share"] = self.totals(ORACLE)[2] / cli_total if cli_total else 0.0
        for span in AGENT_NAMES:
            steps = self.agent_steps[span]
            calls, self_s, _ = self.totals(span)
            out[f"{span}.episodes"] = calls
            out[f"{span}.self_s"] = self_s
            out[f"{span}.self_us_per_step"] = self_s / steps * 1e6 if steps else 0.0
            out.pop(f"{span}.calls", None)
        n_updates = sum(self.lookaheads.values())
        entry_steps = sum(k * v for k, v in self.lookaheads.items())
        out["agents.cvs.waitlist_entry_steps"] = entry_steps
        out["agents.cvs.mean_lookahead"] = entry_steps / n_updates if n_updates else 0.0
        out["agents.cvs.max_waitlist"] = self.max_waitlist
        q_steps = self.agent_steps["agents.qlambda"]
        out["agents.qlambda.updates_per_step"] = (
            self.agent_updates["agents.qlambda"] / q_steps if q_steps else 0.0
        )
        calls = out.get("core.qtable_alloc.calls", 0)
        out["core.qtable_alloc.bytes"] = self.alloc_bytes / calls if calls else 0.0
        out["env_steps"] = self.env_steps
        return out
