"""Per-layer metrics of the traced run and the end-to-end metric each should move.

The layers are the cvslab modules.  ``PER_LAYER`` lists every metric the
traced run reports (the ``per_layer`` list of BENCHMARK.json must match it).
``RULES`` records, before any optimisation is written, which end-to-end metric
on which workload a change to that layer should move, and where it should
not, so that later performance work can cite these names.  Run this file to
print the expanded mapping as JSON.
"""

from __future__ import annotations

import json

AGENTS = ("cvs", "qlearning", "nstep_sarsa", "qlambda", "mc")
CORE = ("epsilon_greedy", "greedy_actions", "q_update", "row_max")
ALL_WORKLOADS = ("fig1-oracle", "fig4-lookahead", "shooter-serial", "tennis-table")


def _metrics() -> list[tuple[str, str, str]]:
    m = [
        ("harness.oracle_check.calls", "count", "lower"),
        ("harness.oracle_check.self_s", "s", "lower"),
        ("harness.oracle_check.rollout_steps", "count", "lower"),
        ("harness.oracle_check.steps_per_decision", "ratio", "lower"),
        ("harness.oracle_check.share", "ratio", "lower"),
        ("harness.scaling_efficiency", "ratio", "higher"),
    ]
    m += [(f"harness.scaling_efficiency.{a}", "ratio", "higher") for a in AGENTS]
    m += [
        ("harness.make_env.calls", "count", "lower"),
        ("harness.make_env.self_s", "s", "lower"),
        ("harness.curves.self_s", "s", "lower"),
        ("harness.run_experiment.self_s", "s", "lower"),
    ]
    for a in AGENTS:
        m += [
            (f"agents.{a}.episodes", "count", "higher"),
            (f"agents.{a}.self_s", "s", "lower"),
            (f"agents.{a}.self_us_per_step", "us", "lower"),
        ]
    m += [
        ("agents.cvs.waitlist_entry_steps", "count", "lower"),
        ("agents.cvs.mean_lookahead", "steps", "lower"),
        ("agents.cvs.max_waitlist", "count", "lower"),
        ("agents.qlambda.updates_per_step", "ratio", "lower"),
    ]
    for f in CORE:
        m += [(f"core.{f}.calls", "count", "lower"), (f"core.{f}.self_s", "s", "lower")]
    m += [
        ("core.qtable_alloc.calls", "count", "lower"),
        ("core.qtable_alloc.self_s", "s", "lower"),
        ("core.qtable_alloc.bytes", "B", "lower"),
    ]
    for span in ("roadtree.step", "roadtree.env_build", "roadtree.oracle"):
        m += [(f"{span}.calls", "count", "lower"), (f"{span}.self_s", "s", "lower")]
    for env in ("shooter", "tennis"):
        for fn in ("step", "reset"):
            m += [(f"{env}.{fn}.calls", "count", "lower"), (f"{env}.{fn}.self_s", "s", "lower")]
    m += [
        ("cli.self_s", "s", "lower"),
        ("cli.csv_bytes", "B", "lower"),
        ("env_steps", "count", "higher"),
        ("trace_overhead", "ratio", "lower"),
    ]
    return m


PER_LAYER = _metrics()


def _others(*keep: str) -> tuple[str, ...]:
    return tuple(w for w in ALL_WORKLOADS if w not in keep)


# (metric-name prefix, [(end-to-end metric, workload) it should move],
#  [workloads where it should move nothing], note).  The first matching
# prefix wins, so specific prefixes come first.
RULES: list[tuple[str, list[tuple[str, str]], tuple[str, ...], str]] = [
    (
        "harness.oracle_check",
        [("wall_s", "fig1-oracle"), ("env_steps_per_s", "fig1-oracle")],
        ("shooter-serial", "tennis-table"),
        "per-episode greedy rollout; only road trees have an oracle",
    ),
    (
        "harness.scaling_efficiency",
        [
            (m, w)
            for w in ("fig1-oracle", "fig4-lookahead", "tennis-table")
            for m in ("wall_s", "setup_s")
        ],
        ("shooter-serial",),
        "1-worker time / (W x W-worker time) per algorithm block; not applicable at W = 1",
    ),
    (
        "harness.run_experiment",
        [("wall_s", "fig1-oracle")],
        (),
        "per-run and per-episode bookkeeping of the serial traced run; "
        "pool cost shows in scaling_efficiency",
    ),
    (
        "harness.make_env",
        [("setup_s", w) for w in ALL_WORKLOADS],
        (),
        "config validation builds environments on every workload",
    ),
    (
        "harness.curves",
        [("setup_s", w) for w in ALL_WORKLOADS],
        (),
        "average_over_runs + running_average",
    ),
    (
        "agents.cvs.",
        [("env_steps_per_s", "fig4-lookahead")],
        ("fig1-oracle",),
        "waitlist upkeep; lookahead derived from outside "
        "(the k-th update of an episode belongs to step k)",
    ),
    (
        "agents.qlambda.",
        [("env_steps_per_s", "fig4-lookahead")],
        _others("fig4-lookahead"),
        "trace upkeep",
    ),
    (
        "agents.qlearning.",
        [("env_steps_per_s", "shooter-serial"), ("env_steps_per_s", "tennis-table")],
        ("fig4-lookahead",),
        "not run on fig4-lookahead",
    ),
    *[
        (f"agents.{a}.", [("env_steps_per_s", "fig1-oracle")], _others("fig1-oracle"), "")
        for a in ("nstep_sarsa", "mc")
    ],
    (
        "core.qtable_alloc",
        [("setup_s", "tennis-table"), ("peak_rss_mb", "tennis-table")],
        ("fig1-oracle", "fig4-lookahead"),
        "tennis table is 46 MB per run; road-tree tables are under 2 KB",
    ),
    (
        "core.",
        [("env_steps_per_s", "shooter-serial"), ("env_steps_per_s", "tennis-table")],
        (),
        "every workload selects actions and updates values; none bypasses this layer",
    ),
    (
        "roadtree.",
        [("env_steps_per_s", "fig1-oracle"), ("env_steps_per_s", "fig4-lookahead")],
        ("shooter-serial", "tennis-table"),
        "",
    ),
    ("shooter.", [("env_steps_per_s", "shooter-serial")], _others("shooter-serial"), ""),
    ("tennis.", [("env_steps_per_s", "tennis-table")], _others("tennis-table"), ""),
    (
        "cli.",
        [("setup_s", w) for w in ALL_WORKLOADS],
        (),
        "argument parsing, validation and CSV writing",
    ),
    (
        "env_steps",
        [],
        ALL_WORKLOADS,
        "fixed by config and seed; any change means the outputs changed",
    ),
    ("trace_overhead", [], ALL_WORKLOADS, "tracing is off in the timed runs"),
]


def mapping() -> dict[str, dict]:
    """Each per-layer metric with the end-to-end metrics it should and should not move."""
    out = {}
    for name, unit, better in PER_LAYER:
        prefix, moves, still, note = next(r for r in RULES if name.startswith(r[0]))
        out[name] = {
            "unit": unit,
            "better": better,
            "should_move": [{"metric": m, "workload": w} for m, w in moves],
            "should_not_move_on": list(still),
            "note": note,
        }
    return out


if __name__ == "__main__":
    print(json.dumps(mapping(), indent=1))
