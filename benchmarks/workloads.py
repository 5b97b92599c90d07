"""Workload definitions for the cvslab benchmark.

Each workload is a ``cvslab run`` comparison config plus the worker count it
runs at.  ``make_config(name, seed)`` builds the JSON document the CLI is
given; the program sees nothing else.  The comments say why each workload
exists: together they put a different layer on top of the profile in each.
"""

from __future__ import annotations

GREEDY = {"alpha": 0.1, "epsilon": 0.1, "gamma": 1.0}

WORKLOADS: dict[str, dict] = {
    # Many short episodes, each followed by the harness's greedy-rollout
    # oracle check (31-47 % of serial time for these agents), so the
    # harness layer dominates.  Four algorithm blocks start four process
    # pools per CLI run.  qlambda is left out: it costs several times more
    # per episode on fig1 and would hide the oracle layer.
    "fig1-oracle": {
        "environment": {"name": "roadtree:fig1"},
        "algorithms": [
            {"label": "cvs", "algorithm": "cvs", **GREEDY},
            {"label": "qlearning", "algorithm": "qlearning", **GREEDY},
            {"label": "nstep_sarsa", "algorithm": "nstep_sarsa", "n": 3, **GREEDY},
            {"label": "mc", "algorithm": "mc", **GREEDY},
        ],
        "episodes": 200,
        "runs": 10,
        "window": 10,
        "workers": 2,
        "default_seed": 0,
    },
    # The fig4 preset's agents and episode count, with fewer runs: two
    # 50-step roads with h = 0 grow the cvs waitlist and the Q(lambda) traces
    # to ~50 entries, so agent self time (waitlist upkeep) dominates.
    "fig4-lookahead": {
        "environment": {"name": "roadtree:fig4"},
        "algorithms": [
            {"label": "cvs", "algorithm": "cvs", **GREEDY},
            {"label": "qlambda", "algorithm": "qlambda", "lambda": 0.9, **GREEDY},
        ],
        "episodes": 200,
        "runs": 4,
        "window": 20,
        "workers": 2,
        "default_seed": 0,
    },
    # The shooter preset's agents at one worker, with fewer episodes: no
    # oracle and no process pool, the plain single-process baseline.  Time
    # goes to shooter.step decoding and epsilon_greedy over 4-action rows of
    # a 3.8 MB table.
    "shooter-serial": {
        "environment": {"name": "shooter"},
        "algorithms": [
            {"label": "cvs", "algorithm": "cvs", **GREEDY},
            {"label": "qlearning", "algorithm": "qlearning", **GREEDY},
        ],
        "episodes": 400,
        "runs": 10,
        "window": 100,
        "workers": 1,
        "default_seed": 1,
    },
    # The only workload whose Q-table (46 MB per run) is far beyond L2, so
    # it drives set-up time and peak RSS; the only one using tennis.
    "tennis-table": {
        "environment": {"name": "tennis"},
        "algorithms": [
            {"label": "cvs", "algorithm": "cvs", **GREEDY},
            {"label": "qlearning", "algorithm": "qlearning", **GREEDY},
        ],
        "episodes": 300,
        "runs": 10,
        "window": 10,
        "workers": 2,
        "default_seed": 0,
    },
}


def make_config(name: str, seed: int, episodes: int | None = None, runs: int | None = None) -> dict:
    """The ``cvslab run`` document for workload ``name`` at ``seed``.

    ``episodes`` and ``runs`` override the workload's sizes; set-up runs use
    ``episodes=1`` and the self-tests use small sizes.
    """
    w = WORKLOADS[name]
    return {
        "name": name,
        "environment": dict(w["environment"]),
        "episodes": w["episodes"] if episodes is None else episodes,
        "runs": w["runs"] if runs is None else runs,
        "seed": seed,
        "window": w["window"],
        "algorithms": [dict(a) for a in w["algorithms"]],
    }


def csv_names(name: str) -> list[str]:
    """The CSV files one ``cvslab run`` of workload ``name`` writes."""
    return [f"{name}_{a['label']}.csv" for a in WORKLOADS[name]["algorithms"]]
