"""What ``import cvslab`` does to its process, checked in a fresh interpreter,
and the names it exports."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import cvslab

SRC = Path(__file__).resolve().parent.parent / "src"

# Imports cvslab, runs a 2-episode fig3 comparison through the CLI at 1 worker
# and then at 2, and prints which of the watched modules were loaded after
# each step.
PROBE = """
import json, os, sys, tempfile

WATCHED = (
    "numpy", "concurrent.futures", "concurrent.futures.process", "multiprocessing", "cvslab.svgplot"
)
loaded = []
import cvslab
loaded.append([m for m in WATCHED if m in sys.modules])
import cvslab.cli

with tempfile.TemporaryDirectory() as out:
    config = os.path.join(out, "fig3.json")
    with open(config, "w") as f:
        json.dump({
            "name": "probe",
            "environment": {"name": "roadtree:fig3"},
            "episodes": 2,
            "runs": 2,
            "algorithms": [{"label": a, "algorithm": a} for a in ("cvs", "qlambda")],
        }, f)
    for threads in ("1", "2"):
        os.environ["CVS_LAB_THREADS"] = threads
        assert cvslab.cli.main(["run", config, "--out", out]) == 0
        loaded.append([m for m in WATCHED if m in sys.modules])
print(json.dumps(loaded))
"""


def test_a_one_worker_run_loads_neither_numpy_nor_a_process_pool():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    # after the import, after the 1-worker run and after the 2-worker run
    assert json.loads(out.splitlines()[-1]) == [[], [], []]


def test_public_surface():
    assert sorted(cvslab.__all__) == [
        "ALGORITHM_NAMES",
        "AgentParams",
        "ConfigError",
        "Environment",
        "EpisodeLog",
        "ExperimentConfig",
        "QTable",
        "RoadTreeEnv",
        "RunResult",
        "ShooterEnv",
        "TennisEnv",
        "TreeEdge",
        "TreeNode",
        "TreeSpec",
        "average_over_runs",
        "cvs_episode",
        "episodes_to_convergence",
        "episodes_to_threshold",
        "epsilon_greedy",
        "fig1_tree",
        "fig3_tree",
        "fig4_tree",
        "fig6_tree",
        "greedy_actions",
        "greedy_policy_return",
        "make_env",
        "mc_episode",
        "n_step_sarsa_episode",
        "optimal_return_oracle",
        "q_learning_episode",
        "run_experiment",
        "running_average",
        "watkins_qlambda_episode",
    ]


def public_members(obj) -> list[str]:
    return [name for name in dir(obj) if not name.startswith("_")]


def test_public_members_of_a_table_and_a_built_road_tree():
    # each states a fact once: action counts and the sink are the
    # environment's, and a junction's state is the one its parent's move enters
    environment = ["action_layout", "criticality", "reset", "step", "terminal"]
    assert public_members(cvslab.ShooterEnv()) == environment
    assert public_members(cvslab.TennisEnv()) == environment
    env = cvslab.RoadTreeEnv(cvslab.fig1_tree())
    assert public_members(cvslab.QTable.for_env(env)) == ["as_array", "for_env", "row_max", "writes"]
    assert public_members(env) == [
        "action_layout",
        "criticality",
        "junction_moves",
        "reset",
        "root_state",
        "step",
        "terminal",
    ]


def test_the_readme_library_example_runs_as_written():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("\n## Library\n") :]
    example = section[section.index("```python\n") + len("```python\n") :]
    names: dict = {}
    exec(example[: example.index("```")], names)
    assert len(names["results"]) == 20
    assert all(len(run.returns) == 200 for run in names["results"])
