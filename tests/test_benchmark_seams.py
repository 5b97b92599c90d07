"""The benchmark's tracer (``benchmarks/tracer.py``) observes cvslab from
outside, by wrapping the names callers look up at call time.  These tests
keep those names where it looks for them, so that a refactor which hides a
layer from the tracer fails here and not at benchmark time."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cvslab import ALGORITHM_NAMES, ExperimentConfig, run_experiment

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return importlib.import_module("tracer")


def test_every_patched_name_resolves(tracer):
    for module_name, path, _ in tracer.PATCHES:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in owner.__dict__, f"{module_name}.{path}"


@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_tracer_sees_every_agent_episode(tracer, algorithm):
    cfg = ExperimentConfig({"name": "roadtree:fig3"}, algorithm, episodes=3, runs=1)
    with tracer.Tracer(tracer.COUNT_SPANS) as t:
        run_experiment(cfg)
    span = f"agents.{algorithm}"
    assert t.totals(span)[0] == 3
    assert t.agent_steps[span] > 0


def test_what_the_benchmark_reads_from_cvslab():
    # benchmarks/selftest.py calls the harness's cvs_episode positionally and
    # reads .steps; the tracer's _on_alloc reads a new table's _values.nbytes.
    import numpy as np

    import cvslab.harness
    from cvslab import AgentParams, QTable, RoadTreeEnv, fig3_tree

    env = RoadTreeEnv(fig3_tree())
    q = QTable.for_env(env)
    log = cvslab.harness.cvs_episode(env, q, env.criticality(), AgentParams(), np.random.default_rng(0))
    assert log.steps > 0
    width, _, _ = env.action_layout()
    assert q._values.nbytes == env.num_states * width * 8 == 960


def test_the_module_entry_the_benchmark_launches(tmp_path):
    # benchmarks/run.py times `python -m cvslab.cli run <config> --out <dir>`
    # in a fresh process, with src on PYTHONPATH and CVS_LAB_THREADS set.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, CVS_LAB_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    doc = {
        "name": "entry",
        "environment": {"name": "roadtree:fig3"},
        "algorithms": [{"label": "cvs", "algorithm": "cvs"}, {"label": "mc", "algorithm": "mc"}],
        "episodes": 2,
    }

    def run(config: dict, out: str) -> subprocess.CompletedProcess:
        path = tmp_path / f"{out}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        cmd = [sys.executable, "-m", "cvslab.cli", "run", str(path), "--out", str(tmp_path / out)]
        return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)

    good = run(doc, "good")
    assert good.returncode == 0, good.stderr
    assert sorted(p.name for p in (tmp_path / "good").iterdir()) == [
        "entry_cvs.csv",
        "entry_mc.csv",
        "entry_plot.json",
    ]
    bad = run({**doc, "episodes": 0}, "bad")
    assert bad.returncode == 2
    assert bad.stderr.startswith("error: ") and "Traceback" not in bad.stderr
