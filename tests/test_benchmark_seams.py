"""The benchmark's tracer (``benchmarks/tracer.py``) observes cvslab from
outside, by wrapping the names callers look up at call time.  These tests
keep those names where it looks for them, so that a refactor which hides a
layer from the tracer fails here and not at benchmark time."""

from __future__ import annotations

import importlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from cvslab import ALGORITHM_NAMES, ExperimentConfig, run_experiment
from cvslab.cli import main

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
    assert q._values.nbytes == (env.terminal + 1) * width * 8 == 960


def assert_no_process_in_group(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return
    os.killpg(pgid, signal.SIGKILL)
    pytest.fail(f"a process of group {pgid} outlived the run")


def test_the_module_entry_the_benchmark_launches(tmp_path, monkeypatch, capsys):
    # benchmarks/run.py times `python -m cvslab.cli run <config> --out <dir>`
    # in a fresh process, with src on PYTHONPATH and CVS_LAB_THREADS set.  That
    # process ends without interpreter teardown, so its buffered output must
    # still arrive, and it must not leave a pool worker running.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, CVS_LAB_THREADS="2")
    env.pop("PYTHONUNBUFFERED", None)  # a piped stdout is block-buffered
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    doc = {
        "name": "entry",
        "environment": {"name": "roadtree:fig3"},
        "algorithms": [{"label": "cvs", "algorithm": "cvs"}, {"label": "mc", "algorithm": "mc"}],
        "episodes": 2,
        "runs": 2,
    }
    names = ["entry_cvs.csv", "entry_mc.csv", "entry_plot.json"]

    def run(config: dict, out: Path) -> tuple[int, str, str]:
        path = tmp_path / f"{out.name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        cmd = [sys.executable, "-m", "cvslab.cli", "run", str(path), "--out", str(out)]
        # in a session of its own, the run and every worker it forks share one process group
        with subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
        ) as proc:
            stdout, stderr = proc.communicate(timeout=60)
        assert_no_process_in_group(proc.pid)
        return proc.returncode, stdout, stderr

    good = tmp_path / "good"
    code, stdout, stderr = run(doc, good)
    assert code == 0, stderr
    assert stdout.splitlines() == [f"wrote {good / name}" for name in names]
    assert sorted(p.name for p in good.iterdir()) == names
    monkeypatch.setenv("CVS_LAB_THREADS", "1")
    (tmp_path / "inprocess.json").write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(tmp_path / "inprocess.json"), "--out", str(tmp_path / "inprocess")]) == 0
    capsys.readouterr()
    for name in names:
        assert (good / name).read_bytes() == (tmp_path / "inprocess" / name).read_bytes()

    code, stdout, stderr = run({**doc, "episodes": 0}, tmp_path / "bad")
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: ") and "Traceback" not in stderr
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    code, _, stderr = run(doc, blocker)
    assert code == 3 and stderr.startswith("error: ") and "Traceback" not in stderr
