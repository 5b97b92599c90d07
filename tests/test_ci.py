"""tools/ci.py: how it fails, and that the GitHub workflow runs each of its steps."""

from __future__ import annotations

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CI = ROOT / "tools" / "ci.py"
# read as text: a YAML parser would be a dependency
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")


def load_ci():
    spec = importlib.util.spec_from_file_location("ci", CI)
    ci = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ci)
    return ci


def test_an_interpreter_that_cannot_run_fails_with_a_summary(tmp_path):
    missing = tmp_path / "no-such-python"
    done = subprocess.run(
        [sys.executable, str(CI), "--step", "presets", str(missing), str(missing)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1
    assert "Traceback" not in done.stdout + done.stderr
    # each bad path is counted, not only the first
    assert done.stdout.splitlines()[-1] == f"ci FAILED: {missing}: not probed; {missing}: not probed"


def test_the_workflow_runs_every_step_once_in_order():
    steps = re.findall(r"^\s*run: python tools/ci\.py --strict --step (\S+)\s*$", WORKFLOW, re.MULTILINE)
    assert steps == list(load_ci().STEPS)


def test_each_workflow_step_is_named_by_the_docstring_of_the_step_it_runs():
    ci = load_ci()
    named = re.findall(
        r"^\s*- name: (.*?)\s*\n\s*run: python tools/ci\.py --strict --step (\S+)\s*$", WORKFLOW, re.MULTILINE
    )
    assert [step for _, step in named] == list(ci.STEPS)
    for name, step in named:
        assert name == ci.STEPS[step].__doc__.removesuffix("."), step


def test_the_matrix_runs_every_minor_version_from_the_floor_to_3_13():
    # read as text: Python 3.10 has no tomllib
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = int(re.search(r'^requires-python = ">=3\.(\d+)"$', pyproject, re.MULTILINE).group(1))
    matrix = re.search(r"^\s*python-version: \[(.*)\]$", WORKFLOW, re.MULTILINE).group(1)
    assert re.findall(r'"([^"]*)"', matrix) == [f"3.{minor}" for minor in range(floor, 14)]


@pytest.mark.parametrize("last", ["not json", "", '{"attempted": 3}'])
def test_a_workload_whose_last_line_is_not_a_result_fails_the_step(monkeypatch, capsys, last):
    ci = load_ci()
    monkeypatch.setattr(ci.Interpreter, "probe", classmethod(lambda cls, path: cls(path, "3.x", frozenset(), ROOT)))
    monkeypatch.setattr(ci, "run", lambda cmd, **kwargs: f"a log line\n{last}\n" if last else "")
    assert ci.main(["--step", "workloads"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == f"-- 3.x workloads: failed (fig1-oracle: its last line is not a result: {last!r})"
    assert lines[-1] == "ci FAILED: 3.x: 0 ok, 0 skipped, 1 failed"
