"""tools/ci.py: how it fails, and that the GitHub workflow runs each of its steps."""

from __future__ import annotations

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CI = ROOT / "tools" / "ci.py"


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
    # read as text: a YAML parser would be a dependency
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    steps = re.findall(r"^\s*run: python tools/ci\.py --strict --step (\S+)\s*$", workflow, re.MULTILINE)
    spec = importlib.util.spec_from_file_location("ci", CI)
    ci = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ci)
    assert steps == list(ci.STEPS)
