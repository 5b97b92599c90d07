"""What ``import cvslab`` does to its process, checked in a fresh interpreter."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Records OPENBLAS_NUM_THREADS at the moment numpy is first imported, then
# imports cvslab and prints [that value, the value afterwards].
PROBE = """
import json, os, sys

seen = []

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

assert "numpy" not in sys.modules
sys.meta_path.insert(0, Probe())
import cvslab
print(json.dumps([seen[0], os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


@pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")])
def test_import_limits_openblas_to_one_thread_unless_set(preset, want):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert json.loads(out.splitlines()[-1]) == [want, want]
