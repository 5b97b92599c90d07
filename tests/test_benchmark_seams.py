"""The benchmark's tracer (``benchmarks/tracer.py``) observes cvslab from
outside, by wrapping the names callers look up at call time.  These tests
keep those names where it looks for them, so that a refactor which hides a
layer from the tracer fails here and not at benchmark time."""

from __future__ import annotations

import importlib
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
        run_experiment(cfg, max_workers=1)
    span = f"agents.{algorithm}"
    assert t.totals(span)[0] == 3
    assert t.agent_steps[span] > 0
