"""Self-tests of the benchmark's measuring code.

    python3 -m pytest -q benchmarks/selftest.py

The file name keeps these out of the repository's default test collection:
they test the benchmark, not cvslab.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter

import numpy as np
import pytest

from layers import PER_LAYER, mapping
from run import GOLDENS, ROOT, WORK, csv_hashes, run_inprocess, traced, write_config
from tracer import Tracer
from workloads import WORKLOADS, csv_names


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_csvs_hash_identical_to_untraced(workload):
    config = write_config(WORK / "selftest" / "config.json", workload, 5, episodes=4, runs=2)
    hashes = {}
    for label, tracer in (("plain", contextlib.nullcontext()), ("traced", Tracer())):
        out = WORK / "selftest" / label
        assert run_inprocess(config, out, 1, tracer) == 0
        hashes[label] = csv_hashes(out, csv_names(workload))
    assert None not in hashes["plain"].values()
    assert hashes["traced"] == hashes["plain"]


def _cvs_lookaheads_per_episode(env, h, episodes, seed=0):
    """Run ``cvs_episode`` directly under the tracer; per-episode (steps, lookahead histogram)."""
    import cvslab.harness
    from cvslab import AgentParams, QTable

    q = QTable.for_env(env)
    rng = np.random.default_rng(seed)
    out = []
    with Tracer() as tracer:
        for _ in range(episodes):
            before = Counter(tracer.lookaheads)
            log = cvslab.harness.cvs_episode(env, q, h, AgentParams(), rng)
            out.append((log.steps, tracer.lookaheads - before))
    return out


def test_lookahead_is_the_branch_length_on_fig3():
    from cvslab import RoadTreeEnv, fig3_tree

    env = RoadTreeEnv(fig3_tree())
    lengths = set()
    for steps, hist in _cvs_lookaheads_per_episode(env, env.criticality(), 200):
        # Only the root is critical, so every update is an end-of-episode
        # flush and the root pair's lookahead is the whole branch.
        assert max(hist) == steps
        assert hist == Counter(range(1, steps + 1))
        lengths.add(steps)
    assert lengths == {10, 50}


def test_lookahead_is_three_for_constant_third():
    from cvslab import RoadTreeEnv, fig1_tree

    env = RoadTreeEnv(fig1_tree())
    for steps, hist in _cvs_lookaheads_per_episode(env, lambda s: 1 / 3, 50):
        assert hist == Counter({3: steps - 2, 2: 1, 1: 1})


def test_benchmark_json_lists_the_tracer_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert listed == PER_LAYER
    assert set(mapping()) == {name for name, _, _ in PER_LAYER}


def test_traced_run_reports_every_layer_on_tennis():
    metrics, counts = traced("tennis-table", 3, episodes=2, runs=2)
    assert counts["failed"] == 0
    assert list(metrics) == [name for name, _, _ in PER_LAYER]
    assert metrics["tennis.step.calls"] == metrics["env_steps"] > 0
    assert metrics["harness.oracle_check.calls"] == 0
    assert metrics["core.qtable_alloc.bytes"] > 40e6


def test_goldens_cover_every_workload_at_its_default_seed():
    goldens = json.loads(GOLDENS.read_text())
    for name, spec in WORKLOADS.items():
        assert goldens[name]["seed"] == spec["default_seed"]
        assert sorted(goldens[name]["csv_sha256"]) == sorted(csv_names(name))
        assert goldens[name]["env_steps"] > 0
