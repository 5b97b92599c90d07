from __future__ import annotations

import copy
import hashlib
import json
import os
import time
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvslab import TreeSpec, fig1_tree, fig3_tree, harness
from cvslab.cli import _parse_compare, main, preset_names
from cvslab.core import ConfigError


def write_config(path, **overrides):
    doc = {
        "name": "demo",
        "environment": {"name": "roadtree:fig3"},
        "algorithms": [
            {"label": "cvs", "algorithm": "cvs"},
            {"label": "mc", "algorithm": "mc"},
        ],
        "episodes": 20,
        "runs": 2,
        "seed": 0,
        "window": 5,
    }
    doc.update(overrides)
    doc = {key: value for key, value in doc.items() if value is not None}  # None leaves a key out
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_run_writes_csv_and_plot_spec(tmp_path, capsys):
    cfg = write_config(tmp_path / "demo.json")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out

    csv_path = tmp_path / "out" / "demo_cvs.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "episode,return_mean,return_smoothed"
    assert len(lines) == 21
    first = lines[1].split(",")
    assert first[0] == "0"
    float(first[1]), float(first[2])

    spec = json.loads((tmp_path / "out" / "demo_plot.json").read_text(encoding="utf-8"))
    assert spec["output"] == "demo.svg"
    assert [c["label"] for c in spec["curves"]] == ["cvs", "mc"]
    assert (tmp_path / "out" / "demo_mc.csv").exists()


def test_run_output_uses_unix_newlines(tmp_path):
    cfg = write_config(tmp_path / "demo.json")
    main(["run", str(cfg), "--out", str(tmp_path / "out")])
    raw = (tmp_path / "out" / "demo_cvs.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "demo.json")
    main(["run", str(cfg), "--out", str(tmp_path / "a")])
    main(["run", str(cfg), "--out", str(tmp_path / "b")])
    for name in ("demo_cvs.csv", "demo_mc.csv", "demo_plot.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path / "demo.json")
    main(["run", str(cfg), "--out", str(tmp_path / "a"), "--seed", "123"])
    main(["run", str(cfg), "--out", str(tmp_path / "b"), "--seed", "123"])
    main(["run", str(cfg), "--out", str(tmp_path / "c")])
    a = (tmp_path / "a" / "demo_cvs.csv").read_bytes()
    assert a == (tmp_path / "b" / "demo_cvs.csv").read_bytes()
    assert a != (tmp_path / "c" / "demo_cvs.csv").read_bytes()


@pytest.fixture
def pools(monkeypatch):
    """Every process pool the CLI or the harness opens, recorded in order."""
    made = []

    class RecordingPool(harness._ForkPool):
        def __init__(self, workers):
            super().__init__(workers)
            self.max_workers = workers
            self.closed = False
            made.append(self)

        def close(self, *args, **kwargs):
            self.closed = True
            return super().close(*args, **kwargs)

    # the harness looks the pool class up where it opens one
    monkeypatch.setattr(harness, "_ForkPool", RecordingPool)
    return made


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


THREE_BLOCKS = [
    {"label": "cvs", "algorithm": "cvs"},
    {"label": "mc", "algorithm": "mc"},
    {"label": "ql", "algorithm": "qlearning"},
]


def test_one_pool_serves_every_block(tmp_path, monkeypatch, pools):
    monkeypatch.setenv("CVS_LAB_THREADS", "2")
    cfg = write_config(tmp_path / "demo.json", algorithms=THREE_BLOCKS, runs=3)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert [(p.max_workers, p.closed) for p in pools] == [(2, True)]
    assert_no_child_left()
    for label in ("cvs", "mc", "ql"):
        assert (tmp_path / "out" / f"demo_{label}.csv").exists()


def test_pool_is_sized_by_the_largest_block(tmp_path, monkeypatch, pools):
    monkeypatch.setenv("CVS_LAB_THREADS", "8")
    cfg = write_config(tmp_path / "demo.json", algorithms=THREE_BLOCKS, runs=2)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert [(p.max_workers, p.closed) for p in pools] == [(2, True)]


@pytest.mark.parametrize("threads, runs", [("1", 3), ("2", 1)])
def test_one_worker_opens_no_pool(tmp_path, monkeypatch, pools, threads, runs):
    monkeypatch.setenv("CVS_LAB_THREADS", threads)
    cfg = write_config(tmp_path / "demo.json", algorithms=THREE_BLOCKS, runs=runs)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert pools == []


def test_failed_csv_write_still_closes_the_pool(tmp_path, monkeypatch, pools):
    monkeypatch.setenv("CVS_LAB_THREADS", "2")
    cfg = write_config(tmp_path / "demo.json", algorithms=THREE_BLOCKS, runs=2)
    out = tmp_path / "out"
    (out / "demo_mc.csv").mkdir(parents=True)  # a directory where a CSV goes
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert [(p.max_workers, p.closed) for p in pools] == [(2, True)]
    assert_no_child_left()


def _config_error_run(cfg, run_index):
    raise ConfigError("environment.name", f"run {run_index} cannot build it")


def test_config_error_in_a_worker_exits_two_and_closes_the_pool(tmp_path, monkeypatch, pools, capsys):
    monkeypatch.setenv("CVS_LAB_THREADS", "2")
    monkeypatch.setattr(harness, "_run_one", _config_error_run)
    cfg = write_config(tmp_path / "demo.json", algorithms=THREE_BLOCKS, runs=2)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "environment.name: run 0 cannot build it" in capsys.readouterr().err
    assert [(p.max_workers, p.closed) for p in pools] == [(2, True)]
    assert_no_child_left()


def test_fig1_csvs_are_byte_identical_at_one_and_two_workers(tmp_path, monkeypatch):
    algorithms = [
        {"label": "cvs", "algorithm": "cvs"},
        {"label": "qlearning", "algorithm": "qlearning"},
        {"label": "nstep_sarsa", "algorithm": "nstep_sarsa", "n": 3},
        {"label": "mc", "algorithm": "mc"},
    ]
    cfg = write_config(
        tmp_path / "fig1.json",
        environment={"name": "roadtree:fig1"},
        algorithms=algorithms,
        episodes=30,
        runs=3,
    )
    for threads in ("1", "2"):
        monkeypatch.setenv("CVS_LAB_THREADS", threads)
        assert main(["run", str(cfg), "--out", str(tmp_path / threads)]) == 0
    names = [f"demo_{a['label']}.csv" for a in algorithms] + ["demo_plot.json"]
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_fig4_cvs_and_qlambda_csv_bytes_are_pinned(tmp_path, monkeypatch):
    # Two 50-step roads grow each Q(lambda) trace to about 25 pairs, so these
    # bytes pin the traced updates of a preset-like run at two workers.
    monkeypatch.setenv("CVS_LAB_THREADS", "2")
    algorithms = [
        {"label": "cvs", "algorithm": "cvs"},
        {"label": "qlambda", "algorithm": "qlambda", "lambda": 0.9},
    ]
    cfg = write_config(
        tmp_path / "fig4.json",
        environment={"name": "roadtree:fig4"},
        algorithms=algorithms,
        episodes=200,
        runs=2,
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    digests = {
        label: hashlib.sha256((tmp_path / "out" / f"demo_{label}.csv").read_bytes()).hexdigest()
        for label in ("cvs", "qlambda")
    }
    assert digests == {
        "cvs": "3eecc1e1884b5e09c133db6f7c6f1f6d85b376488808f2582e6b53b67ec64dad",
        "qlambda": "e4798112674d6fce3dd2f4fc484f3a106ca93ab07b0156af4823515f48e42f0d",
    }


# At gamma 0.9 a start of 0.5 decays where a run has been, so greedy choices
# move to untried actions.  A start of -0.0 compares equal to 0.0 everywhere.
Q_INIT_PINS = {
    ("roadtree:fig1", 0.5): {
        "cvs": "bd9c18b60af1dd05f7e5c50216ec515b13791e7b9b1a7c505add8aa2bdcb49c7",
        "qlambda": "f8d176386bc18c2c2f8f12b66e7118153185a86e742908e2e40451d390a308b6",
    },
    ("roadtree:fig1", -0.0): {
        "cvs": "d71d691b8889fea1edb57eddc3481ee678393ab5057fc01ef2627b50d173ad3f",
        "qlambda": "c0bb0e7d463e8353b518e7d2a045e7903ecd8ad7e4ef6c4c6e9e9b220a132b13",
    },
    ("tennis", 0.5): {
        "cvs": "26f61209b3a8a78f6cfbbf9e66d7a5d707ba8aef54cb77258267d1063d88e044",
        "qlambda": "26f61209b3a8a78f6cfbbf9e66d7a5d707ba8aef54cb77258267d1063d88e044",
    },
    ("tennis", -0.0): {
        "cvs": "5ea155e33705f1864829d230f9a49efe0ebf61635cc627f90dc5e82184b00cfb",
        "qlambda": "44d9c8ce9037fbd1fb500dd76e24d376b1475f85bb906489d351cdd96da8a1fb",
    },
}


@pytest.mark.parametrize(("environment", "q_init"), list(Q_INIT_PINS))
def test_q_init_csv_bytes_are_pinned(tmp_path, monkeypatch, environment, q_init):
    monkeypatch.setenv("CVS_LAB_THREADS", "2")
    algorithms = [
        {"label": "cvs", "algorithm": "cvs", "gamma": 0.9},
        {"label": "qlambda", "algorithm": "qlambda", "lambda": 0.9, "gamma": 0.9},
    ]
    cfg = write_config(
        tmp_path / "start.json",
        environment={"name": environment, **({"max_steps": 200} if environment == "tennis" else {})},
        algorithms=algorithms,
        episodes=20,
        runs=2,
        q_init=q_init,
    )
    assert repr(json.loads(cfg.read_text(encoding="utf-8"))["q_init"]) == repr(q_init)  # the sign of -0.0 too
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    digests = {
        label: hashlib.sha256((tmp_path / "out" / f"demo_{label}.csv").read_bytes()).hexdigest()
        for label in ("cvs", "qlambda")
    }
    assert digests == Q_INIT_PINS[environment, q_init]


def test_negative_seed_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path / "demo.json")
    negative = write_config(tmp_path / "negative.json", seed=-5)
    for argv in ([str(cfg), "--seed", "-1"], [str(negative)]):
        assert main(["run", *argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "seed: must be a non-negative integer" in err
    assert not (tmp_path / "out").exists()


def test_missing_config_exits_two(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    err = capsys.readouterr().err
    assert "no such file or preset" in err


NOT_UTF8 = '{"name": "caf\u00e9"}'.encode("latin-1")


def test_invalid_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # JSON text must also be UTF-8
    for content, message in ((b"{not json", "invalid JSON"), (NOT_UTF8, "is not UTF-8 text")):
        bad.write_bytes(content)
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "config: " in err and message in err


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"q_init": "abc"}, "q_init"),
        ({"q_init": True}, "q_init"),
        ({"episodes": True}, "episodes"),
        ({"runs": True}, "runs"),
        ({"window": True}, "window"),
        ({"seed": True}, "seed"),
        ({"algorithms": [{"label": "x", "algorithm": "nstep_sarsa", "n": 2.5}]}, "algorithms[0]"),
        ({"algorithms": [{"label": "x", "algorithm": "nstep_sarsa", "n": True}]}, "algorithms[0]"),
        ({"algorithms": [{"label": "x", "algorithm": "cvs", "alpha": True, "epsilon": False}]}, "algorithms[0]"),
        ({"algorithms": [{"label": "x", "algorithm": "qlambda", "lambda": True}]}, "algorithms[0]"),
        ({"algorithms": [{"label": "x", "algorithm": "mc", "gamma": "0.9"}]}, "algorithms[0]"),
    ],
)
def test_bad_typed_value_exits_two_and_names_the_key(tmp_path, capsys, overrides, key):
    # A bad hyperparameter is named by its field within the block: the first
    # one of the entry that is checked, e.g. algorithms[0].alpha.
    fields = [k for k in overrides.get("algorithms", [{}])[0] if k not in ("label", "algorithm")]
    if fields:
        key = f"{key}.{fields[0]}"
    cfg = write_config(tmp_path / "demo.json", **overrides)
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert f"{key}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, line",
    [
        ({"episodes": 0}, "error: episodes: must be a positive integer, got 0"),
        (
            {"environment": {"name": "shooter", "max_steps": 0}},
            "error: environment.max_steps: must be a positive integer, got 0",
        ),
        ({"environment": None}, "error: environment: must be an object with a 'name' entry"),
        (
            {"algorithms": [{"label": "cvs", "algorithm": "cvs"}, {"label": "x", "algorithm": "dyna"}]},
            "error: algorithms[1].algorithm: must be one of cvs, qlearning, nstep_sarsa, qlambda, mc, got 'dyna'",
        ),
        (
            {"algorithms": [{"label": "x", "algorithm": "dyna"}]},
            "error: algorithms[0].algorithm: must be one of cvs, qlearning, nstep_sarsa, qlambda, mc, got 'dyna'",
        ),
        (
            {"algorithms": [{"label": "x", "algorithm": "qlambda", "lambda": 2}]},
            "error: algorithms[0].lambda: must be in [0, 1], got 2",
        ),
        (
            {"algorithms": [{"label": "x", "algorithm": "cvs", "alpha": 2.0}]},
            "error: algorithms[0].alpha: must be in (0, 1], got 2.0",
        ),
        (  # the block's hyper-parameters are checked before its algorithm
            {"algorithms": [{"label": "x", "algorithm": "dyna", "lambda": 2}]},
            "error: algorithms[0].lambda: must be in [0, 1], got 2",
        ),
        # a trailing newline would end up in the CSV file names
        ({"name": "nl\n"}, "error: name: required; letters, digits, '_', '-', '.' only"),
        (
            {"algorithms": [{"label": "cvs\n", "algorithm": "cvs"}]},
            "error: algorithms[0].label: required; letters, digits, '_', '-', '.' only",
        ),
        ({"algorithms": None}, "error: algorithms: required; must be a non-empty array"),
        ({"algorithms": []}, "error: algorithms: required; must be a non-empty array"),
        ({"algorithms": ["cvs"]}, "error: algorithms[0]: must be an object"),
        (
            {"algorithms": [{"label": "x", "algorithm": "cvs", "beta": 0.5}]},
            "error: algorithms[0].beta: unknown algorithm key",
        ),
        (  # refused before a node is built: 150 M states would not fit in memory
            {"environment": {"name": "roadtree:fig6", "distance": 10**7}},
            "error: environment.distance: must keep the Q-table within 1048576 values,"
            " got 10000000 (149999989 states x 11 actions)",
        ),
        (
            {"environment": {"name": "roadtree", "tree": {"root": 0, "nodes": [{"reward": 0.0}], "edges": []}}},
            "error: environment.tree.nodes[0].id: missing",
        ),
        (
            {"environment": {"name": "roadtree", "tree": {**fig3_tree().to_dict(), "edges": 5}}},
            "error: environment.tree.edges: must be a list of objects",
        ),
        (  # named as the table bound names the same field
            {
                "environment": {
                    "name": "roadtree",
                    "tree": {**fig3_tree().to_dict(), "edges": [{"parent": 0, "child": 1, "distance": 2.9}]},
                }
            },
            "error: environment.tree.edges[0].distance: must be an integer, got 2.9",
        ),
    ],
)
def test_config_error_line_names_its_key(tmp_path, capsys, overrides, line):
    # A block's own keys are named within the block, shared and environment
    # keys by their own names.
    cfg = write_config(tmp_path / "demo.json", **overrides)
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == line + "\n"


def test_unknown_top_level_key_exits_two(tmp_path, capsys):
    # cvs_order was a key once; the cvs update order is no longer settable
    for key, value in (("flavor", "spicy"), ("cvs_order", "accumulate")):
        cfg = write_config(tmp_path / "demo.json", **{key: value})
        assert main(["run", str(cfg)]) == 2
        assert f"{key}: unknown configuration key" in capsys.readouterr().err


def test_duplicate_labels_rejected(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "demo.json",
        algorithms=[
            {"label": "x", "algorithm": "cvs"},
            {"label": "x", "algorithm": "mc"},
        ],
    )
    assert main(["run", str(cfg)]) == 2
    assert "duplicate label" in capsys.readouterr().err


def test_algorithm_hyperparameters_flow_through(tmp_path):
    cfg = write_config(
        tmp_path / "demo.json",
        algorithms=[{"label": "ql", "algorithm": "qlambda", "lambda": 0.5, "alpha": 0.2}],
    )
    doc = json.loads(cfg.read_text(encoding="utf-8"))
    _name, jobs, _window = _parse_compare(doc)
    assert jobs[0][1].params.lam == 0.5
    assert jobs[0][1].params.alpha == 0.2
    assert jobs[0][1].params.epsilon == 0.1


def test_out_path_collision_exits_three(tmp_path, capsys):
    cfg = write_config(tmp_path / "demo.json")
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory", encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(blocker)]) == 3


def test_plot_renders_svg(tmp_path):
    cfg = write_config(tmp_path / "demo.json")
    main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert main(["plot", str(tmp_path / "out" / "demo_plot.json")]) == 0
    svg = (tmp_path / "out" / "demo.svg").read_text(encoding="utf-8")
    assert svg.count("<polyline") == 2
    assert "href" not in svg


@pytest.mark.parametrize(
    "labels, digest",
    [
        (
            {"title": "fig <1> & co", "x_label": "step", "y_label": 1.5},
            "15b047ace7f2b55419a77888cd478b59c72c94464ea70f736d1d6104483b5afd",
        ),
        ({}, "96c178ef7bff6820b0539cf58eff39b03a9b9d9189fe511f3d003704ff245db8"),
    ],
    ids=["three-labels", "no-labels"],
)
def test_plot_svg_bytes_are_pinned(tmp_path, labels, digest):
    # A label that is not a string is written as its str(); a missing one
    # takes render_line_chart's default.
    for name, ys in (("a.csv", ["0", "0.5", "2", "1.25"]), ("b.csv", ["-1", "3", "2.5"])):
        rows = "".join(f"{i},0,{y}\n" for i, y in enumerate(ys))
        (tmp_path / name).write_text("episode,return_mean,return_smoothed\n" + rows, encoding="utf-8")
    curves = [{"label": "cvs", "csv": "a.csv"}, {"label": "mc", "csv": "b.csv"}]
    (tmp_path / "plot.json").write_text(json.dumps({**labels, "curves": curves, "output": "x.svg"}))
    assert main(["plot", str(tmp_path / "plot.json")]) == 0
    assert hashlib.sha256((tmp_path / "x.svg").read_bytes()).hexdigest() == digest


def test_plot_missing_csv_exits_two(tmp_path, capsys):
    spec = tmp_path / "plot.json"
    spec.write_text(
        json.dumps({"curves": [{"label": "a", "csv": "gone.csv"}], "output": "x.svg"}),
        encoding="utf-8",
    )
    assert main(["plot", str(spec)]) == 2
    assert "gone.csv" in capsys.readouterr().err


def test_plot_empty_csv_exits_two(tmp_path, capsys):
    (tmp_path / "empty.csv").write_text("", encoding="utf-8")
    spec = tmp_path / "plot.json"
    spec.write_text(
        json.dumps({"curves": [{"label": "a", "csv": "empty.csv"}], "output": "x.svg"}),
        encoding="utf-8",
    )
    assert main(["plot", str(spec)]) == 2


def test_plot_header_only_csv_exits_two(tmp_path):
    (tmp_path / "hdr.csv").write_text("episode,return_mean,return_smoothed\n", encoding="utf-8")
    spec = tmp_path / "plot.json"
    spec.write_text(
        json.dumps({"curves": [{"label": "a", "csv": "hdr.csv"}], "output": "x.svg"}),
        encoding="utf-8",
    )
    assert main(["plot", str(spec)]) == 2


def test_plot_csv_without_smoothed_column_exits_two(tmp_path, capsys):
    (tmp_path / "odd.csv").write_text("episode,value\n0,1\n", encoding="utf-8")
    spec = tmp_path / "plot.json"
    spec.write_text(
        json.dumps({"curves": [{"label": "a", "csv": "odd.csv"}], "output": "x.svg"}),
        encoding="utf-8",
    )
    assert main(["plot", str(spec)]) == 2
    assert "return_smoothed" in capsys.readouterr().err


def test_plot_missing_spec_exits_two(tmp_path):
    assert main(["plot", str(tmp_path / "none.json")]) == 2


@pytest.mark.parametrize("key", ["config", "spec", "curves.csv"])
def test_unreadable_input_exits_two_and_names_the_key(tmp_path, monkeypatch, capsys, key):
    cfg = write_config(tmp_path / "demo.json")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    denied = {"config": ".json", "spec": "_plot.json", "curves.csv": ".csv"}[key]
    read_text = Path.read_text

    def refuse(path, *args, **kwargs):
        if path.name.endswith(denied):
            raise PermissionError(13, "Permission denied", str(path))
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", refuse)
    if key == "config":
        assert main(["run", str(cfg), "--out", str(tmp_path / "again")]) == 2
    else:
        assert main(["plot", str(tmp_path / "out" / "demo_plot.json")]) == 2
    assert f"{key}: cannot read" in capsys.readouterr().err


def plot_spec(csv):
    return json.dumps({"curves": [{"label": "a", "csv": csv}], "output": "x.svg"}).encode()


DIRECTORY = "a directory where the file goes"


CSV_HEADER = b"episode,return_mean,return_smoothed\n"


@pytest.mark.parametrize(
    "spec, csv_bytes, line",
    [
        (plot_spec(5), None, "curves[0].csv: must be a file name"),
        (plot_spec(""), None, "curves[0].csv: must be a file name"),
        (
            NOT_UTF8,
            None,
            "spec: {dir}/plot.json is not UTF-8 text: "
            "'utf-8' codec can't decode byte 0xe9 in position 13: invalid continuation byte",
        ),
        (
            plot_spec("c.csv"),
            CSV_HEADER + b"0,1,\xe9\n",
            "curves.csv: {dir}/c.csv is not UTF-8 text: "
            "'utf-8' codec can't decode byte 0xe9 in position 40: invalid continuation byte",
        ),
        (plot_spec("c.csv"), DIRECTORY, "curves.csv: {dir}/c.csv is a directory"),
        (DIRECTORY, None, "spec: {dir}/plot.json is a directory"),
        (
            b"{not json",
            None,
            "spec: invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
        ),
        (b"[1]", None, "spec: top level must be a JSON object"),
        (json.dumps({"output": "x.svg"}).encode(), None, "curves: required; must be a non-empty array"),
        (
            json.dumps({"curves": [{"label": "a", "csv": "c.csv"}]}).encode(),
            None,
            "output: required; must be a file name",
        ),
        (
            json.dumps({"curves": [{"csv": "c.csv"}], "output": "x.svg"}).encode(),
            None,
            "curves[0]: each curve needs 'label' and 'csv'",
        ),
        (plot_spec("c.csv"), CSV_HEADER + b"0,1,abc\n", "curves.csv: {dir}/c.csv:2: bad row '0,1,abc'"),
        (plot_spec("c.csv"), CSV_HEADER + b"0,1\n", "curves.csv: {dir}/c.csv:2: bad row '0,1'"),
        (plot_spec("c.csv"), CSV_HEADER + b"0,0,1\n\n1,0,abc\n", "curves.csv: {dir}/c.csv:4: bad row '1,0,abc'"),
    ],
    ids=[
        "csv-not-a-name",
        "csv-empty",
        "spec-not-utf8",
        "csv-not-utf8",
        "csv-is-a-directory",
        "spec-is-a-directory",
        "spec-bad-json",
        "spec-an-array",
        "spec-without-curves",
        "spec-without-output",
        "curve-without-label",
        "csv-row-not-a-number",
        "csv-row-too-short",
        "csv-bad-row-after-a-blank-one",
    ],
)
def test_plot_bad_input_exits_two_and_names_the_key(tmp_path, capsys, spec, csv_bytes, line):
    for path, content in ((tmp_path / "c.csv", csv_bytes), (tmp_path / "plot.json", spec)):
        if content is DIRECTORY:
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
    assert main(["plot", str(tmp_path / "plot.json")]) == 2
    assert capsys.readouterr().err == f"error: {line.format(dir=tmp_path)}\n"


@pytest.mark.parametrize(
    "smoothed, line",
    [(["1", "inf"], 3), (["1e308", "-1e308"], 2), (["0", "nan", "1"], 3)],
    ids=["inf", "beyond-the-chart-range", "nan"],
)
def test_plot_unplottable_value_exits_two_and_names_the_line(tmp_path, capsys, smoothed, line):
    rows = [f"{i},0,{v}\n" for i, v in enumerate(smoothed)]
    csv = tmp_path / "c.csv"
    csv.write_text("episode,return_mean,return_smoothed\n" + "".join(rows), encoding="utf-8")
    (tmp_path / "plot.json").write_bytes(plot_spec("c.csv"))
    assert main(["plot", str(tmp_path / "plot.json")]) == 2
    assert f"curves.csv: {csv}:{line}: " in capsys.readouterr().err


def test_plot_of_a_range_that_underflows_writes_an_svg(tmp_path):
    rows = "episode,return_mean,return_smoothed\n0,0,0\n1,0,5e-324\n"
    (tmp_path / "c.csv").write_text(rows, encoding="utf-8")
    (tmp_path / "plot.json").write_bytes(plot_spec("c.csv"))
    assert main(["plot", str(tmp_path / "plot.json")]) == 0
    assert (tmp_path / "x.svg").read_text(encoding="utf-8").count("<polyline") == 1


def test_plot_skips_a_blank_csv_row(tmp_path):
    svgs = []
    for rows in (b"0,0,1\n1,0,2\n2,0,0.5\n", b"0,0,1\n\n1,0,2\n2,0,0.5\n"):
        (tmp_path / "c.csv").write_bytes(CSV_HEADER + rows)
        (tmp_path / "plot.json").write_bytes(plot_spec("c.csv"))
        assert main(["plot", str(tmp_path / "plot.json")]) == 0
        svgs.append((tmp_path / "x.svg").read_bytes())
    assert svgs[0] == svgs[1]


def test_plot_of_a_run_that_overflowed_exits_two(tmp_path, capsys):
    # Two rewards of 1e308 sum to inf, which the run writes into its CSV.
    nodes = [
        {"id": 0, "reward": 0, "kind": "junction"},
        {"id": 1, "reward": 1e308, "kind": "junction"},
        {"id": 2, "reward": 1e308, "kind": "terminal"},
    ]
    edges = [{"parent": 0, "child": 1, "distance": 1}, {"parent": 1, "child": 2, "distance": 1}]
    env = {"name": "roadtree", "tree": {"root": 0, "nodes": nodes, "edges": edges}}
    cfg = write_config(tmp_path / "demo.json", environment=env, episodes=5, runs=1, window=3)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert main(["plot", str(tmp_path / "out" / "demo_plot.json")]) == 2
    assert f"curves.csv: {tmp_path / 'out' / 'demo_cvs.csv'}:2: " in capsys.readouterr().err


EVERY_ALGORITHM = [
    {"label": "cvs", "algorithm": "cvs"},
    {"label": "qlearning", "algorithm": "qlearning"},
    {"label": "nstep_sarsa", "algorithm": "nstep_sarsa", "n": 3},
    {"label": "qlambda", "algorithm": "qlambda", "lambda": 0.9},
    {"label": "mc", "algorithm": "mc"},
]

# The fig1 tree as a document in the layout that states each node's kind.
FIG1_DOC_WITH_KINDS = {
    "root": 0,
    "nodes": [
        {"id": 0, "reward": 0.0, "kind": "junction"},
        {"id": 1, "reward": 0.0, "kind": "junction"},
        {"id": 2, "reward": 1.0, "kind": "junction"},
        {"id": 3, "reward": 0.0, "kind": "terminal"},
        {"id": 4, "reward": 7.0, "kind": "terminal"},
        {"id": 5, "reward": 1.0, "kind": "terminal"},
        {"id": 6, "reward": 1.0, "kind": "terminal"},
    ],
    "edges": [
        {"parent": 0, "child": 1, "distance": 20},
        {"parent": 0, "child": 2, "distance": 10},
        {"parent": 1, "child": 3, "distance": 10},
        {"parent": 1, "child": 4, "distance": 15},
        {"parent": 2, "child": 5, "distance": 15},
        {"parent": 2, "child": 6, "distance": 15},
    ],
}


def run_csvs(tmp_path, name, environment):
    """The CSV bytes, by label, of a short run of every algorithm on ``environment``."""
    cfg = write_config(tmp_path / f"{name}.json", environment=environment, algorithms=EVERY_ALGORITHM, episodes=30)
    assert main(["run", str(cfg), "--out", str(tmp_path / name)]) == 0
    return {a["label"]: (tmp_path / name / f"demo_{a['label']}.csv").read_bytes() for a in EVERY_ALGORITHM}


def test_a_tree_document_with_kinds_runs_as_its_builtin_tree(tmp_path, monkeypatch):
    monkeypatch.setenv("CVS_LAB_THREADS", "1")
    assert TreeSpec.from_dict(copy.deepcopy(FIG1_DOC_WITH_KINDS)) == fig1_tree()
    doc = run_csvs(tmp_path, "doc", {"name": "roadtree", "tree": FIG1_DOC_WITH_KINDS})
    assert doc == run_csvs(tmp_path, "builtin", {"name": "roadtree:fig1"})


def test_integer_rewards_run_as_their_float_twins(tmp_path, monkeypatch):
    monkeypatch.setenv("CVS_LAB_THREADS", "1")
    ints = fig3_tree().to_dict()
    for node, reward in zip(ints["nodes"], (0, 1, 2), strict=True):
        node["reward"] = reward
    floats = fig3_tree().to_dict()
    assert [n["reward"] for n in floats["nodes"]] == [0.0, 1.0, 2.0]
    got = run_csvs(tmp_path, "ints", {"name": "roadtree", "tree": ints})
    assert got == run_csvs(tmp_path, "floats", {"name": "roadtree", "tree": floats})


# Rewards whose sum over ten runs is not exact in binary, so the order in
# which the runs are added shows in the mean.
INEXACT_SUM_TREE = {
    "root": 0,
    "nodes": [{"id": i, "reward": r} for i, r in enumerate((0.0, 0.1, 0.2, 0.3, 0.7, 0.6))],
    "edges": [
        {"parent": p, "child": c, "distance": d}
        for p, c, d in ((0, 1, 2), (0, 2, 3), (1, 3, 1), (1, 4, 2), (2, 5, 1))
    ],
}


def test_a_runs_first_csv_rows_do_not_depend_on_its_episode_count(tmp_path, monkeypatch):
    monkeypatch.setenv("CVS_LAB_THREADS", "1")

    def rows(episodes):
        cfg = write_config(
            tmp_path / f"e{episodes}.json",
            environment={"name": "roadtree", "tree": INEXACT_SUM_TREE},
            algorithms=[{"label": "cvs", "algorithm": "cvs", "epsilon": 0.5}],
            episodes=episodes,
            runs=10,
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / f"e{episodes}")]) == 0
        return (tmp_path / f"e{episodes}" / "demo_cvs.csv").read_text(encoding="utf-8").splitlines()

    full = rows(5)
    for k in (1, 2, 3):
        assert rows(k) == full[: k + 1]


LIST_OUTPUT = """\
environments:
  roadtree:fig1
  roadtree:fig3
  roadtree:fig4
  roadtree:fig6
  roadtree
  shooter
  tennis
algorithms:
  cvs
  qlearning
  nstep_sarsa
  qlambda
  mc
presets:
  fig2
  fig3
  fig4
  fig6
  shooter
"""


def test_list_shows_everything(capsys):
    assert main(["list"]) == 0
    assert capsys.readouterr().out == LIST_OUTPUT


PRESETS = {
    name: json.loads((resources.files("cvslab") / "configs" / f"{name}.json").read_text("utf-8"))
    for name in preset_names()
}


def test_presets_exist_and_parse():
    assert list(PRESETS) == ["fig2", "fig3", "fig4", "fig6", "shooter"]
    for name, doc in PRESETS.items():
        parsed_name, jobs, window = _parse_compare(doc)
        assert parsed_name == name
        assert len(jobs) == 2
        assert window >= 1


def test_parsing_a_tree_document_builds_no_road_tree_env(monkeypatch):
    built = []

    class CountingEnv(harness.RoadTreeEnv):
        def __init__(self, tree):
            built.append(tree)
            super().__init__(tree)

    monkeypatch.setattr(harness, "RoadTreeEnv", CountingEnv)
    monkeypatch.setenv("CVS_LAB_THREADS", "1")  # runs in this process, where the count is
    doc = {"name": "demo", "environment": {"name": "roadtree:fig1"}, "algorithms": THREE_BLOCKS, "runs": 2}
    _, jobs, _ = _parse_compare(doc)
    assert len(jobs) == 3 and built == []
    harness.run_experiment(jobs[0][1])
    assert len(built) == 2


def test_preset_runs_from_name(tmp_path):
    # fig6 preset, cut down through the seed flag only; full presets are
    # exercised by the acceptance suite
    assert main(["run", "fig6", "--out", str(tmp_path), "--seed", "3"]) == 0
    assert (tmp_path / "fig6_cvs.csv").exists()
    assert (tmp_path / "fig6_mc.csv").exists()


def test_a_directory_named_like_a_preset_runs_the_preset(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # the first run makes the directory that the second one is named like
    for _ in range(2):
        assert main(["run", "fig3", "--out", "fig3", "--seed", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "wrote fig3/fig3_plot.json"
    (tmp_path / "plain").mkdir()
    assert main(["run", "plain"]) == 2
    assert capsys.readouterr().err == "error: config: plain is a directory\n"
    write_config(tmp_path / "fig6", episodes=2)  # a file still wins over the preset
    assert main(["run", "fig6", "--out", "own"]) == 0
    assert sorted(p.name for p in (tmp_path / "own").iterdir()) == ["demo_cvs.csv", "demo_mc.csv", "demo_plot.json"]


# Every environment's keys: the presets use name, k and distance.
ENVIRONMENT_KEYS = ("k", "distance", "max_steps", "p_optimal", "obstacle_rows", "tree", "name")
SIZES = st.integers(0, 12).map(lambda e: 10**e)  # every magnitude up to 10**12
# Any JSON value: NaN and infinities (which json.loads accepts) included, the
# environment names and keys among the strings.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | SIZES
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(harness.ENVIRONMENT_NAMES + ENVIRONMENT_KEYS),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def key_paths(doc, prefix=()):
    """The path of every entry below ``doc``, containers and their members."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield (*prefix, key)
        yield from key_paths(value, (*prefix, key))


@st.composite
def mutations(draw, preset):
    """``preset`` with one or two mutations, each at any key or at a key of
    the environment block, known or not, and each as likely to be a size as
    any other JSON value."""
    doc = copy.deepcopy(preset)
    for _ in range(draw(st.integers(1, 2))):
        env = doc.get("environment")
        if isinstance(env, dict) and draw(st.booleans()):
            target = env
            key = draw(st.sampled_from(ENVIRONMENT_KEYS) | st.text(max_size=6))
        else:
            *parent, key = draw(st.sampled_from(list(key_paths(doc))))
            target = doc
            for step in parent:
                target = target[step]
        target[key] = draw(SIZES | JSON_VALUES)
    return doc


@pytest.mark.parametrize("preset", sorted(PRESETS))
@settings(max_examples=150)
@given(data=st.data())
def test_a_mutated_preset_parses_or_names_a_key_quickly(preset, data):
    doc = data.draw(mutations(PRESETS[preset]))
    # Parse only: each block builds its environment once and runs nothing.
    start = time.perf_counter()
    try:
        _parse_compare(doc)
    except ConfigError:
        pass
    assert time.perf_counter() - start < 3.0
