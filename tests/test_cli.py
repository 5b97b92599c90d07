from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from cvslab import cli, harness
from cvslab.cli import _parse_compare, main, preset_names


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

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.max_workers = kwargs.get("max_workers", args[0] if args else None)
            self.closed = False
            made.append(self)

        def shutdown(self, *args, **kwargs):
            self.closed = True
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    return made


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


def test_bad_value_exits_two_and_names_the_key(tmp_path, capsys):
    cfg = write_config(tmp_path / "demo.json", episodes=0)
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert "episodes" in capsys.readouterr().err


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
    cfg = write_config(tmp_path / "demo.json", **overrides)
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert f"{key}:" in capsys.readouterr().err


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


def test_unknown_algorithm_rejected(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "demo.json", algorithms=[{"label": "x", "algorithm": "dyna"}]
    )
    assert main(["run", str(cfg)]) == 2
    assert "algorithms[0].algorithm" in capsys.readouterr().err


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


def test_bad_hyperparameter_exits_two(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "demo.json",
        algorithms=[{"label": "x", "algorithm": "cvs", "alpha": 2.0}],
    )
    assert main(["run", str(cfg)]) == 2
    assert "alpha" in capsys.readouterr().err


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


def plot_spec(csv):
    return json.dumps({"curves": [{"label": "a", "csv": csv}], "output": "x.svg"}).encode()


DIRECTORY = "a directory where the file goes"


@pytest.mark.parametrize(
    "spec, csv_bytes, key",
    [
        (plot_spec(5), None, "curves[0].csv"),
        (plot_spec(""), None, "curves[0].csv"),
        (NOT_UTF8, None, "spec"),
        (plot_spec("c.csv"), b"episode,return_mean,return_smoothed\n0,1,\xe9\n", "curves.csv"),
        (plot_spec("c.csv"), DIRECTORY, "curves.csv"),
        (DIRECTORY, None, "spec"),
        (b"{not json", None, "spec"),
    ],
    ids=[
        "csv-not-a-name",
        "csv-empty",
        "spec-not-utf8",
        "csv-not-utf8",
        "csv-is-a-directory",
        "spec-is-a-directory",
        "spec-bad-json",
    ],
)
def test_plot_bad_input_exits_two_and_names_the_key(tmp_path, capsys, spec, csv_bytes, key):
    for path, content in ((tmp_path / "c.csv", csv_bytes), (tmp_path / "plot.json", spec)):
        if content is DIRECTORY:
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
    assert main(["plot", str(tmp_path / "plot.json")]) == 2
    assert f"{key}: " in capsys.readouterr().err


def test_list_shows_everything(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for needle in ("cvs", "qlambda", "roadtree:fig1", "shooter", "tennis", "fig3"):
        assert needle in out


def test_presets_exist_and_parse():
    names = preset_names()
    assert names == ["fig2", "fig3", "fig4", "fig6", "shooter"]
    from importlib import resources

    for name in names:
        text = (resources.files("cvslab") / "configs" / f"{name}.json").read_text("utf-8")
        parsed_name, jobs, window = _parse_compare(json.loads(text))
        assert parsed_name == name
        assert len(jobs) == 2
        assert window >= 1


def test_preset_runs_from_name(tmp_path):
    # fig6 preset, cut down through the seed flag only; full presets are
    # exercised by the acceptance suite
    assert main(["run", "fig6", "--out", str(tmp_path), "--seed", "3"]) == 0
    assert (tmp_path / "fig6_cvs.csv").exists()
    assert (tmp_path / "fig6_mc.csv").exists()
