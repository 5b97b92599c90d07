"""Command-line front end.

``cvslab run <config>`` executes a comparison described by a JSON document
(a file path or the name of a bundled preset) and writes one CSV per
algorithm plus a plot spec.  It forks one set of worker processes per
comparison, sized by the largest algorithm block and capped by
``CVS_LAB_THREADS``, and every block's runs go to them; at one worker, or
where ``os.fork`` does not exist, the runs go in this process, with the same
results.  It reaps every worker before it returns, however the run ends.
Shared settings the document leaves out take ``ExperimentConfig``'s
defaults; ``window`` (default 10) only smooths the CSV.
``cvslab plot <spec>`` turns that spec into an SVG.  ``cvslab list`` shows
what is available.

Exit codes: 0 on success, 2 for configuration problems and unreadable inputs
(the message names the offending entry), 3 when an output file cannot be
written.

A process started as ``cvslab`` or ``python -m cvslab.cli`` ends with that
code once ``main`` has returned and stdout and stderr are flushed, without
the interpreter's teardown, which would only free memory the process is about
to give back anyway.  So ``atexit`` handlers registered before ``main``
returned, such as a coverage tool's for CLI subprocesses, do not run, while
a tool that wraps the run, as ``python -m cProfile -m cvslab.cli`` does,
still writes its report.  An uncaught exception, or a flush that fails,
takes Python's normal exit.  Called in-process, ``main()`` returns its code.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import re
import sys
from importlib import resources
from pathlib import Path
from typing import NoReturn

from .agents import ALGORITHM_NAMES
from .core import AgentParams, _positive_int, _setting
from .harness import (
    ENVIRONMENT_NAMES,
    ConfigError,
    ExperimentConfig,
    _open_pool,
    average_over_runs,
    run_experiment,
    running_average,
)

_LABEL_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")
# Passed to ExperimentConfig only when present: their defaults live there.
_SHARED_KEYS = ("episodes", "runs", "seed", "q_init")
_TOP_KEYS = frozenset({"name", "environment", "algorithms", "window", *_SHARED_KEYS})
_PARAM_KEYS = (("alpha", "alpha"), ("epsilon", "epsilon"), ("gamma", "gamma"), ("lambda", "lam"), ("n", "n"))
_ALGO_KEYS = frozenset({"label", "algorithm", *(key for key, _ in _PARAM_KEYS)})
# The largest |value| a curve may plot: any two span a finite padded y-range.
_PLOT_LIMIT = sys.float_info.max / 4


def preset_names() -> list[str]:
    root = resources.files("cvslab") / "configs"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def _read_text(path: Path, key: str) -> str:
    """The UTF-8 text of an input; any failure to read it is a ``ConfigError``
    naming ``key``."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(key, f"no such file: {path}") from None
    except IsADirectoryError:
        raise ConfigError(key, f"{path} is a directory") from None
    except OSError as exc:
        raise ConfigError(key, f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(key, f"{path} is not UTF-8 text: {exc}") from None


def _load_config_text(arg: str) -> str:
    """A file named ``arg`` wins over the preset of that name; a directory
    does not, so ``cvslab run fig3`` still runs where ``--out fig3`` wrote."""
    path = Path(arg)
    preset = _LABEL_RE.fullmatch(arg) and arg in preset_names()
    if path.exists() and not (preset and path.is_dir()):
        return _read_text(path, "config")
    if preset:
        return _read_text(resources.files("cvslab") / "configs" / f"{arg}.json", "config")
    raise ConfigError("config", f"no such file or preset: {arg}")


def _parse_json(text: str, key: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(key, f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(key, "top level must be a JSON object")
    return doc


def _parse_compare(doc: dict) -> tuple[str, list[tuple[str, ExperimentConfig]], int]:
    """Returns (name, [(label, per-algorithm config)], smoothing window)."""
    for key in doc:
        if key not in _TOP_KEYS:
            raise ConfigError(key, "unknown configuration key")
    name = doc.get("name")
    if not isinstance(name, str) or not _LABEL_RE.fullmatch(name):
        raise ConfigError("name", "required; letters, digits, '_', '-', '.' only")
    algorithms = doc.get("algorithms")
    if not isinstance(algorithms, list) or not algorithms:
        raise ConfigError("algorithms", "required; must be a non-empty array")

    window = _setting("window", doc.get("window", 10), _positive_int)
    common = {key: doc[key] for key in _SHARED_KEYS if key in doc}

    jobs: list[tuple[str, ExperimentConfig]] = []
    seen: set[str] = set()
    for i, entry in enumerate(algorithms):
        where = f"algorithms[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(where, "must be an object")
        for key in entry:
            if key not in _ALGO_KEYS:
                raise ConfigError(f"{where}.{key}", "unknown algorithm key")
        label = entry.get("label")
        if not isinstance(label, str) or not _LABEL_RE.fullmatch(label):
            raise ConfigError(f"{where}.label", "required; letters, digits, '_', '-', '.' only")
        if label in seen:
            raise ConfigError(f"{where}.label", f"duplicate label {label!r}")
        seen.add(label)
        try:
            params = AgentParams(**{attr: entry[key] for key, attr in _PARAM_KEYS if key in entry})
            cfg = ExperimentConfig(doc.get("environment"), entry.get("algorithm"), params, **common)
        except ConfigError as exc:
            if exc.key not in _ALGO_KEYS:
                raise  # a shared or environment key, named as the document names it
            raise ConfigError(f"{where}.{exc.key}", exc.message) from exc
        jobs.append((label, cfg))
    return name, jobs, window


def _write_csv(path: Path, mean: list[float], smoothed: list[float]) -> None:
    lines = ["episode,return_mean,return_smoothed"]
    for i, (m, s) in enumerate(zip(mean, smoothed)):
        lines.append(f"{i},{m!r},{s!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _cmd_run(args: argparse.Namespace) -> int:
    doc = _parse_json(_load_config_text(args.config), "config")
    if args.seed is not None:
        doc["seed"] = args.seed
    name, jobs, window = _parse_compare(doc)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    curves = []
    with _open_pool(max(cfg.runs for _, cfg in jobs)) as pool:
        for label, cfg in jobs:
            results = run_experiment(cfg, pool=pool)
            mean = average_over_runs(results)
            smoothed = running_average(mean, window)
            csv_name = f"{name}_{label}.csv"
            _write_csv(out_dir / csv_name, mean, smoothed)
            curves.append({"label": label, "csv": csv_name})
            print(f"wrote {out_dir / csv_name}")

    spec = {
        "title": name,
        "x_label": "episode",
        "y_label": "return (smoothed)",
        "curves": curves,
        "output": f"{name}.svg",
    }
    spec_path = out_dir / f"{name}_plot.json"
    spec_path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8", newline="\n")
    print(f"wrote {spec_path}")
    return 0


def _read_curve_csv(path: Path) -> list[float]:
    lines = _read_text(path, "curves.csv").splitlines()
    if not lines:
        raise ConfigError("curves.csv", f"{path} is empty")
    header = lines[0].split(",")
    try:
        col = header.index("return_smoothed")
    except ValueError:
        raise ConfigError("curves.csv", f"{path} has no return_smoothed column") from None
    values = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        try:
            value = float(fields[col])
        except (IndexError, ValueError):
            raise ConfigError("curves.csv", f"{path}:{ln}: bad row {line!r}") from None
        if not abs(value) <= _PLOT_LIMIT:  # inf and nan fail it too
            raise ConfigError("curves.csv", f"{path}:{ln}: {value!r} is not within ±{_PLOT_LIMIT:.3g}")
        values.append(value)
    if not values:
        raise ConfigError("curves.csv", f"{path} has a header but no data rows")
    return values


def _cmd_plot(args: argparse.Namespace) -> int:
    from .svgplot import render_line_chart  # only plotting needs it

    spec_path = Path(args.spec)
    doc = _parse_json(_read_text(spec_path, "spec"), "spec")
    curves_doc = doc.get("curves")
    if not isinstance(curves_doc, list) or not curves_doc:
        raise ConfigError("curves", "required; must be a non-empty array")
    output = doc.get("output")
    if not isinstance(output, str) or not output:
        raise ConfigError("output", "required; must be a file name")

    base = spec_path.parent
    curves = []
    for i, entry in enumerate(curves_doc):
        if not isinstance(entry, dict) or "label" not in entry or "csv" not in entry:
            raise ConfigError(f"curves[{i}]", "each curve needs 'label' and 'csv'")
        csv_name = entry["csv"]
        if not isinstance(csv_name, str) or not csv_name:
            raise ConfigError(f"curves[{i}].csv", "must be a file name")
        curves.append((str(entry["label"]), _read_curve_csv(base / csv_name)))

    labels = {key: str(doc[key]) for key in ("title", "x_label", "y_label") if key in doc}
    svg = render_line_chart(curves, **labels)  # a label the spec leaves out takes its default
    out_path = base / output
    out_path.write_text(svg, encoding="utf-8")
    print(f"wrote {out_path}")
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    groups = (("environments", ENVIRONMENT_NAMES), ("algorithms", ALGORITHM_NAMES), ("presets", preset_names()))
    for heading, names in groups:
        print(f"{heading}:")
        for name in names:
            print(f"  {name}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cvslab", description="Tabular RL experiment runner.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a comparison config and write CSVs")
    p_run.add_argument("config", help="path to a JSON config, or a preset name")
    p_run.add_argument("--out", default=".", help="output directory (default: current)")
    p_run.add_argument("--seed", type=int, default=None, help="override the config's seed")
    p_run.set_defaults(func=_cmd_run)

    p_plot = sub.add_parser("plot", help="render a plot spec produced by 'run' to SVG")
    p_plot.add_argument("spec", help="path to a *_plot.json file")
    p_plot.set_defaults(func=_cmd_plot)

    p_list = sub.add_parser("list", help="list environments, algorithms and presets")
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _exit_now(code: int) -> None:
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a broken pipe, a closed stream: Python's own exit reports it
        return
    os._exit(code)


def console_main() -> NoReturn:
    """Run ``main()`` and end the process with its code, skipping teardown.

    The ``SystemExit`` unwinds the stack first, so a wrapper that catches it
    (a profiler, say) finishes; the exit itself is the first ``atexit``
    handler to run, being the last registered.
    """
    code = main()
    atexit.register(_exit_now, code)
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
