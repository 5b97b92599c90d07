"""Command-line front end.

``cvslab run <config>`` executes a comparison described by a JSON document
(a file path or the name of a bundled preset) and writes one CSV per
algorithm plus a plot spec; all its algorithm blocks share one process pool,
sized by the largest block and capped by ``CVS_LAB_THREADS``, or run in this
process at one worker.  Shared settings the document leaves out take
``ExperimentConfig``'s defaults; ``window`` (default 10) only smooths the CSV.
``cvslab plot <spec>`` turns that spec into an SVG.  ``cvslab list`` shows
what is available.

Exit codes: 0 on success, 2 for configuration problems and unreadable inputs
(the message names the offending entry), 3 when an output file cannot be
written.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from importlib import resources
from pathlib import Path

from .agents import ALGORITHM_NAMES
from .core import AgentParams, _is_int
from .harness import (
    ENVIRONMENT_NAMES,
    ConfigError,
    ExperimentConfig,
    _resolve_workers,
    average_over_runs,
    run_experiment,
    running_average,
)
from .svgplot import render_line_chart, write_svg

_LABEL_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")
# Passed to ExperimentConfig only when present: their defaults live there.
_SHARED_KEYS = ("episodes", "runs", "seed", "q_init")
_TOP_KEYS = frozenset({"name", "environment", "algorithms", "window", *_SHARED_KEYS})
_ALGO_KEYS = frozenset({"label", "algorithm", "alpha", "epsilon", "gamma", "lambda", "n"})
_PARAM_KEYS = (("alpha", "alpha"), ("epsilon", "epsilon"), ("gamma", "gamma"), ("lambda", "lam"), ("n", "n"))


def preset_names() -> list[str]:
    root = resources.files("cvslab") / "configs"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def _read_text(path: Path, key: str) -> str:
    if path.is_dir():
        raise ConfigError(key, f"{path} is a directory")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(key, f"{path} is not UTF-8 text: {exc}") from None


def _load_config_text(arg: str) -> str:
    path = Path(arg)
    if path.exists():
        try:
            return _read_text(path, "config")
        except OSError as exc:
            raise ConfigError("config", f"cannot read {arg}: {exc}") from exc
    if _LABEL_RE.match(arg) and arg in preset_names():
        return (resources.files("cvslab") / "configs" / f"{arg}.json").read_text(encoding="utf-8")
    raise ConfigError("config", f"no such file or preset: {arg}")


def _parse_json(text: str, key: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(key, f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(key, "top level must be a JSON object")
    return doc


def _agent_params(entry: dict, where: str) -> AgentParams:
    kwargs = {}
    for json_key, attr in _PARAM_KEYS:
        if json_key in entry:
            kwargs[attr] = entry[json_key]
    try:
        return AgentParams(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(where, str(exc)) from exc


def _parse_compare(doc: dict) -> tuple[str, list[tuple[str, ExperimentConfig]], int]:
    """Returns (name, [(label, per-algorithm config)], smoothing window)."""
    for key in doc:
        if key not in _TOP_KEYS:
            raise ConfigError(key, "unknown configuration key")
    name = doc.get("name")
    if not isinstance(name, str) or not _LABEL_RE.match(name):
        raise ConfigError("name", "required; letters, digits, '_', '-', '.' only")
    environment = doc.get("environment")
    if not isinstance(environment, dict):
        raise ConfigError("environment", "required; must be an object")
    algorithms = doc.get("algorithms")
    if not isinstance(algorithms, list) or not algorithms:
        raise ConfigError("algorithms", "required; must be a non-empty array")

    window = doc.get("window", 10)
    if not _is_int(window) or window < 1:
        raise ConfigError("window", "must be a positive integer")
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
        if not isinstance(label, str) or not _LABEL_RE.match(label):
            raise ConfigError(f"{where}.label", "required; letters, digits, '_', '-', '.' only")
        if label in seen:
            raise ConfigError(f"{where}.label", f"duplicate label {label!r}")
        seen.add(label)
        algorithm = entry.get("algorithm")
        if algorithm not in ALGORITHM_NAMES:
            raise ConfigError(f"{where}.algorithm", f"must be one of {', '.join(ALGORITHM_NAMES)}")
        params = _agent_params(entry, where)
        cfg = ExperimentConfig(environment, algorithm, params, **common)
        cfg.validate()
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
    workers = min(_resolve_workers(), max(cfg.runs for _, cfg in jobs))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    curves = []
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
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
    if not path.exists():
        raise ConfigError("curves.csv", f"no such file: {path}")
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
            values.append(float(fields[col]))
        except (IndexError, ValueError):
            raise ConfigError("curves.csv", f"{path}:{ln}: bad row {line!r}") from None
    if not values:
        raise ConfigError("curves.csv", f"{path} has a header but no data rows")
    return values


def _cmd_plot(args: argparse.Namespace) -> int:
    spec_path = Path(args.spec)
    if not spec_path.exists():
        raise ConfigError("spec", f"no such file: {args.spec}")
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

    svg = render_line_chart(
        curves,
        title=str(doc.get("title", "")),
        x_label=str(doc.get("x_label", "episode")),
        y_label=str(doc.get("y_label", "return")),
    )
    out_path = base / output
    write_svg(out_path, svg)
    print(f"wrote {out_path}")
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("environments:")
    for env_name in ENVIRONMENT_NAMES:
        print(f"  {env_name}")
    print("algorithms:")
    for alg in ALGORITHM_NAMES:
        print(f"  {alg}")
    print("presets:")
    for preset in preset_names():
        print(f"  {preset}")
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


if __name__ == "__main__":
    raise SystemExit(main())
