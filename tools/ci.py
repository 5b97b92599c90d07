"""The CI steps, by name, on each interpreter given.

    python tools/ci.py [--strict] [--step NAME ...] [INTERPRETER ...]

Runs every step (or only those named) with each interpreter, the one running
this script when none is given; ``.github/workflows/tests.yml`` calls it once
per step.  It installs nothing: a step that needs the test extra (numpy,
pytest, hypothesis) or the installed ``cvslab`` script is skipped, and
reported as skipped, on an interpreter that lacks it; with ``--strict``, as
in CI where the extra is installed, such a step fails instead.  An
interpreter that cannot be run counts as failed, under its path, and the next
one is tried.  It prints one line per step and then one summary line, and
exits 1 if any step or interpreter failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
EXTRA = ("numpy", "pytest", "hypothesis")
WORKLOADS = ("fig1-oracle", "fig4-lookahead", "shooter-serial", "tennis-table")

# What an interpreter reports of itself: its version, which of EXTRA it
# cannot import, and the directory its installed scripts go to.
PROBE = """
import importlib.util, platform, sys, sysconfig
print(platform.python_version())
print(" ".join(m for m in sys.argv[1:] if importlib.util.find_spec(m) is None))
print(sysconfig.get_path("scripts"))
"""


class Interpreter(NamedTuple):
    path: str
    version: str
    missing: frozenset[str]
    scripts: Path

    @classmethod
    def probe(cls, path: str) -> Interpreter:
        """Raises ``Failed`` if ``path`` cannot run ``PROBE``."""
        try:
            done = subprocess.run([path, "-c", PROBE, *EXTRA], capture_output=True, text=True)
        except OSError as exc:
            raise Failed(f"cannot run it: {exc.strerror}") from None
        lines = done.stdout.split("\n")
        check(done.returncode == 0 and len(lines) > 3, f"it did not answer the probe, exit {done.returncode}")
        version, missing, scripts = lines[:3]
        return cls(path, version, frozenset(missing.split()), Path(scripts))


class Skipped(Exception):
    """The step needs what this interpreter does not have."""


class Failed(Exception):
    """A check of the step did not hold."""


def needs(python: Interpreter, *modules: str) -> None:
    missing = [m for m in modules if m in python.missing]
    if missing:
        raise Skipped("no " + ", ".join(missing))


def check(ok: bool, message: str) -> None:
    if not ok:
        raise Failed(message)


def run(cmd, cwd=ROOT, env=None, capture=False) -> str:
    sys.stdout.flush()
    done = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE if capture else None, text=True)
    check(done.returncode == 0, f"{' '.join(map(str, cmd))} exited {done.returncode}")
    return done.stdout


def installed_script(python: Interpreter) -> None:
    """The installed cvslab script runs, plots and lists as the source CLI does."""
    cvslab = python.scripts / "cvslab"
    if not cvslab.is_file():
        raise Skipped(f"no installed cvslab script in {python.scripts}")
    installed_env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    source_env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        installed = cli_output([cvslab], installed_env, Path(tmp) / "installed")
        source = cli_output([python.path, "-m", "cvslab.cli"], source_env, Path(tmp) / "source")
    differ = sorted(k for k in installed.keys() | source.keys() if installed.get(k) != source.get(k))
    check(not differ, f"the installed script and the source CLI differ in {', '.join(differ)}")


def cli_output(cli: list, env: dict, cwd: Path) -> dict[str, bytes]:
    """What ``cli`` prints for ``list`` and writes for a run and a plot of the
    fig3 preset, by command or file name."""
    cwd.mkdir()
    run([*cli, "run", "fig3", "--out", "r", "--seed", "3"], cwd=cwd, env=env)
    run([*cli, "plot", "r/fig3_plot.json"], cwd=cwd, env=env)
    output = {"list": run([*cli, "list"], cwd=cwd, env=env, capture=True).encode()}
    output.update((str(f.relative_to(cwd)), f.read_bytes()) for f in (cwd / "r").rglob("*") if f.is_file())
    return output


def tier1(python: Interpreter) -> None:
    """Tier-1 tests, logging the ten slowest."""
    needs(python, *EXTRA)
    pythonpath = os.pathsep.join(filter(None, ("src", os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    run([python.path, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10"], env=env)


def presets(python: Interpreter) -> None:
    """Preset byte-identity gate."""
    run([python.path, "benchmarks/presets.py"])


def selftest(python: Interpreter) -> None:
    """Benchmark self-tests."""
    needs(python, "numpy", "pytest")
    run([python.path, "-m", "pytest", "-q", "benchmarks/selftest.py"])


def workloads(python: Interpreter) -> None:
    """Each benchmark workload, 3 s, reads correct with no failed run."""
    needs(python, "numpy")
    for name in WORKLOADS:
        out = run([python.path, "benchmarks/run.py", "--workload", name, "--seconds", "3"], capture=True)
        last = (out.splitlines() or [""])[-1]
        print(last)
        try:
            result = json.loads(last)
            ok = result["correct"] is True and result["failed"] == 0
        except (ValueError, KeyError, TypeError):
            raise Failed(f"{name}: its last line is not a result: {last!r}") from None
        check(ok, f"{name}: {last}")


STEPS = {step.__name__.replace("_", "-"): step for step in (installed_script, tier1, presets, selftest, workloads)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--step", action="append", choices=list(STEPS), help="run only this step (repeatable)")
    parser.add_argument("--strict", action="store_true", help="count a skipped step as failed")
    parser.add_argument("interpreters", nargs="*", default=[sys.executable])
    args = parser.parse_args(argv)
    names = args.step or list(STEPS)
    tallies, failures = [], 0
    for path in args.interpreters:
        try:
            python = Interpreter.probe(path)
        except Failed as why:
            print(f"-- {path}: failed ({why})", flush=True)
            failures += 1
            tallies.append(f"{path}: not probed")
            continue
        tally = dict.fromkeys(("ok", "skipped", "failed"), 0)
        for name in names:
            step = STEPS[name]
            print(f"== {python.version} {name}: {step.__doc__}", flush=True)
            start = time.perf_counter()
            try:
                step(python)
            except Skipped as why:
                outcome, detail = "failed" if args.strict else "skipped", str(why)
            except Failed as why:
                outcome, detail = "failed", str(why)
            else:
                outcome, detail = "ok", f"{time.perf_counter() - start:.1f} s"
            tally[outcome] += 1
            print(f"-- {python.version} {name}: {outcome} ({detail})", flush=True)
        failures += tally["failed"]
        tallies.append(f"{python.version}: " + ", ".join(f"{n} {outcome}" for outcome, n in tally.items()))
    print(f"ci {'FAILED' if failures else 'passed'}: " + "; ".join(tallies), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
