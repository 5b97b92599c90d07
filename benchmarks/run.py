"""cvslab benchmark: ``cvslab run`` comparisons timed from outside.

    python3 benchmarks/run.py --workload fig1-oracle --seed 0 --seconds 22 --trace 0
    python3 benchmarks/run.py --workload fig1-oracle --seed 0 --trace 1
    python3 benchmarks/run.py --record-goldens

Run from the repository root.  ``--trace 0`` repeats the workload's
generated config as a fresh ``python -m cvslab.cli run`` process for
``--seconds`` seconds, timing each from outside with ``os.wait4`` (wall, CPU
and peak RSS of the whole process tree, pool workers included).  Between
repetitions it runs the same config with ``episodes: 1`` to measure set-up
time.  Every CSV is checked against the golden sha256 for the workload's
default seed or, for other seeds, against an in-process 1-worker run.

``--trace 1`` runs the config in-process three times: untraced at 1 worker,
untraced at the workload's worker count, and traced at 1 worker (see
``tracer.py``), and reports the per-layer metrics.

The last line of stdout is one JSON object with ``correct``, ``attempted``
(CSVs checked), ``failed`` (CSVs missing or wrong) and ``metrics``.  Lines
before it give the machine record and, per metric, the sample count and
quartiles.  Exits 1 without a result when the cvslab sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDENS = HERE / "goldens.json"

sys.path[:0] = [str(HERE), str(SRC)]
from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, csv_names, make_config  # noqa: E402

MIN_REPS = 3
MAX_REPS = 40
MIN_SETUPS = 5

# The host's speed drifts by tens of percent over minutes, and the program
# slows with it (its CPU time grows as much as its wall time).  Each process
# is bracketed by a fixed pure-Python loop, run on every available core, and
# its times are scaled to a host on which that loop takes CAL_REF_S.  The raw
# times are printed too.
CAL_ITERATIONS = 2_000_000
CAL_REF_S = 0.2

END_TO_END_UNITS = {
    "wall_s": "s",
    "env_steps_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def unit_of(name: str) -> str:
    """Unit of an end-to-end metric or of its ``raw_`` (uncalibrated) twin."""
    return END_TO_END_UNITS[name.removeprefix("raw_")]


# -- running the program ------------------------------------------------------


def _child_env(workers: int) -> dict:
    env = dict(os.environ, CVS_LAB_THREADS=str(workers))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def run_process(config: Path | str, out_dir: Path, workers: int) -> dict:
    """One ``cvslab run`` of a config file or preset in a fresh process.

    Returns its wall time, and the CPU time and peak RSS of its process tree.
    """
    _fresh_dir(out_dir)
    cmd = [sys.executable, "-m", "cvslab.cli", "run", str(config), "--out", str(out_dir)]
    with open(out_dir / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_child_env(workers), stdout=subprocess.DEVNULL, stderr=err
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "rc": proc.returncode,
    }


def run_inprocess(config: Path, out_dir: Path, workers: int, tracer) -> int:
    """``cvslab.cli.main`` in this process under ``tracer``; returns its exit code."""
    import cvslab.cli

    _fresh_dir(out_dir)
    saved = os.environ.get("CVS_LAB_THREADS")
    os.environ["CVS_LAB_THREADS"] = str(workers)
    try:
        with tracer, contextlib.redirect_stdout(io.StringIO()):
            return cvslab.cli.main(["run", str(config), "--out", str(out_dir)])
    finally:
        if saved is None:
            del os.environ["CVS_LAB_THREADS"]
        else:
            os.environ["CVS_LAB_THREADS"] = saved


def _fresh_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def csv_hashes(out_dir: Path, names: list[str]) -> dict[str, str | None]:
    out = {}
    for name in names:
        path = out_dir / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return out


def count_mismatches(got: dict, want: dict) -> int:
    """CSVs of ``want`` that are missing from ``got`` or differ."""
    return sum(1 for name, digest in want.items() if digest is None or got.get(name) != digest)


def write_config(path: Path, workload: str, seed: int, **sizes) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(make_config(workload, seed, **sizes), indent=1) + "\n")
    return path


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}


def reference_run(workload: str, config: Path, out_dir: Path) -> tuple[dict, int]:
    """CSV hashes and env-step count of an in-process 1-worker run.

    A failed run yields no hashes, so every CSV checked against it fails.
    """
    from tracer import COUNT_SPANS, Tracer

    tracer = Tracer(COUNT_SPANS)
    if run_inprocess(config, out_dir, 1, tracer) != 0:
        return dict.fromkeys(csv_names(workload)), tracer.env_steps
    return csv_hashes(out_dir, csv_names(workload)), tracer.env_steps


# -- the machine record ---------------------------------------------------------


def machine_record() -> dict:
    def getconf(key: str) -> int | None:
        try:
            out = subprocess.run(["getconf", key], capture_output=True, text=True, check=True)
            return int(out.stdout.strip())
        except (OSError, ValueError, subprocess.CalledProcessError):
            return None

    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            git = ["git", "-C", str(ROOT), "rev-parse", "HEAD"]
            commit = subprocess.run(git, capture_output=True, text=True, check=True).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "cvslab").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "cvslab_commit": commit,
        "cvslab_src_sha256": digest.hexdigest(),
        "workers": {name: w["workers"] for name, w in WORKLOADS.items()},
    }


# -- the two modes -----------------------------------------------------------------


def _spin_s() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(CAL_ITERATIONS):
        x += i
    return time.perf_counter() - t0


def calibration_s() -> float:
    """Mean duration of a fixed pure-Python loop run on every available core at once.

    This is the current speed of the cores the program's processes run on.
    """
    children = []
    for _ in range(len(os.sched_getaffinity(0)) - 1):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            os.write(write_fd, struct.pack("d", _spin_s()))
            os._exit(0)
        os.close(write_fd)
        children.append((pid, read_fd))
    times = [_spin_s()]
    for pid, read_fd in children:
        os.waitpid(pid, 0)
        with os.fdopen(read_fd, "rb") as pipe:
            times.append(struct.unpack("d", pipe.read(8))[0])
    return sum(times) / len(times)


def timed(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    """Timed repetitions; returns (metrics, samples, counts).

    ``samples`` holds the calibrated per-process values of each metric and,
    under ``raw_*`` names, the times as measured.
    """
    spec = WORKLOADS[workload]
    workers = spec["workers"]
    work = WORK / workload
    config = write_config(work / "config.json", workload, seed)
    setup_config = write_config(work / "setup.json", workload, seed, episodes=1)
    names = csv_names(workload)

    run_process(setup_config, work / "setup", workers)  # warm-up: bytecode and page cache
    cal = [calibration_s()]

    def measure(cfg: Path, out: Path) -> dict:
        run = run_process(cfg, out, workers)
        cal.append(calibration_s())
        run["scale"] = CAL_REF_S / ((cal[-2] + cal[-1]) / 2)
        run["hashes"] = csv_hashes(out, names) if run["rc"] == 0 else {}
        return run

    reps, setups = [], []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or (time.perf_counter() - start < seconds and len(reps) < MAX_REPS):
        reps.append(measure(config, work / "rep"))
        setups.append(measure(setup_config, work / "setup"))
    while len(setups) < MIN_SETUPS:
        setups.append(measure(setup_config, work / "setup"))

    golden = load_goldens().get(workload)
    if golden is not None and golden["seed"] == seed:
        reference, steps = golden["csv_sha256"], golden["env_steps"]
    else:
        reference, steps = reference_run(workload, config, work / "reference")

    setup_reference = setups[0]["hashes"] or dict.fromkeys(names)
    failed = sum(count_mismatches(r["hashes"], reference) for r in reps)
    failed += sum(count_mismatches(s["hashes"], setup_reference) for s in setups)
    attempted = len(names) * (len(reps) + len(setups))

    samples = {
        "wall_s": [r["wall"] * r["scale"] for r in reps],
        "env_steps_per_s": [steps / (r["wall"] * r["scale"]) for r in reps],
        "cpu_s": [r["cpu"] * r["scale"] for r in reps],
        "peak_rss_mb": [r["rss_mb"] for r in reps],
        "setup_s": [s["wall"] * s["scale"] for s in setups],
        "raw_wall_s": [r["wall"] for r in reps],
        "raw_cpu_s": [r["cpu"] for r in reps],
        "raw_setup_s": [s["wall"] for s in setups],
    }
    metrics = {name: statistics.median(samples[name]) for name in END_TO_END_UNITS}
    return metrics, samples, {"attempted": attempted, "failed": failed, "env_steps": steps}


def traced(workload: str, seed: int, **sizes) -> tuple[dict, dict]:
    """Untraced 1-worker, untraced W-worker and traced 1-worker in-process runs.

    ``sizes`` override the workload's episodes and runs (for the self-tests).
    """
    from tracer import BLOCK_SPANS, Tracer

    workers = WORKLOADS[workload]["workers"]
    work = WORK / workload
    config = write_config(work / "config.json", workload, seed, **sizes)
    names = csv_names(workload)

    runs = {}
    for label, n_workers, spans in (
        ("serial", 1, BLOCK_SPANS),
        ("parallel", workers, BLOCK_SPANS),
        ("traced", 1, None),
    ):
        tracer = Tracer() if spans is None else Tracer(spans)
        rc = run_inprocess(config, work / label, n_workers, tracer)
        hashes = csv_hashes(work / label, names) if rc == 0 else {}
        runs[label] = (tracer, hashes)

    golden = load_goldens().get(workload)
    tr = runs["traced"][0]
    attempted = len(names) * len(runs)
    if golden is not None and golden["seed"] == seed:
        reference = golden["csv_sha256"]
        attempted += 1
        failed = int(tr.env_steps != golden["env_steps"])
    else:
        reference = runs["serial"][1] or dict.fromkeys(names)
        failed = 0
    failed += sum(count_mismatches(hashes, reference) for _, hashes in runs.values())

    values = tr.layer_metrics()
    serial, parallel = runs["serial"][0], runs["parallel"][0]
    for algorithm, t1 in serial.block_s.items():
        efficiency = t1 / (workers * parallel.block_s[algorithm])
        values[f"harness.scaling_efficiency.{algorithm}"] = efficiency
    values["harness.scaling_efficiency"] = sum(serial.block_s.values()) / (
        workers * sum(parallel.block_s.values())
    )
    values["trace_overhead"] = tr.totals("cli.main")[2] / serial.totals("cli.main")[2]
    csvs = [work / "traced" / name for name in names]
    values["cli.csv_bytes"] = sum(path.stat().st_size for path in csvs if path.is_file())
    metrics = {name: values.get(name, 0) for name, _, _ in PER_LAYER}
    return metrics, {"attempted": attempted, "failed": failed, "env_steps": tr.env_steps}


def record_goldens() -> dict:
    """Golden CSV hashes and env-step counts at each workload's default seed.

    The 1-worker in-process run and a W-worker CLI process must agree.
    """
    goldens = {}
    for workload, spec in WORKLOADS.items():
        seed = spec["default_seed"]
        work = WORK / workload
        config = write_config(work / "config.json", workload, seed)
        hashes, steps = reference_run(workload, config, work / "reference")
        run = run_process(config, work / "rep", spec["workers"])
        parallel = csv_hashes(work / "rep", csv_names(workload))
        if run["rc"] != 0 or parallel != hashes or None in hashes.values():
            raise RuntimeError(f"{workload}: 1-worker and {spec['workers']}-worker CSVs differ")
        goldens[workload] = {"seed": seed, "csv_sha256": hashes, "env_steps": steps}
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return goldens


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "cvslab" / "cli.py").is_file():
        print(f"error: cvslab sources not found under {SRC}", file=sys.stderr)
        return 1
    if args.record_goldens:
        print(json.dumps(record_goldens(), indent=1))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    seed = WORKLOADS[args.workload]["default_seed"] if args.seed is None else args.seed

    print("# machine " + json.dumps(machine_record(), sort_keys=True))
    if args.trace:
        values, counts = traced(args.workload, seed)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values, samples, counts = timed(args.workload, seed, args.seconds)
        units = END_TO_END_UNITS
        for name, series in samples.items():
            q1, q3 = quartiles(series)
            median = statistics.median(series)
            print(
                f"# {args.workload} {name} [{unit_of(name)}] median={median:.6g} "
                f"q1={q1:.6g} q3={q3:.6g} n={len(series)}"
            )
    print(f"# {args.workload} seed={seed} env_steps={counts['env_steps']} "
          f"failed_frac={counts['failed'] / counts['attempted']:.6g}")
    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
