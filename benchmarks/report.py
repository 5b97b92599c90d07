"""Print every end-to-end metric of every workload.

    python3 benchmarks/report.py [--seconds 22] [--seed N]

One timed run per workload (the same measurement as ``run.py --trace 0``),
printed as one line per metric with its unit, sample count, median and
quartiles, plus the share of CSVs that failed their check.  ``--seed``
defaults to each workload's default seed, whose outputs have goldens.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import SRC, WORKLOADS, machine_record, quartiles, timed, unit_of


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--seed", type=int)
    args = parser.parse_args(argv)
    if not (SRC / "cvslab" / "cli.py").is_file():
        print(f"error: cvslab sources not found under {SRC}", file=sys.stderr)
        return 1

    print("machine " + json.dumps(machine_record(), sort_keys=True))
    header = ("workload", "metric", "unit", "n", "median", "q1", "q3")
    print("{:16s} {:16s} {:5s} {:>3s} {:>12s} {:>12s} {:>12s}".format(*header))
    all_ok = True
    for workload, spec in WORKLOADS.items():
        seed = spec["default_seed"] if args.seed is None else args.seed
        _, samples, counts = timed(workload, seed, args.seconds)
        for name, series in samples.items():
            q1, q3 = quartiles(series)
            print(
                f"{workload:16s} {name:16s} {unit_of(name):5s} {len(series):3d} "
                f"{statistics.median(series):12.6g} {q1:12.6g} {q3:12.6g}"
            )
        frac = counts["failed"] / counts["attempted"]
        all_ok = all_ok and counts["failed"] == 0
        row = (workload, "failed_frac", "ratio", counts["attempted"], frac)
        print("{:16s} {:16s} {:5s} {:3d} {:12.6g}".format(*row))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
