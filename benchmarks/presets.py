"""Untimed byte-identity check of the bundled presets.

    python3 benchmarks/presets.py            # compare with preset_goldens.json
    python3 benchmarks/presets.py --record   # rewrite the goldens

Runs every shipped preset (fig2, fig3, fig4, fig6, shooter) once through
``cvslab run`` at 2 workers and compares the sha256 of each CSV with the
recorded goldens.  A change that
claims to keep results identical must pass this.  It is kept out of the timed
benchmark because ``fig2`` alone takes about a minute on 2 cores.  Exits 1 on
any mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import GOLDENS, SRC, WORK, csv_hashes, run_process

PRESET_DIR = SRC / "cvslab" / "configs"
PRESET_GOLDENS = GOLDENS.with_name("preset_goldens.json")


def preset_csvs(preset: str) -> list[str]:
    doc = json.loads((PRESET_DIR / f"{preset}.json").read_text())
    return [f"{doc['name']}_{a['label']}.csv" for a in doc["algorithms"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true", help="rewrite the goldens")
    args = parser.parse_args(argv)

    want = {} if args.record else json.loads(PRESET_GOLDENS.read_text())
    got, bad = {}, 0
    for preset in sorted(p.stem for p in PRESET_DIR.glob("*.json")):
        out = WORK / "presets" / preset
        run = run_process(preset, out, 2)
        got[preset] = csv_hashes(out, preset_csvs(preset))
        ok = run["rc"] == 0 and None not in got[preset].values()
        if not args.record:
            ok = ok and got[preset] == want.get(preset)
        bad += not ok
        print(f"{preset:8s} {'ok' if ok else 'MISMATCH'}  {run['wall']:.1f} s", flush=True)
    if args.record and not bad:
        PRESET_GOLDENS.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
