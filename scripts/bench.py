#!/usr/bin/env python3
"""Run the benchmark on every workload and collect the results in one file.

    python3 scripts/bench.py --pr N [--seconds 35] [--workload NAME ...] [--out FILE]

Each workload runs ``perfbench/run.py`` twice as a subprocess: with
``--trace 0`` for the end-to-end metrics and with ``--trace 1`` for the
per-layer metrics.  The final JSON line of each run, and its
``csv_digest`` line, go to ``BENCH_<pr>.json`` at the repository root (or
``--out``).  All timing is perfbench's own; this script only collects.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("sew-smooth", "sew-rough", "knit-holonomy")
#: the stream seed of every run, so bench files of different commits compare
SEED = 7


def run_once(workload: str, seconds: int, trace: int) -> dict:
    """One perfbench run: its final JSON object plus its CSV digest."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["csv_digest"] = next(
        (ln.split()[1] for ln in lines if ln.startswith("csv_digest ")), None)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in BENCH_<pr>.json")
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable); default all three")
    parser.add_argument("--out", type=Path, default=None, help="default ROOT/BENCH_<pr>.json")
    args = parser.parse_args(argv)
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    runs = {}
    for workload in args.workload or WORKLOADS:
        runs[workload] = {
            "end_to_end": run_once(workload, args.seconds, 0),
            "per_layer": run_once(workload, args.seconds, 1),
        }
        print(f"{workload}: ops_per_s "
              f"{runs[workload]['end_to_end']['metrics']['ops_per_s']['value']:.4g}")
    record = {
        "pr": args.pr,
        "seed": SEED,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "workloads": runs,
    }
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
