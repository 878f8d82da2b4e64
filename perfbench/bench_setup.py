"""The benchmark's set-up: import sewkit from the checkout, then generate the
seeded configs.

Run as a script it times one set-up in a fresh interpreter and prints the
seconds taken; run.py starts it several times to report a median set-up time:

    python3 perfbench/bench_setup.py WORKLOAD SEED N_OPS
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


class MissingProgram(Exception):
    """The checkout holds no sewkit sources to benchmark."""


def set_up(workload: str, seed: int, n_ops: int):
    """Import sewkit from ROOT/src and generate the first n_ops ops of the stream.

    Returns (cli module, ops).
    """
    src = ROOT / "src"
    if not (src / "sewkit" / "__init__.py").is_file():
        raise MissingProgram(f"no sewkit sources under {src}")
    sys.path.insert(0, str(src))
    from sewkit import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise MissingProgram(f"sewkit was imported from {cli.__file__}, not from {src}")
    return cli, workloads.generate(workload, seed, n_ops)


if __name__ == "__main__":
    workload, seed, n_ops = sys.argv[1:]
    t0 = time.perf_counter()
    set_up(workload, int(seed), int(n_ops))
    print(repr(time.perf_counter() - t0))
