#!/usr/bin/env python3
"""sewkit benchmark: seeded streams of CLI experiment configs run through
``sewkit.cli.run`` in this process, as a closed loop with one client (each
op starts when the previous one has finished).

    python3 perfbench/run.py --workload sew-smooth --seed 1 --seconds 35 --trace 0

With ``--trace 0`` it runs ops for ``--seconds`` and reports the end-to-end
metrics.  With ``--trace 1`` it runs a fixed number of ops (seconds x the
workload's nominal rate / 3, so the counts depend only on seed and seconds)
twice, untraced and then traced, and reports the per-layer metrics and the
tracing overhead.  Every op's CSV is checked against an analytic reference.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import bench_setup
import tracer as tracing
import workloads

#: configs generated for a timed run, as a multiple of seconds x nominal rate;
#: a program this much faster than the seed commit ends the run early
POOL_FACTOR = 8
#: a traced run takes seconds x nominal rate / TRACE_DIVISOR ops and runs them
#: twice, untraced and traced, in about the time of a timed run
TRACE_DIVISOR = 3
#: fresh interpreters that repeat the set-up, besides this process, run half
#: before and half after the timed loop: the machine's speed drifts over
#: seconds, and a median over probes that span the run follows it less
SETUP_PROBES = 8
#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: samples required beyond a reported tail percentile
TAIL_BEYOND = 10
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


@dataclass
class Pass:
    """What one pass over the op stream did."""

    latencies: list[float] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    wrong: list[str] = field(default_factory=list)
    wall: float = 0.0
    digest: str = ""

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_ops(cli, ops, out_dir: Path, seconds: float | None, tracer=None) -> Pass:
    """Run ops in order, one at a time, until they or the seconds run out.

    Each op's config is written to out_dir just before the op starts, outside
    its latency; the op writes its CSV there.  An op fails on a non-zero exit,
    on a CSV that misses its reference, or on an exception escaping cli.run,
    which is recorded by type.
    """
    run = cli.run if tracer is None else tracer.span("cli.run", cli.run)
    result = Pass()
    digest = hashlib.sha256()
    start = perf_counter()
    deadline = math.inf if seconds is None else start + seconds
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, op in enumerate(ops):
        if perf_counter() >= deadline:
            break
        path = workloads.write_config(op, i, out_dir)
        if tracer is not None:
            tracer.op_id = i
        t0 = perf_counter()
        try:
            code = run(str(path), quiet=True)
        except Exception as exc:  # the run goes on; the type is reported
            result.latencies.append(perf_counter() - t0)
            result.failures[f"{type(exc).__name__} ({op.kind})"] += 1
            continue
        result.latencies.append(perf_counter() - t0)
        if code != 0:
            result.failures[f"exit {code} ({op.kind})"] += 1
            continue
        data = path.with_suffix(".csv").read_bytes()
        digest.update(len(data).to_bytes(8, "little") + data)
        reason = workloads.check_csv(op, data.decode())
        if reason is not None:
            result.failures[f"reference ({op.kind})"] += 1
            result.wrong.append(f"op {i}: {reason}")
    result.wall = perf_counter() - start
    result.digest = digest.hexdigest()
    return result


def tail(latencies: list[float], nominal_n: int) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) at the highest candidate percentile
    that leaves at least TAIL_BEYOND of nominal_n samples beyond it.

    The percentile follows from the nominal op count, not the count a run
    reached, so runs of one workload report the same percentile.  The value
    is the nearest-rank percentile of the latencies.
    """
    p = next(p for p in TAIL_PERCENTILES
             if nominal_n - math.ceil(p / 100.0 * nominal_n) >= TAIL_BEYOND
             or p == TAIL_PERCENTILES[-1])
    xs = sorted(latencies)
    rank = max(math.ceil(p / 100.0 * len(xs)), 1)
    return p, xs[rank - 1], len(xs) - rank


def setup_probe_times(workload: str, seed: int, n_ops: int, probes: int) -> list[float]:
    """Set-up seconds of `probes` fresh interpreters, run one at a time."""
    times = []
    for i in range(probes):
        out = subprocess.run(
            [sys.executable, str(Path(bench_setup.__file__)), workload, str(seed), str(n_ops)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def _line(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:28s} {value:>14.6g} {unit:6s} {note}".rstrip())


def _report_failures(p: Pass) -> None:
    _line("fail_frac", p.failed / max(p.attempted, 1), "ratio",
          f"({p.failed} of {p.attempted} ops: "
          + (", ".join(f"{k} x{v}" for k, v in sorted(p.failures.items())) or "none") + ")")
    for w in p.wrong:
        print(f"  wrong: {w}")


def four_point_probe(cli, run_dir: Path) -> None:
    """Run the strong_four_point seeds known to raise, once and unmeasured, and
    print how many still fail; they are kept out of the workload's ops."""
    seeds = workloads.FOUR_POINT_PROBE_SEEDS
    p = run_ops(cli, [workloads.four_point_op(s) for s in seeds], run_dir / "probe", None)
    kinds = ", ".join(f"{k} x{v}" for k, v in sorted(p.failures.items())) or "none"
    print(f"known defect: strong_four_point failed on {p.failed} of {p.attempted} probe seeds "
          f"{' '.join(map(str, seeds))} ({kinds}); not counted in failed")


def end_to_end(workload: str, seed: int, seconds: int, run_dir: Path) -> dict:
    nominal_n = math.ceil(seconds * workloads.WORKLOADS[workload].nominal_rate)
    n_ops = nominal_n * POOL_FACTOR
    t0 = perf_counter()
    cli, ops = bench_setup.set_up(workload, seed, n_ops)
    setups = [perf_counter() - t0] + setup_probe_times(workload, seed, n_ops, SETUP_PROBES // 2)
    p = run_ops(cli, ops, run_dir, seconds)
    setups += setup_probe_times(workload, seed, n_ops, SETUP_PROBES - SETUP_PROBES // 2)
    passed = p.attempted - p.failed
    pct, tail_s, beyond = tail(p.latencies, nominal_n)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": (passed / p.wall, "1/s", f"({passed} passed in {p.wall:.2f} s)"),
        "latency_p50_s": (statistics.median(p.latencies), "s", f"(n={p.attempted})"),
        "latency_tail_s": (tail_s, "s", f"(p{pct:g}, n={p.attempted}, {beyond} beyond)"),
        "peak_rss_mb": (rss_mb, "MB", ""),
        "setup_s": (statistics.median(setups), "s",
                    f"(median of {len(setups)}: " + " ".join(f"{x:.3f}" for x in setups) + ")"),
    }
    for name, (value, unit, note) in metrics.items():
        _line(name, value, unit, note)
    _report_failures(p)
    if p.attempted == len(ops):
        print(f"note: all {len(ops)} generated ops ran before {seconds} s")
    print(f"csv_digest sha256:{p.digest} over the {p.attempted} ops run")
    if workload == "knit-holonomy":
        four_point_probe(cli, run_dir)
    return {"correct": not p.wrong, "attempted": p.attempted, "failed": p.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}


def per_layer(workload: str, seed: int, seconds: int, run_dir: Path) -> dict:
    n_ops = math.ceil(seconds * workloads.WORKLOADS[workload].nominal_rate / TRACE_DIVISOR)
    cli, ops = bench_setup.set_up(workload, seed, n_ops)
    from sewkit import sewing

    plain = run_ops(cli, ops, run_dir, None)
    sewing.zeta.cache_clear()
    t = tracing.Tracer()
    with tracing.installed(t):
        traced = run_ops(cli, ops, run_dir, None, tracer=t)
    metrics = tracing.layer_metrics(t, sewing.zeta.cache_info().misses)
    metrics["trace.overhead_frac"] = ((traced.wall - plain.wall) / plain.wall, "ratio")
    for name, (value, unit) in metrics.items():
        _line(name, value, unit)
    _report_failures(traced)
    same = plain.digest == traced.digest
    print(f"csv_digest sha256:{traced.digest} over the {traced.attempted} ops run"
          + ("" if same else f" (untraced pass: sha256:{plain.digest})"))
    spans = run_dir.parent / f"spans-{workload}-seed{seed}.jsonl"
    t.write_spans(spans)
    print(f"spans: {len(t.spans)} written to {spans.relative_to(bench_setup.ROOT)}")
    return {"correct": not traced.wrong and same, "attempted": traced.attempted,
            "failed": traced.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    run_dir = bench_setup.ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    try:
        measure = per_layer if args.trace else end_to_end
        result = measure(args.workload, args.seed, args.seconds, run_dir)
    except bench_setup.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
