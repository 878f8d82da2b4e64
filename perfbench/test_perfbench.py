"""Tests of the benchmark itself: references, failure accounting, repeatable
counts and digests, and refusal to run without the program.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import bench_setup
import run
import workloads

HERE = Path(__file__).resolve().parent

#: counts a later change may cite as exact; they must repeat for one seed
EXACT_COUNTS = ("models.mu_calls", "models.eval_calls", "sewing.levels", "sewing.final_k",
                "sewing.zeta_misses", "paths.at_calls", "knitting.net_nodes")


def test_young_references_match_quadrature():
    fns = {"linear": (lambda s: s, lambda s: 1.0 + 0 * s),
           "sin": (np.sin, np.cos),
           "quadratic": (lambda s: s * s, lambda s: 2.0 * s)}
    T = 0.8
    s = np.linspace(0.0, T, 200001)
    for (driver, integrand), closed in workloads._YOUNG_INTEGRALS.items():
        y = fns[integrand][0](s) * fns[driver][1](s)
        quad = float(np.sum((y[1:] + y[:-1]) * np.diff(s)) / 2.0)
        assert closed(T) == pytest.approx(quad, abs=1e-9), (driver, integrand)


def test_matrix_reference_matches_taylor_series():
    a = [[0.3, -0.9], [0.7, 0.1]]
    m = np.array(a) * 0.9
    term, total = np.eye(2), np.eye(2)
    for j in range(1, 30):
        term = term @ m / j
        total = total + term
    assert workloads._expm00(a, 0.9) == pytest.approx(total[0, 0], abs=1e-13)


def test_check_csv_rejects_a_value_beyond_tol():
    op = workloads._sew({"name": "additive_sin"}, 1.0, 1e-8, 1.0 - math.cos(1.0))
    head = "level,mesh,successive_distance,bound,value\n"
    good = head + f"limit,0,0,0,{op.ref + 0.5e-8!r}\n"
    bad = head + f"limit,0,0,0,{op.ref + 2e-8!r}\n"
    assert workloads.check_csv(op, good) is None
    assert "misses" in workloads.check_csv(op, bad)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_stream_is_seeded(name):
    a = workloads.generate(name, 7, 45)
    assert a == workloads.generate(name, 7, 45)
    assert a != workloads.generate(name, 8, 45)


def test_tail_percentile_follows_the_nominal_count():
    xs = [float(i) for i in range(1, 101)]
    assert run.tail(xs, 100) == (90.0, 90.0, 10)
    assert run.tail(xs, 199) == (90.0, 90.0, 10)
    assert run.tail(xs, 200) == (95.0, 95.0, 5)
    assert run.tail(xs, 25)[0] == 50.0


def test_escaped_exception_is_a_counted_failure_and_the_run_goes_on(tmp_path):
    ops = workloads.generate("knit-holonomy", 1, 3)
    calls = []

    def fake_run(path, quiet):
        calls.append(path)
        raise ValueError("needs at least 20 samples")

    p = run.run_ops(SimpleNamespace(run=fake_run), ops, tmp_path, None)
    assert len(calls) == 3 and p.attempted == 3 and p.failed == 3
    assert all(k.startswith("ValueError") for k in p.failures)
    assert not p.wrong


def _traced(name: str) -> tuple[dict, str, bool]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
         "--seconds", "2", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    lines = out.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("csv_digest"))
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, digest, result["correct"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_and_digest_repeat(name):
    first, digest1, ok1 = _traced(name)
    second, digest2, ok2 = _traced(name)
    assert ok1 and ok2
    assert digest1 == digest2
    for key in EXACT_COUNTS:
        assert first[key] == second[key], key
    assert first["models.mu_calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    bench_json = bench_setup.ROOT / "BENCHMARK.json"
    if bench_json.exists():
        shutil.copy(bench_json, tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sew-smooth", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_four_point_stream_skips_the_seeds_that_raise():
    ops = workloads.generate("knit-holonomy", 3, 600)
    seeds = [op.config["seed"] for op in ops if op.kind == "strong_four_point"]
    assert len(seeds) > 50
    assert not set(seeds) & workloads.FOUR_POINT_RAISES
    assert set(workloads.FOUR_POINT_PROBE_SEEDS) <= workloads.FOUR_POINT_RAISES
