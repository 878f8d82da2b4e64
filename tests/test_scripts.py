"""Smoke tests: each experiment script runs to exit 0 and writes its CSV, and the
bench script collects a short benchmark run."""
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,csv_name",
    [
        ("run_euler_sew.py", "euler_sew.csv"),
        ("run_winding_knit.py", "winding_knit.csv"),
        ("run_certify_young.py", "young_fit.csv"),
    ],
)
def test_experiment_script_runs(tmp_path, script, csv_name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / csv_name, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) > 1
    if script == "run_euler_sew.py":
        assert rows[-1][0] == "limit"
        assert abs(float(rows[-1][4]) - math.e) <= 1e-8


def test_bench_script_collects_both_runs_of_a_workload(tmp_path):
    out = tmp_path / "BENCH_0.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--pr", "0", "--seconds", "1",
         "--workload", "sew-smooth", "--out", str(out)],
        capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    runs = record["workloads"]["sew-smooth"]
    assert runs["end_to_end"]["correct"] and runs["end_to_end"]["failed"] == 0
    assert runs["end_to_end"]["metrics"]["ops_per_s"]["value"] > 0.0
    assert runs["per_layer"]["metrics"]["models.mu_calls"]["value"] > 0
    assert runs["per_layer"]["csv_digest"].startswith("sha256:")
