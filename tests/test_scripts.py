"""Smoke test: each experiment script runs to exit 0 and writes its CSV."""
import csv
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
