"""Smoke runs of the experiment scripts at small sizes: exit code, header, rows."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = [
    ("bound_sharpness", ["--replicates", "2", "--x-points", "3", "--partitions", "10"],
     ["x", "p_true", "elbo", "iw_elbo", "rvi_0.5", "tvo", "hbo_0.8"], 3),
    ("ess_variance_profile", ["--replicates", "3", "--beta-points", "5"],
     ["path", "beta", "mean", "variance", "mean_ess"], 2 * 5),
    ("evidence_surface", ["--beta-points", "5"],
     ["alpha", "beta", "local_evidence", "log_marginal"], 7 * 5),
    ("partition_budget_error", ["--budgets", "2"],
     ["partitions", "tvo_error", "hbo_0.8_error"], 1),
    ("regression_posterior_convergence", ["--steps", "10", "--mmd-every", "5"],
     ["bound", "step", "objective", "mmd"], 3 * 3),
]


@pytest.mark.parametrize("name, args, header, rows", SCRIPTS, ids=[s[0] for s in SCRIPTS])
def test_script_runs(tmp_path, name, args, header, rows):
    out = tmp_path / f"{name}.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py"), "--out", str(out), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == header
    assert len(table) - 1 == rows
