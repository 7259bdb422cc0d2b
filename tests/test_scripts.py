"""The scripts run end to end at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CASES = {
    "run_equidistribution.py": (
        ["--xs", "1000", "--ys", "20", "--qs", "3"],
        "           x        y    q        v  max discrepancy",
    ),
    "run_inequality_corpus.py": (
        ["--scale", "0.001"],
        "lemma1     instances=     1 violations=0",
    ),
    "run_contour_check.py": (
        ["--xs", "1000", "--ys", "10", "--qs", "3", "--T", "40"],
        "         x      y    q  chars  worst rel err   tail bound",
    ),
}


@pytest.mark.parametrize("script", list(CASES))
def test_script_runs(script, tmp_path):
    args, header = CASES[script]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith(header) for line in proc.stdout.splitlines()), proc.stdout
