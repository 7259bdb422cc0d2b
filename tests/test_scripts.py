"""The scripts run end to end at small sizes."""

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from smoothlab.cli import build_parser

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


def _run_script(script, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *CASES[script][0]],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("script", list(CASES))
def test_script_runs(script, tmp_path):
    proc = _run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    header = CASES[script][1]
    assert any(line.startswith(header) for line in proc.stdout.splitlines()), proc.stdout


def test_contour_check_stdout_is_byte_identical(tmp_path):
    # the wall time goes to stderr, so stdout depends on the arguments alone
    first, second = (_run_script("run_contour_check.py", tmp_path) for _ in range(2))
    assert first.returncode == second.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    assert first.stderr.startswith("total ")


def test_entry_point_timer_reads_each_child_apart():
    # ru_maxrss of a child counts the RSS it had before exec, which is its
    # parent's, so the timer runs in a small process of its own, as it does
    # when run as a script
    probe = """
import importlib.util, json, os, sys
spec = importlib.util.spec_from_file_location("timer", sys.argv[1])
timer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(timer)
big = timer._run([sys.executable, "-c", "x = bytearray(96 << 20)"], dict(os.environ))
small = timer._run([sys.executable, "-c", "print('smooth'); raise SystemExit(3)"], dict(os.environ))
print(json.dumps([big, small]))
"""
    path = ROOT / "scripts" / "time_entry_points.py"
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(path)], capture_output=True, text=True, timeout=60
    )
    big, small = json.loads(proc.stdout)
    assert big["exit"] == 0 and big["peak_rss_mb"] >= 96
    # the second child's peak is its own, not the larger one of the first
    assert small["exit"] == 3 and small["peak_rss_mb"] < 96
    assert big["wall_s"] > 0 and small["wall_s"] > 0
    # each digest is of that child's stdout alone
    assert big["stdout_sha256"] == hashlib.sha256(b"").hexdigest()
    assert small["stdout_sha256"] == hashlib.sha256(b"smooth\n").hexdigest()


def test_entry_point_timer_runs_every_subcommand():
    # a subcommand added to the CLI without a row in the timer's table would
    # go untimed; every row must also parse
    path = ROOT / "scripts" / "time_entry_points.py"
    spec = importlib.util.spec_from_file_location("time_entry_points", path)
    timer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(timer)
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    timed = {parser.parse_args(args).command for args in timer.CLI.values()}
    assert timed == set(sub.choices)
