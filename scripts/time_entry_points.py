#!/usr/bin/env python3
"""Time every smoothlab entry point end to end and print one JSON object.

Each entry runs once, as a child process of this script, in a fresh
temporary directory that receives any file it writes, with this checkout's
src/ first on PYTHONPATH.  For each entry the object records the argument
list, the wall time from start to exit, the child's own CPU time (ru_utime
+ ru_stime, above the wall time when a second BLAS thread spins) and peak
resident set size (ru_maxrss), both from os.wait4 so that earlier children
do not count, its exit status and the sha256 of its stdout, so two
reports, from two checkouts or two runs of one, show by a diff which
entries printed other bytes.  The CLI subcommands run at these fixed
arguments, the scripts at their defaults:

    count                  count 100000 1000 --q 7 --a 3 --weighted --json
    saddle                 saddle 1e8 1000 --json
    lfun                   lfun 1.2 0.5 999983 1 50 --json
    chars                  chars 100003
    contour                contour --x 1e5 --y 1000 --q 7 --chi 1 --T 160
    verify                 verify --suite all --seeds 100
    experiment             experiment --config CFG (equidistribution)
    experiment_coset       experiment --config CFG --mode coset
    experiment_unsmoothing experiment --config CFG --mode unsmoothing
    run_equidistribution   scripts/run_equidistribution.py
    run_contour_check      scripts/run_contour_check.py
    run_inequality_corpus  scripts/run_inequality_corpus.py

CFG is {"xs": [1e3, 1e4, 1e5], "ys": [10, 30], "qs": [3, 7]}.  Every entry
starts a fresh interpreter, so its time includes the imports and any cache
that the entry fills.  Stdlib only; ru_maxrss is read in KiB, as Linux
reports it, and it includes what the child held before exec, this script's
own 14 MB or so, so run the script in a process of its own.

Usage: python3 scripts/time_entry_points.py > entry_points.json
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = {"xs": [1e3, 1e4, 1e5], "ys": [10.0, 30.0], "qs": [3, 7]}

CLI = {
    "count": ["count", "100000", "1000", "--q", "7", "--a", "3", "--weighted", "--json"],
    "saddle": ["saddle", "1e8", "1000", "--json"],
    "lfun": ["lfun", "1.2", "0.5", "999983", "1", "50", "--json"],
    "chars": ["chars", "100003"],
    "contour": ["contour", "--x", "1e5", "--y", "1000", "--q", "7", "--chi", "1", "--T", "160"],
    "verify": ["verify", "--suite", "all", "--seeds", "100"],
    "experiment": ["experiment", "--config", "config.json"],
    "experiment_coset": ["experiment", "--config", "config.json", "--mode", "coset"],
    "experiment_unsmoothing": ["experiment", "--config", "config.json", "--mode", "unsmoothing"],
}
SCRIPTS = ("run_equidistribution", "run_contour_check", "run_inequality_corpus")


def _run(argv: list[str], env: dict[str, str]) -> dict:
    """Run argv in a fresh temporary directory; its wall time, CPU time, peak
    RSS, exit status and stdout digest."""
    with tempfile.TemporaryDirectory() as work:
        Path(work, "config.json").write_text(json.dumps(CONFIG))
        stdout = Path(work, "stdout.txt")
        # a file, not a pipe: verify prints about 500 lines, which would fill
        # a pipe that nobody reads and block the child before wait4 returns
        with stdout.open("wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=work, env=env, stdout=out)
            # wait4 reaps the child and returns that child's own rusage; the
            # exit code is handed to proc so that it does not wait again
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        digest = hashlib.sha256(stdout.read_bytes()).hexdigest()
    return {
        "wall_s": round(wall, 4),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 4),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 2),
        "exit": proc.returncode,
        "stdout_sha256": digest,
    }


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    entries = {}
    for name, args in CLI.items():
        run = _run([sys.executable, "-m", "smoothlab", *args], env)
        entries[name] = {"argv": ["smoothlab", *args], **run}
    for name in SCRIPTS:
        run = _run([sys.executable, str(ROOT / "scripts" / f"{name}.py")], env)
        entries[name] = {"argv": [f"scripts/{name}.py"], **run}
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.platform(),
        "cpus": os.cpu_count(),
        "entries": entries,
    }
    print(json.dumps(report, indent=1))
    return 1 if any(entry["exit"] for entry in entries.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
