"""The scripts under tools/ run against the current package."""

import os
import subprocess
import sys
from pathlib import Path

from qsteer import experiments

ROOT = Path(__file__).resolve().parents[1]


def test_check_costs_prints_every_check():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(experiments.__file__)))
    argv = [sys.executable, str(ROOT / "tools" / "check_costs.py"), "--rows", "8", "--repeats", "1"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    table = [line.split("`")[1] for line in lines if line.startswith("| `")]
    assert sorted(table) == sorted(check.name for check in experiments._SUITE if check.scaled)
    grid = lines[lines.index("Grid checks, ms per call:") + 1 :]
    assert [line.split(":")[0].strip() for line in grid] == [c.name for c in experiments._SUITE if not c.scaled]
