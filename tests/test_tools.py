"""The scripts under tools/ run against the current package."""

import os
import re
import subprocess
import sys
from pathlib import Path

from qsteer import experiments

ROOT = Path(__file__).resolve().parents[1]

# One row per kernel of the per-sample path, in print order.
LAYERS = [
    "re-key and draw 32 normals",
    "_haar_arr, 4 qubits",
    "_induced_arr, 3 of 6 qubits",
    "_reduced_arr pure, 4-qubit hub pairs",
    "_reduced_arr, 3-qubit pair (0, 1)",
    "_abT_arr",
    "_volume_from_abT",
    "_wootters_lambdas, 4 x 4 factors",
    "_apply_local_arr, 3 qubits",
]


def test_check_costs_prints_every_check():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(experiments.__file__)))
    argv = [sys.executable, str(ROOT / "tools" / "check_costs.py"), "--rows", "8", "--repeats", "1"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    table = [line.split("`")[1] for line in lines if line.startswith("| `")]
    assert sorted(table) == sorted(check.name for check in experiments._SUITE if check.scaled)
    start = lines.index("Layers, 256 states at seed 7:") + 1
    layers = lines[start : lines.index("", start)]
    assert [line.split(":")[0].strip() for line in layers] == LAYERS
    assert all(re.fullmatch(r"  .+: \d+\.\d{3} µs/state, \d+\.\d minflt/call", line) for line in layers), layers
    grid = lines[lines.index("Grid checks, ms per call:") + 1 :]
    assert [line.split(":")[0].strip() for line in grid] == [c.name for c in experiments._SUITE if not c.scaled]
