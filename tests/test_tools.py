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
    "tile draw, 32 floats per sample",
    "tile draw, 288 floats per sample",
    "_haar_arr, 4 qubits",
    "_induced_arr, 3 of 6 qubits",
    "_reduced_arr pure, 4-qubit hub pairs",
    "ket trace + T, 4-qubit hub pairs",
    "ket trace + (a, b, T), 3-qubit hub pairs",
    "_reduced_arr, 4-qubit hub pairs of densities",
    "_reduced_arr, 3-qubit pair (0, 1)",
    "_abT_arr",
    "_volume_from_abT",
    "_wootters_lambdas, 4 x 4 factors",
    "_apply_local_arr, 3 qubits",
    "_apply_local_arr, 3 qubits, one channel per state",
]

# One row per timed table: its name and its cell count.
TABLES = [
    ("fig1 --grid 50, CSV", 22500),
    ("fig1 --grid 50, JSON", 22500),
    ("fig2 --grid 100, JSON", 2400),
    ("fig2 --grid 100, CSV", 2400),
    ("analyze, mixed 5 qubits, CSV", 56),
    ("5000 x 6 distinct, CSV", 30000),
    ("5000 x 6 distinct, JSON", 30000),
]

# Timed per call after the grid checks.
CLI_KERNELS = ["fig1 columns, _ghz_columns(50)", "analyze, mixed 5-qubit golden state"]


def test_check_costs_prints_every_check():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(experiments.__file__)))
    argv = [sys.executable, str(ROOT / "tools" / "check_costs.py"), "--rows", "8", "--repeats", "1"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    table = [line.split("`")[1] for line in lines if line.startswith("| `")]
    assert sorted(table) == sorted(check.name for check in experiments._SUITE if check.scaled)
    start = lines.index("Shared pass (_shared_sampled over every random-sample check):") + 1
    shared = lines[start : lines.index("", start)]
    assert [line.split(":")[0] for line in shared] == ["  samples=50", "  samples=8"]
    per_block = r"  .+: 1 block\(s\), \d+\.\d\d ms, \d+\.\d minflt per block"
    assert all(re.fullmatch(per_block, line) for line in shared), shared
    rounds = [line for line in lines if line.startswith("Conjecture round")]
    assert len(rounds) == 1
    assert re.fullmatch(
        r"Conjecture round \(run_conjecture_test\(2500\)\): \d+\.\d\d ms, \d+\.\d minflt per round", rounds[0]
    )
    start = lines.index("Layers, 256 states at seed 7:") + 1
    layers = lines[start : lines.index("", start)]
    assert [line.split(":")[0].strip() for line in layers] == LAYERS
    assert all(re.fullmatch(r"  .+: \d+\.\d{3} µs/state, \d+\.\d minflt/call", line) for line in layers), layers
    start = lines.index("Tables at seed 7, per cell:") + 1
    per_cell = r"  (.+): \d+\.\d{4} µs/cell, (\d+) cells"
    tables = [re.fullmatch(per_cell, line) for line in lines[start : lines.index("", start)]]
    assert all(tables), lines[start:]
    assert [(match[1], int(match[2])) for match in tables] == TABLES
    grid = lines[lines.index("Grid checks and CLI kernels, ms per call:") + 1 :]
    names = [c.name for c in experiments._SUITE if not c.scaled] + CLI_KERNELS
    assert [line.split(":")[0].strip() for line in grid] == names
    assert all(re.fullmatch(r"  .+: \d+\.\d\d", line) for line in grid), grid
