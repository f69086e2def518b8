"""Per-check cost of the invariant suite (draw and reduce µs/sample, shared pass per block) and of the table writers.

    PYTHONPATH=src python tools/check_costs.py [--rows 2000] [--seed 7] [--repeats 5]

Each random-sample check runs alone on ``--rows`` samples: its draw column
times the shared pass's own draw of its rows (``states._drawn_blocks``: one
re-key and one generator call per tile of each 256-sample block), its
reduce column times the reduce on the pre-drawn rows, block by block, each
block with its own stack cache (so the check builds every state stack it
reads).  Rows are
sorted by reduce cost; the full-scale column is the reduce at the check's
10^4-scale sample count.  The shared pass is ``_shared_sampled`` over all
the checks at two suite scales, per block of at most 256 samples: 50 (the
benchmark's ``suite`` round, one block) and ``--rows``.  The conjecture row
is one ``run_conjecture_test(2500)`` round, the benchmark's ``conjecture``
round, at ``--seed``.  The layer rows time each kernel of the per-sample
path on one stack of 256 states drawn at ``--seed``, per state; the two
tile-draw rows draw one block of rows 32 floats wide (one tile, the
conjecture's rows) and 288 wide (nine tiles, the suite's widest rows at
10^4 samples), per sample; the two ``_apply_local_arr``
rows apply one isotropic channel shared by the stack, or one random channel
per state and qubit (the suite's channel checks).  The shared pass, the
conjecture round and the layers also give their minor page faults
(``ru_minflt``) in steady state: counted over the timed runs, after one
warm-up run.  The shared pass and the conjecture round run first, as in a
fresh ``qsteer suite`` or ``conjecture`` process: how often a block faults
depends on what the process allocated before it.  Grid checks are timed
per call.  The table rows time ``serialize.columns_to_csv`` or
``columns_to_json`` on the tables the CLI writes (fig1, fig2, and
``analyze --format csv`` of a mixed 5-qubit state drawn at ``--seed``) and
on a table of distinct floats, per cell.  The last rows
time fig1's columns (``_ghz_columns(50)``) and ``qsteer analyze`` of
``tests/golden/state_mixed5.json`` (JSON to the null device) per call.  Times are
medians of ``--repeats`` runs in this process, with one BLAS thread unless
``OPENBLAS_NUM_THREADS`` is set.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import tempfile
import time
from functools import partial
from pathlib import Path
from unittest import mock

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read when numpy loads OpenBLAS

import numpy as np  # noqa: E402

from qsteer import channels, cli, ellipsoid, experiments, monogamy, serialize, states  # noqa: E402

#: States per layer call: one block of the shared pass and of the conjecture.
LAYER_STATES = 256
#: Calls per timed layer run.
LAYER_CALLS = 20
#: Calls per timed table run.
TABLE_CALLS = 5
#: The golden state files of the test suite.
GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _steady(fn, repeats: int) -> tuple[float, float]:
    """Median seconds of ``repeats`` runs of ``fn`` after one warm-up run, and minor page faults per run."""
    fn()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_s = _median_s(fn, repeats)
    return run_s, (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / repeats


def _draw(samples: int, width: int, draw, seed: int) -> None:
    """The shared pass's draw of the rows of samples [0, ``samples``) at ``width``, block by block."""
    for _ in states._drawn_blocks(seed, 0, samples, draw, [(samples, width)]):
        pass


def _reduce(rows: np.ndarray, reduce) -> None:
    for block in experiments._blocks(len(rows)):
        draws = rows[block]
        reduce(draws, experiments._Stacks(draws).reader(len(draws)))


def _shared_parts(samples: int) -> tuple[tuple, int]:
    """The ``_shared_sampled`` checks of a suite run at ``samples``, and its largest count."""
    checks = [check for check in experiments._SUITE if check.scaled]
    counts = [experiments._scaled_count(check, samples) for check in checks]
    return tuple(zip(counts, checks)), max(counts)


def _layers(seed: int) -> list[tuple[str, object]]:
    """(name, call) of each per-sample kernel on one stack of ``LAYER_STATES`` states drawn at ``seed``."""
    normals = states.sample_rows(seed, 0, LAYER_STATES, 32)
    kets4 = states._haar_arr(normals)
    kets3 = states._haar_arr(normals[:, :16])
    dens4 = states._densities(kets4)
    hub4, hub3 = [(0, 1), (0, 2), (0, 3)], [(0, 1), (0, 2)]
    # Three system and three ancilla qubits: induced mixed 3-qubit states.
    kets6 = states._haar_arr(np.random.default_rng(seed).standard_normal((LAYER_STATES, 128)))
    mixed3 = states._induced_arr(kets6, 3)
    pairs = states._reduced_arr(mixed3, 3, [(0, 1)])[0]
    abT = ellipsoid._steering_abT(pairs, 0)
    sups = [channels.isotropic_channel(0.1).superoperator] * 3
    kraus = channels._random_kraus_arr(np.random.default_rng(seed).standard_normal((LAYER_STATES, 3, 128)))
    per_state = list(np.moveaxis(channels._superoperator_arr(kraus), 1, 0))
    return [
        ("tile draw, 32 floats per sample", partial(_draw, LAYER_STATES, 32, states._NORMALS, seed)),
        ("tile draw, 288 floats per sample", partial(_draw, LAYER_STATES, 288, states._NORMALS, seed)),
        ("_haar_arr, 4 qubits", lambda: states._haar_arr(normals)),
        ("_induced_arr, 3 of 6 qubits", lambda: states._induced_arr(kets6, 3)),
        ("_reduced_arr pure, 4-qubit hub pairs", lambda: states._reduced_arr(kets4, 4, hub4, True)),
        ("ket trace + T, 4-qubit hub pairs", lambda: states._spin_corr_arr(states._reduced_arr(kets4, 4, hub4, True))),
        ("ket trace + (a, b, T), 3-qubit hub pairs", lambda: states._abT_arr(states._reduced_arr(kets3, 3, hub3, True))),
        ("_reduced_arr, 4-qubit hub pairs of densities", lambda: states._reduced_arr(dens4, 4, hub4)),
        ("_reduced_arr, 3-qubit pair (0, 1)", lambda: states._reduced_arr(mixed3, 3, [(0, 1)])),
        ("_abT_arr", lambda: states._abT_arr(pairs)),
        ("_volume_from_abT", lambda: ellipsoid._volume_from_abT(*abT)),
        ("_wootters_lambdas, 4 x 4 factors", lambda: monogamy._wootters_lambdas(kets4.reshape(-1, 4, 4))),
        ("_apply_local_arr, 3 qubits", lambda: channels._apply_local_arr(sups, mixed3, 3)),
        ("_apply_local_arr, 3 qubits, one channel per state", lambda: channels._apply_local_arr(per_state, mixed3, 3)),
    ]


def _calls(fn, calls: int = LAYER_CALLS) -> None:
    for _ in range(calls):
        fn()


def _analyze_table(seed: int) -> tuple[list, list]:
    """The fields and columns ``qsteer analyze --format csv`` writes for a mixed 5-qubit state drawn at ``seed``."""
    tables = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(states.random_mixed_state(5, seed=seed).to_dict(), fh)
        with mock.patch.object(serialize, "columns_to_csv", lambda *table: tables.append(table) or ""):
            cli.main(["analyze", "--input", path, "--format", "csv", "--output", os.devnull])
    return tables[0]


def _tables(seed: int) -> list[tuple[str, object, list, list]]:
    """(name, writer, fields, columns) of each timed table."""
    fig1 = [f.name for f in dataclasses.fields(experiments.GhzSweepRow)], experiments._ghz_columns(50)
    fig2_columns = experiments._noisy_w_columns(experiments._open_grid(100, 1.0), None)
    fig2 = [f.name for f in dataclasses.fields(experiments.NoisyWSweepRow)], fig2_columns
    distinct = [f"c{k}" for k in range(6)], list(np.random.default_rng(seed).random((6, 5000)))
    return [
        ("fig1 --grid 50, CSV", serialize.columns_to_csv, *fig1),
        ("fig1 --grid 50, JSON", serialize.columns_to_json, *fig1),
        ("fig2 --grid 100, JSON", serialize.columns_to_json, *fig2),
        ("fig2 --grid 100, CSV", serialize.columns_to_csv, *fig2),
        ("analyze, mixed 5 qubits, CSV", serialize.columns_to_csv, *_analyze_table(seed)),
        ("5000 x 6 distinct, CSV", serialize.columns_to_csv, *distinct),
        ("5000 x 6 distinct, JSON", serialize.columns_to_json, *distinct),
    ]


def _cli_kernels() -> list[tuple[str, object]]:
    """(name, call) of fig1's columns and of ``qsteer analyze`` (JSON) of the mixed 5-qubit golden state."""
    analyze = ["analyze", "--input", str(GOLDEN / "state_mixed5.json"), "--output", os.devnull]
    return [
        ("fig1 columns, _ghz_columns(50)", partial(experiments._ghz_columns, 50)),
        ("analyze, mixed 5-qubit golden state", partial(cli.main, analyze)),
    ]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    print("Shared pass (_shared_sampled over every random-sample check):")
    for samples in (50, args.rows):
        parts, n_samples = _shared_parts(samples)
        blocks = len(experiments._blocks(n_samples))
        total_s, faults = _steady(lambda: experiments._shared_sampled(args.seed, 0, n_samples, parts), args.repeats)
        per_block = f"{total_s / blocks * 1e3:.2f} ms, {faults / blocks:.1f} minflt per block"
        print(f"  samples={samples}: {blocks} block(s), {per_block}")

    round_s, faults = _steady(lambda: experiments.run_conjecture_test(2500, master_seed=args.seed), args.repeats)
    print(f"\nConjecture round (run_conjecture_test(2500)): {round_s * 1e3:.2f} ms, {faults:.1f} minflt per round")

    table = []
    for check in experiments._SUITE:
        if not check.scaled:
            continue
        rows = states.sample_rows(args.seed, 0, args.rows, check.width, check.draw)
        draw_s = _median_s(lambda: _draw(args.rows, check.width, check.draw, args.seed), args.repeats)
        reduce_s = _median_s(lambda: _reduce(rows, check.reduce), args.repeats)
        per_sample = reduce_s / args.rows
        table.append((check.name, draw_s / args.rows * 1e6, per_sample * 1e6, per_sample * check.samples))
    print(f"\nEach check alone on {args.rows} rows at seed {args.seed}:")
    print("| check | draw µs/sample | reduce µs/sample | full-scale reduce s |")
    print("|---|---|---|---|")
    for name, draw_us, reduce_us, full_s in sorted(table, key=lambda row: -row[3]):
        print(f"| `{name}` | {draw_us:.1f} | {reduce_us:.1f} | {full_s:.3f} |")
    print(f"Reduces alone at full scale: {sum(row[3] for row in table):.2f} s")

    print(f"\nLayers, {LAYER_STATES} states at seed {args.seed}:")
    for name, fn in _layers(args.seed):
        run_s, faults = _steady(lambda: _calls(fn), args.repeats)
        per_state = run_s / LAYER_CALLS / LAYER_STATES * 1e6
        print(f"  {name}: {per_state:.3f} µs/state, {faults / LAYER_CALLS:.1f} minflt/call")

    print(f"\nTables at seed {args.seed}, per cell:")
    for name, writer, fields, columns in _tables(args.seed):
        run_s, _ = _steady(lambda: _calls(lambda: writer(fields, columns), TABLE_CALLS), args.repeats)
        cells = len(columns) * len(columns[0])
        print(f"  {name}: {run_s / TABLE_CALLS / cells * 1e6:.4f} µs/cell, {cells} cells")

    print("\nGrid checks and CLI kernels, ms per call:")
    grids = [check for check in experiments._SUITE if not check.scaled]
    calls = [(check.name, partial(check.fn, args.seed, 0, check.samples)) for check in grids]
    for name, fn in calls + _cli_kernels():
        print(f"  {name}: {_median_s(fn, args.repeats) * 1e3:.2f}")


if __name__ == "__main__":
    main()
