"""Per-check cost of the invariant suite: draw and reduce µs/sample, and the shared pass per block.

    PYTHONPATH=src python tools/check_costs.py [--rows 2000] [--seed 7] [--repeats 5]

Each random-sample check runs alone on ``--rows`` samples: its draw column
times re-keying each sample's stream and drawing its row, its reduce column
times the reduce on the pre-drawn rows, block by block, each block with its
own stack cache (so the check builds every state stack it reads).  Rows are
sorted by reduce cost; the full-scale column is the reduce at the check's
10^4-scale sample count.  The shared pass is ``_shared_sampled`` over all
the checks at two suite scales, per block of at most 256 samples: 50 (the
benchmark's ``suite`` round, one block) and ``--rows``.  The layer rows time
each kernel of the per-sample path on one stack of 256 states drawn at
``--seed``, per state, with the minor page faults (``ru_minflt``) per call
after one warm-up call.  Grid checks are timed per call.  Times are medians
of ``--repeats`` runs in this process, with one BLAS thread unless
``OPENBLAS_NUM_THREADS`` is set.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read when numpy loads OpenBLAS

import numpy as np  # noqa: E402

from qsteer import channels, ellipsoid, experiments, monogamy, states  # noqa: E402
from qsteer.states import sample_streams  # noqa: E402

#: States per layer call: one block of the shared pass and of the conjecture.
LAYER_STATES = 256
#: Calls per timed layer run.
LAYER_CALLS = 20


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _draw(rows: np.ndarray, draw, seed: int) -> None:
    for i, rng in sample_streams(seed, 0, len(rows)):
        draw(rng, rows[i])


def _reduce(rows: np.ndarray, reduce) -> None:
    for block in experiments._blocks(len(rows)):
        draws = rows[block]
        reduce(draws, experiments._Stacks(draws).reader(len(draws)))


def _shared_parts(samples: int) -> tuple[tuple, int]:
    """The ``_shared_sampled`` checks of a suite run at ``samples``, and its largest count."""
    checks = [check for check in experiments._SUITE if check.scaled]
    counts = [experiments._scaled_count(check, samples) for check in checks]
    keys = ("width", "reduce", "draw")
    parts = tuple((n, *(check.fn.keywords[key] for key in keys)) for check, n in zip(checks, counts))
    return parts, max(counts)


def _layers(seed: int) -> list[tuple[str, object]]:
    """(name, call) of each per-sample kernel on one stack of ``LAYER_STATES`` states drawn at ``seed``."""
    normals = np.empty((LAYER_STATES, 32))

    def rekey_draw() -> None:
        for i, rng in sample_streams(seed, 0, LAYER_STATES):
            rng.standard_normal(out=normals[i])

    rekey_draw()
    kets4 = states._haar_arr(normals)
    # Three system and three ancilla qubits: induced mixed 3-qubit states.
    kets6 = states._haar_arr(np.random.default_rng(seed).standard_normal((LAYER_STATES, 128)))
    mixed3 = states._induced_arr(kets6, 3)
    pairs = states._reduced_arr(mixed3, 3, [(0, 1)])[0]
    abT = ellipsoid._steering_abT(pairs, 0)
    sups = [channels.isotropic_channel(0.1).superoperator] * 3
    return [
        ("re-key and draw 32 normals", rekey_draw),
        ("_haar_arr, 4 qubits", lambda: states._haar_arr(normals)),
        ("_induced_arr, 3 of 6 qubits", lambda: states._induced_arr(kets6, 3)),
        ("_reduced_arr pure, 4-qubit hub pairs", lambda: states._reduced_arr(kets4, 4, [(0, 1), (0, 2), (0, 3)], True)),
        ("_reduced_arr, 3-qubit pair (0, 1)", lambda: states._reduced_arr(mixed3, 3, [(0, 1)])),
        ("_abT_arr", lambda: states._abT_arr(pairs)),
        ("_volume_from_abT", lambda: ellipsoid._volume_from_abT(*abT)),
        ("_wootters_lambdas, 4 x 4 factors", lambda: monogamy._wootters_lambdas(kets4.reshape(-1, 4, 4))),
        ("_apply_local_arr, 3 qubits", lambda: channels._apply_local_arr(sups, mixed3, 3)),
    ]


def _calls(fn) -> None:
    for _ in range(LAYER_CALLS):
        fn()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    table = []
    for check in experiments._SUITE:
        if not check.scaled:
            continue
        width, reduce, draw = (check.fn.keywords[key] for key in ("width", "reduce", "draw"))
        rows = np.empty((args.rows, width))
        draw_s = _median_s(lambda: _draw(rows, draw, args.seed), args.repeats)
        reduce_s = _median_s(lambda: _reduce(rows, reduce), args.repeats)
        per_sample = reduce_s / args.rows
        table.append((check.name, draw_s / args.rows * 1e6, per_sample * 1e6, per_sample * check.samples))
    print(f"Each check alone on {args.rows} rows at seed {args.seed}:")
    print("| check | draw µs/sample | reduce µs/sample | full-scale reduce s |")
    print("|---|---|---|---|")
    for name, draw_us, reduce_us, full_s in sorted(table, key=lambda row: -row[3]):
        print(f"| `{name}` | {draw_us:.1f} | {reduce_us:.1f} | {full_s:.3f} |")
    print(f"Reduces alone at full scale: {sum(row[3] for row in table):.2f} s")

    print("\nShared pass (_shared_sampled over every random-sample check):")
    for samples in (50, args.rows):
        parts, n_samples = _shared_parts(samples)
        blocks = len(experiments._blocks(n_samples))
        total_s = _median_s(lambda: experiments._shared_sampled(args.seed, 0, n_samples, parts), args.repeats)
        print(f"  samples={samples}: {blocks} block(s), {total_s / blocks * 1e3:.2f} ms per block")

    print(f"\nLayers, {LAYER_STATES} states at seed {args.seed}:")
    for name, fn in _layers(args.seed):
        fn()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_s = _median_s(lambda: _calls(fn), args.repeats)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        per_state = run_s / LAYER_CALLS / LAYER_STATES * 1e6
        print(f"  {name}: {per_state:.3f} µs/state, {faults / (LAYER_CALLS * args.repeats):.1f} minflt/call")

    print("\nGrid checks, ms per call:")
    for check in experiments._SUITE:
        if not check.scaled:
            call_s = _median_s(lambda: check.fn(args.seed, 0, check.samples), args.repeats)
            print(f"  {check.name}: {call_s * 1e3:.2f}")


if __name__ == "__main__":
    main()
