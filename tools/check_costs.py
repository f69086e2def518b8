"""Per-check cost of the invariant suite: draw and reduce µs/sample, and the shared pass per block.

    PYTHONPATH=src python tools/check_costs.py [--rows 2000] [--seed 7] [--repeats 5]

Each random-sample check runs alone on ``--rows`` samples: its draw column
times re-keying each sample's stream and drawing its row, its reduce column
times the reduce on the pre-drawn rows, block by block, each block with its
own stack cache (so the check builds every state stack it reads).  Rows are
sorted by reduce cost; the full-scale column is the reduce at the check's
10^4-scale sample count.  The shared pass is ``_shared_sampled`` over all
the checks at two suite scales, per block of at most 256 samples: 50 (the
benchmark's ``suite`` round, one block) and ``--rows``.  Grid checks are
timed per call.  Times are medians of ``--repeats`` runs in this process,
with one BLAS thread unless ``OPENBLAS_NUM_THREADS`` is set.
"""

from __future__ import annotations

import argparse
import os
import statistics
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read when numpy loads OpenBLAS

import numpy as np  # noqa: E402

from qsteer import experiments  # noqa: E402
from qsteer.states import sample_streams  # noqa: E402


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

    print("\nGrid checks, ms per call:")
    for check in experiments._SUITE:
        if not check.scaled:
            call_s = _median_s(lambda: check.fn(args.seed, 0, check.samples), args.repeats)
            print(f"  {check.name}: {call_s * 1e3:.2f}")


if __name__ == "__main__":
    main()
