"""Command-line front end.

Subcommands: ``analyze`` a state file, regenerate the ``fig1``/``fig2``
sweep data, run the ``conjecture`` search, run the invariant ``suite``, or
print the ``counterexample`` regression numbers.  Exit codes: 0 success, 1
suite/invariant failure, 2 usage, validation or allocation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import experiments, serialize
from .ellipsoid import SteeringEllipsoid, _ellipsoid_arr
from .monogamy import MonogamyReport
from .states import StateValidationError, _reduced_arr

__all__ = ["build_parser", "main"]


def _worker_count(raw: str) -> int:
    """``--workers`` value: an int in [1, os.cpu_count()], the process pool size."""
    value, limit = int(raw), os.cpu_count() or 1
    if not 1 <= value <= limit:
        raise argparse.ArgumentTypeError(f"must lie in [1, {limit}] (the CPU count), got {value}")
    return value


def _sample_count(raw: str) -> int:
    """``--samples`` value: an int >= 1; a run of no samples has no worst margin and no largest left-hand side."""
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qsteer", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
        sub.add_argument("--output", help="output file; stdout when omitted")
        return sub

    analyze = command("analyze", "steering ellipsoids and monogamy report for a state file")
    analyze.add_argument("--input", required=True, help="input state file (JSON)")
    analyze.add_argument("--tol", type=float, default=1e-9, help="state-validation tolerance")
    fig1 = command("fig1", "GHZ-family volume sweep over the (alpha, beta) grid")
    fig1.add_argument("--grid", type=int, default=50, help="sweep grid steps per axis")
    fig2 = command("fig2", "noisy W-family sweep over (p, epsilon)")
    p_values = fig2.add_mutually_exclusive_group()
    p_values.add_argument("--grid", type=int, help="number of W-family weights on (0, 1); default 100")
    p_values.add_argument("--p", type=float, help="a single W-family weight in (0, 1)")
    fig2.add_argument("--epsilons", help="comma-separated isotropic noise strengths")
    conjecture = command("conjecture", "random search against the 4-qubit correlation bound")
    suite = command("suite", "run every module invariant over seeded random ensembles")
    for sub, samples in ((conjecture, 100_000), (suite, 10_000)):
        sub.add_argument("--seed", type=int, default=experiments.DEFAULT_SEED, help="master seed")
        sub.add_argument("--samples", type=_sample_count, default=samples, help="Monte-Carlo sample count")
        sub.add_argument("--workers", type=_worker_count, default=1, help="parallel worker processes")
    suite.add_argument("--explore-mixed-4q", action="store_true", help="probe the open mixed 4-qubit bound; never fails")
    command("counterexample", "regression numbers for the monogamy counterexample")
    return parser


def _write(args, text: str) -> None:
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            # A usage error (exit 2): exit 1 would read as a failed suite.
            raise ValueError(f"cannot write output file {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_columns(args, row_type: type, columns) -> None:
    """Write a sweep's columns as the table of ``row_type`` rows, in one formatter per format."""
    names = [f.name for f in dataclasses.fields(row_type)]
    to_text = serialize.columns_to_csv if args.format == "csv" else serialize.columns_to_json
    _write(args, to_text(names, columns))


def _cmd_analyze(args) -> int:
    state = serialize.load_state_file(args.input, tol=args.tol)
    n = state.n_qubits
    if n < 2:
        raise StateValidationError("analyze needs at least 2 qubits")
    # One stack of the (0, X) pairs; a two-qubit state is its own pair, steered from either qubit.
    pairs = _reduced_arr(state.data, n, [(0, x) for x in range(1, n)], state.is_pure)
    blocks = []
    for hub in (0, 1) if n == 2 else (0,):
        steered = [x for x in range(n) if x != hub]
        blocks.append((np.full(len(steered), hub), np.array(steered), *_ellipsoid_arr(pairs, hub)))
    hubs, steered, center, q, semiaxes, volume, live = map(np.concatenate, zip(*blocks))
    report = MonogamyReport._from_volumes(0, volume, n) if n >= 3 else None
    if args.format == "csv":
        fields = ["steering_qubit", "steered_qubit", "volume", "degenerate"]
        fields += [f"center_{axis}" for axis in "xyz"] + [f"semiaxis_{i}" for i in (1, 2, 3)]
        columns = [hubs, steered, volume, ~live, *center.T, *semiaxes.T]
        if report:
            aggregates = ("sqrt_lhs", "two_thirds_lhs", "n_bound", "mean_volume")
            fields += aggregates
            columns += [[getattr(report, name)] * len(volume) for name in aggregates]
        _write(args, serialize.columns_to_csv(fields, columns))
    else:
        ellipsoids = [
            {"steering_qubit": h, "steered_qubit": x, **SteeringEllipsoid(*geometry, not alive).to_dict()}
            for h, x, *geometry, alive in zip(hubs.tolist(), steered.tolist(), center, q, semiaxes, volume, live)
        ]
        monogamy_block = report.to_dict() if report else None
        _write(args, serialize.dumps({"n_qubits": n, "ellipsoids": ellipsoids, "monogamy": monogamy_block}))
    return 0


def _cmd_fig1(args) -> int:
    _emit_columns(args, experiments.GhzSweepRow, experiments._ghz_columns(args.grid))
    return 0


def _parse_epsilons(raw: str | None):
    if raw is None:
        return None
    try:
        return [float(part) for part in raw.split(",")]
    except ValueError as exc:
        raise ValueError(f"--epsilons must be a comma-separated float list: {exc}") from exc


def _cmd_fig2(args) -> int:
    p_grid = None if args.grid is None else experiments._open_grid(args.grid, 1.0)
    if args.p is not None:
        p_grid = [args.p]
    columns = experiments._noisy_w_columns(p_grid, _parse_epsilons(args.epsilons))
    _emit_columns(args, experiments.NoisyWSweepRow, columns)
    return 0


def _cmd_conjecture(args) -> int:
    result = experiments.run_conjecture_test(args.samples, master_seed=args.seed, workers=args.workers)
    if args.format == "csv":
        row = {
            "samples": result.samples,
            "violations": result.violations,
            "max_lhs": result.max_lhs,
            "worst_state_seed": result.worst_state_seed,
            "near_miss_count": len(result.near_misses),
        }
        _write(args, serialize.rows_to_csv([row]))
    else:
        _write(args, serialize.dumps(result.to_dict()))
    print(
        f"conjecture: {result.samples} samples, {result.violations} violations, "
        f"max lhs {serialize.format_float(result.max_lhs)}",
        file=sys.stderr,
    )
    return 0


def _cmd_suite(args) -> int:
    report = experiments.run_property_suite(
        samples=args.samples,
        master_seed=args.seed,
        workers=args.workers,
        explore_mixed_4q=args.explore_mixed_4q,
    )
    if args.format == "csv":
        _write(args, serialize.rows_to_csv([r.to_dict() for r in report.results]))
    else:
        _write(args, serialize.dumps(report.to_dict()))
    for res in report.results:
        status = "PASS" if res.passed else ("NOTE" if res.exploratory else "FAIL")
        print(
            f"{status} {res.name}: {res.failures}/{res.samples} failures, "
            f"worst margin {serialize.format_float(res.worst_margin)} at index {res.worst_index}"
            + (f" ({res.error})" if res.error else ""),
            file=sys.stderr,
        )
    return 0 if report.passed else 1


def _cmd_counterexample(args) -> int:
    regression = experiments.counterexample_regression()
    if args.format == "csv":
        row = {
            "v_b_given_a": regression["volumes"][0],
            "v_c_given_a": regression["volumes"][1],
            "sqrt_lhs": regression["sqrt_lhs"],
            "two_thirds_lhs": regression["two_thirds_lhs"],
            "purified_sqrt_lhs": regression["purified_sqrt_lhs"],
        }
        _write(args, serialize.rows_to_csv([row]))
    else:
        _write(args, serialize.dumps(regression))
    print(
        f"sqrt_lhs = {serialize.format_float(regression['sqrt_lhs'])} > 1; "
        f"purified sqrt_lhs = {serialize.format_float(regression['purified_sqrt_lhs'])}",
        file=sys.stderr,
    )
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "fig1": _cmd_fig1,
    "fig2": _cmd_fig2,
    "conjecture": _cmd_conjecture,
    "suite": _cmd_suite,
    "counterexample": _cmd_counterexample,
}


# One parser per process: building it costs about 1 ms, and parse_args keeps
# no state between calls (it fills a fresh Namespace each time).
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (StateValidationError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
