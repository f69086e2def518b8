"""qsteer benchmark: time one workload end to end, or trace it layer by layer.

    python3 benchmarks/run.py --workload conjecture --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Each run starts fresh worker
processes (``worker.py``) with one BLAS thread and ``workers=1``, so nothing
else in the run competes for the two cores.  With ``--trace 0`` it prints
the end-to-end metrics, with ``--trace 1`` the per-layer ones; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits 1 without a result if a worker fails,
2 if the checkout holds no ``src/qsteer``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".work")

WORKLOADS = ("conjecture", "suite", "cli_figures")
#: Set-up-only processes before and after the timed one; ``setup_s`` is the
#: median of all seven, spread over the run so one burst of host load weighs less.
SETUPS_AROUND = 3
#: Wall-clock budget of one run; a run must end well within 180 s.
DEADLINE_S = 170.0
#: Seconds one reference-kernel run is taken to last when set-up cost in
#: reference units is reported as ``setup_s`` (about its time on an idle core
#: of the recording machine; see README).
REFERENCE_S = 0.005
#: The BLAS and OpenMP runtimes read these at load time.  Every matrix is at
#: most 32x32, so threads would only add hand-off cost and contention.
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def _worker(workload: str, seed: int, mode: str, seconds: float, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, **{name: "1" for name in ONE_THREAD})
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--seconds", str(seconds), "--workdir", WORKDIR,
    ]  # fmt: skip
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker exceeded the {DEADLINE_S:.0f} s run budget") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise WorkerError(f"{mode} worker printed no result") from exc


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: the result object plus the details behind it."""
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(WORKDIR, exist_ok=True)
    n_setups = 0 if trace else SETUPS_AROUND
    extras = [_worker(workload, seed, "setup", 0.0, deadline) for _ in range(n_setups)]
    main = _worker(workload, seed, "trace" if trace else "time", seconds, deadline)
    extras += [_worker(workload, seed, "setup", 0.0, deadline) for _ in range(n_setups)]
    attempted = main["attempted"] + sum(e["attempted"] for e in extras)
    failed = main["failed"] + sum(e["failed"] for e in extras)
    details = {"rounds": main["rounds"], "facts": main["facts"]}
    if trace:
        metrics = main["metrics"]
    else:
        setups = [main["setup_s"]] + [e["setup_s"] for e in extras]
        setup_refs = [main["setup_ref"]] + [e["setup_ref"] for e in extras]
        values = {
            "setup_s": (REFERENCE_S * statistics.median(setup_refs), "s"),
            "round_ref_p50": (main["metrics"]["round_ref_p50"], "ref"),
            "round_ref_tail": (main["metrics"]["round_ref_tail"], "ref"),
            "items_per_ref": (main["metrics"]["items_per_ref"], "items/ref"),
            "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        }
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
        seconds = {"setup_s_raw": statistics.median(setups), **main["seconds"]}
        details.update(tail_percentile=main["tail_percentile"], setups_s=setups, seconds=seconds)
    details["failed_ratio"] = failed / attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"result": result, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "qsteer", "__init__.py")):
        print(f"run.py: no qsteer sources under {SRC}; run from a qsteer checkout", file=sys.stderr)
        return 2
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    result, details = run["result"], run["details"]
    print(f"workload {args.workload}, seed {args.seed}, {details['rounds']} rounds, "
          f"failed_ratio {details['failed_ratio']:.6g} ({result['failed']}/{result['attempted']})")  # fmt: skip
    if "tail_percentile" in details:
        print(f"round_ref_tail is the p{details['tail_percentile']:.4g} round cost")
        for name, value in details["seconds"].items():
            print(f"(ungated) {name} = {value:.6g}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
