"""Record the baseline: every workload, timed and traced, on a main and a second seed.

    python3 benchmarks/record.py

Runs each workload for BENCHMARK.json's ``run_seconds``.  Prints every
end-to-end metric by name and unit for both seeds side by side, with each
workload's failed_ratio, and writes ``benchmarks/baseline.json`` with the
per-layer metrics, the machine facts and the provenance.  The second seed
shows whether a figure depends on the seed it was tuned on.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

import run

OUT = os.path.join(run.HERE, "baseline.json")
#: The main seed, and a second one the benchmark was not tuned on.
SEEDS = (12345, 7)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    runs: dict = {}
    facts: dict = {}
    for workload in run.WORKLOADS:
        runs[workload] = {}
        for seed in SEEDS:
            timed = run.measure(workload, seed, seconds, trace=False)
            traced = run.measure(workload, seed, seconds, trace=True)
            facts = timed["details"].pop("facts")
            traced["details"].pop("facts")
            runs[workload][str(seed)] = {
                "correct": timed["result"]["correct"] and traced["result"]["correct"],
                "end_to_end": timed["result"]["metrics"],
                "timed": timed["details"],
                "per_layer": traced["result"]["metrics"],
                "traced": traced["details"],
            }
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)

    baseline = {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": facts["numpy"],
            "blas": facts["blas"],
            "blas_threads": facts["blas_threads"],
        },
        "provenance": {"qsteer_commit": _commit(), "seeds": list(SEEDS), "seconds": seconds},
        "runs": runs,
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")

    print(f"{'workload':12s} {'metric':14s} {'unit':8s} {'seed ' + str(SEEDS[0]):>14s} {'seed ' + str(SEEDS[1]):>14s}")
    for workload, by_seed in runs.items():
        first, second = (by_seed[str(s)] for s in SEEDS)
        for name, metric in first["end_to_end"].items():
            other = second["end_to_end"][name]["value"]
            print(f"{workload:12s} {name:14s} {metric['unit']:8s} {metric['value']:14.6g} {other:14.6g}")
        ratios = (first["timed"]["failed_ratio"], second["timed"]["failed_ratio"])
        print(f"{workload:12s} {'failed_ratio':14s} {'ratio':8s} {ratios[0]:14.6g} {ratios[1]:14.6g}")
    print(f"wrote {os.path.relpath(OUT, run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
