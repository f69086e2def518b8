"""One benchmark process: import qsteer, set a workload up, run timed rounds, print one JSON line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and the BLAS pinned to one thread.  Set-up time runs from the first line of
this file (interpreter start-up excluded) to the end of the untimed warm-up
round; it is also reported in reference units, against the reference kernel
timed right after it.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Rounds that must lie above the reported tail percentile.
TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 values beyond it.

    With fewer than 11 values the median stands in, labelled as the 50th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def blas_facts() -> dict:
    """BLAS name and version from numpy's build config, and the thread count it runs with."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}", "blas_threads": threads}


def layer_metrics(totals, samples: dict, first_calls: dict, items: int, traced: list[float], untraced: list[float]) -> dict:
    """Per-layer metrics of the traced rounds, keyed by their BENCHMARK.json names."""
    total_s = sum(totals.self_s.values())
    metrics = {}
    for group in tracer.GROUPS:
        calls = totals.calls.get(group, 0)
        self_s = totals.self_s.get(group, 0.0)
        metrics[f"{group}.self_share"] = (self_s / total_s, "ratio")
        metrics[f"{group}.us_per_call"] = (1e6 * self_s / calls if calls else 0.0, "us")
        metrics[f"{group}.calls_per_item"] = (first_calls.get(group, 0) / items, "calls/item")
    for name in tracer.invariant_names():
        label = f"experiments.{name}"
        n = samples.get(label, 0)
        value = 1e6 * totals.invariant_s.get(label, 0.0) / n if n else 0.0
        metrics[f"{label}.us_per_sample"] = (value, "us")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t, out


def run_traced(work, seed: int, seconds: float, spans_path: str) -> dict:
    """Alternate untraced and traced rounds on the same master seeds; return per-layer metrics."""
    rec = tracer.Tracer()
    totals = tracer.LayerTotals()
    untraced, traced = [], []
    first_calls = None
    failed = attempted = 0
    last_spans = []
    start = time.perf_counter()
    r = 1
    while True:
        dt, out = _timed(work.run, seed + r)
        untraced.append(dt)
        failed += work.failures(out)
        rec.install()
        try:
            t = time.perf_counter()
            with rec.span(tracer.DRIVER):
                out = work.run(seed + r)
            traced.append(time.perf_counter() - t)
        finally:
            rec.uninstall()
        failed += work.failures(out)
        attempted += 2 * work.items
        last_spans = rec.take()
        totals.add(last_spans)
        if first_calls is None:
            first_calls = dict(totals.calls)
        r += 1
        if time.perf_counter() - start >= seconds:
            break
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "name", "start", "end"], "spans": last_spans}, fh)
    return {
        "attempted": attempted,
        "failed": failed,
        "rounds": len(traced),
        "metrics": layer_metrics(totals, rec.samples, first_calls, work.items, traced, untraced),
    }


def reference_kernel() -> float:
    """Fixed numpy work of the same grain as qsteer's (4x4 einsum, eigvalsh, det), ~6 ms.

    Its code never changes with qsteer, so its duration tracks only how fast
    the core runs at that moment.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = a + a.conj().T
    paulis = np.stack([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]).astype(complex)
    acc = 0.0
    for i in range(150):
        reduced = np.einsum("abcb->ac", h.reshape(2, 2, 2, 2))
        acc += float(np.einsum("jab,ba->j", paulis, reduced).real.sum())
        acc += float(np.linalg.eigvalsh(h)[0])
        acc += float(abs(np.linalg.det(a)))
        acc += float(np.linalg.norm(a[:, i % 4]))
    return acc


def run_untraced(work, seed: int, seconds: float) -> dict:
    """Timed rounds, each between two runs of the reference kernel.

    A round's cost in reference units (``ref``) is its time over the mean of
    the reference times just before and after it.  Host load on a shared
    machine slows both alike, so the ratio holds still where raw seconds drift.
    """
    rounds, refs, costs = [], [], []
    failed = attempted = 0
    reference_kernel()
    start = time.perf_counter()
    refs.append(_timed(reference_kernel)[0])
    r = 1
    while True:
        dt, out = _timed(work.run, seed + r)
        refs.append(_timed(reference_kernel)[0])
        rounds.append(dt)
        costs.append(dt / (0.5 * (refs[-2] + refs[-1])))
        failed += work.failures(out)
        attempted += work.items
        r += 1
        if time.perf_counter() - start >= seconds:
            break
    cost_tail, tail_pct = tail(costs)
    return {
        "attempted": attempted,
        "failed": failed,
        "rounds": len(rounds),
        "tail_percentile": tail_pct,
        "metrics": {
            "round_ref_p50": statistics.median(costs),
            "round_ref_tail": cost_tail,
            "items_per_ref": work.items * len(costs) / sum(costs),
        },
        "seconds": {
            "round_s_p50": statistics.median(rounds),
            "round_s_tail": tail(rounds)[0],
            "items_per_s": work.items * len(rounds) / sum(rounds),
            "reference_s_p50": statistics.median(refs),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    import qsteer

    if os.path.dirname(os.path.abspath(qsteer.__file__)) != os.path.join(SRC, "qsteer"):
        print(f"worker: imported qsteer from {qsteer.__file__}, expected {SRC}", file=sys.stderr)
        return 2
    import workloads

    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        work = workloads.WORKLOADS[args.workload](args.seed, tmp)
        warm_failed = work.failures(work.run(args.seed))
        setup_s = time.perf_counter() - T0
        reference_kernel()
        setup_ref_s = statistics.median(_timed(reference_kernel)[0] for _ in range(3))
        if args.mode == "setup":
            report = {"attempted": 0, "failed": 0}
        elif args.mode == "time":
            report = run_untraced(work, args.seed, args.seconds)
        else:
            spans_path = os.path.join(args.workdir, f"spans-{args.workload}-{args.seed}.json")
            report = run_traced(work, args.seed, args.seconds, spans_path)
    report["attempted"] += work.items
    report["failed"] += warm_failed
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["setup_s"] = setup_s
    report["setup_ref"] = setup_s / setup_ref_s
    report["facts"] = blas_facts()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
