"""Tests of the benchmark itself: tracer coverage and counts, correctness checks, result format.

    python3 -m pytest benchmarks -q
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from qsteer import ellipsoid, experiments, monogamy, states  # noqa: E402
from qsteer.experiments import InvariantResult, SuiteReport  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _traced_calls(run, items: int) -> dict:
    rec = tracer.Tracer()
    rec.install()
    try:
        with rec.span(tracer.DRIVER):
            run()
    finally:
        rec.uninstall()
    totals = tracer.LayerTotals()
    totals.add(rec.take())
    return {group: totals.calls.get(group, 0) / items for group in tracer.GROUPS}


def test_conjecture_call_counts_per_item_are_exact():
    n = 40
    per_item = _traced_calls(lambda: experiments.run_conjecture_test(n, master_seed=3), n)
    expected = {"states.rng": 1, "states.sample": 1, "states.ptrace": 3, "states.pauli": 3}
    for group, value in per_item.items():
        if group != tracer.DRIVER:
            assert value == expected.get(group, 0), group


def test_install_patches_every_binding_and_uninstall_restores_them():
    original = states._partial_trace_arr
    binders = (states, ellipsoid, monogamy, experiments)
    rec = tracer.Tracer()
    rec.install()
    try:
        for module in binders:
            assert module._partial_trace_arr.__wrapped__ is original
        assert hasattr(vars(states.QuantumState)["from_dict"].__func__, "__wrapped__")
    finally:
        rec.uninstall()
    for module in binders:
        assert module._partial_trace_arr is original
    assert not hasattr(vars(states.QuantumState)["from_dict"].__func__, "__wrapped__")


def test_self_time_subtracts_children_and_invariant_spans_count_as_driver():
    spans = [
        (3, 2, "states.ptrace", 1.0, 2.0),
        (2, 1, "experiments.ckw_inequality", 0.5, 4.0),
        (4, 1, "monogamy.report", 4.0, 5.0),
        (1, 0, tracer.DRIVER, 0.0, 6.0),
    ]
    totals = tracer.LayerTotals()
    totals.add(spans)
    assert totals.self_s["states.ptrace"] == 1.0
    assert totals.self_s["monogamy.report"] == 1.0
    assert totals.self_s[tracer.DRIVER] == 4.0  # 2 s own round time + 2.5 - 1 s in the check
    assert totals.calls[tracer.DRIVER] == 2
    assert totals.invariant_s == {"experiments.ckw_inequality": 3.5}


def test_tail_keeps_ten_rounds_beyond_it():
    values = [float(i) for i in range(100)]
    assert worker.tail(values) == (89.0, 90.0)
    assert worker.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_conjecture_check_counts_violations():
    ok = experiments.run_conjecture_test(20, master_seed=1)
    assert workloads.conjecture_failures(ok, 20) == 0
    bad = experiments.ConjectureResult(samples=20, violations=2, max_lhs=3.1, worst_state_seed=4)
    assert workloads.conjecture_failures(bad, 20) == 2
    short = experiments.ConjectureResult(samples=19, violations=0, max_lhs=2.5, worst_state_seed=4)
    assert workloads.conjecture_failures(short, 20) == 20


def test_suite_check_counts_a_negative_margin_and_missing_samples():
    work = workloads.Suite(1, "")
    report = work.run(1)
    assert work.failures(report) == 0
    results = list(report.results)
    name = results[3].name
    asked = work.expected[name]
    results[3] = InvariantResult(name=name, samples=asked, failures=1, worst_margin=-0.25)
    assert work.failures(SuiteReport(tuple(results))) == 1
    results[3] = InvariantResult(name=name, samples=asked - 2, failures=0, worst_margin=0.5)
    assert work.failures(SuiteReport(tuple(results))) == 2
    results[3] = InvariantResult(name=name, samples=0, failures=0, worst_margin=float("inf"))
    assert work.failures(SuiteReport(tuple(results))) == asked
    assert work.failures(SuiteReport(tuple(results[:3] + results[4:]))) == asked + 1


def test_cli_checks_bite(tmp_path):
    work = workloads.CliFigures(5, str(tmp_path))
    codes = work.run(0)
    assert work.failures(codes) == 0

    codes = work.run(0)
    codes[2] = 1  # counterexample exits non-zero
    assert work.failures(codes) == 1

    codes = work.run(0)
    fig1_out = work.calls[0][2]
    with open(fig1_out, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    cells[header.index("residual_c")] = "2e-09"
    lines[1] = ",".join(cells)
    with open(fig1_out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert work.failures(codes) == 1


@pytest.mark.parametrize(
    "command, text",
    [
        ("fig2", '[{"residual": 1.5e-09}]'),
        ("counterexample", '{"sqrt_lhs": 1.0887}'),
        ("analyze", '{"ellipsoids": [{"volume": 1.01}], "monogamy": null}'),
        ("analyze", '{"ellipsoids": [], "monogamy": null}'),
        ("fig1", "not,a,table\n"),
    ],
)
def test_cli_check_rejects_bad_output(command, text):
    assert not workloads.cli_call_ok(command, 0, text)


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "benchmarks", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_reports_every_metric(trace, section):
    proc = _run("--workload", "conjecture", "--seed", "2", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for spec in SPEC[section]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    if trace == "1":
        shares = [v["value"] for k, v in result["metrics"].items() if k.endswith(".self_share")]
        assert sum(shares) == pytest.approx(1.0)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
