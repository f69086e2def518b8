import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qsteer import cli, ellipsoid, experiments, monogamy, serialize, states
from qsteer.cli import build_parser, main
from qsteer.monogamy import counterexample_state, ghz_state, werner_state
from qsteer.states import QuantumState

CPUS = os.cpu_count() or 1
GOLDEN = Path(__file__).parent / "golden"

# The flags each subcommand reads; every other flag must be rejected.
FLAGS = {
    "analyze": {"--input", "--tol", "--format", "--output"},
    "fig1": {"--grid", "--format", "--output"},
    "fig2": {"--grid", "--p", "--epsilons", "--format", "--output"},
    "conjecture": {"--seed", "--samples", "--workers", "--format", "--output"},
    "suite": {"--seed", "--samples", "--workers", "--explore-mixed-4q", "--format", "--output"},
    "counterexample": {"--format", "--output"},
}
# Every flag some subcommand reads, plus three family-angle flags that none reads.
ALL_FLAGS = (
    "--input", "--output", "--format", "--seed", "--samples", "--workers", "--tol", "--p",
    "--epsilons", "--grid", "--explore-mixed-4q", "--alpha", "--beta", "--theta",
)


def write_state(path, state):
    path.write_text(json.dumps(state.to_dict()))
    return str(path)


def product_pure_state(n_qubits):
    vec = np.zeros(2**n_qubits)
    vec[0] = 1.0
    return QuantumState.from_amplitudes(vec)


class TestCounterexampleCommand:
    def test_prints_sqrt_lhs(self, capsys):
        assert main(["counterexample"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["sqrt_lhs"] - 1.08866) < 1e-4

    def test_csv_format(self, capsys):
        assert main(["counterexample", "--format", "csv"]) == 0
        out = capsys.readouterr().out.splitlines()
        header = out[0].split(",")
        values = dict(zip(header, out[1].split(",")))
        assert abs(float(values["sqrt_lhs"]) - 1.08866) < 1e-4


class TestAnalyzeCommand:
    def test_product_state_volumes_are_zero(self, tmp_path, capsys):
        path = write_state(tmp_path / "state.json", product_pure_state(3))
        assert main(["analyze", "--input", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_qubits"] == 3
        assert all(abs(e["volume"]) < 1e-12 for e in payload["ellipsoids"])
        assert abs(payload["monogamy"]["sqrt_lhs"]) < 1e-6

    def test_two_qubit_state_reports_both_directions(self, tmp_path, capsys):
        path = write_state(tmp_path / "pair.json", werner_state())
        assert main(["analyze", "--input", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["monogamy"] is None
        hubs = {e["steering_qubit"] for e in payload["ellipsoids"]}
        assert hubs == {0, 1}
        for entry in payload["ellipsoids"]:
            assert abs(entry["volume"] - 8 / 27) < 1e-9

    def test_counterexample_analysis(self, tmp_path, capsys):
        path = write_state(tmp_path / "state.json", counterexample_state())
        assert main(["analyze", "--input", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["monogamy"]["sqrt_lhs"] - 1.08866) < 1e-4

    def test_csv_output(self, tmp_path):
        path = write_state(tmp_path / "state.json", ghz_state())
        out = tmp_path / "out.csv"
        assert main(["analyze", "--input", path, "--format", "csv", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("steering_qubit,steered_qubit,volume")
        assert len(lines) == 3

    def test_one_qubit_state_exits_2(self, tmp_path, capsys):
        path = write_state(tmp_path / "qubit.json", QuantumState.from_amplitudes([1.0, 0.0]))
        for fmt in ("json", "csv"):
            out = tmp_path / f"out.{fmt}"
            assert main(["analyze", "--input", path, "--format", fmt, "--output", str(out)]) == 2
            assert "analyze needs at least 2 qubits" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.host_bytes
    def test_pure_file_is_traced_from_its_ket_in_one_kernel_call(self, monkeypatch, capsys):
        calls = {"_densities": 0, "_ellipsoid_arr": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(states, "_densities")
        counted(cli, "_ellipsoid_arr")
        # The one-state API forms the density, so analyze must not reach it.
        for owner, name in [
            (states, "partial_trace"),
            (ellipsoid, "steering_ellipsoid"),
            (monogamy, "volume_monogamy_report"),
        ]:
            monkeypatch.setattr(owner, name, None)
        assert main(["analyze", "--input", str(GOLDEN / "state_pure5.json")]) == 0
        assert calls == {"_densities": 0, "_ellipsoid_arr": 1}
        assert capsys.readouterr().out == (GOLDEN / "analyze_pure5.json").read_text()

    def test_missing_input_is_usage_error(self):
        assert main(["analyze"]) == 2

    def test_corrupt_trace_exits_2(self, tmp_path, capsys):
        payload = ghz_state().to_dict()
        payload["kind"] = "mixed"
        mat = (np.eye(8) / 8 * 0.9).astype(complex)
        payload["data"] = [[float(z.real), float(z.imag)] for z in mat.reshape(-1)]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["analyze", "--input", str(path)]) == 2
        assert "trace" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_nan_entry_exits_2(self, tmp_path, capsys, kind):
        state = ghz_state() if kind == "pure" else counterexample_state()
        payload = state.to_dict()
        payload["data"][1] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(payload))
        assert main(["analyze", "--input", str(path)]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_unreadable_file_exits_2(self, tmp_path):
        path = tmp_path / "nonsense.json"
        path.write_text("{not json")
        assert main(["analyze", "--input", str(path)]) == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("data", [["a", 0], [0, 0]]),
            ("data", 5),
            ("data", [[1], [0]]),
            ("data", [[1, 0, 0], [0, 0, 0]]),
            ("n_qubits", 1.7),
            ("n_qubits", -1),
            ("n_qubits", 1e9),
            ("n_qubits", 10**9),
        ],
    )
    def test_malformed_state_file_exits_2(self, tmp_path, capsys, field, value):
        payload = {"n_qubits": 1, "kind": "pure", "data": [[1.0, 0.0], [0.0, 0.0]], field: value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["analyze", "--input", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "1", "1e300"])
    def test_bad_tol_exits_2(self, tmp_path, capsys, tol):
        path = tmp_path / "norm9.json"
        path.write_text(json.dumps({"n_qubits": 1, "kind": "pure", "data": [[3.0, 0.0], [0.0, 0.0]]}))
        assert main(["analyze", "--input", str(path), "--tol", tol]) == 2
        assert "tol must be" in capsys.readouterr().err


class TestOutputFile:
    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, target):
        # A missing directory and a directory path; exit 1 is kept for a failed suite.
        path = tmp_path / target
        assert main(["fig1", "--grid", "3", "--output", str(path)]) == 2
        assert f"error: cannot write output file {path}: " in capsys.readouterr().err


class TestConjectureCommand:
    def test_seeded_runs_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["conjecture", "--samples", "400", "--seed", "7", "--output", str(out1)]) == 0
        assert main(["conjecture", "--samples", "400", "--seed", "7", "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_count_invariance(self, tmp_path):
        out1, out2 = tmp_path / "w1.json", tmp_path / "w2.json"
        main(["conjecture", "--samples", "200", "--seed", "5", "--workers", "1", "--output", str(out1)])
        main(["conjecture", "--samples", "200", "--seed", "5", "--workers", "2", "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_row(self, capsys):
        assert main(["conjecture", "--samples", "50", "--seed", "3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "samples,violations,max_lhs,worst_state_seed,near_miss_count"
        assert lines[1].split(",")[0] == "50"


class TestSweepCommands:
    def test_fig1_json(self, tmp_path):
        out = tmp_path / "fig1.json"
        assert main(["fig1", "--grid", "5", "--output", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 25
        assert all(row["residual_b"] < 1e-9 for row in rows)

    def test_fig2_csv(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["fig2", "--grid", "6", "--epsilons", "0,0.01", "--format", "csv", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p,epsilon,volume_closed_form,volume_numeric,residual,lhs"
        assert len(lines) == 13
        zero_eps_lhs = [float(l.split(",")[5]) for l in lines[1:] if float(l.split(",")[1]) == 0.0]
        assert all(abs(x - 1.0) < 1e-9 for x in zero_eps_lhs)

    def test_json_rows_match_dataclass_fields(self, tmp_path):
        out = tmp_path / "fig1.json"
        assert main(["fig1", "--grid", "4", "--output", str(out)]) == 0
        rows = experiments.sweep_ghz_region(grid_steps=4)
        assert out.read_text() == serialize.dumps([dataclasses.asdict(row) for row in rows])

    def test_fig2_bad_p_exits_2(self, capsys):
        assert main(["fig2", "--p", "nan"]) == 2
        assert "p must" in capsys.readouterr().err

    def test_fig2_p_where_closed_form_divides_by_zero_exits_2(self, capsys):
        # Exit 2 with nothing printed, never a row whose volume_closed_form and residual are null.
        assert main(["fig2", "--p", "1e-9", "--epsilons", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "p = 1e-09, epsilon = 0.0" in captured.err
        assert main(["fig2", "--p", "1e-5", "--epsilons", "0"]) == 0
        row = json.loads(capsys.readouterr().out)[0]
        assert row["volume_closed_form"] == pytest.approx(0.25, abs=1e-6)
        assert row["residual"] < 1e-7

    @pytest.mark.parametrize(
        "command, grid, error",
        [
            # numpy refuses the first grid-sized column at once: fig1's 10**16-point grid, fig2's 711 PiB p column.
            ("fig1", "100000000", "error: Unable to allocate 71.1 PiB"),
            ("fig2", "100000000000000000", "error: Unable to allocate 711. PiB"),
            # A 10**34-point fig1 grid has more entries than numpy can index.
            ("fig1", "100000000000000000", "error: Maximum allowed dimension exceeded"),
        ],
        ids=["fig1", "fig2", "fig1-unindexable"],
    )
    def test_grid_too_large_to_allocate_exits_2(self, capsys, command, grid, error):
        # Exit 1 is kept for a failed suite.
        assert main([command, "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(error) and "Traceback" not in captured.err

    def test_fig2_bad_epsilons(self, capsys):
        assert main(["fig2", "--epsilons", "0,zero"]) == 2
        assert "epsilons" in capsys.readouterr().err

    def test_fig2_grid_and_p_are_exclusive(self, capsys):
        assert main(["fig2", "--grid", "4", "--p", "0.3"]) == 2
        assert "not allowed with" in capsys.readouterr().err


class TestSuiteCommand:
    def test_small_suite_passes(self, tmp_path):
        out = tmp_path / "suite.json"
        assert main(["suite", "--samples", "40", "--seed", "4", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert len(payload["invariants"]) >= 25

    def test_suite_csv(self, tmp_path):
        out = tmp_path / "suite.csv"
        assert main(["suite", "--samples", "30", "--format", "csv", "--output", str(out)]) == 0
        assert out.read_text().startswith("name,samples,failures,worst_margin")

    def test_stderr_names_each_worst_index(self, tmp_path, capsys):
        # The index is printed, never written: the data output keeps the golden files' bytes.
        out = tmp_path / "suite.json"
        assert main(["suite", "--samples", "30", "--seed", "4", "--output", str(out)]) == 0
        lines = capsys.readouterr().err.splitlines()
        results = {r.name: r for r in experiments.run_property_suite(samples=30, master_seed=4).results}
        assert len(lines) == len(results)
        for line in lines:
            name = line.split()[1].rstrip(":")
            assert line.endswith(f" at index {results[name].worst_index}"), line
        assert "worst_index" not in out.read_text()


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_bad_format_choice(self):
        assert main(["counterexample", "--format", "xml"]) == 2

    def test_no_command(self):
        assert main([]) == 2

    def test_each_subcommand_registers_only_the_flags_it_reads(self):
        parser = build_parser()
        subparsers = next(a for a in parser._actions if a.dest == "command").choices
        assert set(subparsers) == set(FLAGS)
        for command, sub in subparsers.items():
            registered = {opt for action in sub._actions for opt in action.option_strings}
            assert registered - {"-h", "--help"} == FLAGS[command], command
        assert sum(len(flags) for flags in FLAGS.values()) == 25

    @pytest.mark.parametrize(
        "argv, dest, default",
        [(["fig1"], "grid", 50), (["conjecture"], "samples", 100_000), (["suite"], "samples", 10_000)],
    )
    def test_defaults_live_in_the_parser(self, argv, dest, default):
        assert getattr(build_parser().parse_args(argv), dest) == default

    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for command in FLAGS for flag in ALL_FLAGS if flag not in FLAGS[command]],
    )
    def test_unread_flags_exit_2(self, tmp_path, capsys, command, flag):
        argv = [command, flag] + ([] if flag == "--explore-mixed-4q" else ["1"])
        if command == "analyze":
            argv += ["--input", write_state(tmp_path / "state.json", werner_state())]
        assert main(argv) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["conjecture", "suite"])
    def test_workers_above_cpu_count_rejected_by_parser(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--workers", str(CPUS + 1)])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_workers_at_cpu_count_accepted(self, capsys):
        assert main(["conjecture", "--samples", "1", "--workers", str(CPUS)]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["suite", "--samples", "-5"],
            ["conjecture", "--samples", "-5"],
            ["suite", "--samples", "0"],
            ["conjecture", "--samples", "0"],
            ["suite", "--workers", "0"],
            ["conjecture", "--workers", "0"],
            ["conjecture", "--workers", "-3"],
            ["conjecture", "--samples", "1", "--workers", str(CPUS + 1)],
            ["conjecture", "--samples", str(2**32 + 1)],
            ["suite", "--samples", str(2**32 + 1)],
            ["suite", "--seed", "-1"],
            ["fig1", "--grid", "0"],
            ["fig2", "--grid", "0"],
            ["fig2", "--grid", "-3"],
            ["fig2", "--epsilons", ","],
            ["fig2", "--epsilons", "0.1,,0.2"],
            ["fig2", "--epsilons", "0,0.01,"],
        ],
    )
    def test_bad_counts_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err


# Outputs of the per-cell emitters these commands used before the columnar path;
# the state files are in the same directory.
GOLDEN_CALLS = [
    ("fig1_grid7.csv", ["fig1", "--grid", "7", "--format", "csv"]),
    ("fig1_grid7.json", ["fig1", "--grid", "7"]),
    ("fig2_grid9.csv", ["fig2", "--grid", "9", "--format", "csv"]),
    ("fig2_grid9.json", ["fig2", "--grid", "9", "--format", "json"]),
    ("fig2_p0.3.json", ["fig2", "--p", "0.3", "--epsilons", "0,0.5,1"]),
    ("counterexample.csv", ["counterexample", "--format", "csv"]),
    ("counterexample.json", ["counterexample"]),
    ("analyze_werner.csv", ["analyze", "--input", str(GOLDEN / "state_werner.json"), "--format", "csv"]),
    ("analyze_werner.json", ["analyze", "--input", str(GOLDEN / "state_werner.json")]),
    ("analyze_w.csv", ["analyze", "--input", str(GOLDEN / "state_w.json"), "--format", "csv"]),
    ("analyze_w.json", ["analyze", "--input", str(GOLDEN / "state_w.json")]),
    # random_mixed_state(4, seed=4) and random_pure_state(5, seed=5), as their to_dict JSON.
    ("analyze_mixed4.csv", ["analyze", "--input", str(GOLDEN / "state_mixed4.json"), "--format", "csv"]),
    ("analyze_mixed4.json", ["analyze", "--input", str(GOLDEN / "state_mixed4.json")]),
    ("analyze_pure5.csv", ["analyze", "--input", str(GOLDEN / "state_pure5.json"), "--format", "csv"]),
    ("analyze_pure5.json", ["analyze", "--input", str(GOLDEN / "state_pure5.json")]),
    # A pure qubit 0 (random_pure_state(1, seed=2)) times random_mixed_state(1, seed=2): steered
    # from qubit 0 the ellipsoid is a point, from qubit 1 it is live; then random_mixed_state(3, seed=3),
    # random_pure_state(4, seed=4) and random_mixed_state(5, seed=5).
    *(
        (f"analyze_{name}.{fmt}", ["analyze", "--input", str(GOLDEN / f"state_{name}.json"), "--format", fmt])
        for name in ("product2", "mixed3", "pure4", "mixed5")
        for fmt in ("csv", "json")
    ),
]


# Conjecture searches, byte for byte as written when the draw rows became 32-column tiles per 256-sample block.
CONJECTURE_GOLDEN = [
    ("conjecture_seed12345_20000.json", ["conjecture", "--samples", "20000", "--seed", "12345"]),
    ("conjecture_seed7_20000.json", ["conjecture", "--samples", "20000", "--seed", "7"]),
]


@pytest.mark.host_bytes
class TestGoldenOutput:
    @pytest.mark.parametrize("name, argv", GOLDEN_CALLS, ids=[name for name, _ in GOLDEN_CALLS])
    def test_bytes_match_golden_file(self, tmp_path, name, argv):
        out = tmp_path / name
        assert main([*argv, "--output", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / name).read_bytes()

    @pytest.mark.parametrize("name, argv", CONJECTURE_GOLDEN, ids=[name for name, _ in CONJECTURE_GOLDEN])
    def test_conjecture_bytes_match_golden_file(self, tmp_path, name, argv):
        out = tmp_path / name
        assert main([*argv, "--output", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / name).read_bytes()

    def test_suite_bytes_match_golden_file(self, tmp_path):
        # Every invariant's margins at a small scale, as written when the draw rows became tiles.
        out = tmp_path / "suite.json"
        assert main(["suite", "--samples", "200", "--seed", "7", "--workers", "1", "--output", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "suite_seed7_200.json").read_bytes()

    def test_explored_suite_bytes_match_golden_file(self, tmp_path):
        # The explored suite as written when the draw rows became tiles; each check gives these values alone too.
        out = tmp_path / "suite.json"
        argv = ["suite", "--samples", "1000", "--seed", "7", "--explore-mixed-4q", "--workers", "1"]
        assert main([*argv, "--output", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "suite_seed7_1000_explore.json").read_bytes()

    def test_full_size_figures_match_committed_digests(self, tmp_path):
        digests = dict(line.split()[::-1] for line in (GOLDEN / "figures.sha256").read_text().splitlines())
        calls = {
            "fig1-grid50.csv": ["fig1", "--grid", "50", "--format", "csv"],
            "fig1-grid50.json": ["fig1", "--grid", "50", "--format", "json"],
            "fig2-grid100.json": ["fig2", "--grid", "100"],
            "fig2-grid100.csv": ["fig2", "--grid", "100", "--format", "csv"],
        }
        assert set(digests) == set(calls)
        for name, argv in calls.items():
            out = tmp_path / name
            assert main([*argv, "--output", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[name], name


class TestSuiteCsvQuoting:
    def test_error_message_with_comma_stays_one_cell(self, tmp_path, monkeypatch):
        def corrupt(kets, n_qubits):
            dim = 2**n_qubits
            return np.broadcast_to(np.eye(dim, dtype=complex) * (0.9 / dim), kets.shape[:-1] + (dim, dim))

        monkeypatch.setattr(states, "_induced_arr", corrupt)
        out = tmp_path / "suite.csv"
        assert main(["suite", "--samples", "5", "--seed", "1", "--format", "csv", "--output", str(out)]) == 1
        with open(out, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        header, rows = table[0], table[1:]
        assert header == ["name", "samples", "failures", "worst_margin", "exploratory", "error"]
        assert all(len(row) == len(header) for row in rows)
        error = next(row for row in rows if row[0] == "sampled_state_validity")[5]
        assert "trace" in error and "," in error


def test_cli_import_loads_no_process_pool():
    # Only a run with workers > 1 needs concurrent.futures.process and the multiprocessing it loads.
    code = "import sys, qsteer.cli; print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestCachedParser:
    """``main`` parses with one parser per process; no call may see another's values."""

    def test_main_reuses_one_parser_and_build_parser_stays_fresh(self):
        assert main(["counterexample", "--format", "csv", "--output", os.devnull]) == 0
        assert cli._parser() is cli._parser()
        assert build_parser() is not build_parser()

    def test_fig2_p_does_not_leak_into_next_grid_call(self, tmp_path):
        single, grid = tmp_path / "single.csv", tmp_path / "grid.csv"
        assert main(["fig2", "--p", "0.3", "--format", "csv", "--output", str(single)]) == 0
        assert main(["fig2", "--grid", "4", "--format", "csv", "--output", str(grid)]) == 0
        p_values = {row["p"] for row in csv.DictReader(io.StringIO(grid.read_text()))}
        assert p_values == {serialize.format_float(p) for p in experiments._open_grid(4, 1.0)}
        assert len(single.read_text().splitlines()) == 1 + 4

    def test_analyze_values_do_not_leak_into_fig1(self, tmp_path):
        path = write_state(tmp_path / "state.json", werner_state())
        assert main(["analyze", "--input", path, "--tol", "1e-6", "--output", os.devnull]) == 0
        args = cli._parser().parse_args(["fig1"])
        assert not hasattr(args, "input") and not hasattr(args, "tol")
        assert args.grid == 50 and args.output is None and args.format == "json"
        out = tmp_path / "fig1.json"
        assert main(["fig1", "--grid", "3", "--output", str(out)]) == 0
        assert out.read_text() == serialize.dumps([dataclasses.asdict(r) for r in experiments.sweep_ghz_region(3)])

    def test_workers_limit_is_read_at_parse_time(self, monkeypatch, capsys):
        assert main(["conjecture", "--samples", "1", "--workers", "1"]) == 0
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert main(["conjecture", "--samples", "1", "--workers", "2"]) == 2
        assert "[1, 1]" in capsys.readouterr().err
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert main(["conjecture", "--samples", "1", "--workers", "2"]) == 0
