"""The three benchmark workloads: their inputs, one round of work, and the per-item checks.

A round is a fixed amount of work; round ``r`` of a run with seed ``s`` uses
master seed ``s + r``.  Every check is a criterion that any correct random
stream satisfies, never a digest of one stream, so a documented stream
change does not count as a failure.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

from qsteer import cli, experiments, states

#: Samples per conjecture round (~0.25 s), so a 30 s run has ~100 rounds and a ~p90 tail.
CONJECTURE_SAMPLES = 2500
#: ``samples`` argument of a suite round (the suite's own default is 10^4).
SUITE_SAMPLES = 50

CONJECTURE_LIMIT = 3.0 + 1e-9
RESIDUAL_LIMIT = 1e-9
COUNTEREXAMPLE_SQRT_LHS = 2.0 * math.sqrt(8.0 / 27.0)
# Printed volumes carry 12 significant digits; a pure entangled pair has volume 1.
VOLUME_TOL = 1e-9
ANALYZE_QUBITS = (2, 3, 4, 5)


def conjecture_failures(result, n_samples: int) -> int:
    """Samples whose correlation sum exceeds 3 + 1e-9; every sample fails if any went missing."""
    if result.samples != n_samples:
        return n_samples
    if result.max_lhs > CONJECTURE_LIMIT:
        return max(1, result.violations)
    return result.violations


def suite_failures(report, expected: dict[str, int]) -> int:
    """Failed invariant samples, counting every sample an invariant did not report as failed.

    ``expected`` maps each gating invariant to the number of samples it was
    asked for; one more failure is added if the report names other invariants
    or does not pass as a whole.
    """
    gating = {r.name: r for r in report.results if not r.exploratory}
    failed = 0
    for name, count in expected.items():
        r = gating.get(name)
        failed += count if r is None else r.failures + max(0, count - r.samples)
    if set(gating) != set(expected) or (not report.passed and failed == 0):
        failed += 1
    return failed


def cli_call_ok(command: str, exit_code: int, text: str) -> bool:
    """Whether one CLI call exited 0 and its output meets the criterion for its subcommand."""
    if exit_code != 0:
        return False
    try:
        if command == "fig1":
            rows = list(csv.DictReader(io.StringIO(text)))
            residuals = [float(row[key]) for row in rows for key in ("residual_b", "residual_c")]
        elif command == "fig2":
            rows = json.loads(text)
            residuals = [float(row["residual"]) for row in rows]
        elif command == "counterexample":
            return abs(float(json.loads(text)["sqrt_lhs"]) - COUNTEREXAMPLE_SQRT_LHS) <= RESIDUAL_LIMIT
        elif command == "analyze":
            payload = json.loads(text)
            volumes = [float(e["volume"]) for e in payload["ellipsoids"]]
            if payload["monogamy"] is not None:
                volumes += [float(v) for v in payload["monogamy"]["volumes"]]
            return bool(volumes) and all(-VOLUME_TOL <= v <= 1.0 + VOLUME_TOL for v in volumes)
        else:
            return False
    except (KeyError, TypeError, ValueError):
        return False
    return bool(residuals) and all(r <= RESIDUAL_LIMIT for r in residuals)


class Conjecture:
    """``run_conjecture_test`` on Haar pure 4-qubit states; an item is one sampled state."""

    name = "conjecture"
    items = CONJECTURE_SAMPLES

    def __init__(self, seed: int, workdir: str):
        pass

    def run(self, master_seed: int):
        return experiments.run_conjecture_test(CONJECTURE_SAMPLES, master_seed=master_seed, workers=1)

    def failures(self, result) -> int:
        return conjecture_failures(result, CONJECTURE_SAMPLES)


class Suite:
    """``run_property_suite`` at reduced scale; an item is one invariant sample."""

    name = "suite"

    def __init__(self, seed: int, workdir: str):
        # The same per-invariant scaling rule as ``run_property_suite``.
        self.expected = {
            c.name: max(1, round(c.samples * SUITE_SAMPLES / 10_000)) if c.scaled else c.samples
            for c in experiments._SUITE
        }
        self.items = sum(self.expected.values())

    def run(self, master_seed: int):
        return experiments.run_property_suite(samples=SUITE_SAMPLES, master_seed=master_seed, workers=1)

    def failures(self, report) -> int:
        return suite_failures(report, self.expected)


class CliFigures:
    """In-process ``qsteer.cli.main`` calls; an item is one CLI call.

    The state files for ``analyze`` are drawn from the seed once, at set-up,
    so the timed path draws no random numbers.
    """

    name = "cli_figures"

    def __init__(self, seed: int, workdir: str):
        self.calls: list[tuple[str, list[str], str]] = []

        def add(command: str, args: list[str], ext: str) -> None:
            out = os.path.join(workdir, f"out{len(self.calls)}.{ext}")
            self.calls.append((command, [command, *args, "--output", out], out))

        add("fig1", ["--grid", "50", "--format", "csv"], "csv")
        add("fig2", ["--grid", "100"], "json")
        add("counterexample", [], "json")
        for n in ANALYZE_QUBITS:
            for kind in ("pure", "mixed"):
                sub_seed = [seed, n, int(kind == "mixed")]
                if kind == "pure":
                    state = states.random_pure_state(n, seed=sub_seed)
                else:
                    state = states.random_mixed_state(n, seed=sub_seed)
                path = os.path.join(workdir, f"state_{kind}{n}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(state.to_dict(), fh)
                add("analyze", ["--input", path], "json")
        self.items = len(self.calls)

    def run(self, master_seed: int):
        # Summaries the CLI prints to stderr are discarded.
        with contextlib.redirect_stderr(io.StringIO()):
            return [cli.main(argv) for _, argv, _ in self.calls]

    def failures(self, exit_codes) -> int:
        failed = 0
        for (command, _, out), code in zip(self.calls, exit_codes):
            text = ""
            if code == 0:
                with open(out, encoding="utf-8") as fh:
                    text = fh.read()
                os.remove(out)
            failed += not cli_call_ok(command, code, text)
        return failed


WORKLOADS = {w.name: w for w in (Conjecture, Suite, CliFigures)}
