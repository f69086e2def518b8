"""Acceptance gate: each criterion at its stated scale and tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion (lines print after each criterion's assertions succeed).
"""

import json
import math
import time

import numpy as np
import pytest

from qsteer.cli import main
from qsteer.ellipsoid import steering_ellipsoid
from qsteer.experiments import (
    _SUITE,
    DEFAULT_SEED,
    _sampled,
    run_conjecture_test,
    run_property_suite,
    sweep_ghz_region,
    sweep_noisy_w,
)
from qsteer.monogamy import (
    SloccClass,
    counterexample_state,
    ghz_state,
    max_volume_state,
    singlet_state,
    slocc_classify,
    volume_monogamy_report,
    w_family,
    w_state,
    werner_state,
)

# Each suite check, by name.
CHECKS = {check.name: check for check in _SUITE}


def _passed(number, started, detail):
    print(f"ACCEPTANCE {number:2d} PASS ({time.perf_counter() - started:6.2f}s)  {detail}", flush=True)


def test_criterion_01_counterexample(capsys):
    started = time.perf_counter()
    report = volume_monogamy_report(counterexample_state(), hub=0)
    exact = 2.0 * math.sqrt(8.0 / 27.0)
    assert report.volumes[0] == pytest.approx(8 / 27, abs=1e-9)
    assert report.volumes[1] == pytest.approx(8 / 27, abs=1e-9)
    assert report.sqrt_lhs == pytest.approx(exact, abs=1e-9)
    assert main(["counterexample"]) == 0
    printed = json.loads(capsys.readouterr().out)["sqrt_lhs"]
    assert abs(printed - 1.08866) < 1e-4
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    with capsys.disabled():
        _passed(1, started, f"sqrt_lhs={report.sqrt_lhs:.6f} > 1, printed {printed:.5f}")


def test_criterion_02_werner_sphere():
    started = time.perf_counter()
    ell = steering_ellipsoid(werner_state())
    np.testing.assert_allclose(ell.semiaxes, [2 / 3] * 3, atol=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed(2, started, f"semiaxes={ell.semiaxes.round(9).tolist()}")


def test_criterion_03_w_family_saturation():
    started = time.perf_counter()
    p_values = np.linspace(0.0, 1.0, 52)[1:-1]
    assert len(p_values) == 50
    worst = max(abs(volume_monogamy_report(w_family(p)).sqrt_lhs - 1.0) for p in p_values)
    assert worst <= 1e-9
    assert time.perf_counter() - started < 5.0
    _passed(3, started, f"50 weights, max |sqrt_lhs - 1| = {worst:.2e}")


def test_criterion_04_ghz_family_mapping():
    started = time.perf_counter()
    rows = sweep_ghz_region(grid_steps=50)
    assert len(rows) == 2500
    worst = max(max(r.residual_b, r.residual_c) for r in rows)
    assert worst <= 1e-9
    assert time.perf_counter() - started < 30.0
    _passed(4, started, f"50x50 grid, max residual = {worst:.2e}")


def test_criterion_05_noisy_w_curves():
    started = time.perf_counter()
    rows = sweep_noisy_w()  # 100 p-values x epsilons (0, 0.001, 0.005, 0.01)
    assert len(rows) == 400
    worst = 0.0
    for row in rows:
        closed_lhs = 2.0 * math.sqrt(row.volume_closed_form)
        worst = max(worst, abs(row.lhs - closed_lhs))
        if row.epsilon == 0.0:
            assert row.lhs == pytest.approx(1.0, abs=1e-9)
    assert worst <= 1e-9
    assert time.perf_counter() - started < 60.0
    _passed(5, started, f"400 rows, max |lhs - closed form| = {worst:.2e}")


def test_criterion_06_conjecture_evidence():
    started = time.perf_counter()
    result = run_conjecture_test(100_000, master_seed=DEFAULT_SEED, workers=1)
    assert result.samples == 100_000
    assert result.violations == 0
    assert result.max_lhs <= 3.0 + 1e-9
    repeat_a = run_conjecture_test(300, master_seed=DEFAULT_SEED)
    repeat_b = run_conjecture_test(300, master_seed=DEFAULT_SEED)
    assert repeat_a == repeat_b
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    _passed(6, started, f"10^5 samples, 0 violations, max lhs = {result.max_lhs:.6f}")


def test_criterion_07_property_suite():
    started = time.perf_counter()
    report = run_property_suite(samples=10_000, master_seed=DEFAULT_SEED, workers=1)
    failing = [r.name for r in report.results if not r.passed and not r.exploratory]
    assert report.passed, f"failing invariants: {failing}"
    required = {
        "pure3_sqrt_volume_monogamy",
        "mixed3_twothirds_volume_monogamy",
        "pure4_twothirds_volume_monogamy",
        "mixed5_twothirds_volume_sum",
        "mixed5_mean_volume",
        "polygon_inequality",
        "concurrence_volume_bound",
        "ckw_inequality",
        "pure3_correlation_identity",
        "pure3_purity_identities",
        "pure4_purity_identities",
        "canonical_volume_equalities",
    }
    names = {r.name for r in report.results if r.passed}
    assert required <= names
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    _passed(7, started, f"{len(report.results)} invariants, 0 failures")


def test_criterion_08_noise_monotonicity():
    started = time.perf_counter()
    mono = _sampled(DEFAULT_SEED, 0, 10_000, CHECKS["channel_volume_monotonicity"])
    assert int(np.count_nonzero(mono < 0)) == 0
    noisy = _sampled(DEFAULT_SEED, 0, 1_000, CHECKS["noisy_pure3_monogamy"])
    assert int(np.count_nonzero(noisy < 0)) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _passed(8, started, f"10^4 channel draws + 10^3 noisy pure states, worst margins {mono.min():.2e}, {noisy.min():.2e}")


def test_criterion_09_separable_bound():
    started = time.perf_counter()
    margins = _sampled(DEFAULT_SEED, 0, 10_000, CHECKS["separable_volume_bound"])
    assert int(np.count_nonzero(margins < 0)) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _passed(9, started, f"10^4 separable mixtures, worst margin {margins.min():.2e} to 1/27 bound")


def test_criterion_10_slocc_classification():
    started = time.perf_counter()
    rng = np.random.default_rng(DEFAULT_SEED)
    phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    phi /= np.linalg.norm(phi)
    bell = singlet_state().data
    product = np.zeros(8)
    product[0] = 1.0
    cases = [
        (w_state().data, SloccClass.W_CLASS),
        (ghz_state().data, SloccClass.GHZ_CLASS),
        (np.kron(bell, phi), SloccClass.BIPARTITE_AB_C),
        (np.kron(phi, bell), SloccClass.BIPARTITE_A_BC),
        (np.einsum("ac,b->abc", bell.reshape(2, 2), phi).reshape(8), SloccClass.BIPARTITE_AC_B),
        (product, SloccClass.FULLY_PRODUCT),
    ]
    for vec, expected in cases:
        assert slocc_classify(vec) is expected
    thetas = np.linspace(0.0, math.pi / 2, 22)[1:-1]
    assert len(thetas) == 20
    worst = 0.0
    for theta in thetas:
        state = max_volume_state(theta)
        assert slocc_classify(state) is SloccClass.W_CLASS
        worst = max(worst, abs(volume_monogamy_report(state).sqrt_lhs - 1.0))
    assert worst <= 1e-8
    _passed(10, started, f"6 named classes + 20 interior max-volume states, max |lhs - 1| = {worst:.2e}")
