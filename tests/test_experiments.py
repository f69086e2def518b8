import math

import numpy as np
import pytest

from qsteer import channels, ellipsoid, monogamy, states
from qsteer.experiments import (
    GhzSweepRow,
    _inv_wclass_saturation,
    _max_volume_class,
    _pure4_correlation_lhs,
    counterexample_regression,
    run_conjecture_test,
    run_property_suite,
    sweep_ghz_region,
    sweep_noisy_w,
)
from qsteer.states import QuantumState


class TestConjecture:
    def test_no_violations_on_random_sample(self):
        result = run_conjecture_test(2000, master_seed=7)
        assert result.samples == 2000
        assert result.violations == 0
        assert result.max_lhs <= 3.0 + 1e-9

    def test_worker_count_does_not_change_result(self):
        single = run_conjecture_test(300, master_seed=3, workers=1)
        multi = run_conjecture_test(300, master_seed=3, workers=4)
        assert single == multi

    def test_empty_run_sentinel(self):
        result = run_conjecture_test(0)
        assert result.samples == 0
        assert result.violations == 0
        assert result.max_lhs == float("-inf")
        assert result.worst_state_seed == -1

    def test_worst_seed_regenerates_max(self):
        result = run_conjecture_test(500, master_seed=21)
        again = _pure4_correlation_lhs(21, result.worst_state_seed, result.worst_state_seed + 1)[0]
        assert again == result.max_lhs

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            run_conjecture_test(-1)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            run_conjecture_test(10, workers=0)

    def test_lhs_matches_public_reference(self):
        lhs = _pure4_correlation_lhs(11, 250, 262)
        for k, i in enumerate(range(250, 262)):
            psi = states.random_pure_state(4, seed=states.sample_rng(11, i))
            ref = sum(
                float(np.sum(states.spin_correlation_matrix(states.partial_trace(psi, [0, other])) ** 2))
                for other in (1, 2, 3)
            )
            assert abs(lhs[k] - ref) < 1e-12

    def test_lhs_is_chunk_invariant(self):
        whole = _pure4_correlation_lhs(4, 0, 600)
        bounds = [0, 1, 255, 257, 600]
        parts = [_pure4_correlation_lhs(4, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        np.testing.assert_array_equal(np.concatenate(parts), whole)
        single = run_conjecture_test(600, master_seed=4, workers=1)
        assert run_conjecture_test(600, master_seed=4, workers=3) == single
        assert single.max_lhs == whole.max()

    def test_dict_round_trip_fields(self):
        payload = run_conjecture_test(10, master_seed=1).to_dict()
        assert set(payload) == {"samples", "violations", "max_lhs", "worst_state_seed", "near_misses"}


class TestGhzSweep:
    def test_grid_residuals_and_bound(self):
        rows = sweep_ghz_region(grid_steps=10)
        assert len(rows) == 100
        for row in rows:
            assert row.residual_b < 1e-9
            assert row.residual_c < 1e-9
            assert math.sqrt(row.predicted_b) + math.sqrt(row.predicted_c) <= 1 + 1e-12
            assert row.sqrt_lhs <= 1 + 1e-9

    def test_equal_angle_diagonal(self):
        rows = [r for r in sweep_ghz_region(grid_steps=9) if r.alpha == r.beta]
        assert rows
        for row in rows:
            assert row.predicted_c == pytest.approx(0.0, abs=1e-12)
            assert row.predicted_b == pytest.approx(math.cos(2 * row.alpha) ** 2, abs=1e-12)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_ghz_region(grid_steps=1)

    def test_rows_equal_per_point_loop_bitwise(self):
        angles = np.arange(1, 8) / 8 * (math.pi / 2.0)
        expected = []
        for alpha in angles:
            for beta in angles:
                state, (x_pred, y_pred) = monogamy.ghz_family(alpha, beta)
                report = monogamy.volume_monogamy_report(state, hub=0)
                v_b, v_c = report.volumes
                expected.append(
                    GhzSweepRow(
                        float(alpha), float(beta), v_b, v_c, x_pred, y_pred,
                        abs(v_b - x_pred), abs(v_c - y_pred), report.sqrt_lhs,
                    )
                )
        rows = sweep_ghz_region(grid_steps=7)
        assert rows == expected
        assert all(type(value) is float for row in rows for value in vars(row).values())


class TestNoisyWSweep:
    def test_noiseless_curve_saturates(self):
        rows = sweep_noisy_w(p_grid=np.linspace(0, 1, 12)[1:-1], epsilons=[0.0])
        for row in rows:
            assert row.lhs == pytest.approx(1.0, abs=1e-9)
            assert row.volume_closed_form == pytest.approx(0.25, abs=1e-12)

    def test_full_noise_curve_vanishes(self):
        rows = sweep_noisy_w(p_grid=[0.3, 0.7], epsilons=[1.0])
        for row in rows:
            assert row.lhs == pytest.approx(0.0, abs=1e-9)

    def test_balanced_point(self):
        rows = sweep_noisy_w(p_grid=[1 / math.sqrt(2)], epsilons=[0.01])
        assert rows[0].lhs == pytest.approx(0.99**3, abs=1e-9)
        assert 0.99**3 == pytest.approx(0.970299, abs=1e-9)

    def test_rows_match_per_point_channel_application(self):
        p_grid, epsilons = np.linspace(0, 1, 9)[1:-1], [0.0, 0.01, 0.3]
        rows = sweep_noisy_w(p_grid=p_grid, epsilons=epsilons)
        assert [(row.p, row.epsilon) for row in rows] == [(float(p), e) for e in epsilons for p in p_grid]
        for row in rows:
            noisy = channels.apply_local([channels.isotropic_channel(row.epsilon)] * 3, monogamy.w_family(row.p))
            numeric = ellipsoid.normalized_volume(states.partial_trace(noisy, [0, 1]))
            assert row.volume_numeric == pytest.approx(numeric, abs=1e-14)
            assert row.volume_closed_form == channels.noisy_w_volume(row.p, row.epsilon)
            assert row.residual == abs(row.volume_closed_form - row.volume_numeric)
            assert row.lhs == 2.0 * math.sqrt(row.volume_numeric)

    @pytest.mark.parametrize("p_grid", [[0.5, 0.0], [0.5, 1.0], [1.5], [0.5, math.nan], [-math.inf]])
    def test_bad_p_grid_rejected(self, p_grid):
        with pytest.raises(ValueError, match="p must"):
            sweep_noisy_w(p_grid=p_grid, epsilons=[0.0])

    @pytest.mark.parametrize("epsilons", [[0.0, -0.1], [1.1], [math.nan]])
    def test_bad_epsilons_rejected(self, epsilons):
        with pytest.raises(ValueError, match="epsilon must"):
            sweep_noisy_w(p_grid=[0.5], epsilons=epsilons)

    def test_closed_form_matches_numeric(self):
        rows = sweep_noisy_w(p_grid=np.linspace(0, 1, 8)[1:-1], epsilons=[0.0, 0.005, 0.2])
        for row in rows:
            assert row.residual < 1e-9


class TestPropertySuite:
    def test_small_run_passes(self):
        report = run_property_suite(samples=60, master_seed=5)
        assert report.passed
        names = {r.name for r in report.results}
        assert "pure3_sqrt_volume_monogamy" in names
        assert "counterexample_regression" in names

    @pytest.mark.parametrize("kwargs", [{"samples": -5}, {"workers": 0}, {"workers": -2}])
    def test_bad_counts_rejected(self, kwargs):
        with pytest.raises(ValueError):
            run_property_suite(**kwargs)

    def test_deterministic(self):
        a = run_property_suite(samples=40, master_seed=9)
        b = run_property_suite(samples=40, master_seed=9)
        assert a.to_dict() == b.to_dict()

    def test_exploratory_flag_adds_entry_without_gating(self):
        report = run_property_suite(samples=30, master_seed=2, explore_mixed_4q=True)
        entry = next(r for r in report.results if r.name == "mixed4_twothirds_exploration")
        assert entry.exploratory
        assert report.passed

    def test_corrupted_state_is_reported_not_raised(self, monkeypatch):
        def corrupt(n_qubits, ancilla_qubits=None, seed=None):
            dim = 2**n_qubits
            return QuantumState(n_qubits, np.eye(dim, dtype=complex) * (0.9 / dim))

        monkeypatch.setattr(states, "random_mixed_state", corrupt)
        report = run_property_suite(samples=5, master_seed=1)
        assert not report.passed
        validity = next(r for r in report.results if r.name == "sampled_state_validity")
        assert not validity.passed
        assert "trace" in validity.error


class TestWClassSaturation:
    @pytest.mark.parametrize("theta", [0.0, 1e-6, 5e-5, math.pi / 4, math.pi / 2 - 5e-5, math.pi / 2 - 1e-6, math.pi / 2])
    def test_expected_class_matches_classifier(self, theta):
        assert monogamy.slocc_classify(monogamy.max_volume_state(theta)) is _max_volume_class(theta)

    def test_end_of_range_sample_saturates(self):
        # Sample 24 of master seed 677332090 draws theta = pi/2 - 4.7e-6, where
        # qubit 1 factors out; the state is bipartite yet saturates the bound.
        theta = states.sample_rng(677332090, 24).uniform(0.0, math.pi / 2.0)
        assert math.pi / 2 - theta < 1e-5
        assert _max_volume_class(theta) is monogamy.SloccClass.BIPARTITE_AC_B
        assert _inv_wclass_saturation(677332090, 24, 25)[0] >= 0.0


class TestCounterexampleRegression:
    def test_numbers(self):
        reg = counterexample_regression()
        assert reg["sqrt_lhs"] == pytest.approx(2 * math.sqrt(8 / 27), abs=1e-9)
        assert reg["sqrt_lhs"] > 1.0
        assert reg["purified_sqrt_lhs"] > 1.0
        assert reg["purified_sqrt_lhs"] >= reg["sqrt_lhs"] - 1e-9
