import math
import os
import pickle
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import numpy as np
import pytest

from qsteer import channels, ellipsoid, experiments, monogamy, states
from qsteer.experiments import (
    _BLOCH_BALL_TOL,
    _EXPLORATORY,
    _MEMBERSHIP_TOL,
    _POINTS_PER_STATE,
    _PTRACE_TOL,
    _PURITY_SYM_TOL,
    _RECON_TOL,
    _SATURATION_TOL,
    _SEPARABLE_BOUND,
    _SUITE,
    _TOL,
    GhzSweepRow,
    _chunked_values,
    _max_volume_class,
    _open_grid,
    _pool,
    _pure4_correlation_lhs,
    counterexample_regression,
    run_conjecture_test,
    run_property_suite,
    sweep_ghz_region,
    sweep_noisy_w,
)
from qsteer.states import QuantumState, _partial_trace_arr, sample_streams

# --- per-sample references: each suite check, one state at a time through the public functions ---


def _mixed_matrix(rng, n_qubits: int) -> np.ndarray:
    return states.random_mixed_state(n_qubits, seed=rng).matrix


def _pure_matrix(rng, n_qubits: int) -> np.ndarray:
    return states.random_pure_state(n_qubits, seed=rng).matrix


def _ref_reconstruction(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _mixed_matrix(rng, 2)
        rebuilt = states.pauli_decomposition(mat).reconstruct()
        out[i - start] = _RECON_TOL - float(np.max(np.abs(rebuilt - mat)))
    return out


def _ref_ptrace_composition(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _mixed_matrix(rng, 3)
        direct = _partial_trace_arr(mat, [0], 3)
        stepwise = _partial_trace_arr(_partial_trace_arr(mat, [0, 1], 3), [0], 2)
        out[i - start] = _PTRACE_TOL - float(np.max(np.abs(direct - stepwise)))
    return out


def _ref_purity_symmetry(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _pure_matrix(rng, 3)
        p_ab = states.purity(_partial_trace_arr(mat, [0, 1], 3))
        p_c = states.purity(_partial_trace_arr(mat, [2], 3))
        out[i - start] = _PURITY_SYM_TOL - abs(p_ab - p_c)
    return out


def _ref_state_validity(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        pure = states.random_pure_state(3, seed=rng)
        QuantumState.from_amplitudes(pure.data)
        mixed = states.random_mixed_state(3, seed=rng)
        QuantumState.from_matrix(mixed.matrix)
        out[i - start] = 1.0
    return out


def _ref_volume_canonical(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _mixed_matrix(rng, 2)
        v = ellipsoid.normalized_volume(mat)
        t_canon = states._spin_corr_arr(ellipsoid.canonical_form(mat).data)
        out[i - start] = _TOL - abs(v - abs(np.linalg.det(t_canon)))
    return out


def _steered_points(mat: np.ndarray, rng) -> tuple[np.ndarray, "states.PauliDecomposition"]:
    decomp = states.pauli_decomposition(mat)
    raw = rng.standard_normal((_POINTS_PER_STATE, 3))
    e = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    denom = 1.0 + e @ decomp.a
    points = (decomp.b + e @ decomp.T) / denom[:, None]
    return points, decomp


def _ref_bloch_containment(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        points, _ = _steered_points(_mixed_matrix(rng, 2), rng)
        out[i - start] = 1.0 + _BLOCH_BALL_TOL - float(np.max(np.linalg.norm(points, axis=1)))
    return out


def _ref_membership(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _mixed_matrix(rng, 2)
        points, _ = _steered_points(mat, rng)
        ell = ellipsoid.steering_ellipsoid(mat)
        if ell.degenerate or np.linalg.eigvalsh(ell.orientation)[0] <= 1e-10:
            out[i - start] = 1.0  # quadratic form undefined; containment covered elsewhere
            continue
        delta = points - ell.center
        qform = np.einsum("ij,ij->i", delta, np.linalg.solve(ell.orientation, delta.T).T)
        out[i - start] = 1.0 + _MEMBERSHIP_TOL - float(np.max(qform))
    return out


def _ref_separable_bound(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = states.random_separable_two_qubit(seed=rng).matrix
        out[i - start] = _SEPARABLE_BOUND + _TOL - ellipsoid.normalized_volume(mat)
    return out


def _ref_volume_interval(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _mixed_matrix(rng, 2)
        v = ellipsoid.normalized_volume(mat)
        margin = min(v + _TOL, 1.0 + _TOL - v)
        if v >= 1.0 - _TOL:
            # Unit volume must certify a pure entangled state.
            if monogamy.concurrence(mat) <= 0.0 or states.purity(mat) < 1.0 - _TOL:
                margin = -1.0
        out[i - start] = margin
    return out


def _ref_monogamy_sum(master_seed: int, start: int, stop: int, *, n_qubits: int,
                      pure: bool, exponent: float, bound: float) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _pure_matrix(rng, n_qubits) if pure else _mixed_matrix(rng, n_qubits)
        lhs = sum(float(v) ** exponent for v in monogamy._hub_volumes(mat, n_qubits, 0))
        out[i - start] = bound + _TOL - lhs
    return out


def _ref_mixed5_mean_volume(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _mixed_matrix(rng, 5)
        out[i - start] = 0.5 + _TOL - float(np.mean(monogamy._hub_volumes(mat, 5, 0)))
    return out


def _ref_correlation_sum(master_seed: int, start: int, stop: int, *, pure: bool) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _pure_matrix(rng, 3) if pure else _mixed_matrix(rng, 3)
        total = monogamy.pairwise_correlation_sum(mat)
        out[i - start] = _TOL - abs(total - 3.0) if pure else 3.0 + _TOL - total
    return out


def _ref_purity_identities(master_seed: int, start: int, stop: int, *, n_qubits: int) -> np.ndarray:
    residual_fn = (
        monogamy.purity_identity_residuals_3q if n_qubits == 3 else monogamy.purity_identity_residuals_4q
    )
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _pure_matrix(rng, n_qubits)
        out[i - start] = _TOL - float(np.max(np.abs(residual_fn(mat))))
    return out


def _ref_canonical_equalities(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = ellipsoid.canonical_form(_pure_matrix(rng, 3)).data
        v_b, v_c = monogamy._hub_volumes(mat, 3, 0)
        b = states._bloch_arr(_partial_trace_arr(mat, [1], 3))
        c = states._bloch_arr(_partial_trace_arr(mat, [2], 3))
        out[i - start] = _TOL - max(abs(v_b - c @ c), abs(v_c - b @ b))
    return out


def _ref_polygon(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _pure_matrix(rng, 3)
        out[i - start] = monogamy.polygon_residual(mat) + _TOL
    return out


def _ref_concurrence_volume(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _mixed_matrix(rng, 2)
        out[i - start] = monogamy.concurrence_volume_residual(mat) + _TOL
    return out


def _ref_ckw(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _mixed_matrix(rng, 3)
        out[i - start] = monogamy.ckw_residual(mat) + _TOL
    return out


def _ref_tangle_volume(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _pure_matrix(rng, 3)
        tangle = monogamy.three_tangle(mat)
        a = states._bloch_arr(_partial_trace_arr(mat, [0], 3))
        report_lhs = sum(math.sqrt(v) for v in monogamy._hub_volumes(mat, 3, 0))
        out[i - start] = tangle - (1.0 - a @ a) * (1.0 - report_lhs) + _TOL
    return out


def _ref_max_volume_class(theta: float) -> monogamy.SloccClass:
    """SLOCC class that the marginal spectra of ``max_volume_state(theta)`` imply.

    Qubit 0 is maximally mixed; qubits 1 and 2 have smallest marginal
    eigenvalues cos^2(theta)/2 and sin^2(theta)/2.  Within about 4.5e-5 of
    an end of [0, pi/2] one of these falls below RANK_TOL, so that qubit
    factors out, and the state still saturates the bound.
    """
    if math.cos(theta) ** 2 / 2.0 < monogamy.RANK_TOL:
        return monogamy.SloccClass.BIPARTITE_AC_B
    if math.sin(theta) ** 2 / 2.0 < monogamy.RANK_TOL:
        return monogamy.SloccClass.BIPARTITE_AB_C
    return monogamy.SloccClass.W_CLASS


def _ref_wclass_saturation(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        theta = rng.uniform(0.0, math.pi / 2.0)
        vec = monogamy.max_volume_state(theta).data
        local = states._haar_unitary(2, rng)
        for _ in range(2):
            local = np.kron(local, states._haar_unitary(2, rng))
        vec = local @ vec
        lhs = sum(math.sqrt(v) for v in monogamy._hub_volumes(np.outer(vec, vec.conj()), 3, 0))
        margin = _SATURATION_TOL - abs(lhs - 1.0)
        if monogamy.slocc_classify(vec) is not _ref_max_volume_class(theta):
            margin = -1.0
        out[i - start] = margin
    return out


def _ref_channel_monotonicity(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _mixed_matrix(rng, 2)
        pair = [channels.random_channel(seed=rng) for _ in range(2)]
        v_before, v_after, _ = channels.monotonicity_check(mat, pair)
        out[i - start] = v_before - v_after + _TOL
    return out


def _ref_noisy_pure3_monogamy(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _pure_matrix(rng, 3)
        noisy = channels.apply_local([channels.random_channel(seed=rng) for _ in range(3)], mat)
        lhs = sum(math.sqrt(v) for v in monogamy._hub_volumes(noisy.data, 3, 0))
        out[i - start] = 1.0 + _TOL - lhs
    return out


def _ref_mixed4_exploration(master_seed, start, stop):
    return _ref_monogamy_sum(master_seed, start, stop, n_qubits=4, pure=False, exponent=2.0 / 3.0, bound=1.0)


REFERENCES = {
    "state_reconstruction_round_trip": _ref_reconstruction,
    "partial_trace_composition": _ref_ptrace_composition,
    "pure3_purity_bipartition_symmetry": _ref_purity_symmetry,
    "sampled_state_validity": _ref_state_validity,
    "volume_matches_canonical_form": _ref_volume_canonical,
    "steered_points_inside_bloch_ball": _ref_bloch_containment,
    "steered_points_inside_ellipsoid": _ref_membership,
    "separable_volume_bound": _ref_separable_bound,
    "volume_in_unit_interval": _ref_volume_interval,
    "pure3_sqrt_volume_monogamy": partial(_ref_monogamy_sum, n_qubits=3, pure=True, exponent=0.5, bound=1.0),
    "mixed3_twothirds_volume_monogamy": partial(
        _ref_monogamy_sum, n_qubits=3, pure=False, exponent=2.0 / 3.0, bound=1.0
    ),
    "pure4_twothirds_volume_monogamy": partial(
        _ref_monogamy_sum, n_qubits=4, pure=True, exponent=2.0 / 3.0, bound=1.0
    ),
    "mixed5_twothirds_volume_sum": partial(_ref_monogamy_sum, n_qubits=5, pure=False, exponent=2.0 / 3.0, bound=2.0),
    "mixed5_mean_volume": _ref_mixed5_mean_volume,
    "pure3_correlation_identity": partial(_ref_correlation_sum, pure=True),
    "mixed3_correlation_bound": partial(_ref_correlation_sum, pure=False),
    "pure3_purity_identities": partial(_ref_purity_identities, n_qubits=3),
    "pure4_purity_identities": partial(_ref_purity_identities, n_qubits=4),
    "canonical_volume_equalities": _ref_canonical_equalities,
    "polygon_inequality": _ref_polygon,
    "concurrence_volume_bound": _ref_concurrence_volume,
    "ckw_inequality": _ref_ckw,
    "tangle_volume_bound": _ref_tangle_volume,
    "wclass_saturation": _ref_wclass_saturation,
    "channel_volume_monotonicity": _ref_channel_monotonicity,
    "noisy_pure3_monogamy": _ref_noisy_pure3_monogamy,
    "mixed4_twothirds_exploration": _ref_mixed4_exploration,
}

# --- grid references: each grid check through the row objects of the public sweeps ---


def _ref_noisy_w_closed_form(master_seed: int, start: int, stop: int) -> np.ndarray:
    rows = sweep_noisy_w(_open_grid(20, 1.0), (0.0, 0.001, 0.005, 0.01, 0.1))[start:stop]
    return np.array([_TOL - row.residual for row in rows])


def _ref_ghz_mapping(master_seed: int, start: int, stop: int) -> np.ndarray:
    rows = sweep_ghz_region(20)[start:stop]
    return np.array([_TOL - max(row.residual_b, row.residual_c) for row in rows])


GRID_REFERENCES = {"noisy_w_closed_form": _ref_noisy_w_closed_form, "ghz_family_mapping": _ref_ghz_mapping}
CHECKS = {check.name: check for check in _SUITE + (_EXPLORATORY,)}
# Past the first block boundary (256 samples), so a block is reused.
REFERENCE_SAMPLES = 300


def _exit_worker(master_seed: int, start: int, stop: int) -> np.ndarray:
    os._exit(1)


class TestBatchedChecks:
    def test_every_random_sample_check_has_a_reference(self):
        grids = {"noisy_w_closed_form", "ghz_family_mapping", "counterexample_regression"}
        assert set(REFERENCES) == set(CHECKS) - grids

    @pytest.mark.parametrize("seed", [12345, 7])
    @pytest.mark.parametrize("name", sorted(REFERENCES))
    def test_matches_per_sample_reference_bitwise(self, name, seed):
        expected = REFERENCES[name](seed, 0, REFERENCE_SAMPLES)
        fn = CHECKS[name].fn
        np.testing.assert_array_equal(fn(seed, 0, REFERENCE_SAMPLES), expected)
        bounds = [0, 1, 49, 257, REFERENCE_SAMPLES]
        parts = [fn(seed, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        np.testing.assert_array_equal(np.concatenate(parts), expected)
        assert fn(seed, 5, 5).shape == (0,)

    @pytest.mark.parametrize("name", sorted(GRID_REFERENCES))
    def test_grid_check_matches_row_reference_bitwise(self, name):
        samples, fn = CHECKS[name].samples, CHECKS[name].fn
        np.testing.assert_array_equal(fn(0, 0, samples), GRID_REFERENCES[name](0, 0, samples))
        np.testing.assert_array_equal(fn(0, 17, 83), GRID_REFERENCES[name](0, 17, 83))
        assert fn(0, 5, 5).shape == (0,)

    def test_check_functions_are_distinct_stable_and_picklable(self):
        # The benchmark tracer labels each check by id(fn), and worker processes unpickle it.
        checks = _SUITE + (_EXPLORATORY,)
        fns = [check.fn for check in checks]
        assert len({id(fn) for fn in fns}) == len(checks)
        assert all(fn is check.fn for fn, check in zip(fns, experiments._SUITE + (experiments._EXPLORATORY,)))
        for check in checks:
            count = min(check.samples, 3)
            np.testing.assert_array_equal(pickle.loads(pickle.dumps(check.fn))(7, 0, count), check.fn(7, 0, count))

    def test_worker_count_does_not_change_report(self):
        single = run_property_suite(samples=40, master_seed=7, workers=1)
        assert run_property_suite(samples=40, master_seed=7, workers=3).to_dict() == single.to_dict()


class TestProcessPool:
    def test_one_pool_per_worker_count(self):
        assert _pool(2) is _pool(2)
        fn = CHECKS["polygon_inequality"].fn
        np.testing.assert_array_equal(_chunked_values(fn, 30, 3, 2), fn(3, 0, 30))
        np.testing.assert_array_equal(_chunked_values(fn, 30, 4, 2), fn(4, 0, 30))

    def test_broken_pool_is_replaced(self):
        broken = _pool(2)
        with pytest.raises(BrokenProcessPool):
            _chunked_values(_exit_worker, 4, 0, 2)
        assert _pool(2) is not broken
        fn = CHECKS["polygon_inequality"].fn
        np.testing.assert_array_equal(_chunked_values(fn, 30, 3, 2), fn(3, 0, 30))


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

    @pytest.mark.parametrize("seed", [12345, 7, 21])
    def test_worst_seed_replays_through_public_functions(self, seed):
        # The kernel normalizes kets as random_pure_state does, so the public
        # per-state path gives max_lhs bit for bit.
        result = run_conjecture_test(2000, master_seed=seed)
        psi = states.random_pure_state(4, seed=states.sample_rng(seed, result.worst_state_seed))
        assert monogamy.pairwise_correlation_sum(psi, [(0, 1), (0, 2), (0, 3)]) == result.max_lhs

    def test_every_sample_replays_bit_for_bit(self):
        # np.linalg.norm(axis=1) normalization put about one sample in six off in the last bits.
        lhs = _pure4_correlation_lhs(21, 0, 400)
        ref = [
            monogamy.pairwise_correlation_sum(
                states.random_pure_state(4, seed=states.sample_rng(21, i)), [(0, 1), (0, 2), (0, 3)]
            )
            for i in range(400)
        ]
        np.testing.assert_array_equal(lhs, ref)

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

    @pytest.mark.parametrize("seed", [12345, 7])
    def test_block_lhs_matches_density_formula(self, seed):
        # The hub reduce before it traced kets directly: build each density, then trace it.
        rows = np.empty((300, 32))
        for i, rng in sample_streams(seed, 0, 300):
            rng.standard_normal(out=rows[i])
        mats = states._densities(states._haar_arr(rows))
        want = 0.0
        for other in (1, 2, 3):
            T = states._spin_corr_arr(_partial_trace_arr(mats, [0, other], 4))
            want += np.sum(T * T, axis=(1, 2))
        assert experiments._pure4_block_lhs(rows).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"n_samples": 10.7}, "sample count"),
            ({"n_samples": 10, "master_seed": 1.5}, "master seed"),
            ({"n_samples": 10, "workers": 2.0}, "workers"),
        ],
    )
    def test_rejects_non_integers(self, kwargs, name):
        # int() and numpy used to truncate these, or fail deep inside the sampling.
        with pytest.raises(TypeError, match=name):
            run_conjecture_test(**kwargs)

    def test_numpy_integers_accepted(self):
        got = run_conjecture_test(np.int64(10), master_seed=np.uint64(1), workers=np.int32(1))
        assert got == run_conjecture_test(10, master_seed=1)

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

    def test_peak_memory_is_near_the_output(self):
        # Kets are built per block, so the peak is the output columns plus one block.
        experiments._ghz_columns(2)
        tracemalloc.start()
        try:
            columns = experiments._ghz_columns(400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * sum(column.nbytes for column in columns)


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

    @pytest.mark.parametrize(
        "kwargs", [{"samples": -5}, {"workers": 0}, {"workers": -2}, {"samples": 2**32 + 1}, {"master_seed": -1}]
    )
    def test_bad_counts_rejected(self, kwargs):
        with pytest.raises(ValueError):
            run_property_suite(**kwargs)

    @pytest.mark.parametrize("kwargs, name", [({"samples": 3.5}, "sample count"), ({"master_seed": 7.0}, "master seed")])
    def test_non_integers_rejected(self, kwargs, name):
        # samples=3.5 used to be rounded silently into the ensemble sizes.
        with pytest.raises(TypeError, match=name):
            run_property_suite(**kwargs)

    def test_zero_samples_run_no_scaled_check(self):
        report = run_property_suite(samples=0, master_seed=1)
        assert report.passed
        assert {r.name: r.samples for r in report.results} == {
            check.name: 0 if check.scaled else check.samples for check in _SUITE
        }
        # Any nonzero scale still runs at least one sample per check.
        assert min(r.samples for r in run_property_suite(samples=1, master_seed=1).results) == 1

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
        assert _max_volume_class(theta) is _ref_max_volume_class(theta)

    def test_end_of_range_sample_saturates(self):
        # Sample 27 of master seed 677336445 draws theta = pi/2 - 5.0e-7, where
        # qubit 1 factors out; the state is bipartite yet saturates the bound.
        theta = states.sample_rng(677336445, 27).uniform(0.0, math.pi / 2.0)
        assert math.pi / 2 - theta < 1e-5
        assert _max_volume_class(theta) is monogamy.SloccClass.BIPARTITE_AC_B
        assert CHECKS["wclass_saturation"].fn(677336445, 27, 28)[0] >= 0.0


class TestCounterexampleRegression:
    def test_numbers(self):
        reg = counterexample_regression()
        assert reg["sqrt_lhs"] == pytest.approx(2 * math.sqrt(8 / 27), abs=1e-9)
        assert reg["sqrt_lhs"] > 1.0
        assert reg["purified_sqrt_lhs"] > 1.0
        assert reg["purified_sqrt_lhs"] >= reg["sqrt_lhs"] - 1e-9
