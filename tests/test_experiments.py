import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from fractions import Fraction
from functools import cache, partial
from typing import Callable

import numpy as np
import pytest

from qsteer import channels, ellipsoid, experiments, monogamy, serialize, states
from qsteer.experiments import (
    _CONJECTURE,
    _EXPLORATORY,
    _POINTS_PER_STATE,
    _SUITE,
    GhzSweepRow,
    InvariantResult,
    _chunked_values,
    _max_volume_codes,
    _open_grid,
    _pool,
    _sampled,
    _scaled_count,
    _shared_outcomes,
    _shared_sampled,
    counterexample_regression,
    run_conjecture_test,
    run_property_suite,
    sweep_ghz_region,
    sweep_noisy_w,
)
from qsteer.monogamy import volume_monogamy_report
from qsteer.states import _NORMALS, QuantumState, _partial_trace_arr

from conftest import row_streams

# --- per-sample references: each suite check, one state at a time through the public functions ---

# Each reference writes its margin, and so its row's tolerance, as a literal; MARGIN_RULES pins the records.

# Each reference replays sample i's draw row (states.sample_rows) to the public samplers (conftest.RowGenerator).
_SEPARABLE_WIDTH = states._SEPARABLE_WIDTH
_WCLASS_WIDTH = 1 + 3 * 8


def _mixed_matrix(rng, n_qubits: int) -> np.ndarray:
    return states.random_mixed_state(n_qubits, seed=rng).matrix


def _pure_matrix(rng, n_qubits: int) -> np.ndarray:
    return states.random_pure_state(n_qubits, seed=rng).matrix


def _ref_reconstruction(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in row_streams(master_seed, start, stop):
        mat = _mixed_matrix(rng, 2)
        rebuilt = states.pauli_decomposition(mat).reconstruct()
        out[i - start] = 1e-10 - float(np.max(np.abs(rebuilt - mat)))
    return out


def _ref_ptrace_composition(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in row_streams(master_seed, start, stop):
        mat = _mixed_matrix(rng, 3)
        direct = _partial_trace_arr(mat, [0], 3)
        stepwise = _partial_trace_arr(_partial_trace_arr(mat, [0, 1], 3), [0], 2)
        out[i - start] = 1e-12 - float(np.max(np.abs(direct - stepwise)))
    return out


def _ref_purity_symmetry(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in row_streams(master_seed, start, stop):
        mat = _pure_matrix(rng, 3)
        p_ab = states.purity(_partial_trace_arr(mat, [0, 1], 3))
        p_c = states.purity(_partial_trace_arr(mat, [2], 3))
        out[i - start] = 1e-10 - abs(p_ab - p_c)
    return out


def _ref_state_validity(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in row_streams(master_seed, start, stop):
        pure = states.random_pure_state(3, seed=rng)
        QuantumState.from_amplitudes(pure.data)
        mixed = states.random_mixed_state(3, seed=rng)
        QuantumState.from_matrix(mixed.matrix)
        out[i - start] = 1.0
    return out


def _ref_volume_canonical(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in row_streams(master_seed, start, stop):
        mat = _mixed_matrix(rng, 2)
        v = ellipsoid.normalized_volume(mat)
        t_canon = states._spin_corr_arr(ellipsoid.canonical_form(mat).data)
        out[i - start] = 1e-9 - abs(v - abs(np.linalg.det(t_canon)))
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
    for i, rng in row_streams(master_seed, start, stop):
        points, _ = _steered_points(_mixed_matrix(rng, 2), rng)
        out[i - start] = 1.0 + 1e-8 - float(np.max(np.linalg.norm(points, axis=1)))
    return out


def _ref_membership(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in row_streams(master_seed, start, stop):
        mat = _mixed_matrix(rng, 2)
        points, _ = _steered_points(mat, rng)
        ell = ellipsoid.steering_ellipsoid(mat)
        if ell.degenerate or np.linalg.eigvalsh(ell.orientation)[0] <= 1e-10:
            out[i - start] = 1.0 + 1e-6  # quadratic form undefined: the centre's value 0; containment covered elsewhere
            continue
        delta = points - ell.center
        qform = np.einsum("ij,ij->i", delta, np.linalg.solve(ell.orientation, delta.T).T)
        out[i - start] = 1.0 + 1e-6 - float(np.max(qform))
    return out


def _ref_separable_bound(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in row_streams(master_seed, start, stop, states._SEPARABLE_DRAW, _SEPARABLE_WIDTH):
        mat = states.random_separable_two_qubit(seed=rng).matrix
        out[i - start] = 1 / 27 + 1e-9 - ellipsoid.normalized_volume(mat)
    return out


def _ref_volume_interval(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in row_streams(master_seed, start, stop):
        mat = _mixed_matrix(rng, 2)
        v = ellipsoid.normalized_volume(mat)
        margin = min(v + 1e-9, 1e-9 - (v - 1.0))
        if v >= 1.0 - 1e-9:
            # Unit volume must certify a pure entangled state.
            if monogamy.concurrence(mat) <= 0.0 or states.purity(mat) < 1.0 - 1e-9:
                margin = -1.0
        out[i - start] = margin
    return out


def _two_thirds_power(v: float) -> float:
    return v ** (2.0 / 3.0)


def _ref_monogamy_sum(master_seed: int, start: int, stop: int, *, n_qubits: int,
                      pure: bool, power: Callable[[float], float], bound: float) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in row_streams(master_seed, start, stop):
        mat = _pure_matrix(rng, n_qubits) if pure else _mixed_matrix(rng, n_qubits)
        lhs = sum(power(float(v)) for v in monogamy._hub_volumes(mat, n_qubits, 0))
        out[i - start] = bound + 1e-9 - lhs
    return out


def _ref_mixed5_mean_volume(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in row_streams(master_seed, start, stop):
        mat = _mixed_matrix(rng, 5)
        out[i - start] = 0.5 + 1e-9 - float(np.mean(monogamy._hub_volumes(mat, 5, 0)))
    return out


def _ref_correlation_sum(master_seed: int, start: int, stop: int, *, pure: bool) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in row_streams(master_seed, start, stop):
        mat = _pure_matrix(rng, 3) if pure else _mixed_matrix(rng, 3)
        total = monogamy.pairwise_correlation_sum(mat)
        out[i - start] = 1e-9 - abs(total - 3.0) if pure else 3.0 + 1e-9 - total
    return out


def _ref_purity_identities(master_seed: int, start: int, stop: int, *, n_qubits: int) -> np.ndarray:
    residual_fn = (
        monogamy.purity_identity_residuals_3q if n_qubits == 3 else monogamy.purity_identity_residuals_4q
    )
    out = np.empty(stop - start)
    for i, rng in row_streams(master_seed, start, stop):
        mat = _pure_matrix(rng, n_qubits)
        out[i - start] = 1e-9 - float(np.max(np.abs(residual_fn(mat))))
    return out


def _ref_canonical_equalities(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in row_streams(master_seed, start, stop):
        mat = ellipsoid.canonical_form(_pure_matrix(rng, 3)).data
        v_b, v_c = monogamy._hub_volumes(mat, 3, 0)
        b = states._bloch_arr(_partial_trace_arr(mat, [1], 3))
        c = states._bloch_arr(_partial_trace_arr(mat, [2], 3))
        out[i - start] = 1e-9 - max(abs(v_b - c @ c), abs(v_c - b @ b))
    return out


def _ref_polygon(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in row_streams(master_seed, start, stop):
        mat = _pure_matrix(rng, 3)
        out[i - start] = monogamy.polygon_residual(mat) + 1e-9
    return out


# The Wootters checks take each state's factor, the ket that random_mixed_state
# traces or the ket of random_pure_state, so one state at a time they call the
# kernels on that ket; the public functions factor the density instead and
# agree within 1e-11 (tests/test_monogamy.py).


def _mixed_factor(rng, n_qubits: int) -> np.ndarray:
    """The purifying ket behind ``_mixed_matrix(rng, n_qubits)``, as a (2**n, 2**n) factor."""
    dim = 2**n_qubits
    return states.random_pure_state(2 * n_qubits, seed=rng).data.reshape(dim, dim)


def _ref_concurrence_volume(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in row_streams(master_seed, start, stop):
        factor = _mixed_factor(rng, 2)
        mat = states._induced_arr(factor.reshape(-1), 2)
        out[i - start] = monogamy._concurrence_volume_arr(mat, factor) + 1e-9
    return out


def _ref_ckw(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in row_streams(master_seed, start, stop):
        out[i - start] = monogamy._ckw_arr(_mixed_factor(rng, 3)) + 1e-9
    return out


def _ref_tangle_volume(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in row_streams(master_seed, start, stop):
        psi = states.random_pure_state(3, seed=rng)
        mat = psi.matrix
        tangle = monogamy._three_tangle_arr(psi.data)
        a = states._bloch_arr(_partial_trace_arr(mat, [0], 3))
        report_lhs = sum(math.sqrt(v) for v in monogamy._hub_volumes(mat, 3, 0))
        out[i - start] = tangle - (1.0 - a @ a) * (1.0 - report_lhs) + 1e-9
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
    for i, rng in row_streams(master_seed, start, stop, experiments._WCLASS_DRAW, _WCLASS_WIDTH):
        theta = rng.uniform(0.0, math.pi / 2.0)
        vec = monogamy.max_volume_state(theta).data
        local = states._haar_unitary(2, rng)
        for _ in range(2):
            local = np.kron(local, states._haar_unitary(2, rng))
        vec = local @ vec
        lhs = sum(math.sqrt(v) for v in monogamy._hub_volumes(np.outer(vec, vec.conj()), 3, 0))
        margin = 1e-8 - abs(lhs - 1.0)
        if monogamy.slocc_classify(vec) is not _ref_max_volume_class(theta):
            margin = -1.0
        out[i - start] = margin
    return out


def _ref_channel_monotonicity(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in row_streams(master_seed, start, stop):
        mat = _mixed_matrix(rng, 2)
        pair = [channels.random_channel(seed=rng) for _ in range(2)]
        v_before, v_after, _ = channels.monotonicity_check(mat, pair)
        out[i - start] = v_before - v_after + 1e-9
    return out


def _ref_noisy_pure3_monogamy(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in row_streams(master_seed, start, stop):
        mat = _pure_matrix(rng, 3)
        noisy = channels.apply_local([channels.random_channel(seed=rng) for _ in range(3)], mat)
        lhs = sum(math.sqrt(v) for v in monogamy._hub_volumes(noisy.data, 3, 0))
        out[i - start] = 1.0 + 1e-9 - lhs
    return out


def _ref_mixed4_exploration(master_seed, start, stop):
    return _ref_monogamy_sum(master_seed, start, stop, n_qubits=4, pure=False, power=_two_thirds_power, bound=1.0)


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
    "pure3_sqrt_volume_monogamy": partial(_ref_monogamy_sum, n_qubits=3, pure=True, power=math.sqrt, bound=1.0),
    "mixed3_twothirds_volume_monogamy": partial(
        _ref_monogamy_sum, n_qubits=3, pure=False, power=_two_thirds_power, bound=1.0
    ),
    "pure4_twothirds_volume_monogamy": partial(
        _ref_monogamy_sum, n_qubits=4, pure=True, power=_two_thirds_power, bound=1.0
    ),
    "mixed5_twothirds_volume_sum": partial(
        _ref_monogamy_sum, n_qubits=5, pure=False, power=_two_thirds_power, bound=2.0
    ),
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
    return np.array([1e-9 - row.residual for row in rows])


def _ref_ghz_mapping(master_seed: int, start: int, stop: int) -> np.ndarray:
    rows = sweep_ghz_region(20)[start:stop]
    return np.array([1e-9 - max(row.residual_b, row.residual_c) for row in rows])


def _ref_counterexample(master_seed: int, start: int, stop: int) -> np.ndarray:
    # sqrt_lhs within 1e-4 of 2 sqrt(8/27), and the purification's at least 1, with no further tolerance.
    regression = counterexample_regression()
    margins = [1e-4 - abs(regression["sqrt_lhs"] - 2.0 * math.sqrt(8.0 / 27.0)), regression["purified_sqrt_lhs"] - 1.0]
    return np.array(margins[start:stop])


GRID_REFERENCES = {
    "noisy_w_closed_form": _ref_noisy_w_closed_form,
    "ghz_family_mapping": _ref_ghz_mapping,
    "counterexample_regression": _ref_counterexample,
}
CHECKS = {check.name: check for check in _SUITE + (_EXPLORATORY,)}
# Past the first block boundary (256 samples), so a block is reused.
REFERENCE_SAMPLES = 300


# Every record's (bound, tol): its margins are (bound + tol) - values.
MARGIN_RULES = {
    "state_reconstruction_round_trip": (0.0, 1e-10),
    "partial_trace_composition": (0.0, 1e-12),
    "pure3_purity_bipartition_symmetry": (0.0, 1e-10),
    "sampled_state_validity": (1.0, 0.0),
    "volume_matches_canonical_form": (0.0, 1e-9),
    "steered_points_inside_bloch_ball": (1.0, 1e-8),
    "steered_points_inside_ellipsoid": (1.0, 1e-6),
    "separable_volume_bound": (1 / 27, 1e-9),
    "volume_in_unit_interval": (0.0, 1e-9),
    "pure3_sqrt_volume_monogamy": (1.0, 1e-9),
    "mixed3_twothirds_volume_monogamy": (1.0, 1e-9),
    "pure4_twothirds_volume_monogamy": (1.0, 1e-9),
    "mixed5_twothirds_volume_sum": (2.0, 1e-9),
    "mixed5_mean_volume": (0.5, 1e-9),
    "pure3_correlation_identity": (0.0, 1e-9),
    "mixed3_correlation_bound": (3.0, 1e-9),
    "pure3_purity_identities": (0.0, 1e-9),
    "pure4_purity_identities": (0.0, 1e-9),
    "canonical_volume_equalities": (0.0, 1e-9),
    "polygon_inequality": (0.0, 1e-9),
    "concurrence_volume_bound": (0.0, 1e-9),
    "ckw_inequality": (0.0, 1e-9),
    "tangle_volume_bound": (0.0, 1e-9),
    "wclass_saturation": (0.0, 1e-8),
    "channel_volume_monotonicity": (0.0, 1e-9),
    "noisy_pure3_monogamy": (1.0, 1e-9),
    "noisy_w_closed_form": (0.0, 1e-9),
    "ghz_family_mapping": (0.0, 1e-9),
    "counterexample_regression": (0.0, 0.0),
    "mixed4_twothirds_exploration": (1.0, 1e-9),
    "pure4_hub_correlation_sum": (3.0, 1e-9),
}


def _check_margins(check, master_seed: int, start: int, stop: int) -> np.ndarray:
    """The margins over [start, stop) of one row run alone, from its reduce (through ``_sampled``) or its grid fn."""
    values = _sampled(master_seed, start, stop, check) if check.scaled else check.fn(master_seed, start, stop)
    return check.margins(values)


def _with_reduce(checks: tuple, name: str, reduce: Callable) -> tuple:
    """``checks`` with the reduce of row ``name`` replaced."""
    return tuple(replace(check, reduce=reduce) if check.name == name else check for check in checks)


def _exit_worker(master_seed: int, start: int, stop: int) -> np.ndarray:
    os._exit(1)


def _own_draw(draw, master_seed: int, index: int, width: int) -> np.ndarray:
    """Sample ``index``'s ``draw`` row at ``width``, drawn alone."""
    return states.sample_rows(master_seed, index, index + 1, width, draw)[0]


@cache
def _normals_index(master_seed: int, count: int, width: int) -> dict[bytes, int]:
    return {_own_draw(_NORMALS, master_seed, i, width).tobytes(): i for i in range(count)}


def _own_row_index(master_seed: int, count: int, draws: np.ndarray, stack: Callable) -> np.ndarray:
    """A reduce that also runs in worker processes: the sample in [0, count) whose own normals each row is, or -1."""
    index = _normals_index(master_seed, count, draws.shape[1])
    return np.array([index.get(row.tobytes(), -1) for row in draws], dtype=float)


class TestBatchedChecks:
    def test_every_random_sample_check_has_a_reference(self):
        grids = {"noisy_w_closed_form", "ghz_family_mapping", "counterexample_regression"}
        assert set(REFERENCES) == set(CHECKS) - grids

    def test_every_record_pins_its_bound_and_tol(self):
        records = _SUITE + (_EXPLORATORY, _CONJECTURE)
        assert {check.name: (check.bound, check.tol) for check in records} == MARGIN_RULES
        assert all(type(value) is float for check in records for value in (check.bound, check.tol))

    def test_every_row_sets_a_reduce_or_a_grid_fn(self):
        checks = _SUITE + (_EXPLORATORY,)
        assert all((check.reduce is None) != (check.fn is None) for check in checks)
        assert all(check.width > 0 for check in checks if check.scaled)
        assert len({check.name for check in checks}) == len(checks)

    @pytest.mark.parametrize("seed", [12345, 7])
    @pytest.mark.parametrize("name", sorted(REFERENCES))
    def test_matches_per_sample_reference_bitwise(self, name, seed):
        expected = REFERENCES[name](seed, 0, REFERENCE_SAMPLES)
        check = CHECKS[name]
        np.testing.assert_array_equal(_check_margins(check, seed, 0, REFERENCE_SAMPLES), expected)
        bounds = [0, 1, 49, 257, REFERENCE_SAMPLES]
        parts = [_check_margins(check, seed, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        np.testing.assert_array_equal(np.concatenate(parts), expected)
        assert _check_margins(check, seed, 5, 5).shape == (0,)

    @pytest.mark.parametrize("name", sorted(GRID_REFERENCES))
    def test_grid_check_matches_row_reference_bitwise(self, name):
        check = CHECKS[name]
        reference = GRID_REFERENCES[name]
        np.testing.assert_array_equal(_check_margins(check, 0, 0, check.samples), reference(0, 0, check.samples))
        np.testing.assert_array_equal(_check_margins(check, 0, 17, 83), reference(0, 17, 83))
        assert _check_margins(check, 0, 5, 5).shape == (0,)

    def test_every_record_pickles_to_the_same_margins(self):
        # Worker processes unpickle the records of a shared pass, and the conjecture's record alone.
        checks = _SUITE + (_EXPLORATORY, _CONJECTURE)
        for check in checks:
            count = min(check.samples, 3)
            again = pickle.loads(pickle.dumps(check))
            assert again.name == check.name and again.scaled == check.scaled
            assert _check_margins(again, 7, 0, count).tobytes() == _check_margins(check, 7, 0, count).tobytes()
        # A shared pass reaches each worker as one pickled partial over its (count, check) pairs.
        parts = _shared_parts(20)
        values, errors = pickle.loads(pickle.dumps(partial(_shared_sampled, checks=parts)))(7, 0, 20)
        assert errors == [None] * len(parts)
        assert [v.tobytes() for v in values] == [v.tobytes() for v in _shared_sampled(7, 0, 20, parts)[0]]
        # The benchmark tracer labels each grid check by id(fn).
        grids = [check.fn for check in checks if not check.scaled]
        assert len({id(fn) for fn in grids}) == len(grids) == 3

    def test_no_random_sample_check_depends_on_the_block_size(self):
        # A sample drawn alone gets the bits it gets inside a block, so chunks may end anywhere.
        for check in _SUITE + (_EXPLORATORY,):
            if check.scaled:
                alone = np.concatenate([_sampled(7, i, i + 1, check) for i in range(32)])
                assert _sampled(7, 0, 32, check).tobytes() == alone.tobytes(), check.name
        mats = states._densities(states._haar_arr(np.random.default_rng(7).standard_normal((32, 32))))
        assert [monogamy.l_bcd(m).hex() for m in mats] == [v.hex() for v in monogamy._l_bcd_arr(mats).tolist()]

    def test_worker_count_does_not_change_report(self):
        single = run_property_suite(samples=40, master_seed=7, workers=1)
        assert run_property_suite(samples=40, master_seed=7, workers=3).to_dict() == single.to_dict()


# 10^4-checks end at 570 (mid-block 2) and 10^3-checks at 57 (mid-block 0).
SHARED_SCALE = 570
SHARED_CHECKS = tuple(check for check in _SUITE + (_EXPLORATORY,) if check.scaled)


def _shared_parts(scale: int) -> tuple:
    """The ``_shared_sampled`` checks ``(count, check)`` of SHARED_CHECKS at suite scale ``scale``."""
    return tuple((_scaled_count(check, scale), check) for check in SHARED_CHECKS)


# The rows that bound a MonogamyReport field of hub-0 volumes: (n_qubits, pure, field, bound).
RELATION_ROWS = {
    "pure3_sqrt_volume_monogamy": (3, True, "sqrt_lhs", 1.0),
    "mixed3_twothirds_volume_monogamy": (3, False, "two_thirds_lhs", 1.0),
    "pure4_twothirds_volume_monogamy": (4, True, "two_thirds_lhs", 1.0),
    "mixed4_twothirds_exploration": (4, False, "two_thirds_lhs", 1.0),
    "mixed5_twothirds_volume_sum": (5, False, "two_thirds_lhs", 2.0),
    "mixed5_mean_volume": (5, False, "mean_volume", 0.5),
}


# The hub volumes of each witness sample (seed, index), as taken on an AVX-512 host under numpy's default kernels.
# Other kernels give some of them other last bits, and then both sums can round alike.
SQRT_WITNESS_VOLUMES = {
    (12345, 249): ("0x1.3022a9dc88731p-4", "0x1.01d416db105b3p-2"),
    (7, 658): ("0x1.0b2bdff1f3818p-2", "0x1.6066261158cc2p-3"),
}


class TestRelationRows:
    """Each volume-relation row's margin is its bound + 1e-9 minus the report field it names, bit for bit."""

    def test_every_volume_sum_row_is_a_relation_row(self):
        relation = experiments._monogamy_sum
        relations = [name for name, check in CHECKS.items() if getattr(check.reduce, "func", None) is relation]
        assert sorted(relations) == sorted(RELATION_ROWS)

    # The first sample of each seed where the two sums differ.
    @pytest.mark.parametrize("seed, index", sorted(SQRT_WITNESS_VOLUMES))
    def test_sqrt_row_where_pow_rounds_differently(self, seed, index):
        volumes = np.array([float.fromhex(v) for v in SQRT_WITNESS_VOLUMES[seed, index]])
        witness = monogamy.MonogamyReport._from_volumes(0, volumes, 3)
        assert sum(v**0.5 for v in witness.volumes) != witness.sqrt_lhs
        assert witness.sqrt_lhs == sum(math.sqrt(v) for v in witness.volumes)
        ((_, rng),) = row_streams(seed, index, index + 1, width=16)
        report = volume_monogamy_report(states.random_pure_state(3, seed=rng))
        margin = _check_margins(CHECKS["pure3_sqrt_volume_monogamy"], seed, index, index + 1)[0]
        assert margin.hex() == (1.0 + 1e-9 - report.sqrt_lhs).hex()

    @pytest.mark.parametrize("name", sorted(RELATION_ROWS))
    def test_margins_equal_the_report_field(self, name):
        n_qubits, pure, lhs, bound = RELATION_ROWS[name]
        sampler = states.random_pure_state if pure else states.random_mixed_state
        margins = _check_margins(CHECKS[name], 12345, 0, 4)
        for i, rng in row_streams(12345, 0, 4):
            report = volume_monogamy_report(sampler(n_qubits, seed=rng))
            assert margins[i].hex() == (bound + 1e-9 - getattr(report, lhs)).hex()


class TestSharedNormals:
    """The suite runs every random-sample check in one pass; checks with the same draw share each sample's row."""

    def test_every_random_sample_check_is_shared(self):
        checks = _SUITE + (_EXPLORATORY,)
        outcomes = _shared_outcomes(checks, [_scaled_count(check, 20) for check in checks], 7, 1)
        # Own draws (separable mixtures, W-class saturation) included; grid checks not.
        assert sorted(outcomes) == [k for k, check in enumerate(checks) if check.scaled]

    @pytest.mark.parametrize("explore", [True, False])
    @pytest.mark.parametrize("seed, workers", [(7, 1), (12345, 1), (5, 1), (7, 2)])
    def test_shared_values_match_each_check_alone(self, seed, workers, explore):
        checks = SHARED_CHECKS if explore else SHARED_CHECKS[:-1]
        counts = [_scaled_count(check, SHARED_SCALE) for check in checks]
        assert sorted(set(counts)) == [57, 570]
        outcomes = _shared_outcomes(checks, counts, seed, workers)
        assert sorted(outcomes) == list(range(len(checks)))
        for k, (check, count) in enumerate(zip(checks, counts)):
            values, error = outcomes[k]
            assert error == ""
            assert values.tobytes() == _sampled(seed, 0, count, check).tobytes(), check.name

    @pytest.mark.parametrize("explore", [False, True])
    def test_suite_results_are_equal_at_one_and_two_workers(self, explore):
        # Two workers cut 600 samples into eight chunks, each but the first starting mid-block.
        single = run_property_suite(samples=600, master_seed=7, workers=1, explore_mixed_4q=explore)
        assert run_property_suite(samples=600, master_seed=7, workers=2, explore_mixed_4q=explore) == single

    @pytest.mark.parametrize("lo, hi", [(40, 300), (300, 570), (257, 511), (1, 2)])
    def test_a_range_is_a_slice_of_the_whole_pass(self, lo, hi):
        parts = _shared_parts(SHARED_SCALE)
        whole, _ = _shared_sampled(12345, 0, SHARED_SCALE, parts)
        values, errors = _shared_sampled(12345, lo, hi, parts)
        assert errors == [None] * len(parts)
        for check, got, want in zip(SHARED_CHECKS, values, whole):
            assert got.tobytes() == want[lo:hi].tobytes(), check.name

    def test_first_samples_do_not_depend_on_the_sample_count(self):
        small = _shared_outcomes(SHARED_CHECKS, [_scaled_count(check, 50) for check in SHARED_CHECKS], 7, 1)
        large = _shared_outcomes(SHARED_CHECKS, [_scaled_count(check, 1000) for check in SHARED_CHECKS], 7, 1)
        for k, check in enumerate(SHARED_CHECKS):
            values = small[k][0]
            assert values.tobytes() == large[k][0][: len(values)].tobytes(), check.name
        assert _sampled(7, 0, 50, _CONJECTURE).tobytes() == _sampled(7, 0, 1000, _CONJECTURE)[:50].tobytes()

    def test_no_two_tiles_of_a_pass_share_a_key(self, monkeypatch):
        keys, philox = [], np.random.Philox

        class RecordingPhilox(philox):
            """Records the key of every state it is set to: one per tile and block of the pass."""

            @property
            def state(self):
                return philox.state.__get__(self)

            @state.setter
            def state(self, value):
                keys.append(tuple(value["state"]["key"]))
                # The setter checks the state's generator name against the class name.
                philox.state.__set__(self, dict(value, bit_generator=type(self).__name__))

        monkeypatch.setattr(np.random, "Philox", RecordingPhilox)
        counts = [_scaled_count(check, SHARED_SCALE) for check in SHARED_CHECKS]
        outcomes = _shared_outcomes(SHARED_CHECKS, counts, 7, 1)
        assert [error for _, error in outcomes.values()] == [""] * len(SHARED_CHECKS)
        assert len(keys) == len(set(keys))
        assert {word for _, word in keys} == {states._seed_word(7)}
        # Three draws (normals, W class, separable), three blocks, and the 2048-float rows' 64 tiles.
        fields = {(low >> 48, (low >> 24) & 0xFFFFFF, low & 0xFFFFFF) for low, _ in keys}
        assert {tag for tag, _, _ in fields} == {0, 1, 2}
        assert {block for _, _, block in fields} == {0, 1, 2}
        assert max(tile for _, tile, _ in fields) == 63

    def test_shared_pass_over_a_later_range(self):
        # A chunk that starts past the 10^3-checks' end gives them no samples.
        parts = _shared_parts(SHARED_SCALE)
        values, errors = _shared_sampled(12345, 300, 570, parts)
        assert errors == [None] * len(parts)
        for (count, check), got in zip(parts, values):
            want = _sampled(12345, 300, count, check) if count > 300 else np.empty(0)
            assert got.tobytes() == want.tobytes(), check.name

    @pytest.mark.parametrize("start", [300, 40])
    def test_each_row_is_its_samples_own_draw(self, start):
        # From mid-block, past or across the 57 end and over the 256 block boundary to the 570 end.
        counts = [_scaled_count(check, SHARED_SCALE) for check in SHARED_CHECKS]
        recorded = [[] for _ in SHARED_CHECKS]

        def recording(k):
            def reduce(draws, stack):
                recorded[k].append(draws.copy())
                return np.zeros(len(draws))

            return reduce

        checks = [replace(check, reduce=recording(k)) for k, check in enumerate(SHARED_CHECKS)]
        parts = tuple(zip(counts, checks))
        assert _shared_sampled(12345, start, SHARED_SCALE, parts)[1] == [None] * len(parts)
        rows = [np.concatenate(blocks) if blocks else np.empty((0, c.width)) for c, blocks in zip(checks, recorded)]
        for (count, check), got in zip(parts, rows):
            assert got.shape == (max(0, count - start), check.width), check.name
            if count > start:
                want = states.sample_rows(12345, start, count, check.width, check.draw)
                assert got.tobytes() == want.tobytes(), check.name
        # Each sample's row drawn alone, at the widest check of each draw that reads it.  The narrower checks'
        # rows were compared with their whole range above, and a narrow row is a prefix of a wide one
        # (test_a_narrow_draw_is_a_prefix_of_a_wider_one).
        for draw in {check.draw for check in checks}:
            for i in range(start, SHARED_SCALE):
                readers = [k for k, (count, check) in enumerate(parts) if check.draw == draw and count > i]
                k = max(readers, key=lambda k: checks[k].width)
                want = _own_draw(draw, 12345, i, checks[k].width)
                assert rows[k][i - start].tobytes() == want.tobytes(), (checks[k].name, i)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_conjecture_row_is_its_samples_own_normals(self, monkeypatch, workers):
        # The patched reduce reaches the workers with the check; the spy sees every value it returns.
        values, chunked = [], experiments._chunked_values
        monkeypatch.setattr(experiments, "_chunked_values", lambda *args: values.append(chunked(*args)) or values[-1])
        monkeypatch.setattr(experiments, "_CONJECTURE", replace(_CONJECTURE, reduce=partial(_own_row_index, 31, 600)))
        assert run_conjecture_test(600, master_seed=31, workers=workers).samples == 600
        (got,) = values
        assert got.tobytes() == np.arange(600.0).tobytes()

    @pytest.mark.parametrize(
        "name", ["polygon_inequality", "mixed5_mean_volume", "wclass_saturation", "separable_volume_bound"]
    )
    def test_failing_reduce_reports_only_its_own_check(self, monkeypatch, name):
        expected = run_property_suite(samples=60, master_seed=3, explore_mixed_4q=True).results

        def boom(draws, stack):
            raise RuntimeError("reduce failed")

        monkeypatch.setattr(experiments, "_SUITE", _with_reduce(_SUITE, name, boom))
        report = run_property_suite(samples=60, master_seed=3, workers=1, explore_mixed_4q=True)
        assert not report.passed
        for got, want in zip(report.results, expected, strict=True):
            if got.name == name:
                error = "RuntimeError: reduce failed"
                assert got == InvariantResult(name, want.samples, want.samples, float("-inf"), False, error)
            else:
                assert got == want

    def test_error_text_is_that_of_the_first_failing_block(self, monkeypatch):
        name = "pure3_correlation_identity"
        reduce, calls = CHECKS[name].reduce, []

        def late_boom(draws, stack):
            calls.append(len(draws))
            if len(calls) > 1:
                raise ValueError(f"call {len(calls)}")
            return reduce(draws, stack)

        monkeypatch.setattr(experiments, "_SUITE", _with_reduce(_SUITE, name, late_boom))
        result = next(r for r in run_property_suite(samples=570, master_seed=3).results if r.name == name)
        assert (result.samples, result.failures, result.error) == (570, 570, "ValueError: call 2")
        # The third block (samples 512 to 570) is not reduced for a check that has failed.
        assert calls == [256, 256]

    def test_a_check_alone_raises_the_error_of_its_reduce(self, monkeypatch):
        def degenerate(draws, stack):
            raise ellipsoid.ZeroProbabilityError("no such outcome")

        with pytest.raises(ellipsoid.ZeroProbabilityError, match="no such outcome"):
            _sampled(7, 0, 10, replace(CHECKS["separable_volume_bound"], reduce=degenerate))
        monkeypatch.setattr(experiments, "_CONJECTURE", replace(_CONJECTURE, reduce=degenerate))
        with pytest.raises(ellipsoid.ZeroProbabilityError, match="no such outcome"):
            run_conjecture_test(10, master_seed=7)

    def test_grid_checks_run_once_in_process(self, monkeypatch):
        # A local function cannot reach a worker process, and each grid is whole in one call.
        calls = []

        def grid(master_seed, start, stop):
            calls.append((start, stop))
            return np.zeros(stop - start)

        monkeypatch.setattr(experiments, "_SUITE", tuple(c if c.scaled else replace(c, fn=grid) for c in _SUITE))
        assert run_property_suite(samples=20, master_seed=3, workers=2).passed
        assert calls == [(0, check.samples) for check in _SUITE if not check.scaled]

    @pytest.mark.parametrize("index", [0, 255, 256, 2**32 - 1])
    def test_a_narrow_draw_is_a_prefix_of_a_wider_one(self, index):
        # The shared row of a sample serves every narrower check: its tiles do not depend on the width.
        wide = states.sample_rows(12345, index, index + 1, 4096)[0]
        for width in (16, 32, 128, 288, 332, 400, 512, 2048):
            assert states.sample_rows(12345, index, index + 1, width)[0].tobytes() == wide[:width].tobytes()


class TestBlockStacks:
    """A block's reduces read one cache of drawn state stacks: each is built once and shared read-only."""

    def test_each_stack_is_built_once_per_block(self, monkeypatch):
        # At samples=50 every check fits in one block: 25 ket builds for 6 distinct stacks before the cache.
        expected = run_property_suite(samples=50, master_seed=3).to_dict()
        builds = []

        def counted(builder):
            def build(draws, n_qubits, *source):
                builds.append((builder.__name__, n_qubits))
                return builder(draws, n_qubits, *source)

            return build

        for name in ("_pure_kets", "_mixed_kets", "_mixed_hub_volumes", "_steered_points"):
            monkeypatch.setattr(experiments, name, counted(getattr(experiments, name)))
        assert run_property_suite(samples=50, master_seed=3).to_dict() == expected
        # The mixed 3-qubit kets twice: sampled_state_validity reads them after its 16 pure-ket normals.
        # The three two-qubit volume rows share one set of hub volumes, the two steered-point rows one set of points.
        assert sorted(builds) == [
            ("_mixed_hub_volumes", 2), ("_mixed_hub_volumes", 3), ("_mixed_hub_volumes", 5),
            ("_mixed_kets", 2), ("_mixed_kets", 3), ("_mixed_kets", 3), ("_mixed_kets", 5),
            ("_pure_kets", 3), ("_pure_kets", 4),
            ("_steered_points", 2),
        ]

    @pytest.mark.parametrize(
        "name, builder, n_qubits",
        [
            # Each writer is the first reader of its stack in the block, so a writable stack would reach later readers.
            ("state_reconstruction_round_trip", "_mixed_states", 2),
            ("partial_trace_composition", "_mixed_kets", 3),
            ("pure3_purity_bipartition_symmetry", "_pure_states", 3),
            ("volume_matches_canonical_form", "_mixed_hub_volumes", 2),
            ("steered_points_inside_bloch_ball", "_steered_points", 2),
            ("mixed5_twothirds_volume_sum", "_mixed_hub_volumes", 5),
        ],
    )
    def test_a_reduce_that_writes_into_a_stack_fails_alone(self, name, builder, n_qubits):
        counts = [_scaled_count(check, 60) for check in SHARED_CHECKS]
        expected = _shared_outcomes(SHARED_CHECKS, counts, 3, 1)

        def scribble(draws, stack):
            stack(getattr(experiments, builder), n_qubits)[0] = 0.0
            return np.ones(len(draws))

        outcomes = _shared_outcomes(_with_reduce(SHARED_CHECKS, name, scribble), counts, 3, 1)
        for k, check in enumerate(SHARED_CHECKS):
            values, error = outcomes[k]
            if check.name == name:
                assert error.startswith("ValueError:") and "read-only" in error
            else:
                assert error == "" and values.tobytes() == expected[k][0].tobytes(), check.name

    def test_a_smaller_reader_gets_a_slice_of_the_same_stack(self):
        rows = np.random.default_rng(7).standard_normal((40, 128))
        stacks = experiments._Stacks(rows)
        whole = stacks.reader(40)(experiments._mixed_states, 3)
        part = stacks.reader(9)(experiments._mixed_states, 3)
        assert part.base is whole.base and not part.flags.writeable
        alone = experiments._Stacks(rows[:9].copy()).reader(9)(experiments._mixed_states, 3)
        assert part.tobytes() == alone.tobytes()
        # A reader of more rows than the stack holds rebuilds it over its own rows.
        stacks = experiments._Stacks(rows)
        assert stacks.reader(9)(experiments._mixed_states, 3).tobytes() == alone.tobytes()
        assert stacks.reader(40)(experiments._mixed_states, 3).tobytes() == whole.tobytes()

    def test_the_largest_reader_builds_each_stack(self, monkeypatch):
        # Listed first, the 5-sample check would build the kets over 5 rows; the 50-sample one would rebuild them.
        calls = []
        pure_kets = experiments._pure_kets

        def counted(draws, n_qubits, source):
            calls.append(len(draws))
            return pure_kets(draws, n_qubits, source)

        monkeypatch.setattr(experiments, "_pure_kets", counted)

        def lhs(draws, stack):
            return stack(experiments._pure_states, 3)[:, 0, 0].real

        check = experiments._InvariantCheck("pure3_corner", 50, 16, lhs)
        checks = ((5, check), (50, check))
        (small, large), errors = _shared_sampled(7, 0, 50, checks)
        assert errors == [None, None] and calls == [50]
        assert small.tobytes() == large[:5].tobytes()


class TestProcessPool:
    def test_one_pool_per_worker_count(self):
        assert _pool(2) is _pool(2)
        fn = partial(_sampled, check=CHECKS["polygon_inequality"])
        np.testing.assert_array_equal(_chunked_values(fn, 30, 3, 2), fn(3, 0, 30))
        np.testing.assert_array_equal(_chunked_values(fn, 30, 4, 2), fn(4, 0, 30))

    def test_broken_pool_is_replaced(self):
        broken = _pool(2)
        with pytest.raises(BrokenProcessPool):
            _chunked_values(_exit_worker, 4, 0, 2)
        assert _pool(2) is not broken
        fn = partial(_sampled, check=CHECKS["polygon_inequality"])
        np.testing.assert_array_equal(_chunked_values(fn, 30, 3, 2), fn(3, 0, 30))

    def test_exit_after_a_parallel_run_is_quiet(self, tmp_path):
        # concurrent.futures is imported only when a pool starts, so at exit its globals go before this
        # module's; a pool still cached then would print "Exception ignored in ... weakref_cb".  A
        # pytest run keeps the modules alive until that teardown, so the script is a test module.
        script = tmp_path / "test_parallel_run.py"
        script.write_text(
            "import os\nfrom qsteer.cli import main\n\n\ndef test_run():\n"
            "    assert main(['conjecture', '--samples', '20', '--workers', '2', '--output', os.devnull]) == 0\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(experiments.__file__)))
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(script)]
        proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout
        assert "Exception ignored" not in proc.stderr + proc.stdout


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
        again = _sampled(21, result.worst_state_seed, result.worst_state_seed + 1, _CONJECTURE)[0]
        assert again == result.max_lhs

    @pytest.mark.parametrize("seed", [12345, 7, 21])
    def test_worst_seed_replays_through_public_functions(self, seed):
        # The kernel normalizes kets as random_pure_state does, so the public
        # per-state path gives max_lhs bit for bit.
        result = run_conjecture_test(2000, master_seed=seed)
        ((_, rng),) = row_streams(seed, result.worst_state_seed, result.worst_state_seed + 1, width=32)
        psi = states.random_pure_state(4, seed=rng)
        assert monogamy.pairwise_correlation_sum(psi, [(0, 1), (0, 2), (0, 3)]) == result.max_lhs

    def test_every_sample_replays_bit_for_bit(self):
        # np.linalg.norm(axis=1) normalization put about one sample in six off in the last bits.
        lhs = _sampled(21, 0, 400, _CONJECTURE)
        ref = [
            monogamy.pairwise_correlation_sum(states.random_pure_state(4, seed=rng), [(0, 1), (0, 2), (0, 3)])
            for _, rng in row_streams(21, 0, 400, width=32)
        ]
        np.testing.assert_array_equal(lhs, ref)

    def test_a_value_at_the_bound_plus_tol_is_no_violation(self, monkeypatch):
        edge = 3.0 + 1e-9
        above = np.nextafter(edge, np.inf)

        def lhs(draws, stack):
            return np.array([edge, above])[: len(draws)]

        monkeypatch.setattr(experiments, "_CONJECTURE", replace(_CONJECTURE, reduce=lhs))
        assert run_conjecture_test(1, master_seed=7).violations == 0
        result = run_conjecture_test(2, master_seed=7)
        assert (result.violations, result.max_lhs, result.worst_state_seed) == (1, above, 1)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            run_conjecture_test(-1)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            run_conjecture_test(10, workers=0)

    def test_lhs_matches_public_reference(self):
        lhs = _sampled(11, 250, 262, _CONJECTURE)
        for k, (_, rng) in enumerate(row_streams(11, 250, 262, width=32)):
            psi = states.random_pure_state(4, seed=rng)
            ref = sum(
                float(np.sum(states.spin_correlation_matrix(states.partial_trace(psi, [0, other])) ** 2))
                for other in (1, 2, 3)
            )
            assert abs(lhs[k] - ref) < 1e-12

    def test_lhs_is_chunk_invariant(self):
        whole = _sampled(4, 0, 600, _CONJECTURE)
        bounds = [0, 1, 255, 257, 600]
        parts = [_sampled(4, lo, hi, _CONJECTURE) for lo, hi in zip(bounds[:-1], bounds[1:])]
        np.testing.assert_array_equal(np.concatenate(parts), whole)
        single = run_conjecture_test(600, master_seed=4, workers=1)
        assert run_conjecture_test(600, master_seed=4, workers=3) == single
        assert single.max_lhs == whole.max()

    @pytest.mark.parametrize("seed", [12345, 7])
    def test_block_lhs_matches_density_formula(self, seed):
        # The hub reduce before it traced kets directly: build each density, then trace it.
        rows = states.sample_rows(seed, 0, 300, 32)
        mats = states._densities(states._haar_arr(rows))
        want = 0.0
        for other in (1, 2, 3):
            T = states._spin_corr_arr(_partial_trace_arr(mats, [0, other], 4))
            want += np.sum(T * T, axis=(1, 2))
        assert experiments._pure4_block_lhs(rows, experiments._Stacks(rows).reader(300)).tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("grid_steps", [2.5, 20.0, "20"])
    def test_non_integer_grid_rejected(self, grid_steps):
        with pytest.raises(TypeError, match="^grid_steps must be an integer"):
            sweep_ghz_region(grid_steps)

    # Grid 7 is one block; at 23**2 and 77**2 points blocks end inside an alpha row, so a swapped
    # or shifted alpha/beta gather shows here.
    @pytest.mark.parametrize("grid_steps", [2, 7, 23, 77])
    def test_rows_equal_per_point_loop_bitwise(self, grid_steps):
        angles = np.arange(1, grid_steps + 1) / (grid_steps + 1) * (math.pi / 2.0)
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
        rows = sweep_ghz_region(grid_steps=grid_steps)
        assert [[v.hex() for v in vars(row).values()] for row in rows] == [
            [v.hex() for v in vars(row).values()] for row in expected
        ]
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

    def test_grid_that_cannot_be_allocated_is_refused_before_the_angles(self, monkeypatch):
        # A 10**16-point grid (80 PB) exceeds any address space; its angle column alone would be 800 MB.
        calls = []
        monkeypatch.setattr(experiments, "_open_grid", lambda *args: calls.append(args))
        with pytest.raises(MemoryError):
            experiments._ghz_columns(10**8)
        assert calls == []


def _noisy_w_numeric_per_epsilon(p_grid, epsilons) -> np.ndarray:
    """The numeric volumes of ``_noisy_w_columns`` one strength at a time, on the pair (0, 1) traced first."""
    p = np.asarray(_open_grid(100, 1.0) if p_grid is None else p_grid, dtype=float).reshape(-1)
    eps = np.asarray(experiments._DEFAULT_EPSILONS if epsilons is None else epsilons, dtype=float).reshape(-1)
    closed = channels._noisy_w_volume_arr(p, eps[:, None])
    kets = monogamy._w_family_arr(p)
    numeric = np.empty(closed.shape)
    for e, strength in enumerate(eps):
        noise = [channels.isotropic_channel(float(strength)).superoperator] * 2
        for block in experiments._blocks(p.size):
            pair = states._reduced_arr(kets[block], 3, [(0, 1)], pure=True)[0]
            numeric[e, block] = ellipsoid._volume_arr(channels._apply_local_arr(noise, pair, 2))
    return numeric.ravel()


class TestNoisyWSweep:
    @pytest.mark.parametrize(
        "p_grid, epsilons",
        [
            (None, None),
            (_open_grid(20, 1.0), (0.0, 0.001, 0.005, 0.01, 0.1)),
            (None, (0.0, 1.0)),
            ([0.3], None),
            (_open_grid(300, 1.0), (0.0, 0.2)),
        ],
    )
    def test_stacked_strengths_match_one_strength_at_a_time(self, p_grid, epsilons):
        got = experiments._noisy_w_columns(p_grid, epsilons)[3]
        assert got.tobytes() == _noisy_w_numeric_per_epsilon(p_grid, epsilons).tobytes()

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

    def test_numeric_volumes_against_the_exact_closed_form(self):
        # fig2's default table against the closed form in exact rationals of its float p and epsilon.
        # The bounds are the errors the numeric volumes had when the noise acted on 8 x 8 registers,
        # rounded up (max 5.46674e-13, mean 2.36644e-15): channels on the traced pair must do no worse.
        p, eps, _, numeric = (col.tolist() for col in experiments._noisy_w_columns(_open_grid(100, 1.0), None)[:4])
        errors = []
        for p_f, eps_f, volume in zip(p, eps, numeric):
            p_q, shrink = Fraction(p_f), 1 - Fraction(eps_f)
            exact = 4 * p_q**4 * (1 - p_q**2) ** 2 * shrink**6 / (1 - shrink**2 * (1 - 2 * p_q**2) ** 2) ** 2
            errors.append(abs(Fraction(volume) - exact))
        assert len(errors) == 400
        assert max(errors) <= Fraction("5.47e-13")
        assert sum(errors) / len(errors) <= Fraction("2.37e-15")


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
        def corrupt(kets, n_qubits):
            dim = 2**n_qubits
            return np.broadcast_to(np.eye(dim, dtype=complex) * (0.9 / dim), kets.shape[:-1] + (dim, dim))

        monkeypatch.setattr(states, "_induced_arr", corrupt)
        report = run_property_suite(samples=5, master_seed=1)
        assert not report.passed
        validity = next(r for r in report.results if r.name == "sampled_state_validity")
        assert not validity.passed
        assert "trace" in validity.error

    @pytest.mark.parametrize("master_seed", [7, 12345])
    def test_validity_reduce_validates_the_sampler_output(self, monkeypatch, master_seed):
        # sampled_state_validity draws one row of normals per sample; its reduce must build, bit for bit,
        # the states random_pure_state(3) and then random_mixed_state(3) draw from the same stream.
        check = CHECKS["sampled_state_validity"]
        rows = states.sample_rows(master_seed, 0, 500, check.width, check.draw)
        validated = []
        monkeypatch.setattr(states, "_validate_arr", lambda data, tol: validated.append(np.array(data)))
        check.reduce(rows, experiments._Stacks(rows).reader(500))
        kets, mats = validated
        for i, rng in row_streams(master_seed, 0, 500, width=check.width):
            assert kets[i].tobytes() == states.random_pure_state(3, seed=rng).data.tobytes()
            assert mats[i].tobytes() == states.random_mixed_state(3, seed=rng).matrix.tobytes()


def _printed_row(name: str) -> dict:
    """Row ``name`` of the suite's JSON output at 20 samples, parsed back."""
    report = run_property_suite(samples=20, master_seed=3)
    return next(row for row in json.loads(serialize.dumps(report.to_dict()))["invariants"] if row["name"] == name)


class TestForcedFailures:
    """A reduce that rules a sample out by more than its quantity gives it NaN, whose margin is a finite -1."""

    def test_an_uncertified_unit_volume_fails(self, monkeypatch):
        # Every mixed pair is a Bell state, of unit volume; certified pure and entangled, it passes.
        bell = np.zeros((4, 4), dtype=complex)
        bell[np.ix_([0, 3], [0, 3])] = 0.5
        mixed_states = experiments._mixed_states

        def bell_pairs(draws, n_qubits, source):
            return np.repeat(bell[None], len(draws), axis=0) if n_qubits == 2 else mixed_states(draws, n_qubits, source)

        monkeypatch.setattr(experiments, "_mixed_states", bell_pairs)
        check = CHECKS["volume_in_unit_interval"]
        assert (_check_margins(check, 3, 0, 20) >= 0.0).all()
        monkeypatch.setattr(monogamy, "_concurrence_arr", lambda factors: np.zeros(len(factors)))
        assert _check_margins(check, 3, 0, 20).tolist() == [-1.0] * 20
        row = _printed_row(check.name)
        assert (row["failures"], row["worst_margin"]) == (20, -1)

    def test_a_wclass_code_mismatch_fails(self, monkeypatch):
        monkeypatch.setattr(monogamy, "_slocc_codes", lambda vec: np.full(len(vec), -1))
        check = CHECKS["wclass_saturation"]
        assert _check_margins(check, 3, 0, 20).tolist() == [-1.0] * 20
        row = _printed_row(check.name)
        assert (row["failures"], row["worst_margin"]) == (20, -1)

    def test_a_row_with_no_firm_quadratic_form_passes(self, monkeypatch):
        # Its value is the form's 0 at the centre, so its margin is the whole allowance bound + tol.
        center_orientation = ellipsoid._center_orientation

        def flat(*args):
            live, center, q = center_orientation(*args)
            return live, center, np.zeros_like(q)

        monkeypatch.setattr(ellipsoid, "_center_orientation", flat)
        check = CHECKS["steered_points_inside_ellipsoid"]
        assert _check_margins(check, 3, 0, 20).tolist() == [1.0 + 1e-6] * 20
        row = _printed_row(check.name)
        assert (row["failures"], row["worst_margin"]) == (0, 1.000001)


class TestReplay:
    """A run's worst sample is rebuilt from its draw row alone (states.sample_rows) and gives its value bit for bit."""

    def test_worst_suite_sample_replays_bit_for_bit(self):
        result = next(
            r for r in run_property_suite(samples=1000, master_seed=7).results if r.name == "pure3_sqrt_volume_monogamy"
        )
        i = result.worst_index
        ket = states._haar_arr(states.sample_rows(7, i, i + 1, experiments._pure_width(3))[0])
        report = volume_monogamy_report(QuantumState(3, ket))
        assert (1.0 + 1e-9 - report.sqrt_lhs).hex() == result.worst_margin.hex()

    @pytest.mark.parametrize("seed", [7, 12345])
    def test_worst_conjecture_state_replays_bit_for_bit(self, seed):
        result = run_conjecture_test(3000, master_seed=seed)
        i = result.worst_state_seed
        ket = states._haar_arr(states.sample_rows(seed, i, i + 1, 32)[0])
        assert monogamy.pairwise_correlation_sum(QuantumState(4, ket), [(0, 1), (0, 2), (0, 3)]) == result.max_lhs

    def test_worst_index_is_that_of_the_worst_margin(self):
        for result in run_property_suite(samples=60, master_seed=5, explore_mixed_4q=True).results:
            margins = _check_margins(CHECKS[result.name], 5, 0, result.samples)
            assert result.worst_index == int(np.argmin(margins)), result.name
            assert margins[result.worst_index] == result.worst_margin
            assert "worst_index" not in result.to_dict()
        empty = run_property_suite(samples=0, master_seed=1).results
        assert {r.worst_index for r in empty if r.samples == 0} == {-1}


class TestWClassSaturation:
    @pytest.mark.parametrize("theta", [0.0, 1e-6, 5e-5, math.pi / 4, math.pi / 2 - 5e-5, math.pi / 2 - 1e-6, math.pi / 2])
    def test_expected_class_matches_classifier(self, theta):
        expected = monogamy._SLOCC_CLASSES[int(_max_volume_codes(theta))]
        assert monogamy.slocc_classify(monogamy.max_volume_state(theta)) is expected
        assert expected is _ref_max_volume_class(theta)

    def test_end_of_range_sample_saturates(self):
        # The first theta within 1e-5 of pi/2 in samples 0-49 of master seeds from 677332090 upward:
        # sample 42 of seed 677332260 draws theta = pi/2 - 3.2e-6, where qubit 1 factors out; the
        # state is bipartite yet saturates the bound.
        ((_, rng),) = row_streams(677332260, 42, 43, experiments._WCLASS_DRAW, _WCLASS_WIDTH)
        theta = rng.uniform(0.0, math.pi / 2.0)
        assert math.pi / 2 - theta < 1e-5
        assert monogamy._SLOCC_CLASSES[int(_max_volume_codes(theta))] is monogamy.SloccClass.BIPARTITE_AC_B
        assert _check_margins(CHECKS["wclass_saturation"], 677332260, 42, 43)[0] >= 0.0


# The worst tangle_volume_bound samples of the two golden runs that print one
# (default seed at 10^4 samples; seed 7 at 10^3): (seed, sample count, index)
# and the 3-tangle and margin of each sample's float64 ket, evaluated from its
# entries at 50 digits with mpmath (offline; mpmath is not a dependency).
TANGLE_WORST_SAMPLES = [
    (
        12345, 10_000, 8853,
        "0.0015697363894168225348027419195539310540954625310013",
        "0.0015347905557012868704315720109981443080634079307196",
    ),
    (
        7, 1_000, 573,
        "0.0041451943805789368476931363577192636136907095729425",
        "0.0041174055776987570430474404586555129886888702371581",
    ),
]


class TestTangleWorstSamples:
    @pytest.mark.parametrize("seed, count, index, tangle, margin", TANGLE_WORST_SAMPLES)
    def test_worst_sample_matches_fifty_digit_value(self, seed, count, index, tangle, margin):
        check = CHECKS["tangle_volume_bound"]
        assert int(np.argmin(_check_margins(check, seed, 0, count))) == index
        ket = states._haar_arr(states.sample_rows(seed, index, index + 1, experiments._pure_width(3))[0])
        # The eigensolver formula was off by 4.7e-14 and 3.8e-13 here.
        assert abs(float(monogamy._three_tangle_arr(ket)) - float(tangle)) <= 1e-16
        value = _check_margins(check, seed, index, index + 1)[0]
        assert abs(value - float(margin)) <= 1e-15
        # So the printed 12 digits are the exact value's.
        assert serialize.format_float(value) == serialize.format_float(float(margin))


class TestCounterexampleRegression:
    def test_numbers(self):
        reg = counterexample_regression()
        assert reg["sqrt_lhs"] == pytest.approx(2 * math.sqrt(8 / 27), abs=1e-9)
        assert reg["sqrt_lhs"] > 1.0
        assert reg["purified_sqrt_lhs"] > 1.0
        assert reg["purified_sqrt_lhs"] >= reg["sqrt_lhs"] - 1e-9
