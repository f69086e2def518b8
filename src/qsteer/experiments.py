"""Batch drivers: conjecture searches, figure-data sweeps, and the invariant suite.

Every Monte-Carlo run derives the RNG stream of sample ``i`` from
``(master_seed, i)``, so results are bit-reproducible and independent of
the worker count.  Workers are processes; chunk functions are module-level
so they pickle.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import channels, ellipsoid, monogamy, states
from .states import QuantumState, _partial_trace_arr, sample_streams

__all__ = [
    "DEFAULT_SEED",
    "CONJECTURE_BOUND",
    "ConjectureResult",
    "GhzSweepRow",
    "NoisyWSweepRow",
    "InvariantResult",
    "SuiteReport",
    "run_conjecture_test",
    "sweep_ghz_region",
    "sweep_noisy_w",
    "run_property_suite",
    "counterexample_regression",
]

DEFAULT_SEED = 12345

CONJECTURE_BOUND = 3.0
_CONJECTURE_TOL = 1e-9
# Left-hand sides this close to the bound are logged with their seed even
# though they do not violate it.
_NEAR_MISS_GAP = 1e-3

_DEFAULT_EPSILONS = (0.0, 0.001, 0.005, 0.01)

# States the batched kernels (conjecture search, figure sweeps) reduce
# together.  256 already amortizes the per-call overhead; larger blocks only
# raise peak memory (one block of 2,500 samples added about 5 MB).
_BLOCK = 256


def _open_grid(count: int, upper: float) -> np.ndarray:
    """``count`` uniformly spaced points in the open interval (0, upper)."""
    return np.arange(1, count + 1) / (count + 1) * upper


def _check_counts(samples: int, workers: int) -> None:
    if samples < 0:
        raise ValueError(f"sample count must be >= 0, got {samples}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _chunked_values(fn: Callable, n_samples: int, master_seed: int, workers: int) -> np.ndarray:
    """Evaluate ``fn(master_seed, start, stop)`` over [0, n_samples), possibly in parallel.

    The concatenated result is ordered by sample index and identical for
    every worker count, because each sample seeds its own stream.
    """
    if n_samples <= 0:
        return np.empty(0)
    if workers == 1:
        return np.asarray(fn(master_seed, 0, n_samples))
    n_chunks = min(n_samples, 4 * workers)
    bounds = np.linspace(0, n_samples, n_chunks + 1).astype(int)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(fn, master_seed, int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        parts = [f.result() for f in futures]
    return np.concatenate(parts)


# --- conjecture search ---------------------------------------------------------


@dataclass(frozen=True)
class ConjectureResult:
    """Outcome of a random search for violations of the pairwise-correlation bound.

    ``worst_state_seed`` is the sample index whose stream (master_seed,
    index) regenerates the state with the largest left-hand side; -1 for an
    empty run.  Near misses (lhs within 1e-3 of the bound) are kept for
    inspection even though they are not violations.
    """

    samples: int
    violations: int
    max_lhs: float
    worst_state_seed: int
    near_misses: tuple[tuple[int, float], ...] = ()

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "violations": self.violations,
            "max_lhs": self.max_lhs,
            "worst_state_seed": self.worst_state_seed,
            "near_misses": [[idx, lhs] for idx, lhs in self.near_misses],
        }


def _pure4_block_lhs(draws: np.ndarray) -> np.ndarray:
    """Hub correlation sums of the kets whose real and imaginary parts are the rows of ``draws``."""
    vecs = draws[:, :16] + 1j * draws[:, 16:]
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    mats = _densities(vecs)
    lhs = 0.0
    for other in (1, 2, 3):
        T = states._spin_corr_arr(_partial_trace_arr(mats, [0, other], 4))
        lhs += np.sum(T * T, axis=(1, 2))
    return lhs


def _pure4_correlation_lhs(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    draws = np.empty((_BLOCK, 32))
    for lo in range(start, stop, _BLOCK):
        block = draws[: min(_BLOCK, stop - lo)]
        # One 32-value draw is bit for bit the two 16-value draws of
        # states._haar_vector: real parts first, then imaginary parts.
        for i, rng in sample_streams(master_seed, lo, lo + len(block)):
            rng.standard_normal(out=block[i - lo])
        # A helper call frees each block's densities before the next block's exist.
        out[lo - start : lo - start + len(block)] = _pure4_block_lhs(block)
    return out


def run_conjecture_test(n_samples: int, master_seed: int = DEFAULT_SEED, workers: int = 1) -> ConjectureResult:
    """Sample Haar-random pure 4-qubit states and test the hub correlation sum <= 3.

    The left-hand side is Tr[T_AB T_AB^t] + Tr[T_AC T_AC^t] +
    Tr[T_AD T_AD^t]; a violation is a strict excess beyond 3 + 1e-9.
    """
    _check_counts(n_samples, workers)
    values = _chunked_values(_pure4_correlation_lhs, n_samples, master_seed, workers)
    if values.size == 0:
        return ConjectureResult(samples=0, violations=0, max_lhs=float("-inf"), worst_state_seed=-1)
    worst = int(np.argmax(values))
    near = [(int(i), float(values[i])) for i in np.nonzero(values > CONJECTURE_BOUND - _NEAR_MISS_GAP)[0]]
    return ConjectureResult(
        samples=int(values.size),
        violations=int(np.count_nonzero(values > CONJECTURE_BOUND + _CONJECTURE_TOL)),
        max_lhs=float(values[worst]),
        worst_state_seed=worst,
        near_misses=tuple(near),
    )


# --- sweeps --------------------------------------------------------------------


@dataclass(frozen=True)
class GhzSweepRow:
    """One grid point of the GHZ-class family against its predicted volume coordinates."""

    alpha: float
    beta: float
    volume_b: float
    volume_c: float
    predicted_b: float
    predicted_c: float
    residual_b: float
    residual_c: float
    sqrt_lhs: float


@dataclass(frozen=True)
class NoisyWSweepRow:
    """One (p, epsilon) point of the symmetric W family under isotropic noise."""

    p: float
    epsilon: float
    volume_closed_form: float
    volume_numeric: float
    residual: float
    lhs: float


def _blocks(count: int):
    """Slices that cover range(count) in blocks of at most _BLOCK."""
    return [slice(lo, min(lo + _BLOCK, count)) for lo in range(0, count, _BLOCK)]


def _densities(kets: np.ndarray) -> np.ndarray:
    """|psi><psi| for a stack of kets, bit for bit as ``QuantumState.matrix`` builds each."""
    return kets[..., :, None] * kets[..., None, :].conj()


def sweep_ghz_region(grid_steps: int = 50) -> list[GhzSweepRow]:
    """Compare computed volumes of the GHZ-class family against the (x, y) map.

    Walks a uniform ``grid_steps`` x ``grid_steps`` grid over the open
    square (0, pi/2)^2, alpha-major.
    """
    if grid_steps < 2:
        raise ValueError("grid_steps must be >= 2")
    angles = _open_grid(grid_steps, math.pi / 2.0)
    alpha, beta = np.repeat(angles, grid_steps), np.tile(angles, grid_steps)
    kets, x_pred, y_pred = monogamy._ghz_family_arr(alpha, beta)
    v_b, v_c = np.empty(alpha.size), np.empty(alpha.size)
    for block in _blocks(alpha.size):
        v_b[block], v_c[block] = monogamy._hub_volumes(_densities(kets[block]), 3, 0)
    columns = (
        alpha, beta, v_b, v_c, x_pred, y_pred,
        np.abs(v_b - x_pred), np.abs(v_c - y_pred), np.sqrt(v_b) + np.sqrt(v_c),
    )
    return [GhzSweepRow(*row) for row in zip(*(col.tolist() for col in columns))]


def sweep_noisy_w(
    p_grid: Sequence[float] | None = None,
    epsilons: Sequence[float] | None = None,
) -> list[NoisyWSweepRow]:
    """Noisy W-family volumes: closed form vs direct channel application.

    ``lhs`` is the numeric sqrt-volume sum 2 sqrt(v'); rows are grouped by
    noise strength (epsilon-major) to mirror one curve per strength.
    Defaults: 100 p-values on (0, 1) and strengths (0, 0.001, 0.005, 0.01).
    """
    p = np.asarray(_open_grid(100, 1.0) if p_grid is None else p_grid, dtype=float).reshape(-1)
    eps = np.asarray(_DEFAULT_EPSILONS if epsilons is None else epsilons, dtype=float).reshape(-1)
    for name, values in (("p_grid", p), ("epsilons", eps)):
        if values.size == 0:
            raise ValueError(f"{name} must not be empty")
    closed = channels._noisy_w_volume_arr(p, eps[:, None])
    kets = monogamy._w_family_arr(p)
    numeric = np.empty(closed.shape)
    for e, strength in enumerate(eps):
        noise = [channels.isotropic_channel(float(strength))] * 3
        for block in _blocks(p.size):
            noisy = channels.apply_local(noise, _densities(kets[block]))
            pair = _partial_trace_arr(noisy, [0, 1], 3)
            numeric[e, block] = ellipsoid._volume_from_abT(*ellipsoid._steering_abT(pair, 2, 0))
    columns = (
        np.tile(p, eps.size), np.repeat(eps, p.size), closed.ravel(), numeric.ravel(),
        np.abs(closed - numeric).ravel(), 2.0 * np.sqrt(numeric).ravel(),
    )
    return [NoisyWSweepRow(*row) for row in zip(*(col.tolist() for col in columns))]


# --- counterexample regression ---------------------------------------------------


def counterexample_regression() -> dict:
    """Volumes of the monogamy counterexample and of its 4-qubit purification."""
    report3 = monogamy.volume_monogamy_report(monogamy.counterexample_state(), hub=0)
    report4 = monogamy.volume_monogamy_report(monogamy.purified_counterexample(), hub=0)
    return {
        "volumes": list(report3.volumes),
        "sqrt_lhs": report3.sqrt_lhs,
        "two_thirds_lhs": report3.two_thirds_lhs,
        "purified_volumes": list(report4.volumes),
        "purified_sqrt_lhs": report4.sqrt_lhs,
    }


# --- invariant suite -------------------------------------------------------------

# Tolerances pinned per contract; margins are defined so that >= 0 passes.
_TOL = 1e-9
_RECON_TOL = 1e-10
_PTRACE_TOL = 1e-12
_PURITY_SYM_TOL = 1e-10
_BLOCH_BALL_TOL = 1e-8
_MEMBERSHIP_TOL = 1e-6
_SATURATION_TOL = 1e-8
_SEPARABLE_BOUND = 1.0 / 27.0
_POINTS_PER_STATE = 100


def _mixed_matrix(rng, n_qubits: int) -> np.ndarray:
    return states.random_mixed_state(n_qubits, seed=rng).matrix


def _pure_matrix(rng, n_qubits: int) -> np.ndarray:
    return states.random_pure_state(n_qubits, seed=rng).matrix


def _inv_reconstruction(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _mixed_matrix(rng, 2)
        rebuilt = states.pauli_decomposition(mat).reconstruct()
        out[i - start] = _RECON_TOL - float(np.max(np.abs(rebuilt - mat)))
    return out


def _inv_ptrace_composition(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _mixed_matrix(rng, 3)
        direct = _partial_trace_arr(mat, [0], 3)
        stepwise = _partial_trace_arr(_partial_trace_arr(mat, [0, 1], 3), [0], 2)
        out[i - start] = _PTRACE_TOL - float(np.max(np.abs(direct - stepwise)))
    return out


def _inv_purity_symmetry(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _pure_matrix(rng, 3)
        p_ab = states.purity(_partial_trace_arr(mat, [0, 1], 3))
        p_c = states.purity(_partial_trace_arr(mat, [2], 3))
        out[i - start] = _PURITY_SYM_TOL - abs(p_ab - p_c)
    return out


def _inv_state_validity(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        pure = states.random_pure_state(3, seed=rng)
        QuantumState.from_amplitudes(pure.data)
        mixed = states.random_mixed_state(3, seed=rng)
        QuantumState.from_matrix(mixed.matrix)
        out[i - start] = 1.0
    return out


def _inv_volume_canonical(master_seed: int, start: int, stop: int) -> np.ndarray:
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


def _inv_bloch_containment(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        points, _ = _steered_points(_mixed_matrix(rng, 2), rng)
        out[i - start] = 1.0 + _BLOCH_BALL_TOL - float(np.max(np.linalg.norm(points, axis=1)))
    return out


def _inv_membership(master_seed: int, start: int, stop: int) -> np.ndarray:
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


def _inv_separable_bound(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = states.random_separable_two_qubit(seed=rng).matrix
        out[i - start] = _SEPARABLE_BOUND + _TOL - ellipsoid.normalized_volume(mat)
    return out


def _inv_volume_interval(master_seed: int, start: int, stop: int) -> np.ndarray:
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


def _inv_monogamy_sum(master_seed: int, start: int, stop: int, *, n_qubits: int,
                      pure: bool, exponent: float, bound: float) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _pure_matrix(rng, n_qubits) if pure else _mixed_matrix(rng, n_qubits)
        lhs = sum(v**exponent for v in monogamy._hub_volumes(mat, n_qubits, 0))
        out[i - start] = bound + _TOL - lhs
    return out


def _inv_mixed5_mean_volume(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _mixed_matrix(rng, 5)
        out[i - start] = 0.5 + _TOL - float(np.mean(monogamy._hub_volumes(mat, 5, 0)))
    return out


def _inv_correlation_sum(master_seed: int, start: int, stop: int, *, pure: bool) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _pure_matrix(rng, 3) if pure else _mixed_matrix(rng, 3)
        total = monogamy.pairwise_correlation_sum(mat)
        out[i - start] = _TOL - abs(total - 3.0) if pure else 3.0 + _TOL - total
    return out


def _inv_purity_identities(master_seed: int, start: int, stop: int, *, n_qubits: int) -> np.ndarray:
    residual_fn = (
        monogamy.purity_identity_residuals_3q if n_qubits == 3 else monogamy.purity_identity_residuals_4q
    )
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _pure_matrix(rng, n_qubits)
        out[i - start] = _TOL - float(np.max(np.abs(residual_fn(mat))))
    return out


def _inv_canonical_equalities(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = ellipsoid.canonical_form(_pure_matrix(rng, 3)).data
        v_b, v_c = monogamy._hub_volumes(mat, 3, 0)
        b = states._bloch_arr(_partial_trace_arr(mat, [1], 3))
        c = states._bloch_arr(_partial_trace_arr(mat, [2], 3))
        out[i - start] = _TOL - max(abs(v_b - c @ c), abs(v_c - b @ b))
    return out


def _inv_polygon(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _pure_matrix(rng, 3)
        out[i - start] = monogamy.polygon_residual(mat) + _TOL
    return out


def _inv_concurrence_volume(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _mixed_matrix(rng, 2)
        out[i - start] = monogamy.concurrence_volume_residual(mat) + _TOL
    return out


def _inv_ckw(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _mixed_matrix(rng, 3)
        out[i - start] = monogamy.ckw_residual(mat) + _TOL
    return out


def _inv_tangle_volume(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _pure_matrix(rng, 3)
        tangle = monogamy.three_tangle(mat)
        a = states._bloch_arr(_partial_trace_arr(mat, [0], 3))
        report_lhs = sum(math.sqrt(v) for v in monogamy._hub_volumes(mat, 3, 0))
        out[i - start] = tangle - (1.0 - a @ a) * (1.0 - report_lhs) + _TOL
    return out


def _max_volume_class(theta: float) -> monogamy.SloccClass:
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


def _inv_wclass_saturation(master_seed: int, start: int, stop: int) -> np.ndarray:
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
        if monogamy.slocc_classify(vec) is not _max_volume_class(theta):
            margin = -1.0
        out[i - start] = margin
    return out


def _inv_channel_monotonicity(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _mixed_matrix(rng, 2)
        pair = [channels.random_channel(seed=rng) for _ in range(2)]
        v_before, v_after, _ = channels.monotonicity_check(mat, pair)
        out[i - start] = v_before - v_after + _TOL
    return out


def _inv_noisy_pure3_monogamy(master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for i, rng in sample_streams(master_seed, start, stop):
        mat = _pure_matrix(rng, 3)
        noisy = channels.apply_local([channels.random_channel(seed=rng) for _ in range(3)], mat)
        lhs = sum(math.sqrt(v) for v in monogamy._hub_volumes(noisy.data, 3, 0))
        out[i - start] = 1.0 + _TOL - lhs
    return out


def _inv_noisy_w_closed_form(master_seed: int, start: int, stop: int) -> np.ndarray:
    # Deterministic 20 x 5 grid; the index selects a row of the epsilon-major sweep.
    rows = sweep_noisy_w(_open_grid(20, 1.0), (0.0, 0.001, 0.005, 0.01, 0.1))[start:stop]
    return np.array([_TOL - row.residual for row in rows])


def _inv_ghz_mapping(master_seed: int, start: int, stop: int) -> np.ndarray:
    # Deterministic 20 x 20 grid over the open square (0, pi/2)^2, alpha-major.
    rows = sweep_ghz_region(20)[start:stop]
    return np.array([_TOL - max(row.residual_b, row.residual_c) for row in rows])


def _inv_counterexample(master_seed: int, start: int, stop: int) -> np.ndarray:
    regression = counterexample_regression()
    exact = 2.0 * math.sqrt(8.0 / 27.0)
    margins = [
        1e-4 - abs(regression["sqrt_lhs"] - exact),
        regression["purified_sqrt_lhs"] - 1.0,
    ]
    return np.array(margins[start:stop])


def _inv_mixed4_exploration(master_seed: int, start: int, stop: int) -> np.ndarray:
    return _inv_monogamy_sum(master_seed, start, stop, n_qubits=4, pure=False, exponent=2.0 / 3.0, bound=1.0)


@dataclass(frozen=True)
class _InvariantCheck:
    name: str
    fn: Callable
    samples: int
    scaled: bool = True
    exploratory: bool = False


_SUITE: tuple[_InvariantCheck, ...] = (
    _InvariantCheck("state_reconstruction_round_trip", _inv_reconstruction, 10_000),
    _InvariantCheck("partial_trace_composition", _inv_ptrace_composition, 10_000),
    _InvariantCheck("pure3_purity_bipartition_symmetry", _inv_purity_symmetry, 10_000),
    _InvariantCheck("sampled_state_validity", _inv_state_validity, 10_000),
    _InvariantCheck("volume_matches_canonical_form", _inv_volume_canonical, 10_000),
    _InvariantCheck("steered_points_inside_bloch_ball", _inv_bloch_containment, 1_000),
    _InvariantCheck("steered_points_inside_ellipsoid", _inv_membership, 1_000),
    _InvariantCheck("separable_volume_bound", _inv_separable_bound, 10_000),
    _InvariantCheck("volume_in_unit_interval", _inv_volume_interval, 10_000),
    _InvariantCheck(
        "pure3_sqrt_volume_monogamy",
        partial(_inv_monogamy_sum, n_qubits=3, pure=True, exponent=0.5, bound=1.0),
        10_000,
    ),
    _InvariantCheck(
        "mixed3_twothirds_volume_monogamy",
        partial(_inv_monogamy_sum, n_qubits=3, pure=False, exponent=2.0 / 3.0, bound=1.0),
        10_000,
    ),
    _InvariantCheck(
        "pure4_twothirds_volume_monogamy",
        partial(_inv_monogamy_sum, n_qubits=4, pure=True, exponent=2.0 / 3.0, bound=1.0),
        10_000,
    ),
    _InvariantCheck(
        "mixed5_twothirds_volume_sum",
        partial(_inv_monogamy_sum, n_qubits=5, pure=False, exponent=2.0 / 3.0, bound=2.0),
        1_000,
    ),
    _InvariantCheck("mixed5_mean_volume", _inv_mixed5_mean_volume, 1_000),
    _InvariantCheck("pure3_correlation_identity", partial(_inv_correlation_sum, pure=True), 10_000),
    _InvariantCheck("mixed3_correlation_bound", partial(_inv_correlation_sum, pure=False), 10_000),
    _InvariantCheck("pure3_purity_identities", partial(_inv_purity_identities, n_qubits=3), 10_000),
    _InvariantCheck("pure4_purity_identities", partial(_inv_purity_identities, n_qubits=4), 10_000),
    _InvariantCheck("canonical_volume_equalities", _inv_canonical_equalities, 10_000),
    _InvariantCheck("polygon_inequality", _inv_polygon, 10_000),
    _InvariantCheck("concurrence_volume_bound", _inv_concurrence_volume, 10_000),
    _InvariantCheck("ckw_inequality", _inv_ckw, 10_000),
    _InvariantCheck("tangle_volume_bound", _inv_tangle_volume, 10_000),
    _InvariantCheck("wclass_saturation", _inv_wclass_saturation, 10_000),
    _InvariantCheck("channel_volume_monotonicity", _inv_channel_monotonicity, 10_000),
    _InvariantCheck("noisy_pure3_monogamy", _inv_noisy_pure3_monogamy, 1_000),
    _InvariantCheck("noisy_w_closed_form", _inv_noisy_w_closed_form, 100, scaled=False),
    _InvariantCheck("ghz_family_mapping", _inv_ghz_mapping, 400, scaled=False),
    _InvariantCheck("counterexample_regression", _inv_counterexample, 2, scaled=False),
)

_EXPLORATORY = _InvariantCheck("mixed4_twothirds_exploration", _inv_mixed4_exploration, 10_000, exploratory=True)


@dataclass(frozen=True)
class InvariantResult:
    """Per-invariant outcome: failure count and the worst (most negative) margin."""

    name: str
    samples: int
    failures: int
    worst_margin: float
    exploratory: bool = False
    error: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0 and not self.error

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "samples": self.samples,
            "failures": self.failures,
            "worst_margin": self.worst_margin,
            "exploratory": self.exploratory,
            "error": self.error,
        }


@dataclass(frozen=True)
class SuiteReport:
    results: tuple[InvariantResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results if not r.exploratory)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "invariants": [r.to_dict() for r in self.results]}


def run_property_suite(
    samples: int = 10_000,
    master_seed: int = DEFAULT_SEED,
    workers: int = 1,
    explore_mixed_4q: bool = False,
) -> SuiteReport:
    """Run every invariant over fresh seeded ensembles and report margins.

    ``samples`` rescales the Monte-Carlo ensemble sizes relative to their
    defaults (10^4 for most checks); deterministic grid checks keep their
    size.  The optional mixed-4-qubit check records violations of the
    2/3-power bound without failing the suite, since that case is open.
    """
    _check_counts(samples, workers)
    checks = _SUITE + ((_EXPLORATORY,) if explore_mixed_4q else ())
    results = []
    for check in checks:
        count = max(1, round(check.samples * samples / 10_000)) if check.scaled else check.samples
        try:
            margins = _chunked_values(check.fn, count, master_seed, workers)
            results.append(
                InvariantResult(
                    name=check.name,
                    samples=int(margins.size),
                    failures=int(np.count_nonzero(margins < 0)),
                    worst_margin=float(np.min(margins)) if margins.size else float("inf"),
                    exploratory=check.exploratory,
                )
            )
        except Exception as exc:  # noqa: BLE001 - suite must report, not crash
            results.append(
                InvariantResult(
                    name=check.name,
                    samples=count,
                    failures=count,
                    worst_margin=float("-inf"),
                    exploratory=check.exploratory,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return SuiteReport(tuple(results))
