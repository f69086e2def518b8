"""Volume monogamy relations, entanglement measures and reference state families.

Everything here reports raw left-hand sides or residuals; no bound is
enforced at computation time.  The bounds themselves (sqrt-volume sum <= 1
for pure 3-qubit states, 2/3-power sums, the concurrence and CKW
inequalities, ...) are exercised by the experiments module and the test
suite.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .ellipsoid import _steering_abT, _volume_arr, _volume_from_abT
from .states import (
    DEFAULT_TOL,
    PAULIS,
    QuantumState,
    StateLike,
    StateValidationError,
    _bloch_arr,
    _check_range,
    _density,
    _induced_arr,
    _integer,
    _kron_arr,
    _partial_trace_arr,
    _pauli_terms,
    _plan,
    _purity_arr,
    _qubit,
    _real,
    _reduced_arr,
    _signed_terms,
    _spin_corr_arr,
    _state,
    _sum_terms,
)

__all__ = [
    "MonogamyReport",
    "SloccClass",
    "volume_monogamy_report",
    "pairwise_correlation_sum",
    "purity_identity_residuals_3q",
    "purity_identity_residuals_4q",
    "l_bcd",
    "polygon_residual",
    "concurrence",
    "concurrence_volume_residual",
    "ckw_residual",
    "three_tangle",
    "slocc_classify",
    "w_state",
    "ghz_state",
    "w_family",
    "ghz_family",
    "max_volume_state",
    "singlet_state",
    "werner_state",
    "counterexample_state",
    "purified_counterexample",
]

# Marginal eigenvalues below this count as rank deficiency, and 3-tangles
# below it count as zero, when assigning SLOCC classes.
RANK_TOL = 1e-9
TANGLE_TOL = 1e-9


@dataclass(frozen=True)
class MonogamyReport:
    """Normalized ellipsoid volumes steered from one hub qubit, plus aggregates.

    ``volumes`` is ordered by ascending steered-qubit index; ``sqrt_lhs`` and
    ``two_thirds_lhs`` are the sums of sqrt(v) and v**(2/3); ``n_bound`` is
    the general (n-1)/2 bound for the 2/3-power sum.
    """

    hub: int
    volumes: tuple[float, ...]
    sqrt_lhs: float
    two_thirds_lhs: float
    n_bound: float
    mean_volume: float

    def to_dict(self) -> dict:
        return {
            "hub": self.hub,
            "volumes": list(self.volumes),
            "sqrt_lhs": self.sqrt_lhs,
            "two_thirds_lhs": self.two_thirds_lhs,
            "n_bound": self.n_bound,
            "mean_volume": self.mean_volume,
        }

    @classmethod
    def _from_volumes(cls, hub: int, volumes: np.ndarray, n: int) -> "MonogamyReport":
        """The report of the volumes v_{X|hub}, X ascending, of an ``n``-qubit state."""
        sums = {name: float(total(volumes)) for name, total in _RELATION_SUMS.items()}
        return cls(hub=hub, volumes=tuple(volumes.tolist()), n_bound=(n - 1) / 2.0, **sums)


# The relation sums of per-pair volumes, pairs first and any further axes a
# batch.  Each adds the pairs in order, with Python ``sum``, so one state gets
# the bits it gets in a batch: ``np.sum`` and ``np.mean`` add one state's 8 or
# more pairs pairwise, which rounds differently.


def _sqrt_lhs(volumes) -> np.ndarray:
    """The report field ``sqrt_lhs``: the sum of sqrt(v) over the pairs."""
    return sum(np.sqrt(volumes))


def _two_thirds_lhs(volumes) -> np.ndarray:
    """The report field ``two_thirds_lhs``: the sum of v**(2/3) over the pairs."""
    # float_power calls the C pow, as Python's float ** does.
    return sum(np.float_power(volumes, 2.0 / 3.0))


def _mean_volume(volumes) -> np.ndarray:
    """The report field ``mean_volume``: the in-order sum of v over the pairs, over the pair count."""
    return sum(volumes) / len(volumes)


#: Each relation sum by the ``MonogamyReport`` field it fills.
_RELATION_SUMS = {"sqrt_lhs": _sqrt_lhs, "two_thirds_lhs": _two_thirds_lhs, "mean_volume": _mean_volume}


class SloccClass(enum.Enum):
    """The six entanglement classes of pure 3-qubit states under SLOCC."""

    FULLY_PRODUCT = "FullyProduct"
    BIPARTITE_A_BC = "Bipartite_A_BC"
    BIPARTITE_AB_C = "Bipartite_AB_C"
    BIPARTITE_AC_B = "Bipartite_AC_B"
    W_CLASS = "WClass"
    GHZ_CLASS = "GHZClass"


def _hub_volumes(data: np.ndarray, n: int, hub: int, pure: bool = False) -> np.ndarray:
    """Volumes v_{X|hub}, X ascending, as (n - 1, ...) for n-qubit ``data``; ``pure`` as in ``states._reduced_arr``."""
    return _volume_arr(_reduced_arr(data, n, [(hub, other) for other in range(n) if other != hub], pure))


def volume_monogamy_report(rho: StateLike, hub: int = 0) -> MonogamyReport:
    """Per-party normalized volumes v_{X|hub} and their aggregate left-hand sides."""
    state = _state(rho)
    n = state.n_qubits
    if n < 3:
        raise StateValidationError(f"monogamy report needs at least 3 qubits, got {n}")
    hub = _qubit("hub", hub, n)
    return MonogamyReport._from_volumes(hub, _hub_volumes(state.data, n, hub, state.is_pure), n)


def _corr_strengths(data: np.ndarray, n: int, pairs: Sequence[Sequence[int]], pure: bool = False) -> np.ndarray:
    """Tr[T^t T] of the reduced state on each of ``pairs``, as (len(pairs), ...); ``pure`` as in ``_reduced_arr``."""
    T = _spin_corr_arr(_reduced_arr(data, n, pairs, pure))
    return np.sum(T * T, axis=(-2, -1))


def pairwise_correlation_sum(rho: StateLike, pairs: Sequence[tuple[int, int]] | None = None) -> float:
    """Sum of Tr[T^t T] over reduced two-qubit states; all unordered pairs by default."""
    mat, n = _density(rho)
    if pairs is None:
        pairs = list(combinations(range(n), 2))
    pairs = [_qubit_pair(entry, n) for entry in pairs]
    if not pairs:
        raise StateValidationError("pairs list must not be empty")
    return float(_correlation_sum_arr(mat, n, pairs))


def _qubit_pair(entry, n: int) -> tuple[int, int]:
    """A ``pairs`` entry as two distinct qubit indices of an ``n``-qubit state."""
    try:
        i, j = entry
    except (TypeError, ValueError):
        raise StateValidationError(f"pairs entry {entry!r} is not a pair of qubit indices") from None
    i, j = _qubit("pairs entry", i, n), _qubit("pairs entry", j, n)
    if i == j:
        raise StateValidationError(f"pairs entry ({i}, {j}) names one qubit twice")
    return i, j


def _correlation_sum_arr(data: np.ndarray, n: int, pairs: Sequence[tuple[int, int]], pure: bool = False):
    """Sum of Tr[T^t T] over ``pairs``, added in order; ``data`` and ``pure`` as in ``states._reduced_arr``."""
    return sum(_corr_strengths(data, n, pairs, pure))


def _pure_density(state: StateLike, n_qubits: int) -> np.ndarray:
    """Density matrix of a pure ``n_qubits``-qubit state."""
    mat, _ = _density(state, n_qubits)
    _check_pure_arr(mat)
    return mat


def _check_pure_arr(mat: np.ndarray) -> None:
    """Raise StateValidationError unless every matrix of the stack has purity >= 1 - 1e-9."""
    pur = _purity_arr(mat)
    if np.any(pur < 1.0 - DEFAULT_TOL):
        raise StateValidationError(f"expected a pure state, got purity {np.min(pur):.12g}")


def _bloch_norms_sq(mat: np.ndarray, n: int, qubits: Sequence[int]) -> np.ndarray:
    """|r_q|^2 of the Bloch vector of each q in ``qubits``, shape (len(qubits), ...); then the batch of ``mat``."""
    a = _bloch_arr(_reduced_arr(mat, n, [[q] for q in qubits]))
    return (a[..., None, :] @ a[..., :, None])[..., 0, 0]


def purity_identity_residuals_3q(psi: StateLike) -> np.ndarray:
    """Residuals of Tr[T_XY^t T_XY] + x^2 + y^2 - 1 - 2 z^2 for the three pair choices.

    All three vanish for pure 3-qubit states (Schmidt purity matching across
    each bipartition).
    """
    mat = _pure_density(psi, 3)
    return _purity_residuals_3q_arr(mat)


def _purity_residuals_3q_arr(mat: np.ndarray) -> np.ndarray:
    """:func:`purity_identity_residuals_3q` as (..., 3); leading axes of ``mat`` are a batch."""
    a2, b2, c2 = _bloch_norms_sq(mat, 3, range(3))
    t_ab, t_ac, t_bc = _corr_strengths(mat, 3, [(0, 1), (0, 2), (1, 2)])
    return np.stack(
        [
            t_ab + a2 + b2 - 1.0 - 2.0 * c2,
            t_ac + a2 + c2 - 1.0 - 2.0 * b2,
            t_bc + b2 + c2 - 1.0 - 2.0 * a2,
        ],
        axis=-1,
    )


# Gather plan of the 27 coefficients Tr[rho 1 (x) sigma_l (x) sigma_m (x) sigma_n], l, m, n
# row-major, each adding rho's entries in row-major order, as einsum with rho first does.
_L_BCD_OPS = _kron_arr(np.eye(2), _kron_arr(_kron_arr(PAULIS[:, None, None], PAULIS[:, None]), PAULIS))
_L_BCD_PLAN = _plan([sorted(_pauli_terms(op)) for op in _L_BCD_OPS.reshape(27, 16, 16)])


def l_bcd(rho: StateLike) -> float:
    """Tripartite correlation strength of qubits 1..3 of a 4-qubit state.

    Sum over l, m, n in {x, y, z} of Tr[rho 1 (x) sigma_l (x) sigma_m (x)
    sigma_n] squared.
    """
    mat, _ = _density(rho, 4)
    return float(_l_bcd_arr(mat))


def _l_bcd_arr(mat: np.ndarray):
    """:func:`l_bcd` of the trailing (16, 16) axes of ``mat``; leading axes are a batch."""
    coeffs = _sum_terms(_signed_terms(mat, _L_BCD_PLAN), mat.shape[:-2] + (27,))
    return np.sum(coeffs**2, axis=-1)


def purity_identity_residuals_4q(psi: StateLike) -> np.ndarray:
    """Residuals of the three bipartition purity identities plus the hub one.

    The first three compare x^2 + y^2 + Tr[T_XY^t T_XY] across complementary
    pairs; the fourth balances the strength of all correlations among qubits
    1..3 (including the tripartite term) against 3 + 4 a^2.  All four vanish
    for pure 4-qubit states.
    """
    mat = _pure_density(psi, 4)
    return _purity_residuals_4q_arr(mat)


def _purity_residuals_4q_arr(mat: np.ndarray) -> np.ndarray:
    """:func:`purity_identity_residuals_4q` as (..., 4); leading axes of ``mat`` are a batch."""
    a2, b2, c2, d2 = _bloch_norms_sq(mat, 4, range(4))
    pairs = list(combinations(range(4), 2))
    t = dict(zip(pairs, _corr_strengths(mat, 4, pairs)))
    return np.stack(
        [
            (a2 + b2 + t[(0, 1)]) - (c2 + d2 + t[(2, 3)]),
            (a2 + c2 + t[(0, 2)]) - (b2 + d2 + t[(1, 3)]),
            (a2 + d2 + t[(0, 3)]) - (b2 + c2 + t[(1, 2)]),
            b2 + c2 + d2 + t[(1, 2)] + t[(1, 3)] + t[(2, 3)] + _l_bcd_arr(mat) - 3.0 - 4.0 * a2,
        ],
        axis=-1,
    )


def polygon_residual(psi: StateLike) -> float:
    """1 + a - b - c for the marginal Bloch lengths of a pure 3-qubit state.

    Nonnegative for every pure 3-qubit state (the marginal-problem polygon
    constraint on qubit 0).
    """
    mat = _pure_density(psi, 3)
    return float(_polygon_arr(mat))


def _polygon_arr(mat: np.ndarray):
    """:func:`polygon_residual` of the trailing (8, 8) axes of ``mat``; leading axes are a batch."""
    a, b, c = np.sqrt(_bloch_norms_sq(mat, 3, range(3)))
    return 1.0 + a - b - c


# sigma_y (x) sigma_y maps rows (0, 1, 2, 3) of A to (-A_3, A_2, A_1, -A_0).
_FLIP_SIGN = np.array([-1.0, 1.0, 1.0, -1.0])[:, None]


def _spin_flip_tau(factor: np.ndarray) -> np.ndarray:
    """tau = A^T (sigma_y (x) sigma_y) A of factors A, shape (..., 4, r) to (..., r, r)."""
    return np.swapaxes(factor, -1, -2) @ (_FLIP_SIGN * factor[..., ::-1, :])


def _eigh_factor(mat: np.ndarray) -> np.ndarray:
    """A with A A^dagger = ``mat``: eigenvectors scaled by the square roots of eigenvalues clipped at 0.

    Columns are in ascending eigenvalue order; leading axes of ``mat`` are a batch.
    """
    vals, vecs = np.linalg.eigh(mat)
    return vecs * np.sqrt(np.maximum(vals, 0.0))[..., None, :]


def _wootters_lambdas(factor: np.ndarray) -> np.ndarray:
    """Wootters values of rho = A A^dagger, descending: the singular values of tau = A^T (sigma_y (x) sigma_y) A.

    ``factor`` is A, shape (..., 4, r); leading axes are a batch; the
    result is (..., min(r, 4)).  They equal the square roots of the
    eigenvalues of rho rho_tilde, with no square root of a noisy eigenvalue
    taken.  A factor with r > 4 columns is first reduced to the 4 x 4 factor
    R^dagger of A^dagger = Q R, which has the same rho.
    """
    if factor.shape[-1] > 4:
        factor = np.swapaxes(np.linalg.qr(np.swapaxes(factor, -1, -2).conj(), mode="r"), -1, -2).conj()
    return np.linalg.svd(_spin_flip_tau(factor), compute_uv=False)


def _concurrence_arr(factor: np.ndarray):
    """Wootters concurrence max(0, lambda_1 - lambda_2 - ...) of rho = A A^dagger for factors A (..., 4, r)."""
    lam = _wootters_lambdas(factor)
    c = lam[..., 0] - np.sum(lam[..., 1:], axis=-1)
    return np.where(c > 0.0, c, 0.0)


def concurrence(rho: StateLike) -> float:
    """Wootters concurrence of a two-qubit state.

    max(0, lambda_1 - lambda_2 - lambda_3 - lambda_4), where the lambda_i
    are the descending square roots of the eigenvalues of rho rho_tilde,
    rho_tilde the spin-flipped complex conjugate; computed as the singular
    values of a factor's tau (see ``_wootters_lambdas``).
    """
    mat, _ = _density(rho, 2)
    return float(_concurrence_arr(_eigh_factor(mat)))


def concurrence_volume_residual(rho: StateLike, steering_qubit: int = 0) -> float:
    """(1 - a^2) sqrt(v) - C^2 for a two-qubit state; nonnegative for all states."""
    mat, _ = _density(rho, 2)
    return float(_concurrence_volume_arr(mat, _eigh_factor(mat), steering_qubit))


def _concurrence_volume_arr(mat: np.ndarray, factor: np.ndarray, steering_qubit: int = 0):
    """:func:`concurrence_volume_residual` of densities ``mat`` = A A^dagger, A = ``factor``; leading axes are a batch."""
    a, b, T, gamma = _steering_abT(mat, steering_qubit)
    c = _concurrence_arr(factor)
    return gamma * np.sqrt(_volume_from_abT(a, b, T, gamma)) - c * c


def ckw_residual(rho: StateLike, hub: int = 0) -> float:
    """4 det(rho_hub) - C^2(hub, X) - C^2(hub, Y) for a 3-qubit state; nonnegative."""
    mat, _ = _density(rho, 3)
    return float(_ckw_arr(_eigh_factor(mat), _qubit("hub", hub, 3)))


def _ckw_arr(factor: np.ndarray, hub: int = 0):
    """:func:`ckw_residual` of rho = A A^dagger for 3-qubit factors A (..., 8, r); leading axes are a batch.

    A pair's factor is A with the third qubit moved into the columns, (..., 4, 2 r).
    """
    mat = _induced_arr(factor.reshape(factor.shape[:-2] + (-1,)), 3)
    total = 4.0 * np.linalg.det(_partial_trace_arr(mat, [hub], 3)).real
    qubits = factor.reshape(factor.shape[:-2] + (2, 2, 2, -1))
    batch = factor.ndim - 2
    for other in (q for q in range(3) if q != hub):
        third = 3 - hub - other
        axes = (*range(batch), *(batch + q for q in (hub, other, third)), batch + 3)
        pair = qubits.transpose(axes).reshape(factor.shape[:-2] + (4, -1))
        # float_power calls the C pow, as Python's float ** does.
        total = total - np.float_power(_concurrence_arr(pair), 2)
    return total


def three_tangle(psi: StateLike) -> float:
    """Residual tripartite entanglement 4 det(rho_A) - C^2_AB - C^2_AC of a pure 3-qubit state.

    Zero exactly on the W class, positive on the GHZ class, 1 for the GHZ
    state itself.  Computed as 4 |det tau| of the 2 x 2 spin-flip matrix of
    the ket (see ``_three_tangle_arr``), with no eigensolver in the way.
    """
    return float(_three_tangle_arr(_pure_ket(psi)))


def _pure_ket(psi: StateLike) -> np.ndarray:
    """A pure 3-qubit state's ket: as given, or a density's top eigenvector scaled by the root of its eigenvalue."""
    state = _state(psi, 3)
    if state.is_pure:
        return state.data
    return _eigh_factor(_pure_density(state, 3))[..., -1]


def _three_tangle_arr(kets: np.ndarray):
    """:func:`three_tangle` of 3-qubit kets (..., 8); leading axes are a batch.

    With A the ket as a 4 x 2 matrix (qubits 0 and 1 by qubit 2), rho_AB =
    A A^dagger has the two Wootters values of the 2 x 2 tau, and the CKW
    residual is 4 lambda_1 lambda_2 = 4 |det tau| (Coffman, Kundu and
    Wootters, PRA 61, 052306 (2000)).
    """
    tau = _spin_flip_tau(kets.reshape(kets.shape[:-1] + (4, 2)))
    return 4.0 * np.abs(tau[..., 0, 0] * tau[..., 1, 1] - tau[..., 0, 1] * tau[..., 1, 0])


def slocc_classify(psi: StateLike) -> SloccClass:
    """SLOCC class of a pure 3-qubit state via marginal ranks and the 3-tangle.

    A marginal eigenvalue below 1e-9 counts as rank 1 (that qubit factors
    out); with no factoring qubit the 3-tangle separates the W class (tangle
    ~ 0) from the GHZ class.
    """
    return _SLOCC_CLASSES[int(_slocc_codes(_pure_ket(psi)))]


#: Order of the class codes that :func:`_slocc_codes` returns.
_SLOCC_CLASSES = (
    SloccClass.FULLY_PRODUCT,
    SloccClass.BIPARTITE_A_BC,
    SloccClass.BIPARTITE_AC_B,
    SloccClass.BIPARTITE_AB_C,
    SloccClass.W_CLASS,
    SloccClass.GHZ_CLASS,
)


def _slocc_codes(kets: np.ndarray) -> np.ndarray:
    """Indices into _SLOCC_CLASSES of 3-qubit kets (..., 8); leading axes are a batch.

    The smaller eigenvalue p of a qubit marginal with trace t is below
    RANK_TOL exactly when its determinant p (t - p) is below RANK_TOL (t -
    RANK_TOL), since p <= t / 2; so no eigensolver is needed.
    """
    m = _reduced_arr(kets, 3, [[0], [1], [2]], pure=True)
    det = (m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]).real
    # Whether each qubit's marginal is pure, qubits on axis 0.
    pure_marginals = det < RANK_TOL * ((m[..., 0, 0] + m[..., 1, 1]).real - RANK_TOL)
    count = np.sum(pure_marginals, axis=0)
    # A single pure marginal names the qubit that factors out: A, then B, then C.
    bipartite = 1 + np.argmax(pure_marginals, axis=0)
    entangled = np.where(_three_tangle_arr(kets) <= TANGLE_TOL, 4, 5)
    # Two pure marginals force the third for a pure state, so >= 2 means
    # fully product up to numerical noise.
    return np.where(count >= 2, 0, np.where(count == 1, bipartite, entangled))


# --- reference state families -------------------------------------------------


def _ket(n_qubits: int, amplitudes: dict[int, complex]) -> QuantumState:
    vec = np.zeros(2**n_qubits, dtype=complex)
    for idx, amp in amplitudes.items():
        vec[idx] = amp
    return QuantumState(n_qubits, vec)


def w_state() -> QuantumState:
    """(|100> + |010> + |001>) / sqrt(3)."""
    s = 1.0 / math.sqrt(3.0)
    return _ket(3, {4: s, 2: s, 1: s})


def ghz_state(n_qubits: int = 3) -> QuantumState:
    """(|0...0> + |1...1>) / sqrt(2)."""
    n_qubits = _integer("n_qubits", n_qubits)
    if n_qubits < 2:
        raise StateValidationError("ghz_state needs at least 2 qubits")
    s = 1.0 / math.sqrt(2.0)
    return _ket(n_qubits, {0: s, 2**n_qubits - 1: s})


def _w_family_arr(p) -> np.ndarray:
    """Kets (p.shape + (8,)) of :func:`w_family` over an array of weights."""
    p = np.asarray(p, dtype=float)
    _check_range("p", p, (0.0 < p) & (p < 1.0), "(0, 1)")
    kets = np.zeros(p.shape + (8,), dtype=complex)
    kets[..., 4] = p
    kets[..., 2] = kets[..., 1] = np.sqrt((1.0 - p * p) / 2.0)
    return kets


def w_family(p: float) -> QuantumState:
    """p |100> + sqrt((1-p^2)/2) (|010> + |001>), p in (0, 1).

    A one-parameter family of W-class states, symmetric in qubits 1 and 2;
    every member saturates the sqrt-volume monogamy bound.
    """
    return QuantumState(3, _w_family_arr(_real("p", p)))


def _ghz_factors(name: str, theta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-angle factors of :func:`ghz_family`: sin(t)/sqrt(2), cos(t)/sqrt(2) and cos(2t), t in (0, pi/2)."""
    theta = np.asarray(theta, dtype=float)
    _check_range(name, theta, (0.0 < theta) & (theta < math.pi / 2.0), "(0, pi/2)")
    s = 1.0 / math.sqrt(2.0)
    return np.sin(theta) * s, np.cos(theta) * s, np.cos(2.0 * theta)


def _ghz_kets(sin_a, cos_a, sin_b, cos_b) -> np.ndarray:
    """Kets (shape + (8,)) of :func:`ghz_family` from the factors sin/sqrt(2), cos/sqrt(2) of alpha and beta."""
    kets = np.zeros(np.broadcast_shapes(np.shape(sin_a), np.shape(sin_b)) + (8,), dtype=complex)
    kets[..., 4] = sin_a
    kets[..., 2] = sin_b
    kets[..., 1] = cos_b
    kets[..., 7] = cos_a
    return kets


def _ghz_predictions(cos_2a, cos_2b) -> tuple[np.ndarray, np.ndarray]:
    """Predicted v_{B|A}, v_{C|A} of :func:`ghz_family` from cos(2 alpha) and cos(2 beta), broadcast."""
    # float_power calls the C pow, as Python's float ** does.
    return np.float_power(cos_2a + cos_2b, 2) / 4.0, np.float_power(cos_2a - cos_2b, 2) / 4.0


def ghz_family(alpha: float, beta: float) -> tuple[QuantumState, tuple[float, float]]:
    """Two-parameter GHZ-class family plus its predicted volume coordinates.

    Returns the state (sin(a)|100> + sin(b)|010> + cos(b)|001> +
    cos(a)|111>) / sqrt(2) for a, b in (0, pi/2), together with the
    predicted pair (v_{B|A}, v_{C|A}) = ((cos 2a + cos 2b)^2 / 4,
    (cos 2a - cos 2b)^2 / 4).
    """
    alpha, beta = _real("alpha", alpha), _real("beta", beta)
    sin_a, cos_a, cos_2a = _ghz_factors("alpha", alpha)
    sin_b, cos_b, cos_2b = _ghz_factors("beta", beta)
    x, y = _ghz_predictions(cos_2a, cos_2b)
    return QuantumState(3, _ghz_kets(sin_a, cos_a, sin_b, cos_b)), (float(x), float(y))


def max_volume_state(theta: float) -> QuantumState:
    """(|100> + cos(t)|010> + sin(t)|001>) / sqrt(2), t in [0, pi/2].

    Canonical form of the states saturating the sqrt-volume monogamy bound;
    W class for interior t, bipartite at the endpoints.
    """
    theta = _real("theta", theta)
    _check_range("theta", theta, 0.0 <= theta <= math.pi / 2.0, "[0, pi/2]")
    return QuantumState(3, _max_volume_arr(theta))


def _max_volume_arr(theta) -> np.ndarray:
    """Kets (theta.shape + (8,)) of :func:`max_volume_state` over an array of angles."""
    theta = np.asarray(theta, dtype=float)
    s = 1.0 / math.sqrt(2.0)
    kets = np.zeros(theta.shape + (8,), dtype=complex)
    kets[..., 4] = s
    kets[..., 2] = np.cos(theta) * s
    kets[..., 1] = np.sin(theta) * s
    return kets


def singlet_state() -> QuantumState:
    """(|01> - |10>) / sqrt(2)."""
    s = 1.0 / math.sqrt(2.0)
    return _ket(2, {1: s, 2: -s})


def werner_state() -> QuantumState:
    """(2/3) |psi-><psi-| + (1/3) 1/4: the two-qubit reduction of the counterexample.

    Its steering ellipsoid is the centered sphere of radius 2/3.
    """
    proj = singlet_state().matrix
    return QuantumState(2, (2.0 / 3.0) * proj + (1.0 / 3.0) * np.eye(4) / 4.0)


def counterexample_state() -> QuantumState:
    """Mixed 3-qubit state whose sqrt-volume sum from qubit 0 exceeds 1.

    An equal mixture of (|101> - 2|011> + |110>)/sqrt(6) and (|010> -
    2|100> + |001>)/sqrt(6); both two-qubit reductions from qubit 0 are the
    same Werner state, so sqrt(v) + sqrt(v) = 2 sqrt(8/27) ~ 1.0887.
    """
    s = 1.0 / math.sqrt(6.0)
    chi1 = _ket(3, {5: s, 3: -2.0 * s, 6: s})
    chi2 = _ket(3, {2: s, 4: -2.0 * s, 1: s})
    return QuantumState(3, 0.5 * (chi1.matrix + chi2.matrix))


def purified_counterexample() -> QuantumState:
    """Pure 4-qubit purification of :func:`counterexample_state`.

    Appends a flag qubit entangled with the two mixture branches; shows the
    sqrt-volume bound fails for pure states of four or more qubits.
    """
    s = 1.0 / math.sqrt(12.0)
    return _ket(4, {10: s, 6: -2.0 * s, 12: s, 5: s, 9: -2.0 * s, 3: s})
