"""Quantum steering ellipsoid of a two-qubit state.

Measuring one qubit (the steering party) collapses the other onto a set of
Bloch vectors that forms an ellipsoid inside the Bloch ball.  This module
computes its center, orientation matrix, semiaxes and normalized volume,
plus the local-filtering canonical form that sets the steering party's
Bloch vector to zero without moving the ellipsoid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import (
    DEFAULT_TOL,
    PauliDecomposition,
    QuantumState,
    StateLike,
    _abT_arr,
    _bloch_arr,
    _density,
    _kron_arr,
    _partial_trace_arr,
    _qubit,
)

__all__ = [
    "DEGENERACY_THRESHOLD",
    "DegenerateMarginalError",
    "ZeroProbabilityError",
    "PovmElement",
    "SteeringEllipsoid",
    "canonical_form",
    "steering_ellipsoid",
    "normalized_volume",
    "steered_point",
]

#: A steering marginal with 1 - |a|^2 at or below this is treated as pure.
DEGENERACY_THRESHOLD = 1e-12

# Eigenvalues of 2*rho_A below this are floored before the inverse square
# root, keeping the filter stable for near-degenerate marginals.
_EIG_FLOOR = 1e-14


class DegenerateMarginalError(ValueError):
    """The steering qubit is pure, so the canonical form does not exist."""


class ZeroProbabilityError(ValueError):
    """The POVM element occurs with probability <= 0 on this state."""


@dataclass(frozen=True)
class PovmElement:
    """POVM element e0 (1 + e.sigma); requires e0 >= 0 and |e| <= 1."""

    e0: float
    e: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.e, dtype=float).reshape(3)
        object.__setattr__(self, "e", e)
        e.setflags(write=False)
        # Written so that NaN, which fails every comparison, fails both checks.
        if not self.e0 >= 0:
            raise ValueError(f"e0 must be nonnegative, got {self.e0}")
        if not np.linalg.norm(e) <= 1 + DEFAULT_TOL:
            raise ValueError(f"|e| = {np.linalg.norm(e)} exceeds 1")


@dataclass(frozen=True)
class SteeringEllipsoid:
    """Center, orientation matrix Q, semiaxes (descending) and normalized volume.

    ``degenerate`` marks the point ellipsoid returned when the steering
    party's marginal is pure.
    """

    center: np.ndarray
    orientation: np.ndarray
    semiaxes: np.ndarray
    normalized_volume: float
    degenerate: bool

    def __post_init__(self):
        for arr in (self.center, self.orientation, self.semiaxes):
            arr.setflags(write=False)

    def to_dict(self) -> dict:
        return {
            "center": [float(x) for x in self.center],
            "Q": [[float(x) for x in row] for row in self.orientation],
            "semiaxes": [float(x) for x in self.semiaxes],
            "volume": float(self.normalized_volume),
            "degenerate": bool(self.degenerate),
        }


def _steering_abT(mat: np.ndarray, steering_qubit: int) -> tuple[np.ndarray, ...]:
    """(a, b, T, ``_gamma(a)``), steering qubit in the Alice slot, of two-qubit matrices; leading axes are a batch."""
    steering_qubit = _qubit("steering_qubit", steering_qubit, 2)
    a, b, T = _abT_arr(mat)
    if steering_qubit == 1:
        a, b, T = b, a, np.swapaxes(T, -1, -2)
    return a, b, T, _gamma(a)


def _gamma(a: np.ndarray):
    """1 - |a|^2 of Bloch vectors ``a``; leading axes are a batch."""
    # matmul reduces each row with the same dot kernel as ``a @ a``; einsum
    # rounds differently in the last bit.
    return 1.0 - (a[..., None, :] @ a[..., :, None])[..., 0, 0]


def _volume_from_abT(a: np.ndarray, b: np.ndarray, T: np.ndarray, gamma: np.ndarray):
    """|det(T - a b^T)| / gamma^2, or 0 for a pure steering marginal; leading axes are a batch.

    ``gamma`` is ``_gamma(a)`` = 1 - |a|^2.
    """
    pure = gamma <= DEGENERACY_THRESHOLD
    # float_power calls the C pow that a float ``**`` uses; ``** 2`` rounds
    # differently in the last bit.
    det = np.linalg.det(T - a[..., :, None] * b[..., None, :])
    return np.where(pure, 0.0, np.abs(det) / np.float_power(np.where(pure, 1.0, gamma), 2))


def _volume_arr(mat: np.ndarray, steering_qubit: int = 0):
    """:func:`normalized_volume` of two-qubit matrices; leading axes are a batch."""
    return _volume_from_abT(*_steering_abT(mat, steering_qubit))


def _center_orientation(a: np.ndarray, b: np.ndarray, T: np.ndarray, gamma: np.ndarray):
    """``(live, center, Q)`` of the ellipsoids of (a, b, T); leading axes are a batch.

    A live row, gamma = ``_gamma(a)`` = 1 - |a|^2 above DEGENERACY_THRESHOLD,
    gets the center (b - T^t a) / gamma and orientation matrix Q; any other
    row gets the point ellipsoid: center b and Q = 0.
    """
    live = gamma > DEGENERACY_THRESHOLD
    scale = np.where(live, gamma, 1.0)[..., None]
    shifted = T - a[..., :, None] * b[..., None, :]
    center = (b - (np.swapaxes(T, -1, -2) @ a[..., :, None])[..., 0]) / scale
    metric = np.eye(3) + a[..., :, None] * a[..., None, :] / scale[..., None]
    q = np.swapaxes(shifted, -1, -2) @ metric @ shifted / scale[..., None]
    q = (q + np.swapaxes(q, -1, -2)) / 2.0
    return live, np.where(live[..., None], center, b), np.where(live[..., None, None], q, 0.0)


def canonical_form(rho: StateLike, steering_qubit: int = 0) -> QuantumState:
    """Local filter [(2 rho_A)^(-1/2) (x) 1] rho [(2 rho_A)^(-1/2) (x) 1].

    The filtered state has a maximally mixed marginal on the steering qubit
    and the same steering ellipsoid for every other party.  Works for any
    qubit count; ``steering_qubit`` selects the filtered tensor slot.

    Raises
    ------
    DegenerateMarginalError
        If the steering qubit's marginal is pure (1 - |a|^2 <= 1e-12).
    """
    mat, n = _density(rho)
    steering_qubit = _qubit("steering_qubit", steering_qubit, n)
    return QuantumState(n, _canonical_arr(mat, n, steering_qubit))


def _canonical_arr(mat: np.ndarray, n: int, steering_qubit: int) -> np.ndarray:
    """:func:`canonical_form` of the trailing (2**n, 2**n) axes of ``mat``; leading axes are a batch.

    Raises DegenerateMarginalError if any steering marginal is pure.
    """
    marginal = _partial_trace_arr(mat, [steering_qubit], n)
    a = _bloch_arr(marginal)
    pure = _gamma(a) <= DEGENERACY_THRESHOLD
    if np.any(pure):
        first = a[pure][0]
        raise DegenerateMarginalError(
            f"steering qubit {steering_qubit} has a pure marginal (|a| = {np.linalg.norm(first):.12g})"
        )
    vals, vecs = np.linalg.eigh(2.0 * marginal)
    scale = 1.0 / np.sqrt(np.maximum(vals, _EIG_FLOOR))
    inv_sqrt = (vecs * scale[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)
    filt = _kron_arr(_kron_arr(np.eye(2**steering_qubit), inv_sqrt), np.eye(2 ** (n - steering_qubit - 1)))
    out = filt @ mat @ filt
    return (out + np.swapaxes(out, -1, -2).conj()) / 2.0


def steering_ellipsoid(rho: StateLike, steering_qubit: int = 0) -> SteeringEllipsoid:
    """Ellipsoid of the steered qubit under all measurements on ``steering_qubit``.

    ``steering_qubit=0`` gives the ellipsoid of qubit 1 steered by qubit 0
    (B given A); ``steering_qubit=1`` swaps the roles.  A pure steering
    marginal factorizes the state and collapses the ellipsoid to the single
    point at the steered qubit's Bloch vector.
    """
    mat, _ = _density(rho, 2)
    center, q, semiaxes, volume, live = _ellipsoid_arr(mat, steering_qubit)
    return SteeringEllipsoid(center, q, semiaxes, float(volume), not live)


def _ellipsoid_arr(mat: np.ndarray, steering_qubit: int) -> tuple[np.ndarray, ...]:
    """:func:`steering_ellipsoid` as ``(center, Q, semiaxes, volume, not degenerate)``; leading axes are a batch."""
    a, b, T, gamma = _steering_abT(mat, steering_qubit)
    live, center, q = _center_orientation(a, b, T, gamma)
    # The point ellipsoid's zero semiaxes are +0.0, never sqrt(-0.0).
    semiaxes = np.where(live[..., None], np.sqrt(np.clip(np.linalg.eigvalsh(q), 0.0, None))[..., ::-1], 0.0)
    return center, q, semiaxes, _volume_from_abT(a, b, T, gamma), live


def normalized_volume(rho: StateLike, steering_qubit: int = 0) -> float:
    """Ellipsoid volume over the Bloch-ball volume: |det(T - a b^T)| / (1 - a^2)^2.

    Returns 0 for a pure steering marginal.  Equals |det T| of the
    canonical form whenever the latter exists.
    """
    mat, _ = _density(rho, 2)
    return float(_volume_arr(mat, steering_qubit))


def _steered_arr(a: np.ndarray, b: np.ndarray, T: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Steered Bloch vectors (b + e.T) / (1 + e.a) for directions ``e`` (..., m, 3).

    Leading axes of (a, b, T) are a batch matching those of ``e``.  Raises
    ZeroProbabilityError if any outcome probability factor 1 + e.a is <= 0.
    """
    denom = 1.0 + (e @ a[..., :, None])[..., 0]
    if np.any(denom <= 0):
        raise ZeroProbabilityError(
            f"POVM element has outcome probability factor {np.min(denom):.3g} <= 0"
        )
    return (b[..., None, :] + e @ T) / denom[..., None]


def steered_point(decomp: PauliDecomposition, element: PovmElement) -> np.ndarray:
    """Bloch vector (b + T^t e) / (1 + a.e) of the steered qubit after outcome ``element``."""
    return _steered_arr(decomp.a, decomp.b, decomp.T, element.e[None])[0]
