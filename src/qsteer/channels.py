"""Local CPTP noise channels in Kraus form and their effect on ellipsoid volumes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ellipsoid import normalized_volume
from .states import (
    PAULIS,
    QuantumState,
    SeedLike,
    StateLike,
    StateValidationError,
    _check_finite,
    _check_n_qubits,
    _check_range,
    _check_tol,
    _density,
    _haar_unitary_arr,
    _real,
    as_rng,
)

__all__ = [
    "COMPLETENESS_TOL",
    "KrausChannel",
    "identity_channel",
    "isotropic_channel",
    "random_channel",
    "apply_local",
    "noisy_w_volume",
    "monotonicity_check",
]

COMPLETENESS_TOL = 1e-10


@dataclass(frozen=True)
class KrausChannel:
    """Single-qubit CPTP map as a tuple of 2x2 Kraus operators.

    Trace preservation (sum of K^dag K equal to the identity within 1e-10)
    is checked at construction.  ``superoperator`` is sum_k K (x) conj(K) as
    a (2, 2, 2, 2) tensor S[i, j, k, l], so the map sends rho to
    sum_kl S[i, j, k, l] rho[k, l].
    """

    operators: tuple[np.ndarray, ...]
    superoperator: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.operators)
        object.__setattr__(self, "operators", ops)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        for k in ops:
            if k.shape != (2, 2):
                raise ValueError(f"Kraus operators must be 2x2, got shape {k.shape}")
            k.setflags(write=False)
        sup = _superoperator_arr(np.stack(ops))
        sup.setflags(write=False)
        object.__setattr__(self, "superoperator", sup)

    def apply(self, rho2: np.ndarray) -> np.ndarray:
        """Act on a single-qubit density matrix."""
        return _apply_local_arr([self.superoperator], _density(rho2, 1)[0], 1)

    def to_dict(self) -> dict:
        return {
            "kraus": [[[float(z.real), float(z.imag)] for z in k.reshape(-1)] for k in self.operators]
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "KrausChannel":
        try:
            blocks = payload["kraus"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"channel payload missing field: {exc}") from exc
        ops = []
        for block in blocks:
            flat = np.array([complex(re, im) for re, im in block], dtype=complex)
            if flat.size != 4:
                raise ValueError(f"Kraus block has {flat.size} entries, expected 4")
            ops.append(flat.reshape(2, 2))
        return cls(tuple(ops))


def _superoperator_arr(ops: np.ndarray) -> np.ndarray:
    """Superoperator sum_k K (x) conj(K), shape (..., 2, 2, 2, 2), of Kraus stacks (..., k, 2, 2).

    Raises ValueError naming the worst channel's error if any stack fails
    the completeness test max |sum K^dag K - 1| <= 1e-10.
    """
    # A NaN or inf operator makes ``err`` NaN or inf, which fails ``err <= tol``.
    with np.errstate(invalid="ignore", over="ignore"):
        gram = np.swapaxes(ops.conj(), -1, -2) @ ops
        terms = np.einsum("...ik,...jl->...ijkl", ops, ops.conj())
        # Accumulated from 0 in Kraus order, as Python's sum adds, which fixes
        # even the signs of zero entries.
        total = sup = 0
        for k in range(ops.shape[-3]):
            total = total + gram[..., k, :, :]
            sup = sup + terms[..., k, :, :, :, :]
        err = np.max(np.abs(total - np.eye(2)), axis=(-2, -1))
    if np.any(~(err <= COMPLETENESS_TOL)):
        raise ValueError(f"Kraus completeness violated: max |sum K^dag K - 1| = {np.max(err):.3g}")
    return sup


def identity_channel() -> KrausChannel:
    return KrausChannel((np.eye(2, dtype=complex),))


def isotropic_channel(epsilon: float) -> KrausChannel:
    """Depolarizing map rho -> (eps/2) 1 + (1 - eps) rho; Bloch vectors shrink by 1 - eps.

    Kraus form {sqrt(1 - 3 eps/4) 1, sqrt(eps/4) sigma_x, sqrt(eps/4)
    sigma_y, sqrt(eps/4) sigma_z}.
    """
    epsilon = _real("epsilon", epsilon)
    _check_range("epsilon", epsilon, 0.0 <= epsilon <= 1.0, "[0, 1]")
    ops = [math.sqrt(1.0 - 0.75 * epsilon) * np.eye(2, dtype=complex)]
    if epsilon > 0.0:
        ops.extend(math.sqrt(epsilon / 4.0) * PAULIS[j] for j in range(3))
    return KrausChannel(tuple(ops))


def random_channel(seed: SeedLike = None) -> KrausChannel:
    """Random CPTP qubit channel from a Haar-random 8x2 Stinespring isometry.

    The isometry's four 2x2 row blocks are the Kraus operators, so
    completeness holds by construction; covers all qubit channels with an
    environment of dimension 4.
    """
    rng = as_rng(seed)
    return KrausChannel(tuple(_random_kraus_arr(rng.standard_normal(128))))


def _random_kraus_arr(draws: np.ndarray) -> np.ndarray:
    """Kraus stacks (..., 4, 2, 2) of :func:`random_channel` from its normals (..., 128).

    The four 2x2 row blocks of the first two columns of a Haar 8x8 unitary.
    """
    isometry = _haar_unitary_arr(draws, 8)[..., :, :2]
    return isometry.reshape(isometry.shape[:-2] + (4, 2, 2))


def apply_local(channels, rho):
    """Apply one single-qubit channel per qubit: rho' = (phi_0 (x) ... (x) phi_{n-1})(rho).

    ``rho`` is a state, ket or density matrix, which gives a
    :class:`QuantumState`, or a (..., 2**n, 2**n) array stack of density
    matrices, which gives the array stack of outputs.  Each channel acts as
    one contraction of its superoperator with its qubit's row and column
    axes.
    """
    if isinstance(rho, np.ndarray) and rho.ndim > 2:
        if rho.shape[-1] != rho.shape[-2]:
            raise StateValidationError(f"cannot interpret array of shape {rho.shape} as a state stack")
        mat, n = rho, _check_n_qubits(rho.shape[-1])
        _check_finite(mat)
    else:
        mat, n = _density(rho)
    channels = list(channels)
    if len(channels) != n:
        raise StateValidationError(f"need {n} channels for {n} qubits, got {len(channels)}")
    out = _apply_local_arr([channel.superoperator for channel in channels], mat, n)
    return out if out.ndim > 2 else QuantumState(n, out)


def _apply_local_arr(sups, mat: np.ndarray, n: int) -> np.ndarray:
    """Apply superoperator q of ``sups`` to qubit q of each (..., 2**n, 2**n) matrix of ``mat``.

    A (2, 2, 2, 2) superoperator acts on the whole stack; one of shape
    (N, 2, 2, 2, 2) holds one superoperator per matrix of an (N, 2**n, 2**n)
    stack.
    """
    batch = mat.ndim - 2
    out = mat.reshape(mat.shape[:-2] + (2,) * (2 * n))
    for q, sup in enumerate(sups):
        slots = (batch + q, batch + n + q)
        if sup.ndim == 4:
            # tensordot puts the channel's output axes first; move them back
            # to qubit q's row and column slots.
            out = np.moveaxis(np.tensordot(sup, out, axes=([2, 3], slots)), (0, 1), slots)
        else:
            # Per matrix, the same 4 x 4 by 4 x rest product that tensordot forms.
            moved = np.moveaxis(out, slots, (1, 2))
            prod = sup.reshape(-1, 4, 4) @ moved.reshape(moved.shape[0], 4, -1)
            out = np.moveaxis(prod.reshape(moved.shape), (1, 2), slots)
    out = out.reshape(mat.shape)
    return (out + np.swapaxes(out, -1, -2).conj()) / 2.0


def _noisy_w_volume_arr(p, epsilon) -> np.ndarray:
    """Closed-form noisy W-family volume over broadcast arrays of p and epsilon."""
    p, epsilon = np.asarray(p, dtype=float), np.asarray(epsilon, dtype=float)
    _check_range("p", p, (0.0 < p) & (p < 1.0), "(0, 1)")
    _check_range("epsilon", epsilon, (0.0 <= epsilon) & (epsilon <= 1.0), "[0, 1]")
    # float_power calls the C pow, which Python's float ** also uses.
    shrink = 1.0 - epsilon
    denom = 1.0 - np.float_power(shrink, 2) * np.float_power(1.0 - 2.0 * p * p, 2)
    return (
        4.0 * np.float_power(p, 4) * np.float_power(1.0 - p * p, 2) * np.float_power(shrink, 6)
        / np.float_power(denom, 2)
    )


def noisy_w_volume(p: float, epsilon: float) -> float:
    """Closed-form steered volume of the symmetric W-family state under isotropic noise.

    v' = 4 p^4 (1-p^2)^2 (1-eps)^6 / [1 - (1-eps)^2 (1-2p^2)^2]^2 for
    noise strength eps on every qubit; equals 1/4 for eps = 0.
    """
    return float(_noisy_w_volume_arr(_real("p", p), _real("epsilon", epsilon)))


def monotonicity_check(rho: StateLike, channels, tol: float = 1e-9) -> tuple[float, float, bool]:
    """Volumes before/after local noise on a two-qubit state, and whether v' <= v + tol."""
    _check_tol(tol)
    mat, _ = _density(rho, 2)
    v_before = normalized_volume(mat)
    v_after = normalized_volume(apply_local(channels, mat))
    return v_before, v_after, v_after <= v_before + tol
