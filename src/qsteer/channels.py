"""Local CPTP noise channels in Kraus form and their effect on ellipsoid volumes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ellipsoid import normalized_volume
from .states import (
    DEFAULT_TOL,
    PAULIS_WITH_ID,
    QuantumState,
    SeedLike,
    StateLike,
    StateValidationError,
    _check_n_qubits,
    _check_range,
    _check_tol,
    _complex_pairs,
    _density,
    _haar_unitary_arr,
    _real,
    _validate_arr,
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

_KRAUS_WIDTH = 2 * 8 * 8  # normals behind one random_channel: a Haar 8x8 unitary


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
        ops = tuple(np.array(k, dtype=complex) for k in self.operators)
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
            flats = [_complex_pairs("Kraus block", block) for block in payload["kraus"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"channel payload needs a 'kraus' list of blocks: {exc}") from exc
        for flat in flats:
            if flat.size != 4:
                raise ValueError(f"Kraus block has {flat.size} entries, expected 4")
        return cls(tuple(flat.reshape(2, 2) for flat in flats))


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
    ops = _isotropic_kraus_arr(np.array(epsilon))
    return KrausChannel(tuple(ops if epsilon > 0.0 else ops[:1]))  # at eps = 0, the identity alone


def _isotropic_kraus_arr(epsilon: np.ndarray) -> np.ndarray:
    """Kraus stacks (..., 4, 2, 2) of :func:`isotropic_channel` at strengths ``epsilon`` in [0, 1]; at
    eps = 0 its zero Pauli operators add +0.0 to sums that are never -0.0, leaving the identity's."""
    weights = np.sqrt(np.stack([1.0 - 0.75 * epsilon, *[epsilon / 4.0] * 3], axis=-1))
    return weights[..., None, None] * PAULIS_WITH_ID


def random_channel(seed: SeedLike = None) -> KrausChannel:
    """Random CPTP qubit channel from a Haar-random 8x2 Stinespring isometry.

    The isometry's four 2x2 row blocks are the Kraus operators, so
    completeness holds by construction; covers all qubit channels with an
    environment of dimension 4.
    """
    rng = as_rng(seed)
    return KrausChannel(tuple(_random_kraus_arr(rng.standard_normal(_KRAUS_WIDTH))))


def _random_kraus_arr(draws: np.ndarray) -> np.ndarray:
    """Kraus stacks (..., 4, 2, 2) of :func:`random_channel` from its normals (..., _KRAUS_WIDTH).

    The four 2x2 row blocks of the first two columns of a Haar 8x8 unitary.
    """
    isometry = _haar_unitary_arr(draws, 8, columns=2)
    return isometry.reshape(isometry.shape[:-2] + (4, 2, 2))


def apply_local(channels, rho):
    """Apply one single-qubit channel per qubit: rho' = (phi_0 (x) ... (x) phi_{n-1})(rho).

    ``rho`` is a state, ket or density matrix, which gives a
    :class:`QuantumState`, or a (..., 2**n, 2**n) array stack of density
    matrices, which gives the array stack of outputs.  Every matrix of a
    stack is validated as :meth:`QuantumState.from_matrix` validates one.
    Each channel acts as one matrix product of its superoperator with its
    qubit's row and column axes.
    """
    if isinstance(rho, np.ndarray) and rho.ndim > 2:
        if rho.shape[-1] != rho.shape[-2]:
            raise StateValidationError(f"cannot interpret array of shape {rho.shape} as a state stack")
        mat, n = rho, _check_n_qubits(rho.shape[-1])
        _validate_arr(mat.reshape((-1,) + mat.shape[-2:]), DEFAULT_TOL)
    else:
        mat, n = _density(rho)
    channels = list(channels)
    if len(channels) != n:
        raise StateValidationError(f"need {n} channels for {n} qubits, got {len(channels)}")
    out = _apply_local_arr([channel.superoperator for channel in channels], mat, n)
    return out if out.ndim > 2 else QuantumState(n, out)


def _apply_local_arr(sups, mat: np.ndarray, n: int) -> np.ndarray:
    """Apply superoperator q of ``sups`` to qubit q of each (..., 2**n, 2**n) matrix of ``mat``.

    Superoperators (lead..., 2, 2, 2, 2) broadcast their leading axes against the stack's first axes:
    none act on the whole stack, (N,) on each matrix of an (N, 2**n, 2**n) stack, and (E,) on a
    (1, N, 2**n, 2**n) stack give E noisy copies of it.  The output takes the broadcast leading shape.
    """
    batch = mat.ndim - 2
    out = mat.reshape(mat.shape[:-2] + (2,) * (2 * n))
    for q, sup in enumerate(sups):
        lead, slots = sup.ndim - 4, (batch + q, batch + n + q)
        # Qubit q's row and column axes follow the leading ones; every later axis is a column of one product.
        moved = np.moveaxis(out, slots, (lead, lead + 1))
        cols = moved.reshape(moved.shape[:lead] + (4, math.prod(moved.shape[lead + 2 :])))
        prod = sup.reshape(sup.shape[:lead] + (4, 4)) @ cols
        out = np.moveaxis(prod.reshape(prod.shape[:lead] + moved.shape[lead:]), (lead, lead + 1), slots)
    out = out.reshape(out.shape[:batch] + mat.shape[-2:])
    return (out + np.swapaxes(out, -1, -2).conj()) / 2.0


def _noisy_w_volume_arr(p, epsilon) -> np.ndarray:
    """Closed-form noisy W-family volume over broadcast arrays of p and epsilon."""
    p, epsilon = np.asarray(p, dtype=float), np.asarray(epsilon, dtype=float)
    _check_range("p", p, (0.0 < p) & (p < 1.0), "(0, 1)")
    _check_range("epsilon", epsilon, (0.0 <= epsilon) & (epsilon <= 1.0), "[0, 1]")
    # float_power calls the C pow, which Python's float ** also uses.
    shrink = 1.0 - epsilon
    denom = 1.0 - np.float_power(shrink, 2) * np.float_power(1.0 - 2.0 * p * p, 2)
    # Below about 5e-9 for p and 1e-16 for epsilon, 1 - 2 p^2 and 1 - epsilon round to 1: the form
    # would give inf or NaN.
    zero = denom == 0.0
    if np.any(zero):
        p_bad, eps_bad = (float(np.broadcast_to(x, zero.shape)[zero].flat[0]) for x in (p, epsilon))
        raise ValueError(
            f"the closed-form noisy W volume is undefined in float64 at p = {p_bad!r}, epsilon = {eps_bad!r}: "
            "its denominator 1 - (1 - epsilon)^2 (1 - 2 p^2)^2 rounds to 0"
        )
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
    state = QuantumState(2, _density(rho, 2)[0])
    v_before = normalized_volume(state)
    v_after = normalized_volume(apply_local(channels, state))
    return v_before, v_after, v_after <= v_before + tol
