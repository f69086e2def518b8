import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240)


def random_single_qubit_density(rng):
    """Random full-rank single-qubit density matrix (for product-state fixtures)."""
    ginibre = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    mat = ginibre @ ginibre.conj().T
    return mat / np.trace(mat)


def _ref_ket_trace(kets: np.ndarray, keep, n_qubits: int) -> np.ndarray:
    """The one-subset ket trace that ``states._reduced_arr`` replaced, verbatim (as ``_ket_trace_arr``).

    Bit for bit ``_partial_trace_arr(_densities(kets), keep, n_qubits)``
    without forming |psi><psi|: the same products, added over the traced
    configurations in the same C order, starting from zero.
    """
    batch = kets.shape[:-1]
    traced = [q for q in range(n_qubits) if q not in keep]
    axes = [*range(len(batch)), *(len(batch) + q for q in (*keep, *traced))]
    d = 2 ** len(keep)
    amps = kets.reshape(batch + (2,) * n_qubits).transpose(axes).reshape(batch + (d, -1))
    conj = amps.conj()
    if not traced:
        # einsum only permutes axes then, so no sum starts from zero to turn -0.0 into 0.0.
        return amps[..., :, None, 0] * conj[..., None, :, 0]
    out = np.zeros(batch + (d, d), dtype=complex)
    for t in range(amps.shape[-1]):
        out += amps[..., :, None, t] * conj[..., None, :, t]
    return out
