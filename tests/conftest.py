import math

import numpy as np
import pytest

from qsteer import states


@pytest.fixture
def rng():
    return np.random.default_rng(20240)


def random_single_qubit_density(rng):
    """Random full-rank single-qubit density matrix (for product-state fixtures)."""
    ginibre = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    mat = ginibre @ ginibre.conj().T
    return mat / np.trace(mat)


class RowGenerator(np.random.Generator):
    """A Generator that replays one draw row to the public samplers, one state at a time.

    Each method the samplers call takes the next floats of the row's tiles
    of its own kind, in column order: normals, ``random`` (which ``uniform``
    scales as numpy does), exponentials and separable term counts.
    """

    def __init__(self, row: np.ndarray, draw):
        super().__init__(np.random.Philox(0))
        self._queues = {}
        for first, fill, columns in draw.layout(len(row)):
            self._queues.setdefault(fill, []).extend(row[first : first + columns].tolist())

    def _take(self, fill, size=None, out=None):
        count = out.size if out is not None else math.prod(np.atleast_1d(1 if size is None else size))
        queue = self._queues[fill]
        values = np.array(queue[:count])
        assert values.size == count, "the row holds fewer floats of this kind"
        del queue[:count]
        if out is not None:
            out[...] = values.reshape(out.shape)
            return out
        return float(values[0]) if size is None else values.reshape(size)

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        return self._take(states._standard_normal, size, out)

    def random(self, size=None, dtype=np.float64, out=None):
        return self._take(np.random.Generator.random, size, out)

    def uniform(self, low=0.0, high=1.0, size=None):
        return low + (high - low) * self.random(size)

    def standard_exponential(self, size=None, dtype=np.float64, method="zig", out=None):
        return self._take(np.random.Generator.standard_exponential, size, out)

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        assert (low, high, size) == (1, states.MAX_SEPARABLE_TERMS + 1, None), "only the separable term count"
        return int(self._take(states._term_counts))


def row_streams(master_seed: int, start: int, stop: int, draw=states._NORMALS, width: int = 2048):
    """Yield ``(i, rng)`` for samples [start, stop): rng replays sample i's ``draw`` row, ``width`` floats wide."""
    rows = states.sample_rows(master_seed, start, stop, width, draw)
    for i, row in enumerate(rows, start):
        yield i, RowGenerator(row, draw)


def _ref_partial_trace_arr(mat: np.ndarray, keep, n_qubits: int) -> np.ndarray:
    """The einsum density trace that ``states._reduced_arr`` replaced, verbatim (as ``_partial_trace_arr``)."""
    batch = mat.shape[:-2]
    tensor = mat.reshape(batch + (2,) * (2 * n_qubits))
    # Tying a qubit's column axis to its row axis traces that qubit out.
    col = [n_qubits + q if q in keep else q for q in range(n_qubits)]
    reduced = np.einsum(tensor, [..., *range(n_qubits), *col], [..., *keep, *[n_qubits + q for q in keep]])
    d = 2 ** len(keep)
    return reduced.reshape(batch + (d, d))


def _ref_ket_trace(kets: np.ndarray, keep, n_qubits: int) -> np.ndarray:
    """The one-subset ket trace that ``states._reduced_arr`` replaced, verbatim (as ``_ket_trace_arr``).

    Bit for bit ``_ref_partial_trace_arr(states._densities(kets), keep, n_qubits)``
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


def _ref_apply_local_arr(sups, mat: np.ndarray, n: int) -> np.ndarray:
    """The two-branch kernel that ``channels._apply_local_arr`` replaced, verbatim.

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
