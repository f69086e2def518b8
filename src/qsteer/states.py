"""Multi-qubit states as dense arrays: construction, reduction, Pauli extraction, sampling.

Qubit 0 is the leftmost tensor factor, so the computational basis index of
|abc> is a*4 + b*2 + c (big-endian).  All matrices are complex128 and
row-major.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULIS",
    "StateValidationError",
    "QuantumState",
    "PauliDecomposition",
    "as_rng",
    "sample_rng",
    "sample_streams",
    "ket_to_density",
    "partial_trace",
    "bloch_vector",
    "spin_correlation_matrix",
    "pauli_coefficient",
    "purity",
    "pauli_decomposition",
    "random_pure_state",
    "random_mixed_state",
    "random_separable_two_qubit",
]

DEFAULT_TOL = 1e-9
#: Default largest number of product terms in random_separable_two_qubit.
MAX_SEPARABLE_TERMS = 4

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: Pauli vector (sigma_1, sigma_2, sigma_3), shape (3, 2, 2).
PAULIS = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])

#: Identity plus Paulis, indexed 0..3, shape (4, 2, 2).
PAULIS_WITH_ID = np.concatenate([np.eye(2, dtype=complex)[None], PAULIS])

# Precomputed sigma_j (x) sigma_k stack, shape (3, 3, 4, 4); the (a, b, T)
# gather plans are read off it, and _reconstruct_arr sums over it.
_PAULI_PAIRS = np.einsum("jab,kcd->jkacbd", PAULIS, PAULIS).reshape(3, 3, 4, 4)

SeedLike = Union[int, Sequence[int], np.random.Generator, np.random.SeedSequence, None]


class StateValidationError(ValueError):
    """Raised when an array fails the quantum-state invariants."""


def as_rng(seed: SeedLike) -> np.random.Generator:
    """Coerce a seed (int, int sequence, SeedSequence or Generator) to a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _integer(name: str, value) -> int:
    """``value`` as an int; a float or other non-integral value raises a TypeError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _seed_word(master_seed: int) -> int:
    """High 64 bits of every sample key of ``master_seed``: its SeedSequence hash."""
    seed = _integer("master seed", master_seed)
    return int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])


def sample_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent stream for one sample, derived from (master_seed, index).

    The stream is Philox with the 128-bit key ``(w << 64) | index``, where
    ``w`` hashes ``master_seed``; ``index`` must lie in [0, 2**64).  Streams
    depend only on the pair, never on chunking, so parallel sweeps are
    reproducible for any worker count.
    """
    index = _integer("sample index", index)
    if not 0 <= index < 2**64:
        raise ValueError(f"sample index must lie in [0, 2**64), got {index}")
    return np.random.Generator(np.random.Philox(key=(_seed_word(master_seed) << 64) | index))


def sample_streams(master_seed: int, start: int, stop: int) -> Iterator[tuple[int, np.random.Generator]]:
    """Yield ``(i, rng)`` for i in [start, stop), each rng bit-identical to ``sample_rng(master_seed, i)``.

    One Philox generator is re-keyed for each index through its ``state``
    setter, so ``rng`` is valid only until the next iteration.  The state
    dict is built once from plain Python ints (counter 0, an empty buffer,
    key ``[i, w]``) and only ``key[0]`` changes per index: the setter
    converts Python ints about three times faster than uint64 array entries.
    Indices must lie in [0, 2**32).
    """
    start, stop = _integer("start", start), _integer("stop", stop)
    if start < 0 or stop > 2**32:
        raise ValueError(f"sample indices [{start}, {stop}) must lie in [0, 2**32)")
    key = [0, _seed_word(master_seed)]
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bit_gen = np.random.Philox(0)
    rng = np.random.Generator(bit_gen)
    for i in range(start, stop):
        key[0] = i
        bit_gen.state = fresh
        yield i, rng


def _check_range(name: str, values: np.ndarray, inside: np.ndarray, interval: str) -> None:
    """Raise ValueError naming the first entry of ``values`` outside ``interval``.

    ``inside`` is the elementwise range test (a bool for a scalar); comparisons
    with NaN are False, so NaN entries are rejected too.
    """
    if not np.all(inside):
        raise ValueError(f"{name} must lie in {interval}, got {np.asarray(values)[~np.asarray(inside)].flat[0]}")


def _real(name: str, value) -> float:
    """``value`` as a float; an array, even of one entry, raises a TypeError naming it."""
    if np.ndim(value) != 0:
        raise TypeError(f"{name} must be a real scalar, got {value!r}")
    return float(value)


def _qubit(name: str, value, n_qubits: int) -> int:
    """``value`` as a qubit index of an ``n_qubits``-qubit state; a float raises a TypeError."""
    q = _integer(name, value)
    if not 0 <= q < n_qubits:
        raise StateValidationError(f"{name} {q} out of range for {n_qubits} qubits")
    return q


def _check_n_qubits(dim: int) -> int:
    if dim < 2 or dim & (dim - 1):
        raise StateValidationError(f"dimension {dim} is not 2**n for n >= 1")
    return dim.bit_length() - 1


def _check_tol(tol: float) -> None:
    # ``x > tol`` is False for every x when tol is NaN, so a NaN tol would accept any state;
    # an infinite one accepts any state too, and at tol >= 1 the trace check accepts zero.
    if not 0 <= tol < 1:
        raise ValueError(f"tol must be a number in [0, 1), got {tol}")


def _validate_arr(data: np.ndarray, tol: float) -> None:
    """Raise the StateValidationError of the first invalid state in the stack ``data``.

    ``data`` is (N, d) complex amplitude vectors or (N, d, d) complex
    matrices.  A vector must be finite with squared norm within ``tol`` of 1;
    a matrix must be finite, Hermitian, of unit trace and positive
    semidefinite, checked in that order, each within ``tol``.  Each state
    gets the bits and the message it gets alone: the squared norm is a
    1 x d times d x 1 product, which calls the same BLAS dot as
    ``np.vdot``, and stacked ``eigvalsh`` gives each matrix its own bits.
    """
    # A NaN or inf entry makes ``err`` NaN or inf, so a non-finite state fails
    # ``err <= tol`` too, and only the state reported needs the finite check.
    with np.errstate(invalid="ignore", over="ignore"):
        if data.ndim == 2:
            norm_sq = (data.conj()[:, None, :] @ data[:, :, None])[:, 0, 0].real
            err = np.abs(norm_sq - 1.0)
        else:
            herm_err = np.max(np.abs(data - np.swapaxes(data.conj(), -1, -2)), axis=(-2, -1))
            tr = np.trace(data, axis1=-2, axis2=-1)
            err = np.maximum(herm_err, np.abs(tr - 1.0))
    first = np.flatnonzero(~(err <= tol))
    k = int(first[0]) if first.size else len(data)
    if data.ndim == 3:
        # Only the states before k pass every check above; NaN would fail inside eigvalsh.
        min_eig = np.linalg.eigvalsh(data[:k])[:, 0]
        negative = np.flatnonzero(min_eig < -tol)
        if negative.size:
            eig = float(min_eig[negative[0]])
            raise StateValidationError(f"matrix is not positive semidefinite (min eigenvalue {eig:.3g})")
    if k == len(data):
        return
    if not np.all(np.isfinite(data[k])):
        raise StateValidationError("state data has non-finite (NaN or inf) entries")
    if data.ndim == 2:
        raise StateValidationError(f"amplitude vector has squared norm {float(norm_sq[k])}, expected 1")
    if herm_err[k] > tol:
        raise StateValidationError(f"matrix is not Hermitian (max deviation {float(herm_err[k]):.3g})")
    # The deviation gets its own digits: a trace off by 1e-7 prints as 1+0j.
    deviation = float(np.abs(tr[k] - 1.0))
    raise StateValidationError(f"matrix has trace {complex(tr[k]):.6g}, expected 1 (|trace - 1| = {deviation:.3g})")


def _complex_pairs(name: str, pairs) -> np.ndarray:
    """Complex vector of a JSON list of [re, im] number pairs; anything else raises StateValidationError."""
    try:
        flat = np.array([complex(re, im) for re, im in pairs], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise StateValidationError(f"{name} must be a list of [re, im] number pairs: {exc}") from exc
    # complex() reads a JSON true or false as 1 or 0.
    for k, (re, im) in enumerate(pairs):
        if isinstance(re, bool) or isinstance(im, bool):
            raise StateValidationError(f"{name} entry {k} holds a boolean, not a number")
    return flat


@dataclass(frozen=True)
class QuantumState:
    """A pure amplitude vector or a density matrix over ``n_qubits`` qubits.

    Use :meth:`from_amplitudes` / :meth:`from_matrix` to validate input data;
    the bare constructor is reserved for values that are valid by
    construction (e.g. sampler output).
    """

    n_qubits: int
    data: np.ndarray

    def __post_init__(self):
        self.data.setflags(write=False)

    @property
    def is_pure(self) -> bool:
        return self.data.ndim == 1

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @property
    def matrix(self) -> np.ndarray:
        """Density-matrix form (|psi><psi| for pure states)."""
        if self.is_pure:
            return _densities(self.data)
        return self.data

    @classmethod
    def from_amplitudes(cls, amplitudes, tol: float = DEFAULT_TOL) -> "QuantumState":
        _check_tol(tol)
        vec = np.asarray(amplitudes, dtype=complex).copy()
        if vec.ndim != 1:
            raise StateValidationError(f"expected a 1-d amplitude vector, got shape {vec.shape}")
        n = _check_n_qubits(vec.size)
        _validate_arr(vec[None], tol)
        return cls(n, vec)

    @classmethod
    def from_matrix(cls, matrix, tol: float = DEFAULT_TOL) -> "QuantumState":
        _check_tol(tol)
        mat = np.asarray(matrix, dtype=complex).copy()
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise StateValidationError(f"expected a square matrix, got shape {mat.shape}")
        n = _check_n_qubits(mat.shape[0])
        _validate_arr(mat[None], tol)
        return cls(n, mat)

    def to_dict(self) -> dict:
        """JSON form: {"n_qubits", "kind", "data": [[re, im], ...]} with row-major matrix entries."""
        flat = self.data.reshape(-1)
        return {
            "n_qubits": self.n_qubits,
            "kind": "pure" if self.is_pure else "mixed",
            "data": [[float(z.real), float(z.imag)] for z in flat],
        }

    @classmethod
    def from_dict(cls, payload: dict, tol: float = DEFAULT_TOL) -> "QuantumState":
        if not isinstance(payload, dict):
            raise StateValidationError(f"state payload must be a JSON object, got {type(payload).__name__}")
        try:
            n, kind, pairs = payload["n_qubits"], payload["kind"], payload["data"]
        except KeyError as exc:
            raise StateValidationError(f"state payload missing field: {exc}") from exc
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise StateValidationError(f"n_qubits must be an integer >= 1, got {n!r}")
        if kind not in ("pure", "mixed"):
            raise StateValidationError(f"unknown state kind {kind!r}")
        flat = _complex_pairs("state data", pairs)
        log2_size = n if kind == "pure" else 2 * n
        # Bit lengths first, so that a huge n_qubits fails without building 2**n.
        if flat.size.bit_length() != log2_size + 1 or flat.size != 2**log2_size:
            raise StateValidationError(f"{kind} state data has length {flat.size}, expected 2**{log2_size}")
        if kind == "pure":
            return cls.from_amplitudes(flat, tol=tol)
        return cls.from_matrix(flat.reshape(2**n, 2**n), tol=tol)


StateLike = Union[QuantumState, np.ndarray]


def _state(state: StateLike, n_qubits: int | None = None, tol: float = DEFAULT_TOL) -> QuantumState:
    """A QuantumState, or a ket or matrix as one, of ``n_qubits`` qubits if given.

    A ket or matrix is validated as :meth:`QuantumState.from_amplitudes` or
    :meth:`QuantumState.from_matrix` does, within ``tol``.
    """
    if not isinstance(state, QuantumState):
        arr = np.asarray(state)
        state = QuantumState.from_amplitudes(arr, tol) if arr.ndim == 1 else QuantumState.from_matrix(arr, tol)
    if n_qubits is not None and state.n_qubits != n_qubits:
        raise StateValidationError(f"expected a {n_qubits}-qubit state, got {state.n_qubits} qubits")
    return state


def _density(state: StateLike, n_qubits: int | None = None, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, int]:
    """Density matrix and qubit count of :func:`_state` of the arguments."""
    state = _state(state, n_qubits, tol)
    return state.matrix, state.n_qubits


def ket_to_density(psi: StateLike, tol: float = DEFAULT_TOL) -> QuantumState:
    """Outer product |psi><psi| of a normalized amplitude vector."""
    if isinstance(psi, QuantumState):
        if not psi.is_pure:
            raise StateValidationError("ket_to_density expects an amplitude vector")
        psi = psi.data
    ket = QuantumState.from_amplitudes(psi, tol)
    return QuantumState(ket.n_qubits, ket.matrix)


def _densities(kets: np.ndarray) -> np.ndarray:
    """|psi><psi| of the trailing axis of ``kets``; leading axes are a batch."""
    return kets[..., :, None] * kets[..., None, :].conj()


def _partial_trace_arr(mat: np.ndarray, keep: Sequence[int], n_qubits: int) -> np.ndarray:
    """Reduce the trailing (2**n, 2**n) axes of ``mat``; leading axes are a batch."""
    batch = mat.shape[:-2]
    tensor = mat.reshape(batch + (2,) * (2 * n_qubits))
    # Tying a qubit's column axis to its row axis traces that qubit out.
    col = [n_qubits + q if q in keep else q for q in range(n_qubits)]
    reduced = np.einsum(tensor, [..., *range(n_qubits), *col], [..., *keep, *[n_qubits + q for q in keep]])
    d = 2 ** len(keep)
    return reduced.reshape(batch + (d, d))


@cache
def _ket_gather(n_qubits: int, subsets: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Basis index of each (subset, kept, traced) configuration, shape (S, d, T).

    Kept configurations run big-endian over the subset in its given order,
    traced ones big-endian over the other qubits in ascending order.
    """
    basis = np.arange(2**n_qubits).reshape((2,) * n_qubits)
    rows = []
    for keep in subsets:
        traced = [q for q in range(n_qubits) if q not in keep]
        rows.append(basis.transpose(*keep, *traced).reshape(2 ** len(keep), -1))
    idx = np.stack(rows)
    idx.setflags(write=False)  # one cached array serves every caller
    return idx


def _reduced_arr(data: np.ndarray, n_qubits: int, subsets: Sequence[Sequence[int]], pure: bool = False) -> np.ndarray:
    """Reduced states on each qubit list of ``subsets``, stacked on a new leading axis; then the batch of ``data``.

    ``data`` holds kets (..., 2**n) if ``pure``, else densities (..., 2**n, 2**n): 2**n kets have the
    shape of one density.  The density trace is looked up at call time, so that ``benchmarks/tracer.py``,
    which rebinds module names, sees every call.

    Kets are traced without forming |psi><psi|, bit for bit ``_partial_trace_arr(_densities(kets), ...)``:
    one gather puts the amplitudes of every subset batch-last as (S, d, T, B), one broadcast product
    makes every term (S, d, d, T, B), and the T traced configurations are added in C order starting
    from zero, as einsum adds them.  With nothing traced einsum only permutes axes, so no sum starts
    from zero to turn -0.0 into 0.0, and the product is the result.
    """
    if not pure:
        return np.stack([_partial_trace_arr(data, keep, n_qubits) for keep in subsets])
    batch = data.shape[:-1]
    idx = _ket_gather(n_qubits, tuple(tuple(keep) for keep in subsets))
    n_subsets, d, n_traced = idx.shape
    amps = data.reshape(-1, 2**n_qubits).T[idx]
    terms = amps[:, :, None] * amps.conj()[:, None]
    out = terms[:, :, :, 0]
    if n_traced > 1:
        out = np.zeros(out.shape, dtype=complex)
        for t in range(n_traced):
            out += terms[:, :, :, t]
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2)).reshape((n_subsets,) + batch + (d, d))


def partial_trace(rho: StateLike, keep: Iterable[int]) -> QuantumState:
    """Reduced state on the qubits in ``keep``, in the order given.

    Parameters
    ----------
    rho : QuantumState or array
        State of n qubits (amplitudes or density matrix).
    keep : iterable of int
        Distinct qubit indices to retain; the output tensor order follows
        this list, so ``keep=[2, 0]`` puts qubit 2 first.
    """
    mat, n = _density(rho)
    keep = [_qubit("keep entry", q, n) for q in keep]
    if not keep:
        raise StateValidationError("keep list must not be empty")
    if len(set(keep)) != len(keep):
        raise StateValidationError(f"duplicate qubit indices in keep list {keep}")
    return QuantumState(len(keep), _partial_trace_arr(mat, keep, n))


def _pauli_terms(op: np.ndarray) -> list[tuple[int, float]]:
    """Terms ``(index, sign)`` of Re Tr[op rho] over the float64 view of a complex d x d ``rho``.

    Every entry of ``op`` is 0, +-1 or +-i, so the real part of each
    product op[r, c] rho[c, r] is +-Re or +-Im of rho[c, r]: float entry
    2 (d c + r), or the one after it.  Terms come in the row-major order of
    ``op``, the order of ``np.einsum`` with ``op`` first; ``sorted`` gives
    rho's row-major order, that of ``np.einsum`` with rho first.
    """
    r, c = np.nonzero(op)
    p = op[r, c]
    return list(zip((2 * (len(op) * c + r) + (p.imag != 0)).tolist(), (p.real - p.imag).tolist()))


def _marginal_terms(sigma: np.ndarray, slot: int) -> list[tuple[int, float]]:
    """Terms of Tr[sigma rho_M] for the marginal rho_M of qubit ``slot`` of a two-qubit ``rho``.

    Each entry of ``sigma``, in row-major order, brings the two entries of
    ``rho`` whose sum the partial trace makes the marginal entry.
    """
    eye = np.eye(2)
    terms = []
    for x, y in zip(*np.nonzero(sigma)):
        unit = np.zeros((2, 2), dtype=complex)
        unit[x, y] = sigma[x, y]
        terms += _pauli_terms(np.kron(unit, eye) if slot == 0 else np.kron(eye, unit))
    return terms


def _plan(coefficients: list[list[tuple[int, float]]]) -> tuple[np.ndarray, np.ndarray]:
    """Float-view indices (t, m) and signs (t, m, 1): term t of coefficient c at [t, c]."""
    table = np.array(coefficients).T
    return table[0].astype(np.intp), table[1][..., None]


# Gather plans of (a, b, T): columns 0-2 are a, 3-5 are b and 6-14 are T
# row-major; _T_PLAN is the T columns alone.
_ABT_PLAN = _plan(
    [_marginal_terms(sigma, 0) for sigma in PAULIS]
    + [_marginal_terms(sigma, 1) for sigma in PAULIS]
    + [_pauli_terms(op) for op in _PAULI_PAIRS.reshape(9, 4, 4)]
)
_T_PLAN = (_ABT_PLAN[0][:, 6:], _ABT_PLAN[1][:, 6:])
_BLOCH_PLAN = _plan([_pauli_terms(sigma) for sigma in PAULIS])


def _signed_terms(mat: np.ndarray, plan: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The signed terms (t, m, N) that ``plan`` picks from each matrix of the (..., d, d) stack ``mat``."""
    flat = np.ascontiguousarray(mat, dtype=complex).view(np.float64).reshape(-1, 2 * mat.shape[-1] ** 2)
    index, sign = plan
    return flat.T[index] * sign


def _sum_terms(terms: np.ndarray, shape: tuple) -> np.ndarray:
    """((0 + t0) + t1) + ... over axis 0 of ``terms``, reshaped to ``shape``.

    Python ``sum`` adds in order for any batch (``np.add.reduce`` adds 8 or
    more pairwise for a batch of one) into a contiguous buffer, copied into
    the ``.real`` view of a zeroed complex buffer.  A sum begun at 0.0 turns
    -0.0 into 0.0, as einsum does, and the view's 16-byte trailing stride is
    that of einsum's ``.real`` output: a stacked matmul picks its BLAS or
    non-BLAS loop, and a sum over several axes its order, by memory layout.
    """
    out = np.zeros(terms.shape[:0:-1], dtype=complex).real
    out.T[...] = sum(terms, np.zeros(terms.shape[1:]))
    return out.reshape(shape)


def _bloch_arr(rho2: np.ndarray) -> np.ndarray:
    """Bloch vector of the trailing (2, 2) axes of ``rho2``; leading axes are a batch."""
    return _sum_terms(_signed_terms(rho2, _BLOCH_PLAN), rho2.shape[:-2] + (3,))


def bloch_vector(rho: StateLike) -> np.ndarray:
    """Bloch vector (Tr[rho sigma_x], Tr[rho sigma_y], Tr[rho sigma_z]) of one qubit."""
    mat, _ = _density(rho, 1)
    return _bloch_arr(mat)


def _abT_arr(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, T) of the trailing (4, 4) axes of ``mat``; leading axes are a batch.

    Bit for bit ``einsum("jab,...ba->...j", PAULIS, rho_q).real`` of the
    marginals ``rho_q = _partial_trace_arr(mat, [q], 2)`` and
    ``einsum("jkab,...ba->...jk", _PAULI_PAIRS, mat).real``: the same
    signed terms, added in the same order.  T adds its four terms as
    (((0 + t0) + t1) + t2) + t3.  a and b add two marginal entries of two
    terms each; einsum does it as (0 + ((0 + t0) + t1)) + ((0 + t2) + t3),
    and (((0 + t0) + t1) + (t2 + t3)) + 0 is equal, because a sum begun at
    0.0 is never -0.0, so the sign of a zero addend never shows.
    """
    batch = mat.shape[:-2]
    terms = _signed_terms(mat, _ABT_PLAN)
    # a and b: the second marginal entry, t2 + t3, takes slot 2 and a zero slot 3.
    terms[2, :6] += terms[3, :6]
    terms[3, :6] = 0.0
    out = _sum_terms(terms, batch + (15,))
    return out[..., :3], out[..., 3:6], out[..., 6:].reshape(batch + (3, 3))


def _spin_corr_arr(rho4: np.ndarray) -> np.ndarray:
    """T of the trailing (4, 4) axes of ``rho4``; leading axes are a batch.

    The T columns of :func:`_abT_arr`, with the same bits and layout.
    """
    return _sum_terms(_signed_terms(rho4, _T_PLAN), rho4.shape[:-2] + (3, 3))


def spin_correlation_matrix(rho: StateLike) -> np.ndarray:
    """Spin correlation matrix T_jk = Tr[rho sigma_j (x) sigma_k] of a two-qubit state."""
    mat, _ = _density(rho, 2)
    return _spin_corr_arr(mat)


def pauli_coefficient(rho: StateLike, labels: Sequence[int]) -> float:
    """Expectation Tr[rho P_{l1} (x) ... (x) P_{ln}], label 0 meaning the identity.

    Labels 1, 2, 3 select sigma_x, sigma_y, sigma_z on the corresponding
    qubit.
    """
    mat, n = _density(rho)
    labels = [_integer("labels entry", l) for l in labels]
    if len(labels) != n:
        raise StateValidationError(f"need {n} labels, got {len(labels)}")
    if any(l < 0 or l > 3 for l in labels):
        raise StateValidationError(f"pauli labels must be in 0..3, got {labels}")
    op = PAULIS_WITH_ID[labels[0]]
    for l in labels[1:]:
        op = np.kron(op, PAULIS_WITH_ID[l])
    return float(_sum_terms(_signed_terms(mat, _plan([sorted(_pauli_terms(op))])), ()))


def _purity_arr(mat: np.ndarray):
    """Tr[rho^2] of the trailing (d, d) axes of ``mat``; leading axes are a batch."""
    return np.einsum("...ij,...ji->...", mat, mat).real


def purity(rho: StateLike) -> float:
    """Tr[rho^2], between 2**-n (maximally mixed) and 1 (pure)."""
    mat, _ = _density(rho)
    return float(_purity_arr(mat))


@dataclass(frozen=True)
class PauliDecomposition:
    """Bloch vectors and spin correlation matrix of a two-qubit state.

    Satisfies rho = (1/4) (1 + a.sigma (x) 1 + 1 (x) b.sigma + sum_jk T_jk
    sigma_j (x) sigma_k); see :meth:`reconstruct`.
    """

    a: np.ndarray
    b: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        for arr in (self.a, self.b, self.T):
            arr.setflags(write=False)

    def reconstruct(self) -> np.ndarray:
        """Rebuild the 4x4 density matrix from (a, b, T)."""
        return _reconstruct_arr(self.a, self.b, self.T)


def _kron_arr(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.kron of the trailing square axes of ``x`` and ``y``; leading axes are a batch."""
    dx, dy = x.shape[-1], y.shape[-1]
    prod = x[..., :, None, :, None] * y[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (dx * dy, dx * dy))


def _reconstruct_arr(a: np.ndarray, b: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Two-qubit density matrices (..., 4, 4) from (a, b, T); leading axes are a batch."""
    eye2 = np.eye(2, dtype=complex)
    mat = _kron_arr(eye2, eye2)
    mat = mat + _kron_arr(np.einsum("...j,jab->...ab", a, PAULIS), eye2)
    mat = mat + _kron_arr(eye2, np.einsum("...k,kab->...ab", b, PAULIS))
    mat = mat + np.einsum("...jk,jkab->...ab", T, _PAULI_PAIRS)
    return mat / 4.0


def _pauli_arr(mat: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, T) of the trailing (4, 4) axes of ``mat``, checking the physical ranges.

    Leading axes are a batch; one entry out of range rejects the stack.
    """
    a, b, T = _abT_arr(mat)
    if np.any(np.linalg.norm(a, axis=-1) > 1 + tol) or np.any(np.linalg.norm(b, axis=-1) > 1 + tol):
        raise StateValidationError("Bloch vector norm exceeds 1")
    if np.any(np.abs(T) > 1 + tol):
        raise StateValidationError("spin correlation entry outside [-1, 1]")
    return a, b, T


def pauli_decomposition(rho: StateLike, tol: float = DEFAULT_TOL) -> PauliDecomposition:
    """Extract (a, b, T) of a two-qubit state, checking the physical ranges."""
    _check_tol(tol)
    mat, _ = _density(rho, 2, tol)
    return PauliDecomposition(*_pauli_arr(mat, tol))


def _haar_arr(draws: np.ndarray) -> np.ndarray:
    """Unit kets (..., d) from normals (..., 2d): real parts first, then imaginary parts.

    One ``standard_normal(2d)`` draw is bit for bit the two ``standard_normal(d)``
    draws this replaces, and each row is normalized exactly as
    ``np.linalg.norm`` normalizes a single ket.
    """
    d = draws.shape[-1] // 2
    vec = draws[..., :d] + 1j * draws[..., d:]
    re, im = vec.real, vec.imag
    # 1 x d times d x 1 products are the strided dot products that
    # np.linalg.norm takes; norm(axis=-1) rounds differently.
    norm = np.sqrt(re[..., None, :] @ re[..., :, None] + im[..., None, :] @ im[..., :, None])
    return vec / norm[..., 0]


def _haar_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    return _haar_arr(rng.standard_normal(2 * dim))


def _haar_unitary_arr(draws: np.ndarray, dim: int, columns: int | None = None) -> np.ndarray:
    """Haar unitaries (..., dim, dim) from normals (..., 2 dim^2), real parts first.

    With ``columns``, only their first ``columns`` columns (..., dim, columns):
    Householder QR makes those from the Ginibre matrix's first columns alone.
    """
    shape = draws.shape[:-1] + (dim, dim)
    half = dim * dim
    ginibre = draws[..., :half].reshape(shape)[..., :columns] + 1j * draws[..., half:].reshape(shape)[..., :columns]
    q, r = np.linalg.qr(ginibre)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """QR of a Ginibre matrix with the phase convention that makes it Haar."""
    return _haar_unitary_arr(rng.standard_normal(2 * dim * dim), dim)


def _induced_arr(kets: np.ndarray, n_qubits: int) -> np.ndarray:
    """Trace the trailing ancilla factors out of kets (..., 2**n * k): a (..., 2**n, 2**n) stack."""
    dim = 2**n_qubits
    block = kets.reshape(kets.shape[:-1] + (dim, -1))
    return block @ np.swapaxes(block.conj(), -1, -2)


def random_pure_state(n_qubits: int, seed: SeedLike = None) -> QuantumState:
    """Haar-random pure state: normalized i.i.d. complex Gaussian amplitudes."""
    n_qubits = _integer("n_qubits", n_qubits)
    if n_qubits < 1:
        raise StateValidationError("n_qubits must be >= 1")
    rng = as_rng(seed)
    return QuantumState(n_qubits, _haar_vector(2**n_qubits, rng))


def random_mixed_state(n_qubits: int, ancilla_qubits: int | None = None, seed: SeedLike = None) -> QuantumState:
    """Induced-measure mixed state: trace an ancilla out of a Haar-random pure state.

    ``ancilla_qubits`` defaults to ``n_qubits`` (full-rank support);
    ``ancilla_qubits=0`` yields a pure projector.
    """
    n_qubits = _integer("n_qubits", n_qubits)
    if n_qubits < 1:
        raise StateValidationError("n_qubits must be >= 1")
    ancilla_qubits = n_qubits if ancilla_qubits is None else _integer("ancilla_qubits", ancilla_qubits)
    if ancilla_qubits < 0:
        raise StateValidationError("ancilla_qubits must be >= 0")
    rng = as_rng(seed)
    # The ancilla occupies the trailing tensor factors, so the reduction is
    # a single matrix product on the reshaped amplitudes.
    vec = _haar_vector(2 ** (n_qubits + ancilla_qubits), rng)
    return QuantumState(n_qubits, _induced_arr(vec, n_qubits))


def _separable_width(max_terms: int) -> int:
    """Floats in a separable row: the term count, ``max_terms`` exponentials, then 8 normals (two kets) per term."""
    return 1 + 9 * max_terms


def _draw_separable(rng: np.random.Generator, row: np.ndarray) -> None:
    """Fill ``row`` with the draws of :func:`random_separable_two_qubit`, in its order, zero-padded.

    The term count is uniform on 1 up to the row's capacity, ``(len(row) - 1) // 9``.
    The weight slots hold the exponentials that ``dirichlet(ones(terms))`` draws
    (numpy's gamma(1) is the exponential); :func:`_separable_arr` normalizes them.
    """
    most = (len(row) - 1) // 9
    terms = int(rng.integers(1, most + 1))
    row.fill(0.0)
    row[0] = terms
    rng.standard_exponential(out=row[1 : 1 + terms])
    rng.standard_normal(out=row[1 + most : 1 + most + 8 * terms])


def _separable_arr(rows: np.ndarray) -> np.ndarray:
    """Mixtures (N, 4, 4) of separable rows (N, 1 + 9 T), added in term order up to the most terms a row holds."""
    most = (rows.shape[-1] - 1) // 9
    terms, draws = rows[:, 0], rows[:, 1 + most :].reshape(len(rows), most, 2, 4)
    # As numpy's dirichlet: each exponential times 1 / their sum from 0 in term order; the zero padding adds nothing.
    weights = rows[:, 1 : 1 + most] * (1.0 / sum(rows[:, 1 + t] for t in range(most)))[:, None]
    mat = np.zeros((len(rows), 4, 4), dtype=complex)
    for t in range(int(terms.max(initial=0))):
        live = terms > t
        kets = _haar_arr(draws[live, t])
        vec = (kets[:, 0, :, None] * kets[:, 1, None, :]).reshape(-1, 4)
        mat[live] += weights[live, t, None, None] * _densities(vec)
    return mat


def random_separable_two_qubit(seed: SeedLike = None, max_terms: int = MAX_SEPARABLE_TERMS) -> QuantumState:
    """Convex mixture of up to ``max_terms`` random pure product states; separable by construction."""
    max_terms = _integer("max_terms", max_terms)
    if max_terms < 1:
        raise StateValidationError(f"max_terms must be >= 1, got {max_terms}")
    row = np.empty(_separable_width(max_terms))
    _draw_separable(as_rng(seed), row)
    return QuantumState(2, _separable_arr(row[None])[0])
