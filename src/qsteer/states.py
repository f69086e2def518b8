"""Multi-qubit states as dense arrays: construction, reduction, Pauli extraction, sampling.

Qubit 0 is the leftmost tensor factor, so the computational basis index of
|abc> is a*4 + b*2 + c (big-endian).  All matrices are complex128 and
row-major.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, NamedTuple, Sequence, Union

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
    "sample_rows",
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
    """A Philox stream of its own for ``(master_seed, index)``; the Monte-Carlo drivers read :func:`sample_rows`.

    Its 128-bit key is ``(w << 64) | index``, where ``w`` hashes
    ``master_seed``; ``index`` must lie in [0, 2**64).
    """
    index = _integer("sample index", index)
    if not 0 <= index < 2**64:
        raise ValueError(f"sample index must lie in [0, 2**64), got {index}")
    return np.random.Generator(np.random.Philox(key=(_seed_word(master_seed) << 64) | index))


#: Samples per block of every draw row (:func:`sample_rows`); it and the 32-normal tile fix every seeded stream.
_SAMPLE_BLOCK = 256
_standard_normal = np.random.Generator.standard_normal


class _Draw(NamedTuple):
    """A row layout: ``tiles`` ``(fill, columns)``, then 32-normal tiles; ``tag`` is a field of every key of the draw.

    ``fill(rng, out=tile)`` fills a C-contiguous (rows, columns) tile in one generator call.
    """

    tag: int
    tiles: tuple = ()

    def layout(self, width: int) -> list[tuple[int, Callable, int]]:
        """``(first column, fill, columns)`` of each tile a row read up to ``width`` floats needs: at most 2**24."""
        if len(self.tiles) + -(-(width - sum(columns for _, columns in self.tiles)) // 32) > 2**24:
            raise ValueError(f"width {width} needs more than the 2**24 tiles of a key's tile field")
        tiles, first, lead = [], 0, iter(self.tiles)
        while first < width:
            tiles.append((first, *next(lead, (_standard_normal, 32))))
            first += tiles[-1][2]
        return tiles


_NORMALS = _Draw(0)  # Haar kets, unitaries and Kraus operators: normals only.


def _drawn_blocks(master_seed: int, start: int, stop: int, draw: _Draw, reads: Sequence[tuple[int, int]]):
    """Yield ``(lo, rows)`` per block of samples [start, stop): the reused draw rows of samples [lo, lo + len(rows)).

    ``reads`` are ``(count, width)`` pairs: samples [0, count) read their first ``width`` floats, so a tile is
    drawn for a block's rows up to the largest count that reads it, a prefix of the block.  Tile t of block b is
    one row-major ``fill`` from the block's start (a chunk that starts mid-block draws from there) from the Philox
    stream keyed ``[b | t << 24 | tag << 48, w]``, ``w`` the seed word; the 24-bit block field holds indices
    < 2**32.  One generator is re-keyed per tile: the ``state`` setter converts one dict of plain Python ints
    (counter 0, an empty buffer) 2.5 times faster than uint64 arrays.  ``fill`` needs a contiguous tile: a row
    of one tile is filled in place, a wider one through a scratch tile copied into it.
    """
    tiles = draw.layout(max(width for _, width in reads))
    ends = [max(count for count, width in reads if width > first) for first, _, _ in tiles]
    stop = min(stop, max(count for count, _ in reads))
    key, bit_gen = [0, _seed_word(master_seed)], np.random.Philox(0)
    state = {"counter": [0, 0, 0, 0], "key": key}
    fresh = dict(bit_generator="Philox", state=state, buffer=[0, 0, 0, 0], buffer_pos=4, has_uint32=0, uinteger=0)
    rng, first_block = np.random.Generator(bit_gen), start // _SAMPLE_BLOCK
    rows = np.empty((min(_SAMPLE_BLOCK, max(0, stop - first_block * _SAMPLE_BLOCK)), sum(t[2] for t in tiles)))
    scratch = {columns: np.empty((len(rows), columns)) for _, _, columns in tiles if columns < rows.shape[1]}
    for block in range(first_block, -(-stop // _SAMPLE_BLOCK)):
        base = block * _SAMPLE_BLOCK
        lo, hi = max(start, base), min(stop, base + _SAMPLE_BLOCK)
        for t, ((first, fill, columns), end) in enumerate(zip(tiles, ends)):
            n = min(end, hi) - base
            if n > lo - base:
                key[0] = (draw.tag << 48) | (t << 24) | block
                bit_gen.state = fresh
                fill(rng, out=scratch[columns][:n] if columns in scratch else rows[:n])
                if columns in scratch:
                    rows[:n, first : first + columns] = scratch[columns][:n]
        yield lo, rows[lo - base : hi - base]


def sample_rows(master_seed: int, start: int, stop: int, width: int, draw: _Draw = _NORMALS) -> np.ndarray:
    """The draw rows (stop - start, width) of samples [start, stop) of ``master_seed``: what their checks read.

    Sample i's tile-t floats (32 normals of ``_NORMALS``) are row ``i % 256``
    of one draw from the stream keyed by the seed, t and block ``i // 256``
    (:func:`_drawn_blocks`).  So a row depends on (master_seed, i) alone and
    its first floats not on ``width``: sample i's Haar n-qubit ket is
    ``_haar_arr`` of the first 2**(n + 1) floats of its row.
    """
    start, stop, width = _integer("start", start), _integer("stop", stop), _integer("width", width)
    if not (0 <= start <= stop <= 2**32 and 1 <= width):
        raise ValueError(f"need 0 <= start <= stop <= 2**32 and 1 <= width, got [{start}, {stop}), {width}")
    blocks = _drawn_blocks(master_seed, start, stop, draw, [(stop, width)])
    return np.concatenate([rows[:, :width].copy() for _, rows in blocks] or [np.empty((0, width))])


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


def _freeze_fields(obj, *names: str, dtype=float) -> None:
    """Set each named field of frozen dataclass ``obj`` to a read-only ``dtype`` copy, leaving the caller's array."""
    for name in names:
        object.__setattr__(obj, name, np.array(getattr(obj, name), dtype=dtype))
        getattr(obj, name).setflags(write=False)


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
        _freeze_fields(self, "data", dtype=complex)

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
        vec = np.asarray(amplitudes, dtype=complex)
        if vec.ndim != 1:
            raise StateValidationError(f"expected a 1-d amplitude vector, got shape {vec.shape}")
        n = _check_n_qubits(vec.size)
        _validate_arr(vec[None], tol)
        return cls(n, vec)

    @classmethod
    def from_matrix(cls, matrix, tol: float = DEFAULT_TOL) -> "QuantumState":
        _check_tol(tol)
        mat = np.asarray(matrix, dtype=complex)
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
    """Reduce the trailing (2**n, 2**n) axes of ``mat`` onto ``keep``; leading axes are a batch."""
    return _reduced_arr(mat, n_qubits, [keep])[0]


@cache
def _trace_gather(n_qubits: int, subsets: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Basis index of each (traced, subset, kept) configuration, shape (T, S, d).

    Kept configurations run big-endian over the subset in its given order,
    traced ones big-endian over the other qubits in ascending order.
    """
    basis = np.arange(2**n_qubits).reshape((2,) * n_qubits)
    rows = []
    for keep in subsets:
        traced = [q for q in range(n_qubits) if q not in keep]
        rows.append(basis.transpose(*traced, *keep).reshape(-1, 2 ** len(keep)))
    idx = np.stack(rows, axis=1)
    idx.setflags(write=False)  # one cached array serves every caller
    return idx


def _reduced_arr(data: np.ndarray, n_qubits: int, subsets: Sequence[Sequence[int]], pure: bool = False) -> np.ndarray:
    """Reduced states on each equal-size qubit list of ``subsets``, on a new leading axis; then the batch of ``data``.

    ``data`` holds kets (..., 2**n) if ``pure``, else densities (..., 2**n, 2**n): 2**n kets have the
    shape of one density.  One gather of :func:`_trace_gather` indices makes every term batch-last as
    (T, S, d, d, B): density entries, or products of gathered amplitudes, so a ket is traced without
    forming |psi><psi|.  The T traced configurations are added in C order starting from zero, which
    turns -0.0 into 0.0; with nothing traced the term is the result.  These are the bits of the einsum
    trace of the densities.  The result stays batch-last in memory: the (S,) + batch + (d, d) array is
    a view of the (S, d, d, B) buffer, which the Pauli gather of :func:`_signed_terms` reads in place.
    """
    idx = _trace_gather(n_qubits, tuple(tuple(keep) for keep in subsets))
    n_traced, n_subsets, d = idx.shape
    if pure:
        batch = data.shape[:-1]
        amps = data.reshape(-1, 2**n_qubits).T[idx]
        terms = amps[:, :, :, None] * amps.conj()[:, :, None]
    else:
        batch = data.shape[:-2]
        terms = data.reshape((-1,) + data.shape[-2:]).transpose(1, 2, 0)[idx[..., :, None], idx[..., None, :]]
    out = terms[0]
    if n_traced > 1:
        out = np.zeros(out.shape, dtype=complex)
        for term in terms:
            out += term
    return out.transpose(0, 3, 1, 2).reshape((n_subsets,) + batch + (d, d))


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


def _plan(coefficients: list[list[tuple[int, float]]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Matrix entries (t, m), their parts (t, m), 0 real and 1 imaginary, and signs (t, m, 1).

    Term t of coefficient c is at [t, c]; a float-view index k of :func:`_pauli_terms`
    is part k & 1 of row-major entry k >> 1.
    """
    table = np.array(coefficients).T
    index = np.ascontiguousarray(table[0], dtype=np.intp)
    return index >> 1, index & 1, table[1][..., None]


# Gather plans of (a, b, T): columns 0-2 are a, 3-5 are b and 6-14 are T
# row-major; _T_PLAN is the T columns alone.
_ABT_PLAN = _plan(
    [_marginal_terms(sigma, 0) for sigma in PAULIS]
    + [_marginal_terms(sigma, 1) for sigma in PAULIS]
    + [_pauli_terms(op) for op in _PAULI_PAIRS.reshape(9, 4, 4)]
)
_T_PLAN = tuple(column[:, 6:] for column in _ABT_PLAN)
_BLOCH_PLAN = _plan([_pauli_terms(sigma) for sigma in PAULIS])

#: A complex128 entry as its (re, im) float64 pair; of equal size, so it views any complex layout.
_PAIR = np.dtype((np.float64, 2))


def _signed_terms(mat: np.ndarray, plan: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """The signed terms (t, m, N) that ``plan`` picks from each matrix of the (..., d, d) stack ``mat``.

    The stack is read where it lies, in any memory layout: its float pairs
    moved to (d * d, 2) + batch are one view of a C-contiguous density stack
    and of the batch-last ket trace of :func:`_reduced_arr` alike.
    """
    batch = mat.shape[:-2]
    pairs = np.asarray(mat, dtype=complex).view(_PAIR)
    lead = len(batch)
    entries = pairs.transpose(lead, lead + 1, lead + 2, *range(lead)).reshape((mat.shape[-1] ** 2, 2) + batch)
    entry, part, sign = plan
    terms = entries[entry, part].reshape(entry.shape + (-1,))
    terms *= sign
    return terms


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
    mat = np.ascontiguousarray(mat)  # einsum rounds by operand layout; read every layout as a C-order copy
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
        _freeze_fields(self, "a", "b", "T")

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


def _term_counts(rng: np.random.Generator, out: np.ndarray) -> None:
    out[:, 0] = rng.integers(1, MAX_SEPARABLE_TERMS + 1, size=len(out))


#: random_separable_two_qubit's rows at MAX_SEPARABLE_TERMS (dirichlet(ones) draws gamma(1), numpy's exponential).
_SEPARABLE_DRAW = _Draw(2, ((_term_counts, 1), (np.random.Generator.standard_exponential, MAX_SEPARABLE_TERMS)))
_SEPARABLE_WIDTH = 1 + 9 * MAX_SEPARABLE_TERMS  # the term count, the exponentials, then 8 normals per term


def _separable_arr(rows: np.ndarray) -> np.ndarray:
    """Mixtures (N, 4, 4) of separable rows (N, 1 + 9 T), added in term order up to the most terms a row holds.

    A row holds the term count, T exponentials, then 8 normals (two kets) per term.
    """
    most = (rows.shape[-1] - 1) // 9
    terms, draws = rows[:, 0], rows[:, 1 + most :].reshape(len(rows), most, 2, 4)
    # As numpy's dirichlet: each exponential times 1 / their sum from 0 in term order; those past a row's count are 0.
    exps = np.where(np.arange(most) < terms[:, None], rows[:, 1 : 1 + most], 0.0)
    weights = exps * (1.0 / sum(exps[:, t] for t in range(most)))[:, None]
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
    rng, row = as_rng(seed), np.zeros(1 + 9 * max_terms)
    row[0] = terms = int(rng.integers(1, max_terms + 1))
    rng.standard_exponential(out=row[1 : 1 + terms])
    rng.standard_normal(out=row[1 + max_terms : 1 + max_terms + 8 * terms])
    return QuantumState(2, _separable_arr(row[None])[0])
