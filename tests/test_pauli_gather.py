"""The Pauli gather kernel against the einsum formulas it replaced, bit for bit.

The references below are the former kernels, verbatim.  Every comparison
uses ``tobytes()``, which tells -0.0 from 0.0 where array equality does not,
and the layout checks pin the strides that decide how later matmuls and
sums round.
"""

import numpy as np
import pytest

from qsteer import ellipsoid, monogamy, states
from qsteer.states import PAULIS, PAULIS_WITH_ID, _PAULI_PAIRS

from conftest import _ref_partial_trace_arr

SHAPES = [(), (1,), (5,), (256,), (3, 5)]


def _ref_bloch_arr(rho2: np.ndarray) -> np.ndarray:
    subscripts = "jab,ba->j" if rho2.ndim == 2 else "jab,...ba->...j"
    return np.einsum(subscripts, PAULIS, rho2).real


def _ref_spin_corr_arr(rho4: np.ndarray) -> np.ndarray:
    subscripts = "jkab,ba->jk" if rho4.ndim == 2 else "jkab,...ba->...jk"
    return np.einsum(subscripts, _PAULI_PAIRS, rho4).real


def _ref_l_bcd_arr(mat: np.ndarray) -> np.ndarray:
    ops = []
    for l in range(3):
        for m in range(3):
            for p in range(3):
                ops.append(np.kron(np.eye(2), np.kron(PAULIS[l], np.kron(PAULIS[m], PAULIS[p]))))
    coeffs = np.einsum("...ab,kba->...k", mat, np.stack(ops)).real
    return np.sum(coeffs**2, axis=-1)


def _ref_pauli_coefficient(mat: np.ndarray, labels) -> float:
    op = PAULIS_WITH_ID[labels[0]]
    for l in labels[1:]:
        op = np.kron(op, PAULIS_WITH_ID[l])
    return float(np.einsum("ab,ba->", mat, op).real)


def _ref_steering_abT(mat: np.ndarray, steering_qubit: int):
    """The einsum (a, b, T), plus the 1 - |a|^2 of ``ellipsoid._gamma`` that ``_steering_abT`` returns with them."""
    a = _ref_bloch_arr(_ref_partial_trace_arr(mat, [steering_qubit], 2))
    b = _ref_bloch_arr(_ref_partial_trace_arr(mat, [1 - steering_qubit], 2))
    T = _ref_spin_corr_arr(mat)
    if steering_qubit == 1:
        T = np.swapaxes(T, -1, -2)
    return a, b, T, ellipsoid._gamma(a)


def _matrices(shape: tuple, seed: int, scale: int = 0, d: int = 4) -> np.ndarray:
    """Non-Hermitian complex (shape + (d, d)) stacks with exact zeros and -0.0 parts.

    Entries span eight decades below ``10**scale``, so that adding the same
    terms in another order changes the last bits of most sums.
    """
    rng = np.random.default_rng(seed)
    mat = np.empty(shape + (d, d), dtype=complex)
    for part in (mat.real, mat.imag):
        part[...] = rng.standard_normal(part.shape) * 10.0 ** rng.integers(scale - 8, scale, part.shape)
        part[rng.random(part.shape) < 0.2] = 0.0
        part[rng.random(part.shape) < 0.2] = -0.0
    return mat


# einsum's output strides follow its input, which is never batch-last, so this
# layout's strides are pinned to those of the contiguous case: _sum_terms makes both.
BATCH_LAST = "batch-last trace"


def _layouts(shape: tuple, seed: int, scale: int = 0):
    """The same kind of stack: contiguous (first), transposed, sliced, and as an einsum or a gather trace's output."""
    yield "contiguous", _matrices(shape, seed, scale)
    yield "transposed", np.swapaxes(_matrices(shape, seed, scale), -1, -2)
    yield "sliced", _matrices(shape + (2,), seed, scale)[..., 1, :, :]
    # The hub-pair kernels take their 4x4 stacks from a partial trace.
    wide = np.zeros(shape + (8, 8), dtype=complex)
    wide[..., ::2, ::2] = _matrices(shape, seed, scale)
    wide[..., 1::2, 1::2] = _matrices(shape, seed + 1, scale)
    yield "partial trace", _ref_partial_trace_arr(wide, [0, 1], 3)
    yield BATCH_LAST, states._partial_trace_arr(wide, [0, 1], 3)


def _assert_same(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_spin_correlation_matches_einsum(shape):
    for seed in range(3):
        for layout, mat in _layouts(shape, seed):
            got, want = states._spin_corr_arr(mat), _ref_spin_corr_arr(mat)
            _assert_same(got, want)
            if layout == "contiguous":
                contiguous = want
            assert got.strides[-2:] == (contiguous if layout == BATCH_LAST else want).strides[-2:], layout


@pytest.mark.parametrize("steering_qubit", [0, 1])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_steering_abT_matches_einsum(shape, steering_qubit):
    for seed in range(3):
        for layout, mat in _layouts(shape, seed):
            got = ellipsoid._steering_abT(mat, steering_qubit)
            want = _ref_steering_abT(mat, steering_qubit)
            for g, w in zip(got, want):
                _assert_same(g, w)
            if layout == "contiguous":
                contiguous = want
            pin = contiguous if layout == BATCH_LAST else want
            assert [g.strides[-1] for g in got[:3]] == [w.strides[-1] for w in pin[:3]], layout
            assert got[2].strides[-2:] == pin[2].strides[-2:], layout


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_pauli_arr_matches_einsum(shape):
    # Entries below 0.1 keep |a|, |b| and |T_jk| inside the physical ranges _pauli_arr checks.
    for seed in range(3):
        for layout, mat in _layouts(shape, seed, scale=-1):
            for g, w in zip(states._pauli_arr(mat), _ref_steering_abT(mat, 0)):
                _assert_same(g, w)


def test_signed_zeros_become_positive_zeros():
    # einsum starts every sum from 0.0, so all -0.0 inputs give +0.0 outputs.
    mat = np.full((4, 4), -0.0 - 0.0j)
    for got in (*ellipsoid._steering_abT(mat, 0), states._spin_corr_arr(mat)):
        assert not np.signbit(got).any()
    for g, w in zip(ellipsoid._steering_abT(mat, 1), _ref_steering_abT(mat, 1)):
        _assert_same(g, w)


def test_real_input_matches_einsum():
    mat = _matrices((5,), 0).real
    _assert_same(states._spin_corr_arr(mat), _ref_spin_corr_arr(mat))
    for g, w in zip(ellipsoid._steering_abT(mat, 0), _ref_steering_abT(mat, 0)):
        _assert_same(g, w)


@pytest.mark.parametrize("steering_qubit", [0, 1])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_layout_keeps_downstream_rounding(shape, steering_qubit):
    # A stacked matmul picks its BLAS or non-BLAS loop by memory layout, and a
    # sum over (-2, -1) its order; both must see the einsum layout's bits.
    for seed in range(3):
        mat = _matrices(shape, seed, scale=-1)
        got = ellipsoid._steering_abT(mat, steering_qubit)
        want = _ref_steering_abT(mat, steering_qubit)
        _assert_same(np.asarray(ellipsoid._volume_from_abT(*got)), np.asarray(ellipsoid._volume_from_abT(*want)))
        for g, w in zip(ellipsoid._center_orientation(*got), ellipsoid._center_orientation(*want)):
            _assert_same(g, w)
        _assert_same(np.sum(got[2] * got[2], axis=(-2, -1)), np.sum(want[2] * want[2], axis=(-2, -1)))
        T, ref_T = states._spin_corr_arr(mat), _ref_spin_corr_arr(mat)
        _assert_same(np.sum(T * T, axis=(-2, -1)), np.sum(ref_T * ref_T, axis=(-2, -1)))


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_bloch_matches_einsum(shape):
    for seed in range(3):
        mat = _matrices(shape, seed, d=2)
        got, want = states._bloch_arr(mat), _ref_bloch_arr(mat)
        _assert_same(got, want)
        assert got.strides[-1] == want.strides[-1]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_l_bcd_matches_einsum(shape):
    # The einsum adds each coefficient's 16 terms in rho's row-major order, not the operator's.
    for seed in range(3):
        mat = _matrices(shape, seed, d=16)
        _assert_same(monogamy._l_bcd_arr(mat), _ref_l_bcd_arr(mat))


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_l_bcd_does_not_depend_on_layout(shape):
    # The einsum's bits followed memory order; the gather reads the same values the same way.
    for seed in range(3):
        mat = _matrices(shape, seed, d=16)
        want = monogamy._l_bcd_arr(mat)
        layouts = {
            "fortran": np.asfortranarray(mat),
            "transposed": np.swapaxes(np.ascontiguousarray(np.swapaxes(mat, -1, -2)), -1, -2),
            "sliced": np.stack([mat, mat], axis=-3)[..., 1, :, :],
        }
        for layout, same in layouts.items():
            assert monogamy._l_bcd_arr(same).tobytes() == want.tobytes(), layout


@pytest.mark.parametrize("n", range(1, 7))
def test_pauli_coefficient_matches_einsum(n):
    rng = np.random.default_rng(n)
    for seed in range(3):
        # The bare constructor skips validation, so the non-Hermitian matrix reaches the kernel.
        mat = _matrices((), seed, d=2**n)
        state = states.QuantumState(n, mat)
        for labels in rng.integers(0, 4, (20, n)).tolist():
            got, want = states.pauli_coefficient(state, labels), _ref_pauli_coefficient(mat, labels)
            assert got.hex() == want.hex(), labels


# --- the ket trace read in place: the batch-first route it replaced is the reference ---


def _ref_signed_terms(mat: np.ndarray, plan) -> np.ndarray:
    """The former gather, verbatim but for its plan: a C-contiguous float view read by ``flat.T[index]``."""
    entry, part, sign = plan
    index = entry << 1 | part  # the former plan's float-view index
    flat = np.ascontiguousarray(mat, dtype=complex).view(np.float64).reshape(-1, 2 * mat.shape[-1] ** 2)
    return flat.T[index] * sign


def _ref_abT_arr(mat: np.ndarray):
    """The former ``states._abT_arr``, verbatim but for the reference gather."""
    batch = mat.shape[:-2]
    terms = _ref_signed_terms(mat, states._ABT_PLAN)
    terms[2, :6] += terms[3, :6]
    terms[3, :6] = 0.0
    out = states._sum_terms(terms, batch + (15,))
    return out[..., :3], out[..., 3:6], out[..., 6:].reshape(batch + (3, 3))


def _ref_ket_reads(kets: np.ndarray, n: int, subsets):
    """T, (a, b, T) and Bloch vectors of the ket trace as the former route read them: from a batch-first copy."""
    pairs = np.ascontiguousarray(states._reduced_arr(kets, n, subsets, pure=True))
    single = np.ascontiguousarray(states._reduced_arr(kets, n, [[q] for q in range(n)], pure=True))
    T = states._sum_terms(_ref_signed_terms(pairs, states._T_PLAN), pairs.shape[:-2] + (3, 3))
    bloch = states._sum_terms(_ref_signed_terms(single, states._BLOCH_PLAN), single.shape[:-2] + (3,))
    return (T, *_ref_abT_arr(pairs), bloch)


def _ket_reads(kets: np.ndarray, n: int, subsets):
    pairs = states._reduced_arr(kets, n, subsets, pure=True)
    single = states._reduced_arr(kets, n, [[q] for q in range(n)], pure=True)
    return (states._spin_corr_arr(pairs), *states._abT_arr(pairs), states._bloch_arr(single))


def _ket_stacks(shape: tuple, n: int, seed: int):
    """Haar kets, and kets of exact zeros of either sign (as in GHZ and W kets), each of ``shape``."""
    rng = np.random.default_rng(seed)
    haar = states._haar_arr(rng.standard_normal(shape + (2 ** (n + 1),)))
    parts = [rng.choice([0.0, -0.0, 1.0, -0.5], size=shape + (2**n,)) for _ in range(2)]
    return {"haar": haar, "signed zeros": parts[0] + 1j * parts[1]}


def _pair_subsets(n: int):
    """Hub pairs, plus the reordered pair (2, 0); at n = 2 a pair traces nothing, in either order."""
    if n == 2:
        return [(0, 1), (1, 0)]
    return [(0, x) for x in range(1, n)] + [(2, 0)]


@pytest.mark.parametrize("shape", [*SHAPES, (0,)], ids=str)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_ket_trace_pauli_reads_match_batch_first_route(shape, n):
    for kind, kets in _ket_stacks(shape, n, seed=n).items():
        got, want = _ket_reads(kets, n, _pair_subsets(n)), _ref_ket_reads(kets, n, _pair_subsets(n))
        for g, w in zip(got, want, strict=True):
            _assert_same(g, w)
            # _sum_terms fixes the output layout, which later matmuls and sums round by.
            assert g.strides == w.strides, kind


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_pure_hub_reads_match_density_forms(shape, n):
    for kets in _ket_stacks(shape, n, seed=10 + n).values():
        mats = states._densities(kets)
        pairs = _pair_subsets(n)
        got, want = monogamy._corr_strengths(kets, n, pairs, pure=True), monogamy._corr_strengths(mats, n, pairs)
        _assert_same(got, want)
        for hub in range(n):
            got, want = monogamy._hub_volumes(kets, n, hub, pure=True), monogamy._hub_volumes(mats, n, hub)
            _assert_same(np.asarray(got), np.asarray(want))


def test_slocc_codes_match_batch_first_marginals():
    # Product, biseparable and W kets hold exact zeros; their marginals sit on the rank thresholds.
    rng = np.random.default_rng(3)
    qubit = [states._haar_arr(rng.standard_normal((50, 4))) for _ in range(3)]
    product = np.einsum("na,nb,nc->nabc", *qubit).reshape(50, 8)
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    kets = np.concatenate(
        [
            product,
            np.kron(bell, qubit[0]),
            np.kron(qubit[1], bell),
            np.broadcast_to(monogamy.w_state().data, (5, 8)),
            *_ket_stacks((50,), 3, seed=4).values(),
        ]
    )
    # The marginals that _slocc_codes reads, laid out as before: a batch-first copy.
    m = np.ascontiguousarray(states._reduced_arr(kets, 3, [[0], [1], [2]], pure=True))
    det = (m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]).real
    pure_marginals = det < monogamy.RANK_TOL * ((m[..., 0, 0] + m[..., 1, 1]).real - monogamy.RANK_TOL)
    count = np.sum(pure_marginals, axis=0)
    bipartite = 1 + np.argmax(pure_marginals, axis=0)
    entangled = np.where(monogamy._three_tangle_arr(kets) <= monogamy.TANGLE_TOL, 4, 5)
    want = np.where(count >= 2, 0, np.where(count == 1, bipartite, entangled))
    got = monogamy._slocc_codes(kets)
    _assert_same(got, want)
    assert set(got.tolist()) >= {0, 1, 3, 4}
