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
    a = _ref_bloch_arr(states._partial_trace_arr(mat, [steering_qubit], 2))
    b = _ref_bloch_arr(states._partial_trace_arr(mat, [1 - steering_qubit], 2))
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


def _layouts(shape: tuple, seed: int, scale: int = 0):
    """The same kind of stack: contiguous, transposed, sliced, and as a partial trace's output."""
    yield "contiguous", _matrices(shape, seed, scale)
    yield "transposed", np.swapaxes(_matrices(shape, seed, scale), -1, -2)
    yield "sliced", _matrices(shape + (2,), seed, scale)[..., 1, :, :]
    # The hub-pair kernels take their 4x4 stacks from a partial trace.
    wide = np.zeros(shape + (8, 8), dtype=complex)
    wide[..., ::2, ::2] = _matrices(shape, seed, scale)
    wide[..., 1::2, 1::2] = _matrices(shape, seed + 1, scale)
    yield "partial trace", states._partial_trace_arr(wide, [0, 1], 3)


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
            assert got.strides[-2:] == want.strides[-2:], layout


@pytest.mark.parametrize("steering_qubit", [0, 1])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_steering_abT_matches_einsum(shape, steering_qubit):
    for seed in range(3):
        for layout, mat in _layouts(shape, seed):
            got = ellipsoid._steering_abT(mat, steering_qubit)
            want = _ref_steering_abT(mat, steering_qubit)
            for g, w in zip(got, want):
                _assert_same(g, w)
            assert [g.strides[-1] for g in got[:3]] == [w.strides[-1] for w in want[:3]], layout
            assert got[2].strides[-2:] == want[2].strides[-2:], layout


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
