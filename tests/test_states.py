import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsteer.ellipsoid import canonical_form, normalized_volume, steering_ellipsoid
from qsteer.monogamy import (
    ckw_residual,
    concurrence,
    concurrence_volume_residual,
    counterexample_state,
    ghz_state,
    pairwise_correlation_sum,
    singlet_state,
    volume_monogamy_report,
    w_state,
    werner_state,
)
from qsteer import states
from qsteer.states import (
    QuantumState,
    StateValidationError,
    bloch_vector,
    ket_to_density,
    partial_trace,
    pauli_coefficient,
    pauli_decomposition,
    purity,
    random_mixed_state,
    random_pure_state,
    random_separable_two_qubit,
    sample_rng,
    sample_streams,
    spin_correlation_matrix,
)

from conftest import _ref_ket_trace, random_single_qubit_density

# Exact 4x4 entries of (2/3)|psi-><psi-| + (1/3) 1/4, used as the oracle for
# several reductions below.
WERNER_MATRIX = np.array(
    [
        [1 / 12, 0, 0, 0],
        [0, 5 / 12, -1 / 3, 0],
        [0, -1 / 3, 5 / 12, 0],
        [0, 0, 0, 1 / 12],
    ],
    dtype=complex,
)


class TestKetToDensity:
    def test_basis_projector(self):
        out = ket_to_density(np.array([1.0, 0.0]))
        np.testing.assert_allclose(out.data, np.diag([1.0, 0.0]))

    def test_singlet_outer_product(self):
        out = ket_to_density(singlet_state())
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[2, 2] = 0.5
        expected[1, 2] = expected[2, 1] = -0.5
        np.testing.assert_allclose(out.data, expected, atol=1e-15)

    def test_w_state_outer_product(self):
        out = ket_to_density(w_state())
        expected = np.zeros((8, 8))
        for i in (1, 2, 4):
            for j in (1, 2, 4):
                expected[i, j] = 1 / 3
        np.testing.assert_allclose(out.data, expected, atol=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(StateValidationError):
            ket_to_density(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("tol", [float("nan"), -1e-9])
    def test_rejects_nan_or_negative_tol(self, tol):
        # A NaN tol used to accept [3, 0], a "state" of trace 9.
        with pytest.raises(ValueError, match="tol"):
            ket_to_density([3.0, 0.0], tol=tol)

    def test_rejects_matrix_input(self):
        with pytest.raises(StateValidationError):
            ket_to_density(werner_state())

    @pytest.mark.parametrize("ket", [np.diag([1.0, 0.0, 0.0, 0.0]), [[1, 0], [0, 0]], np.zeros((2, 2, 2))])
    def test_rejects_a_shaped_ket(self, ket):
        # A ket is one-dimensional; a 4 x 4 projector used to be read as 16 amplitudes.
        shape = str(np.shape(ket))
        with pytest.raises(StateValidationError, match=re.escape(shape)):
            ket_to_density(ket)
        with pytest.raises(StateValidationError, match=re.escape(shape)):
            QuantumState.from_amplitudes(ket)


class TestMatrixProperty:
    def test_pure_matrix_matches_outer_product(self, rng):
        # The reference is the np.outer that QuantumState.matrix used before it shared _densities.
        for n in range(1, 6):
            for _ in range(50):
                ket = random_pure_state(n, seed=rng).data
                got = QuantumState(n, ket).matrix
                want = np.outer(ket, ket.conj())
                assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())
        for ket in (w_state().data, ghz_state(4).data, singlet_state().data):
            np.testing.assert_array_equal(QuantumState.from_amplitudes(ket).matrix, np.outer(ket, ket.conj()))


class TestPartialTrace:
    def test_product_state_factor(self, rng):
        rho_a = random_single_qubit_density(rng)
        rho_b = random_single_qubit_density(rng)
        joint = np.kron(rho_a, rho_b)
        np.testing.assert_allclose(partial_trace(joint, [0]).data, rho_a, atol=1e-14)
        np.testing.assert_allclose(partial_trace(joint, [1]).data, rho_b, atol=1e-14)

    def test_ghz_marginal(self):
        out = partial_trace(ghz_state(), [0])
        np.testing.assert_allclose(out.data, np.eye(2) / 2, atol=1e-15)

    def test_counterexample_reductions_are_werner(self):
        ce = counterexample_state()
        np.testing.assert_allclose(partial_trace(ce, [0, 1]).data, WERNER_MATRIX, atol=1e-12)
        np.testing.assert_allclose(partial_trace(ce, [0, 2]).data, WERNER_MATRIX, atol=1e-12)

    def test_keep_order_permutes_factors(self, rng):
        rho_a = random_single_qubit_density(rng)
        rho_b = random_single_qubit_density(rng)
        joint = np.kron(rho_a, rho_b)
        swapped = partial_trace(joint, [1, 0]).data
        np.testing.assert_allclose(swapped, np.kron(rho_b, rho_a), atol=1e-14)

    def test_composition(self, rng):
        rho = random_mixed_state(3, seed=rng).matrix
        stepwise = partial_trace(partial_trace(rho, [0, 1]), [0]).data
        direct = partial_trace(rho, [0]).data
        np.testing.assert_allclose(stepwise, direct, atol=1e-12)

    @pytest.mark.parametrize("keep", [[], [0, 0], [3]])
    def test_invalid_keep(self, keep):
        with pytest.raises(StateValidationError):
            partial_trace(ghz_state(), keep)


class TestBlochVector:
    def test_sigma_z_eigenstate(self):
        np.testing.assert_allclose(bloch_vector(np.diag([1.0, 0.0])), [0, 0, 1], atol=1e-15)

    def test_maximally_mixed(self):
        np.testing.assert_allclose(bloch_vector(np.eye(2) / 2), [0, 0, 0], atol=1e-15)

    def test_w_state_marginal(self):
        # Populations 2/3 and 1/3 on qubit 0 give z = 1/3 and no coherence.
        out = bloch_vector(partial_trace(w_state(), [0]))
        np.testing.assert_allclose(out, [0, 0, 1 / 3], atol=1e-12)

    def test_wrong_dimension(self):
        with pytest.raises(StateValidationError):
            bloch_vector(np.eye(4) / 4)


class TestSpinCorrelationMatrix:
    def test_product_state_is_outer_product(self, rng):
        rho_a = random_single_qubit_density(rng)
        rho_b = random_single_qubit_density(rng)
        T = spin_correlation_matrix(np.kron(rho_a, rho_b))
        np.testing.assert_allclose(T, np.outer(bloch_vector(rho_a), bloch_vector(rho_b)), atol=1e-13)

    def test_singlet(self):
        np.testing.assert_allclose(spin_correlation_matrix(singlet_state()), -np.eye(3), atol=1e-13)

    def test_werner(self):
        np.testing.assert_allclose(spin_correlation_matrix(werner_state()), -(2 / 3) * np.eye(3), atol=1e-13)

    def test_wrong_dimension(self):
        with pytest.raises(StateValidationError):
            spin_correlation_matrix(ghz_state())


class TestPauliCoefficient:
    def test_identity_labels_give_trace(self, rng):
        rho = random_mixed_state(3, seed=rng)
        assert pauli_coefficient(rho, [0, 0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_ghz_zzz_vanishes(self):
        assert pauli_coefficient(ghz_state(), [3, 3, 3]) == pytest.approx(0.0, abs=1e-12)

    def test_ghz_xxx_is_one(self):
        assert pauli_coefficient(ghz_state(), [1, 1, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(StateValidationError):
            pauli_coefficient(ghz_state(), [1, 1, 4])

    def test_label_count_mismatch(self):
        with pytest.raises(StateValidationError):
            pauli_coefficient(ghz_state(), [1, 1])


class TestPurity:
    def test_pure_projector(self, rng):
        psi = random_pure_state(3, seed=rng)
        assert purity(psi) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_maximally_mixed(self, n):
        dim = 2**n
        assert purity(np.eye(dim) / dim) == pytest.approx(2.0**-n, abs=1e-12)

    def test_werner(self):
        # Eigendecomposition oracle: eigenvalues (3/4, 1/12, 1/12, 1/12),
        # so Tr[rho^2] = 9/16 + 3/144 = 7/12.
        eigs = np.linalg.eigvalsh(werner_state().matrix)
        oracle = float(np.sum(eigs**2))
        assert oracle == pytest.approx(7 / 12, abs=1e-12)
        assert purity(werner_state()) == pytest.approx(oracle, abs=1e-12)


class TestRandomStates:
    def test_pure_deterministic(self):
        a = random_pure_state(3, seed=99)
        b = random_pure_state(3, seed=99)
        np.testing.assert_array_equal(a.data, b.data)

    def test_pure_normalized(self, rng):
        for _ in range(50):
            psi = random_pure_state(2, seed=rng)
            assert abs(np.vdot(psi.data, psi.data).real - 1.0) < 1e-12

    def test_haar_average_is_maximally_mixed(self):
        rng = np.random.default_rng(7)
        mean = np.zeros((2, 2), dtype=complex)
        n = 10_000
        for _ in range(n):
            mean += random_pure_state(1, seed=rng).matrix
        assert np.linalg.norm(bloch_vector(mean / n)) < 0.05

    def test_mixed_rank_one_without_ancilla(self, rng):
        rho = random_mixed_state(2, ancilla_qubits=0, seed=rng)
        eigs = np.sort(np.linalg.eigvalsh(rho.data))
        assert eigs[-1] == pytest.approx(1.0, abs=1e-10)
        assert np.all(eigs[:-1] < 1e-12)

    def test_mixed_eigenvalues_in_unit_interval(self, rng):
        for _ in range(100):
            rho = random_mixed_state(1, ancilla_qubits=1, seed=rng)
            eigs = np.linalg.eigvalsh(rho.data)
            assert np.all(eigs > -1e-12) and np.all(eigs < 1 + 1e-12)

    def test_mixed_deterministic(self):
        a = random_mixed_state(3, seed=5)
        b = random_mixed_state(3, seed=5)
        np.testing.assert_array_equal(a.data, b.data)

    def test_separable_is_valid_two_qubit_state(self, rng):
        for _ in range(50):
            QuantumState.from_matrix(random_separable_two_qubit(seed=rng).matrix)

    @pytest.mark.parametrize(
        "sampler, kwargs, name",
        [
            (random_pure_state, {"n_qubits": 2.0}, "n_qubits"),
            (random_mixed_state, {"n_qubits": 2.0}, "n_qubits"),
            (random_mixed_state, {"n_qubits": 2, "ancilla_qubits": 1.5}, "ancilla_qubits"),
            (random_separable_two_qubit, {"max_terms": 2.5}, "max_terms"),
            (random_separable_two_qubit, {"max_terms": 2.0}, "max_terms"),
        ],
    )
    def test_samplers_reject_non_integers(self, sampler, kwargs, name):
        # These died inside numpy, or (max_terms=2.5) drew up to 2 terms without a word.
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            sampler(seed=3, **kwargs)

    @pytest.mark.parametrize(
        "sampler, kwargs, name",
        [
            (random_pure_state, {"n_qubits": 0}, "n_qubits"),
            (random_mixed_state, {"n_qubits": 0}, "n_qubits"),
            (random_mixed_state, {"n_qubits": 2, "ancilla_qubits": -1}, "ancilla_qubits"),
            (random_separable_two_qubit, {"max_terms": 0}, "max_terms"),
            (random_separable_two_qubit, {"max_terms": -2}, "max_terms"),
        ],
    )
    def test_samplers_reject_out_of_range_counts(self, sampler, kwargs, name):
        with pytest.raises(StateValidationError, match=f"{name} must be >="):
            sampler(seed=3, **kwargs)

    def test_samplers_accept_numpy_integers(self):
        np.testing.assert_array_equal(random_pure_state(np.int64(3), seed=4).data, random_pure_state(3, seed=4).data)
        np.testing.assert_array_equal(
            random_mixed_state(np.uint8(2), ancilla_qubits=np.int32(1), seed=4).data,
            random_mixed_state(2, ancilla_qubits=1, seed=4).data,
        )
        np.testing.assert_array_equal(
            random_separable_two_qubit(seed=4, max_terms=np.int64(3)).data,
            random_separable_two_qubit(seed=4, max_terms=3).data,
        )


def _stream_draws(rng):
    return (
        rng.standard_normal(7),
        rng.uniform(0.0, 2.0, 5),
        rng.integers(1, 5, 6),
        rng.dirichlet(np.ones(3)),
    )


class TestNumpyDrawIdentities:
    """numpy identities that let a suite draw store raw variates and do the arithmetic in its reduce."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_dirichlet_of_ones_is_normalized_exponentials(self, k):
        # numpy's gamma(1) is the exponential; dirichlet sums from 0.0 in order, then multiplies by 1 / sum.
        for (_, a), (_, b) in zip(sample_streams(3, 0, 2000), sample_streams(3, 0, 2000)):
            e = b.standard_exponential(k)
            total = 0.0
            for x in e:
                total += x
            assert a.dirichlet(np.ones(k)).tobytes() == (e * (1.0 / total)).tobytes()

    def test_uniform_to_half_pi_is_scaled_random(self):
        for (_, a), (_, b) in zip(sample_streams(3, 0, 2000), sample_streams(3, 0, 2000)):
            assert a.uniform(0.0, np.pi / 2.0).hex() == ((np.pi / 2.0) * b.random()).hex()


class TestSampleStreams:
    # Seed 5's seed word is >= 2**63, so the re-keyed state dict holds a key word past int64.
    @pytest.mark.parametrize("master_seed", [0, 1, 5, 12345, 2**32 - 1, 2**32, 2**64 + 3])
    def test_matches_sample_rng(self, master_seed):
        # 0..258 crosses the block boundary at 256; the last index is the largest allowed.
        ranges = [(0, 258), (2**32 - 1, 2**32)]
        checked = set()
        for start, stop in ranges:
            for i, rng in sample_streams(master_seed, start, stop):
                if i in (0, 1, 255, 256, 257, 2**32 - 1):
                    for got, want in zip(_stream_draws(rng), _stream_draws(sample_rng(master_seed, i))):
                        np.testing.assert_array_equal(got, want)
                    checked.add(i)
        assert checked == {0, 1, 255, 256, 257, 2**32 - 1}

    def test_seed_word_of_5_is_past_int64(self):
        assert states._seed_word(5) >= 2**63

    def test_buffered_uint32_does_not_reach_next_sample(self):
        # An odd count of uint32 draws leaves half of a 64-bit word buffered in the generator.
        for i, rng in sample_streams(5, 0, 6):
            for got, want in zip(_stream_draws(rng), _stream_draws(sample_rng(5, i))):
                np.testing.assert_array_equal(got, want)
            rng.integers(0, 2**32 - 1, size=3, dtype=np.uint32)
            assert rng.bit_generator.state["has_uint32"] == 1

    @pytest.mark.parametrize("master_seed, index", [(0, 0), (12345, 258), (2**64 + 3, 2**64 - 1)])
    def test_key_layout(self, master_seed, index):
        # Pins the stream of every seeded ensemble: changing it must be deliberate.
        word = int(np.random.SeedSequence(master_seed).generate_state(1, np.uint64)[0])
        want = np.random.Generator(np.random.Philox(key=(word << 64) | index))
        for got, ref in zip(_stream_draws(sample_rng(master_seed, index)), _stream_draws(want)):
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("index", [-1, 2**64])
    def test_index_outside_key_word_rejected(self, index):
        with pytest.raises(ValueError):
            sample_rng(3, index)

    def test_yields_every_index_in_order(self):
        assert [i for i, _ in sample_streams(3, 250, 520)] == list(range(250, 520))
        assert list(sample_streams(3, 5, 5)) == []

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            sample_rng(-1, 0)
        with pytest.raises(ValueError):
            list(sample_streams(-1, 0, 3))

    @pytest.mark.parametrize("start, stop", [(-1, 2), (2**32 - 1, 2**32 + 1), (2**32, 2**32 + 1)])
    def test_indices_outside_uint32_rejected(self, start, stop):
        with pytest.raises(ValueError):
            list(sample_streams(7, start, stop))

    @pytest.mark.parametrize("master_seed, index, name", [(5, 1.5, "sample index"), (1.5, 0, "master seed")])
    def test_sample_rng_rejects_non_integers(self, master_seed, index, name):
        # int() used to truncate these: sample_rng(5, 1.5) was sample 1's stream.
        with pytest.raises(TypeError, match=name):
            sample_rng(master_seed, index)

    @pytest.mark.parametrize(
        "master_seed, start, stop, name", [(5, 0.9, 2.9, "start"), (5, 0, 2.9, "stop"), (5.0, 0, 2, "master seed")]
    )
    def test_sample_streams_rejects_non_integers(self, master_seed, start, stop, name):
        with pytest.raises(TypeError, match=name):
            list(sample_streams(master_seed, start, stop))

    def test_numpy_integers_accepted(self):
        for got, want in zip(_stream_draws(sample_rng(np.int64(5), np.uint32(3))), _stream_draws(sample_rng(5, 3))):
            np.testing.assert_array_equal(got, want)
        streams = sample_streams(np.uint64(5), np.int32(2), np.int64(4))
        assert [i for i, _ in streams] == [2, 3]


class TestBatchedKernels:
    @pytest.mark.parametrize("n, keep", [(2, [0]), (2, [1]), (3, [0, 1]), (3, [2, 0]), (4, [0, 3]), (5, [1, 2, 4])])
    def test_partial_trace_stack_matches_each_matrix(self, rng, n, keep):
        mats = np.stack([random_mixed_state(n, seed=rng).matrix for _ in range(6)]).reshape(2, 3, 2**n, 2**n)
        reduced = states._partial_trace_arr(mats, keep, n)
        assert reduced.shape == (2, 3, 2 ** len(keep), 2 ** len(keep))
        for idx in np.ndindex(2, 3):
            np.testing.assert_array_equal(reduced[idx], states._partial_trace_arr(mats[idx], keep, n))

    def test_bloch_stack_matches_each_matrix(self, rng):
        mats = np.stack([random_mixed_state(1, seed=rng).matrix for _ in range(6)]).reshape(3, 2, 2, 2)
        stacked = states._bloch_arr(mats)
        assert stacked.shape == (3, 2, 3)
        for idx in np.ndindex(3, 2):
            np.testing.assert_array_equal(stacked[idx], states._bloch_arr(mats[idx]))

    def test_spin_correlation_stack_matches_each_matrix(self, rng):
        mats = np.stack([random_mixed_state(2, seed=rng).matrix for _ in range(20)])
        stacked = states._spin_corr_arr(mats)
        assert stacked.shape == (20, 3, 3)
        for mat, T in zip(mats, stacked):
            np.testing.assert_array_equal(T, states._spin_corr_arr(mat))


class TestKetTrace:
    """The ket trace of ``_reduced_arr`` equals the partial trace of the built densities bit for bit."""

    @pytest.mark.parametrize("batch", [(), (1,), (7,), (256,), (3, 5)], ids=str)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_keep_permutation_matches_density_trace(self, rng, n, batch):
        kets = states._haar_arr(rng.standard_normal(batch + (2 ** (n + 1),)))
        mats = states._densities(kets)
        for size in range(1, n + 1):
            for keep in itertools.permutations(range(n), size):
                got = states._reduced_arr(kets, n, [keep], pure=True)[0]
                want = states._partial_trace_arr(mats, list(keep), n)
                assert got.shape == want.shape == batch + (2**size, 2**size)
                # tobytes() tells -0.0 from 0.0, which array equality does not.
                assert got.tobytes() == want.tobytes(), keep

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_signed_zeros_match_density_trace(self, rng, n):
        # Exact zeros of either sign, as in GHZ- and W-type kets.
        parts = [rng.choice([0.0, -0.0, 1.0, -0.5], size=(40, 2**n)) for _ in range(2)]
        kets = parts[0] + 1j * parts[1]
        for size in range(1, n + 1):
            for keep in itertools.permutations(range(n), size):
                got = states._reduced_arr(kets, n, [keep], pure=True)[0]
                assert got.tobytes() == states._partial_trace_arr(states._densities(kets), list(keep), n).tobytes()

    @pytest.mark.parametrize("batch", [(), (1,), (7,), (256,), (3, 5)], ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_every_subset_stack_matches_reference_and_density_trace(self, rng, n, batch):
        haar = states._haar_arr(rng.standard_normal(batch + (2 ** (n + 1),)))
        # Exact zeros of either sign, as in GHZ- and W-type kets.
        parts = [rng.choice([0.0, -0.0, 1.0, -0.5], size=batch + (2**n,)) for _ in range(2)]
        for kets in (haar, parts[0] + 1j * parts[1]):
            mats = states._densities(kets)
            for size in range(1, n + 1):
                # Every ordered subset up to 4 qubits; above that, each subset ascending and descending.
                if n <= 4:
                    subsets = list(itertools.permutations(range(n), size))
                else:
                    subsets = [c[::step] for c in itertools.combinations(range(n), size) for step in (1, -1)]
                got = states._reduced_arr(kets, n, subsets, pure=True)
                assert got.shape == (len(subsets),) + batch + (2**size, 2**size)
                assert got.flags.c_contiguous
                for keep, reduced in zip(subsets, got):
                    assert reduced.tobytes() == _ref_ket_trace(kets, list(keep), n).tobytes(), keep
                    assert reduced.tobytes() == states._partial_trace_arr(mats, list(keep), n).tobytes(), keep


class TestReducedStack:
    """_reduced_arr of kets equals _reduced_arr of their densities bit for bit."""

    # At (2**n,) a ket stack has the shape of one density matrix, so only ``pure`` tells them apart.
    @pytest.mark.parametrize("batch", [(), (1,), (5,), (3, 4), "2**n"], ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_ket_stack_matches_density_stack(self, rng, n, batch):
        batch = (2**n,) if batch == "2**n" else batch
        kets = states._haar_arr(rng.standard_normal(batch + (2 ** (n + 1),)))
        mats = states._densities(kets)
        for size in range(1, min(n, 2) + 1):
            subsets = list(itertools.permutations(range(n), size))
            got = states._reduced_arr(kets, n, subsets, pure=True)
            want = states._reduced_arr(mats, n, subsets)
            assert got.shape == want.shape == (len(subsets),) + batch + (2**size, 2**size)
            assert got.tobytes() == want.tobytes()
            for keep, reduced in zip(subsets, want):
                assert reduced.tobytes() == states._partial_trace_arr(mats, keep, n).tobytes(), keep


# --- references: the single-matrix forms that the batch kernels replaced, verbatim ---


def _ref_partial_trace(mat, keep, n_qubits):
    tensor = mat.reshape((2,) * (2 * n_qubits))
    row = list(range(n_qubits))
    col = [n_qubits + q if q in keep else q for q in row]
    out_axes = [*keep, *[n_qubits + q for q in keep]]
    d = 2 ** len(keep)
    return np.einsum(tensor, row + col, out_axes).reshape(d, d)


def _ref_bloch(rho2):
    return np.einsum("jab,ba->j", states.PAULIS, rho2).real


def _ref_purity(mat):
    return np.einsum("ij,ji->", mat, mat).real


def _ref_haar(draws):
    d = draws.shape[-1] // 2
    vec = draws[:d] + 1j * draws[d:]
    return vec / np.linalg.norm(vec)


def _single_matrices(rng):
    """Single density matrices; GHZ, W, product and pure-marginal states hold exact zeros."""
    product = np.kron(np.diag([1.0, 0.0]), random_single_qubit_density(rng)).astype(complex)
    mats = [ghz_state(n).matrix for n in (2, 3, 4)]
    mats += [w_state().matrix, werner_state().matrix, counterexample_state().matrix, product, np.kron(product, product)]
    mats += [random_mixed_state(n, seed=rng).matrix for n in (1, 2, 3, 4) for _ in range(3)]
    mats += [random_pure_state(n, seed=rng).matrix for n in (1, 2, 3, 4)]
    return mats


class TestSingleMatrixForms:
    """On one matrix, each batch kernel gives the bits of the single-matrix formula it replaced."""

    def test_partial_trace(self, rng):
        for mat in _single_matrices(rng):
            n = mat.shape[0].bit_length() - 1
            for size in range(1, n + 1):
                for keep in itertools.permutations(range(n), size):
                    got = states._partial_trace_arr(mat, list(keep), n)
                    # tobytes() tells -0.0 from 0.0, which array equality does not.
                    assert got.tobytes() == _ref_partial_trace(mat, list(keep), n).tobytes(), keep

    def test_bloch_vector_and_purity(self, rng):
        for mat in _single_matrices(rng):
            n = mat.shape[0].bit_length() - 1
            got = states._purity_arr(mat)
            assert got.shape == ()
            assert got.tobytes() == _ref_purity(mat).tobytes()
            assert purity(mat).hex() == float(_ref_purity(mat)).hex()
            for q in range(n):
                marginal = _ref_partial_trace(mat, [q], n)
                assert states._bloch_arr(marginal).tobytes() == _ref_bloch(marginal).tobytes()
                assert bloch_vector(marginal).tobytes() == _ref_bloch(marginal).tobytes()

    @pytest.mark.parametrize("dim", [2, 4, 8, 16, 32])
    def test_haar_ket(self, rng, dim):
        draws = rng.standard_normal((40, 2 * dim))
        # Exact zeros of either sign in the real or the imaginary parts.
        draws[0, 1:] = 0.0
        draws[1, dim:] = -0.0
        draws[2, ::2] = 0.0
        for row in draws:
            assert states._haar_arr(row).tobytes() == _ref_haar(row).tobytes()

    def test_public_samplers_normalize_as_the_reference(self):
        for n in (1, 2, 3, 4):
            got = random_pure_state(n, seed=sample_rng(11, n)).data
            assert got.tobytes() == _ref_haar(sample_rng(11, n).standard_normal(2 ** (n + 1))).tobytes()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: partial_trace(w_state(), [1.9]), "keep"),
        (lambda: partial_trace(w_state(), [0, 2.0]), "keep"),
        (lambda: pauli_coefficient(w_state(), [3.5, 0, 0]), "labels"),
        (lambda: volume_monogamy_report(w_state(), hub=0.5), "hub"),
        (lambda: volume_monogamy_report(w_state(), hub=1.0), "hub"),
        (lambda: ckw_residual(w_state(), hub=0.5), "hub"),
        (lambda: normalized_volume(werner_state(), steering_qubit=1.0), "steering_qubit"),
        (lambda: steering_ellipsoid(werner_state(), steering_qubit=0.5), "steering_qubit"),
        (lambda: canonical_form(w_state(), steering_qubit=0.5), "steering_qubit"),
        (lambda: concurrence_volume_residual(werner_state(), steering_qubit=1.0), "steering_qubit"),
        (lambda: pairwise_correlation_sum(w_state(), [(0, 1.5)]), "pairs"),
        (lambda: pairwise_correlation_sum(w_state(), [(0.0, 1)]), "pairs"),
    ],
    ids=[
        "partial_trace-1.9", "partial_trace-2.0", "pauli_coefficient", "report-0.5", "report-1.0", "ckw",
        "normalized_volume", "steering_ellipsoid", "canonical_form", "concurrence_volume", "pairs-1.5", "pairs-0.0",
    ],
)
def test_float_qubit_indices_raise_type_error_naming_the_argument(call, name):
    # int() used to truncate these: partial_trace(w_state(), [1.9]) was qubit 1's marginal.
    with pytest.raises(TypeError, match=name):
        call()


def test_numpy_integer_qubit_indices_are_accepted():
    w, werner = w_state(), werner_state()
    assert partial_trace(w, [np.int64(1)]).data.tobytes() == partial_trace(w, [1]).data.tobytes()
    assert pauli_coefficient(w, np.array([3, 0, 0])) == pauli_coefficient(w, [3, 0, 0])
    report = volume_monogamy_report(w, hub=np.int32(1))
    assert type(report.hub) is int and report == volume_monogamy_report(w, hub=1)
    assert ckw_residual(w, hub=np.uint8(2)) == ckw_residual(w, hub=2)
    assert normalized_volume(werner, steering_qubit=np.int64(1)) == normalized_volume(werner, steering_qubit=1)
    pairs = np.array([[0, 1], [1, 2]])
    assert pairwise_correlation_sum(w, pairs) == pairwise_correlation_sum(w, [(0, 1), (1, 2)])


@pytest.mark.parametrize("tol", [float("nan"), -1e-9])
def test_pauli_decomposition_rejects_nan_or_negative_tol(tol):
    # A NaN tol used to decompose 9 * 1/4, whose Bloch-range checks all compare False.
    with pytest.raises(ValueError, match="tol"):
        pauli_decomposition(9 * np.eye(4) / 4, tol=tol)


@pytest.mark.parametrize("tol", [float("inf"), 1.0, 1e300])
def test_infinite_or_huge_tol_is_rejected(tol):
    # Such a tol switched validation off: a ket of norm 3 was accepted, and at
    # tol >= 1 the trace check accepts the zero matrix.
    calls = [
        lambda: QuantumState.from_matrix(np.zeros((2, 2)), tol=tol),
        lambda: QuantumState.from_amplitudes([3.0, 0.0], tol=tol),
        lambda: ket_to_density([3.0, 0.0], tol=tol),
        lambda: pauli_decomposition(9 * np.eye(4) / 4, tol=tol),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="tol must be"):
            call()


@pytest.mark.parametrize("tol", [0.0, 0.5, np.nextafter(1.0, 0.0)])
def test_tol_in_unit_interval_is_accepted(tol):
    assert QuantumState.from_amplitudes([1.0, 0.0], tol=tol).n_qubits == 1
    assert pauli_decomposition(np.eye(4) / 4, tol=tol).T.shape == (3, 3)


class TestStackedKernels:
    """Each stacked kernel equals its per-matrix form bit for bit."""

    @pytest.mark.parametrize("dim", [2, 4, 8, 16, 32])
    def test_haar_rows_match_single_normalization(self, rng, dim):
        draws = rng.standard_normal((64, 2 * dim))
        expected = []
        for row in draws:
            vec = row[:dim] + 1j * row[dim:]
            expected.append(vec / np.linalg.norm(vec))
        np.testing.assert_array_equal(states._haar_arr(draws), np.array(expected))

    @pytest.mark.parametrize("dim", [2, 8])
    def test_haar_unitaries_match_single_qr(self, rng, dim):
        draws = rng.standard_normal((64, 2 * dim * dim))
        expected = []
        for row in draws:
            ginibre = row[: dim * dim].reshape(dim, dim) + 1j * row[dim * dim :].reshape(dim, dim)
            q, r = np.linalg.qr(ginibre)
            d = np.diag(r)
            expected.append(q * (d / np.abs(d)))
        np.testing.assert_array_equal(states._haar_unitary_arr(draws, dim), np.array(expected))

    def test_public_samplers_draw_the_same_stream(self):
        rng_a, rng_b = sample_rng(3, 9), sample_rng(3, 9)
        vec = rng_a.standard_normal(16) + 1j * rng_a.standard_normal(16)
        block = (vec / np.linalg.norm(vec)).reshape(4, 4)
        np.testing.assert_array_equal(random_mixed_state(2, seed=rng_b).matrix, block @ block.conj().T)
        assert rng_a.standard_normal() == rng_b.standard_normal()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_induced_states_and_purity_match_single(self, rng, n):
        kets = states._haar_arr(rng.standard_normal((40, 2 ** (2 * n + 1))))
        mats = states._induced_arr(kets, n)
        for ket, mat in zip(kets, mats):
            block = ket.reshape(2**n, -1)
            np.testing.assert_array_equal(mat, block @ block.conj().T)
        np.testing.assert_array_equal(states._purity_arr(mats), [purity(m) for m in mats])

    def test_pauli_reconstruction_matches_single(self, rng):
        mats = states._induced_arr(states._haar_arr(rng.standard_normal((40, 32))), 2)
        a, b, T = states._pauli_arr(mats)
        rebuilt = states._reconstruct_arr(a, b, T)
        for k, mat in enumerate(mats):
            decomp = pauli_decomposition(mat)
            for stacked, single in ((a, decomp.a), (b, decomp.b), (T, decomp.T)):
                np.testing.assert_array_equal(stacked[k], single)
            np.testing.assert_array_equal(rebuilt[k], decomp.reconstruct())

    def test_kron_matches_numpy(self, rng):
        x = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
        y = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        np.testing.assert_array_equal(states._kron_arr(x, y), np.array([np.kron(p, q) for p, q in zip(x, y)]))
        np.testing.assert_array_equal(states._kron_arr(np.eye(2), y[0]), np.kron(np.eye(2), y[0]))

    @pytest.mark.parametrize("max_terms", range(1, 7))
    def test_separable_rows_match_reference_sampler(self, max_terms):
        # Stacked rows, one per stream, as the suite draws and reduces them.
        rows = np.empty((200, states._separable_width(max_terms)))
        for i, rng in sample_streams(11, 0, 200):
            states._draw_separable(rng, rows[i])
        mats = states._separable_arr(rows)
        for i, rng in sample_streams(11, 0, 200):
            want = _ref_separable(rng, max_terms)
            np.testing.assert_array_equal(mats[i], want)
            np.testing.assert_array_equal(random_separable_two_qubit(seed=sample_rng(11, i), max_terms=max_terms).matrix, want)


def _ref_separable(rng, max_terms):
    """random_separable_two_qubit before it drew into a row: its draws, then the mixture added term by term."""
    terms = int(rng.integers(1, max_terms + 1))
    weights = rng.dirichlet(np.ones(terms))
    draws = rng.standard_normal((terms, 2, 4))
    mat = np.zeros((4, 4), dtype=complex)
    for t in range(terms):
        kets = states._haar_arr(draws[t])
        vec = np.kron(kets[0], kets[1])
        mat += weights[t] * np.outer(vec, vec.conj())
    return mat


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_pauli_reconstruction_round_trip(seed):
    rho = random_mixed_state(2, seed=seed).matrix
    rebuilt = pauli_decomposition(rho).reconstruct()
    assert np.max(np.abs(rebuilt - rho)) < 1e-10


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_sampled_states_satisfy_invariants(seed):
    QuantumState.from_amplitudes(random_pure_state(3, seed=seed).data)
    QuantumState.from_matrix(random_mixed_state(3, seed=seed).matrix)


def _valid_stack(rng, n_states: int, pure: bool) -> np.ndarray:
    if pure:
        return np.stack([random_pure_state(3, seed=rng).data for _ in range(n_states)])
    return np.stack([random_mixed_state(3, seed=rng).matrix for _ in range(n_states)])


def _single_error(state: np.ndarray) -> str:
    validate = QuantumState.from_amplitudes if state.ndim == 1 else QuantumState.from_matrix
    with pytest.raises(StateValidationError) as info:
        validate(state)
    return str(info.value)


def _corrupt_ket(vec: np.ndarray, how: str) -> np.ndarray:
    vec = vec.copy()
    if how == "nan":
        vec[3] = np.nan
    elif how == "inf":
        vec[0] = complex(0.0, np.inf)
    else:
        vec *= 1.1
    return vec


def _corrupt_matrix(mat: np.ndarray, how: str) -> np.ndarray:
    mat = mat.copy()
    if how == "nan":
        mat[2, 5] = np.nan
    elif how == "inf":
        mat[1, 1] = np.inf
    elif how == "hermitian":
        mat[0, 7] += 1e-3
    elif how == "trace":
        mat *= 0.9
    else:
        # Hermitian with trace 1, and smallest eigenvalue -0.05.
        w, v = np.linalg.eigh(mat)
        w[0] = -0.05
        w[1:] *= 1.05 / np.sum(w[1:])
        mat = (v * w) @ v.conj().T
    return mat


class TestStackedValidator:
    """``states._validate_arr`` is the validator of ``from_amplitudes`` and ``from_matrix``, one stack at a time."""

    @pytest.mark.parametrize("pure", [True, False])
    def test_valid_stacks_pass(self, rng, pure):
        states._validate_arr(_valid_stack(rng, 40, pure), states.DEFAULT_TOL)
        states._validate_arr(np.empty((0, 8) if pure else (0, 8, 8), dtype=complex), states.DEFAULT_TOL)

    @pytest.mark.parametrize("how", ["nan", "inf", "norm"])
    @pytest.mark.parametrize("k", [0, 17, 39])
    def test_ket_stack_reports_the_single_state_message(self, rng, how, k):
        kets = _valid_stack(rng, 40, pure=True)
        kets[k] = _corrupt_ket(kets[k], how)
        with pytest.raises(StateValidationError) as info:
            states._validate_arr(kets, states.DEFAULT_TOL)
        assert str(info.value) == _single_error(kets[k])

    @pytest.mark.parametrize("how", ["nan", "inf", "hermitian", "trace", "psd"])
    @pytest.mark.parametrize("k", [0, 17, 39])
    def test_matrix_stack_reports_the_single_state_message(self, rng, how, k):
        mats = _valid_stack(rng, 40, pure=False)
        mats[k] = _corrupt_matrix(mats[k], how)
        with pytest.raises(StateValidationError) as info:
            states._validate_arr(mats, states.DEFAULT_TOL)
        assert str(info.value) == _single_error(mats[k])

    def test_first_invalid_state_wins(self, rng):
        # Sample 5 fails its last check, sample 20 its first: sample 5 is reported.
        mats = _valid_stack(rng, 30, pure=False)
        mats[5] = _corrupt_matrix(mats[5], "psd")
        mats[20] = _corrupt_matrix(mats[20], "nan")
        with pytest.raises(StateValidationError, match="positive semidefinite"):
            states._validate_arr(mats, states.DEFAULT_TOL)
        kets = _valid_stack(rng, 30, pure=True)
        kets[4] = _corrupt_ket(kets[4], "norm")
        kets[9] = _corrupt_ket(kets[9], "nan")
        with pytest.raises(StateValidationError, match="squared norm"):
            states._validate_arr(kets, states.DEFAULT_TOL)

    def test_non_finite_input_raises_no_warning(self, rng):
        mats = _valid_stack(rng, 3, pure=False)
        mats[1] = _corrupt_matrix(mats[1], "inf")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StateValidationError, match="non-finite"):
                states._validate_arr(mats, states.DEFAULT_TOL)
            with pytest.raises(StateValidationError, match="non-finite"):
                QuantumState.from_amplitudes([np.inf, np.inf, 0.0, 0.0])


class TestQuantumStateValidation:
    def test_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(StateValidationError, match="Hermitian"):
            QuantumState.from_matrix(mat)

    def test_rejects_wrong_trace(self):
        with pytest.raises(StateValidationError, match="trace"):
            QuantumState.from_matrix(np.eye(2) * 0.45)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(StateValidationError, match="positive semidefinite"):
            QuantumState.from_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_trace_message_names_a_small_deviation(self):
        # At six digits the trace itself prints as 1+0j.
        rho = random_mixed_state(2, seed=3).matrix * (1.0 + 1e-7)
        with pytest.raises(StateValidationError, match=r"^matrix has trace 1\+0j, expected 1 \(\|trace - 1\| = 1e-07\)$"):
            QuantumState.from_matrix(rho)

    def test_pauli_decomposition_tol_reaches_raw_array_validation(self):
        rho = random_mixed_state(2, seed=3).matrix * (1.0 + 1e-7)
        with pytest.raises(StateValidationError, match="trace"):
            pauli_decomposition(rho)
        decomp = pauli_decomposition(rho, tol=1e-6)
        np.testing.assert_array_equal(decomp.T, pauli_decomposition(QuantumState(2, rho), tol=1e-6).T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_amplitudes_reject_non_finite(self, bad):
        with pytest.raises(StateValidationError, match="non-finite"):
            QuantumState.from_amplitudes([bad, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_matrix_rejects_non_finite(self, bad):
        mat = np.eye(4, dtype=complex) / 4
        mat[1, 2] = mat[2, 1] = bad
        with pytest.raises(StateValidationError, match="non-finite"):
            QuantumState.from_matrix(mat)

    def test_all_nan_matrix_is_a_validation_error(self):
        with pytest.raises(StateValidationError, match="non-finite"):
            QuantumState.from_matrix(np.full((4, 4), np.nan))

    @pytest.mark.parametrize(
        "fn, shape",
        [
            (ket_to_density, (4,)),
            (purity, (4,)),
            (pauli_decomposition, (4, 4)),
            (normalized_volume, (4, 4)),
            (concurrence, (4, 4)),
        ],
    )
    def test_raw_arrays_reject_non_finite(self, fn, shape):
        with pytest.raises(StateValidationError, match="non-finite"):
            fn(np.full(shape, np.nan))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(StateValidationError):
            QuantumState.from_matrix(np.eye(3) / 3)

    def test_dict_round_trip_pure(self, rng):
        psi = random_pure_state(2, seed=rng)
        again = QuantumState.from_dict(psi.to_dict())
        np.testing.assert_allclose(again.data, psi.data)
        assert again.is_pure

    def test_dict_round_trip_mixed(self, rng):
        rho = random_mixed_state(2, seed=rng)
        again = QuantumState.from_dict(rho.to_dict())
        np.testing.assert_allclose(again.data, rho.data)
        assert not again.is_pure

    def test_dict_rejects_bad_kind(self):
        payload = ghz_state().to_dict() | {"kind": "other"}
        with pytest.raises(StateValidationError, match="kind"):
            QuantumState.from_dict(payload)

    def test_dict_rejects_wrong_length(self):
        payload = ghz_state().to_dict()
        payload["data"] = payload["data"][:-1]
        with pytest.raises(StateValidationError, match="length"):
            QuantumState.from_dict(payload)

    def test_data_is_read_only(self):
        state = ghz_state()
        with pytest.raises(ValueError):
            state.data[0] = 0.0

    def test_rejects_empty_amplitudes(self):
        with pytest.raises(StateValidationError, match="dimension 0"):
            QuantumState.from_amplitudes([])

    @pytest.mark.parametrize("tol", [float("nan"), -1e-9])
    def test_rejects_nan_or_negative_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            QuantumState.from_amplitudes([3.0, 0.0], tol=tol)
        with pytest.raises(ValueError, match="tol"):
            QuantumState.from_matrix(np.eye(2) * 3, tol=tol)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("data", [["a", 0], [0, 0]], "number pairs"),
            ("data", 5, "number pairs"),
            ("data", [[1], [0]], "number pairs"),
            ("data", [[1, 0, 0], [0, 0, 0]], "number pairs"),
            ("data", [[10**400, 0], [0, 0]], "number pairs"),
            ("data", [], "length 0"),
            ("n_qubits", 1.7, "n_qubits must be an integer"),
            ("n_qubits", -1, "n_qubits must be an integer"),
            ("n_qubits", 0, "n_qubits must be an integer"),
            ("n_qubits", True, "n_qubits must be an integer"),
            ("n_qubits", "1", "n_qubits must be an integer"),
            ("n_qubits", 1e9, "n_qubits must be an integer"),
            ("n_qubits", 10**9, "expected 2\\*\\*1000000000"),
        ],
    )
    def test_dict_schema_errors_name_the_problem(self, field, value, message):
        payload = {"n_qubits": 1, "kind": "pure", "data": [[1.0, 0.0], [0.0, 0.0]]}
        payload[field] = value
        with pytest.raises(StateValidationError, match=message):
            QuantumState.from_dict(payload)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_SMALL_NUMBER = st.integers(-2, 2) | st.floats(-2, 2) | st.floats()
_STATE_FIELDS = st.fixed_dictionaries(
    {
        "n_qubits": st.integers(-1, 3) | _JSON,
        "kind": st.sampled_from(["pure", "mixed"]) | _JSON,
        "data": st.lists(st.lists(_SMALL_NUMBER, max_size=3) | _JSON, max_size=17) | _JSON,
    }
)
_VALID_PAYLOADS = st.sampled_from([ghz_state().to_dict(), werner_state().to_dict(), counterexample_state().to_dict()])


@settings(max_examples=300, deadline=None)
@given(payload=_VALID_PAYLOADS | _STATE_FIELDS | _JSON)
def test_state_payload_loads_or_raises_validation_error(payload):
    try:
        state = QuantumState.from_dict(payload)
    except StateValidationError:
        return
    assert state.data.shape[-1] == 2**state.n_qubits
