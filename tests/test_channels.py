import math

import numpy as np
import pytest

from qsteer import channels, ellipsoid, states
from qsteer.channels import (
    KrausChannel,
    apply_local,
    identity_channel,
    isotropic_channel,
    monotonicity_check,
    noisy_w_volume,
    random_channel,
)
from qsteer.ellipsoid import normalized_volume
from qsteer.monogamy import singlet_state, w_family, werner_state
from qsteer.states import (
    StateValidationError,
    bloch_vector,
    partial_trace,
    random_mixed_state,
    random_pure_state,
    spin_correlation_matrix,
)

from conftest import _ref_apply_local_arr


class TestKrausChannel:
    def test_completeness_enforced(self):
        with pytest.raises(ValueError, match="completeness"):
            KrausChannel((0.9 * np.eye(2, dtype=complex),))

    def test_shape_enforced(self):
        with pytest.raises(ValueError, match="2x2"):
            KrausChannel((np.eye(4, dtype=complex),))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            KrausChannel(())

    def test_operators_are_read_only_copies(self):
        k = np.eye(2, dtype=complex)
        channel = KrausChannel((k,))
        assert k.flags.writeable and not channel.operators[0].flags.writeable
        k[0, 0] = 0.0
        assert channel.operators[0][0, 0] == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_operators_rejected(self, bad):
        with pytest.raises(ValueError, match="completeness"):
            KrausChannel((np.full((2, 2), bad, dtype=complex),))
        with pytest.raises(ValueError, match="completeness"):
            KrausChannel((np.eye(2, dtype=complex), np.diag([bad, 0.0]).astype(complex)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_payload_rejected(self, bad):
        payload = identity_channel().to_dict()
        payload["kraus"][0][3] = [bad, 0.0]
        with pytest.raises(ValueError, match="completeness"):
            KrausChannel.from_dict(payload)

    @pytest.mark.parametrize(
        "kraus",
        [
            5,
            [[["1", "0"], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],
            [[1.0, [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],
            [[[True, 0.0], [0.0, 0.0], [0.0, 0.0], [True, 0.0]]],
        ],
        ids=["not a list", "string entry", "bare number", "boolean entry"],
    )
    def test_malformed_payload_raises_value_error(self, kraus):
        # The first three escaped as a TypeError; the boolean one loaded as the identity.
        with pytest.raises(ValueError):
            KrausChannel.from_dict({"kraus": kraus})

    def test_json_round_trip(self, rng):
        channel = random_channel(seed=rng)
        again = KrausChannel.from_dict(channel.to_dict())
        for k1, k2 in zip(channel.operators, again.operators):
            np.testing.assert_allclose(k1, k2, atol=1e-15)

    def test_dict_schema(self):
        payload = identity_channel().to_dict()
        assert list(payload) == ["kraus"]
        assert payload["kraus"] == [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]


class TestIsotropicChannel:
    def test_zero_noise_is_identity(self, rng):
        channel = isotropic_channel(0.0)
        rho = random_mixed_state(1, seed=rng).matrix
        np.testing.assert_allclose(channel.apply(rho), rho, atol=1e-12)

    def test_full_noise_depolarizes(self, rng):
        channel = isotropic_channel(1.0)
        rho = random_mixed_state(1, seed=rng).matrix
        np.testing.assert_allclose(channel.apply(rho), np.eye(2) / 2, atol=1e-12)

    def test_half_noise_on_basis_projector(self):
        out = isotropic_channel(0.5).apply(np.diag([1.0, 0.0]).astype(complex))
        np.testing.assert_allclose(out, np.diag([0.75, 0.25]), atol=1e-12)

    def test_bloch_shrinks_by_one_minus_epsilon(self, rng):
        rho = random_mixed_state(1, seed=rng).matrix
        eps = 0.3
        out = isotropic_channel(eps).apply(rho)
        np.testing.assert_allclose(bloch_vector(out), (1 - eps) * bloch_vector(rho), atol=1e-12)

    @pytest.mark.parametrize("eps", [-0.1, 1.1])
    def test_range(self, eps):
        with pytest.raises(ValueError):
            isotropic_channel(eps)

    def test_stacked_superoperators_match_each_channel(self):
        # fig2 builds all its strengths as one Kraus stack; each must be the bits of the
        # textbook channel, which at eps = 0 is the identity operator alone.
        eps = np.array([0.0, 1e-300, 0.001, 0.005, 0.01, 0.1, 0.3333, 0.5, 1.0])
        stack = channels._superoperator_arr(channels._isotropic_kraus_arr(eps))
        for e, sup in zip(eps.tolist(), stack):
            ops = [math.sqrt(1.0 - 0.75 * e) * np.eye(2, dtype=complex)]
            ops += [math.sqrt(e / 4.0) * pauli for pauli in states.PAULIS] if e > 0.0 else []
            textbook = KrausChannel(tuple(ops))
            channel = isotropic_channel(e)
            assert sup.tobytes() == textbook.superoperator.tobytes() == channel.superoperator.tobytes()
            assert len(channel.operators) == len(ops)
            assert channel.to_dict() == textbook.to_dict()

    @pytest.mark.parametrize("eps", [np.array([0.1]), np.array([0.1, 0.2]), [0.1]])
    def test_scalar_only(self, eps):
        with pytest.raises(TypeError, match="epsilon must be a real scalar"):
            isotropic_channel(eps)


class TestApplyLocal:
    def test_identity_channels_do_nothing(self, rng):
        rho = random_mixed_state(3, seed=rng).matrix
        out = apply_local([identity_channel()] * 3, rho)
        np.testing.assert_allclose(out.data, rho, atol=1e-12)

    def test_isotropic_pair_scales_pauli_data(self, rng):
        rho = random_mixed_state(2, seed=rng).matrix
        eps = 0.2
        out = apply_local([isotropic_channel(eps)] * 2, rho).data
        shrink = 1 - eps
        np.testing.assert_allclose(
            spin_correlation_matrix(out), shrink**2 * spin_correlation_matrix(rho), atol=1e-12
        )
        np.testing.assert_allclose(
            bloch_vector(partial_trace(out, [0])), shrink * bloch_vector(partial_trace(rho, [0])), atol=1e-12
        )
        np.testing.assert_allclose(
            bloch_vector(partial_trace(out, [1])), shrink * bloch_vector(partial_trace(rho, [1])), atol=1e-12
        )

    def test_full_noise_everywhere(self, rng):
        rho = random_pure_state(3, seed=rng)
        out = apply_local([isotropic_channel(1.0)] * 3, rho)
        np.testing.assert_allclose(out.data, np.eye(8) / 8, atol=1e-12)

    def test_channel_count_mismatch(self, rng):
        with pytest.raises(StateValidationError):
            apply_local([identity_channel()], random_mixed_state(2, seed=rng))

    def test_output_is_valid_state(self, rng):
        for _ in range(20):
            rho = random_mixed_state(2, seed=rng).matrix
            out = apply_local([random_channel(seed=rng) for _ in range(2)], rho).data
            assert abs(np.trace(out).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(out)[0] > -1e-9


def dense_kron_apply(channels, rho):
    """Reference: sum over Kraus operators of (1 (x) K (x) 1) rho (1 (x) K (x) 1)^dag, qubit by qubit."""
    n = len(channels)
    out = rho
    for q, channel in enumerate(channels):
        acc = np.zeros_like(out)
        for k in channel.operators:
            full = np.kron(np.kron(np.eye(2**q), k), np.eye(2 ** (n - q - 1)))
            acc += full @ out @ full.conj().T
        out = acc
    return (out + out.conj().T) / 2.0


class TestApplyLocalContraction:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["identity", "isotropic", "random"])
    def test_matches_dense_kronecker_reference(self, rng, n, kind):
        for _ in range(3):
            if kind == "identity":
                chans = [identity_channel()] * n
            elif kind == "isotropic":
                chans = [isotropic_channel(eps) for eps in rng.uniform(0.0, 1.0, n)]
            else:
                chans = [random_channel(seed=rng) for _ in range(n)]
            rho = random_mixed_state(n, seed=rng).matrix
            out = apply_local(chans, rho).data
            assert np.max(np.abs(out - dense_kron_apply(chans, rho))) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3])
    def test_stack_matches_each_state(self, rng, n):
        chans = [random_channel(seed=rng) for _ in range(n)]
        mats = np.stack([random_mixed_state(n, seed=rng).matrix for _ in range(6)]).reshape(2, 3, 2**n, 2**n)
        stacked = apply_local(chans, mats)
        assert isinstance(stacked, np.ndarray)
        assert stacked.shape == mats.shape
        for idx in np.ndindex(2, 3):
            np.testing.assert_array_equal(stacked[idx], apply_local(chans, mats[idx]).data)

    def test_stack_channel_count_mismatch(self, rng):
        mats = np.stack([random_mixed_state(2, seed=rng).matrix for _ in range(3)])
        with pytest.raises(StateValidationError):
            apply_local([identity_channel()] * 3, mats)

    def test_non_square_stack_rejected(self):
        with pytest.raises(StateValidationError):
            apply_local([identity_channel()] * 2, np.zeros((3, 4, 2), dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_stack_rejected(self, rng, bad):
        # A single non-finite 4x4 matrix was rejected, but a stack with one came back as non-finite output.
        mats = np.stack([random_mixed_state(2, seed=rng).matrix for _ in range(3)])
        mats[1, 2, 3] = bad
        with pytest.raises(StateValidationError, match="non-finite"):
            apply_local([identity_channel()] * 2, mats)

    def test_superoperator_is_fixed_at_construction(self, rng):
        channel = random_channel(seed=rng)
        expected = sum(np.einsum("ik,jl->ijkl", k, k.conj()) for k in channel.operators)
        assert channel.superoperator.shape == (2, 2, 2, 2)
        np.testing.assert_allclose(channel.superoperator, expected, atol=1e-15)
        with pytest.raises(ValueError):
            channel.superoperator[0, 0, 0, 0] = 0.0


class TestRandomChannel:
    def test_deterministic(self):
        a = random_channel(seed=11)
        b = random_channel(seed=11)
        for k1, k2 in zip(a.operators, b.operators):
            np.testing.assert_array_equal(k1, k2)

    def test_completeness(self, rng):
        for _ in range(50):
            ops = random_channel(seed=rng).operators
            total = sum(k.conj().T @ k for k in ops)
            assert np.max(np.abs(total - np.eye(2))) < 1e-10

    def test_trace_preserving_action(self, rng):
        channel = random_channel(seed=rng)
        rho = random_mixed_state(1, seed=rng).matrix
        assert abs(np.trace(channel.apply(rho)).real - 1.0) < 1e-12


class TestNoisyWVolume:
    @pytest.mark.parametrize("p", [0.1, 0.3, 1 / math.sqrt(2), 0.9])
    def test_noiseless_value(self, p):
        assert noisy_w_volume(p, 0.0) == pytest.approx(0.25, abs=1e-12)

    def test_full_noise(self):
        assert noisy_w_volume(0.4, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_balanced_weight_small_noise(self):
        # 1 - 2p^2 = 0 removes the denominator correction, leaving
        # 0.25 * 0.99^6 = 0.23537004 (direct evaluation).
        expected = 0.25 * 0.99**6
        assert expected == pytest.approx(0.23537004, abs=1e-7)
        assert noisy_w_volume(1 / math.sqrt(2), 0.01) == pytest.approx(expected, abs=1e-12)

    def test_matches_direct_channel_application(self):
        for p in (0.2, 0.5, 0.8):
            for eps in (0.0, 0.01, 0.3):
                noisy = apply_local([isotropic_channel(eps)] * 3, w_family(p))
                numeric = normalized_volume(partial_trace(noisy, [0, 1]))
                assert noisy_w_volume(p, eps) == pytest.approx(numeric, abs=1e-9)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            noisy_w_volume(0.0, 0.1)
        with pytest.raises(ValueError):
            noisy_w_volume(0.5, -0.2)
        with pytest.raises(ValueError, match="p must"):
            noisy_w_volume(math.nan, 0.1)
        with pytest.raises(ValueError, match="epsilon must"):
            noisy_w_volume(0.5, math.nan)

    @pytest.mark.parametrize("p", [1e-9, 5e-9, 1e-320])
    def test_denominator_that_rounds_to_zero_raises(self, p):
        # At epsilon = 0, 1 - 2 p^2 rounds to 1: unchecked, the form gives inf (1e-9) or NaN (1e-320).
        with pytest.raises(ValueError, match=rf"p = {p!r}, epsilon = 0.0: its denominator"):
            noisy_w_volume(p, 0.0)
        # The same p under any noise, and a small p the form still resolves, keep their values.
        assert noisy_w_volume(p, 0.01) >= 0.0
        assert noisy_w_volume(1e-5, 0.0) == pytest.approx(0.25, abs=1e-6)

    def test_array_form_names_the_first_undefined_entry(self):
        with pytest.raises(ValueError, match=r"p = 1e-09, epsilon = 0.0:"):
            channels._noisy_w_volume_arr(np.array([0.5, 1e-9, 2e-9]), np.array([[0.1], [0.0]]))

    @pytest.mark.parametrize("p, eps", [(np.array([0.2, 0.3]), 0.1), (0.5, np.array([0.1])), (np.array(0.5), [0.1])])
    def test_scalars_only(self, p, eps):
        with pytest.raises(TypeError, match="must be a real scalar"):
            noisy_w_volume(p, eps)

    def test_zero_dimensional_array_is_a_scalar(self):
        assert noisy_w_volume(np.array(0.5), np.float64(0.1)) == noisy_w_volume(0.5, 0.1)


class TestMonotonicity:
    def test_identity_channels_keep_volume(self, rng):
        rho = random_mixed_state(2, seed=rng).matrix
        v_before, v_after, ok = monotonicity_check(rho, [identity_channel()] * 2)
        assert ok
        assert v_after == pytest.approx(v_before, abs=1e-12)

    def test_bell_with_isotropic_noise(self):
        v_before, v_after, ok = monotonicity_check(singlet_state(), [isotropic_channel(0.2)] * 2)
        assert ok
        assert v_before == pytest.approx(1.0, abs=1e-12)
        # T scales by 0.8 on each side, so the volume picks up 0.8^6.
        assert v_after == pytest.approx(0.8**6, abs=1e-9)

    def test_random_draws_never_increase_volume(self, rng):
        for _ in range(100):
            rho = random_mixed_state(2, seed=rng).matrix
            pair = [random_channel(seed=rng) for _ in range(2)]
            _, _, ok = monotonicity_check(rho, pair)
            assert ok

    def test_noisy_pure3_keeps_sqrt_monogamy(self, rng):
        for _ in range(25):
            psi = random_pure_state(3, seed=rng)
            noisy = apply_local([random_channel(seed=rng) for _ in range(3)], psi)
            v_b = normalized_volume(partial_trace(noisy, [0, 1]))
            v_c = normalized_volume(partial_trace(noisy, [0, 2]))
            assert math.sqrt(v_b) + math.sqrt(v_c) <= 1 + 1e-9

    def test_werner_reduction_two_qubit_guard(self):
        with pytest.raises(StateValidationError):
            monotonicity_check(w_family(0.5), [identity_channel()] * 3)


    @pytest.mark.parametrize("tol", [math.nan, -1e-9, math.inf, 1.0])
    def test_tol_validated(self, tol):
        with pytest.raises(ValueError, match="tol must be"):
            monotonicity_check(werner_state(), [identity_channel()] * 2, tol=tol)


class TestStackedKernels:
    """Each stacked kernel equals its per-channel or per-state form bit for bit."""

    def test_random_kraus_and_superoperators(self):
        draws = np.array([states.sample_rng(5, i).standard_normal(128) for i in range(30)])
        kraus = channels._random_kraus_arr(draws)
        sups = channels._superoperator_arr(kraus)
        for i in range(30):
            channel = random_channel(seed=states.sample_rng(5, i))
            np.testing.assert_array_equal(kraus[i], np.array(channel.operators))
            np.testing.assert_array_equal(sups[i], channel.superoperator)

    def test_random_kraus_matches_full_qr(self, rng):
        # The 8x2 block's QR must give the first two columns of the full 8x8
        # QR, phase-fixed by the full R's diagonal, byte for byte.
        draws = rng.standard_normal((2000, 128))
        ginibre = draws[:, :64].reshape(-1, 8, 8) + 1j * draws[:, 64:].reshape(-1, 8, 8)
        q, r = np.linalg.qr(ginibre)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        expected = (q * (d / np.abs(d))[:, None, :])[:, :, :2].reshape(-1, 4, 2, 2)
        assert channels._random_kraus_arr(draws).tobytes() == expected.tobytes()

    def test_completeness_is_tested_per_channel(self, rng):
        kraus = channels._random_kraus_arr(rng.standard_normal((6, 128)))
        kraus[4, 0] *= 1.001
        with pytest.raises(ValueError, match="completeness"):
            channels._superoperator_arr(kraus)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_channel_in_stack_rejected(self, rng, bad):
        kraus = channels._random_kraus_arr(rng.standard_normal((6, 128)))
        kraus[2, 1, 0, 0] = bad
        with pytest.raises(ValueError, match="completeness"):
            channels._superoperator_arr(kraus)

    @pytest.mark.parametrize("n", [2, 3])
    def test_per_state_superoperators(self, rng, n):
        count = 20
        mats = states._induced_arr(states._haar_arr(rng.standard_normal((count, 2 ** (2 * n + 1)))), n)
        kraus = channels._random_kraus_arr(rng.standard_normal((count, n, 128)))
        sups = channels._superoperator_arr(kraus)
        out = channels._apply_local_arr([sups[:, q] for q in range(n)], mats, n)
        for k, mat in enumerate(mats):
            per_state = [KrausChannel(tuple(kraus[k, q])) for q in range(n)]
            np.testing.assert_array_equal(out[k], apply_local(per_state, mat).data)


def _stacks(rng, n, count):
    """``count`` induced n-qubit densities and one random superoperator per density and qubit."""
    mats = states._induced_arr(states._haar_arr(rng.standard_normal((count, 2 ** (2 * n + 1)))), n)
    sups = channels._superoperator_arr(channels._random_kraus_arr(rng.standard_normal((count, n, 128))))
    return mats, sups


class TestOneStackedProduct:
    """``_apply_local_arr`` matches the two-branch kernel it replaced bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("case", ["single matrix", "(2, 5) stack", "one per matrix", "strengths"])
    def test_matches_two_branch_reference(self, rng, n, case):
        mats, sups = _stacks(rng, n, 10)
        shared = [sups[0, q] for q in range(n)]
        if case == "single matrix":
            got, want = channels._apply_local_arr(shared, mats[0], n), _ref_apply_local_arr(shared, mats[0], n)
        elif case == "(2, 5) stack":
            stack = mats.reshape(2, 5, 2**n, 2**n)
            got, want = channels._apply_local_arr(shared, stack, n), _ref_apply_local_arr(shared, stack, n)
        elif case == "one per matrix":
            per = [sups[:, q] for q in range(n)]
            got, want = channels._apply_local_arr(per, mats, n), _ref_apply_local_arr(per, mats, n)
        else:
            # Every strength's channel on every matrix in one call, against one call per strength.
            noise = channels._superoperator_arr(channels._isotropic_kraus_arr(np.array([0.0, 0.001, 0.1, 1.0])))
            got = channels._apply_local_arr([noise] * n, mats[None], n)
            want = np.stack([_ref_apply_local_arr([sup] * n, mats, n) for sup in noise])
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _bloch_matrix(kraus: np.ndarray) -> np.ndarray:
    """M[..., j, k] = tr(sigma_j Phi(sigma_k)) / 2 of the channels with Kraus stacks (..., k, 2, 2)."""
    images = np.einsum("...aij,kjl,...aml->...kim", kraus, states.PAULIS, kraus.conj())
    return np.einsum("jmi,...kim->...jk", states.PAULIS, images).real / 2.0


class TestVolumeScalesByBlochDeterminant:
    """V((1 (x) Phi) rho) = |det M_Phi| V(rho): Phi maps Bob's steered ellipsoid by the affine map M r + t."""

    def test_random_channel_on_steered_qubit(self, rng):
        mats, _ = _stacks(rng, 2, 500)
        kraus = channels._random_kraus_arr(rng.standard_normal((500, 128)))
        sups = [identity_channel().superoperator, channels._superoperator_arr(kraus)]
        after = ellipsoid._volume_arr(channels._apply_local_arr(sups, mats, 2))
        scale = np.abs(np.linalg.det(_bloch_matrix(kraus)))
        assert np.max(np.abs(after - scale * ellipsoid._volume_arr(mats))) <= 1e-12

    def test_isotropic_determinant(self):
        eps = np.linspace(0.0, 1.0, 101)
        det = np.linalg.det(_bloch_matrix(channels._isotropic_kraus_arr(eps)))
        assert np.max(np.abs(np.abs(det) - (1.0 - eps) ** 3)) <= 1e-12
