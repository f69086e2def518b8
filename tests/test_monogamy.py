import itertools
import math

import numpy as np
import pytest

from qsteer import ellipsoid, experiments, monogamy, states
from qsteer.ellipsoid import canonical_form, normalized_volume
from qsteer.monogamy import (
    SloccClass,
    ckw_residual,
    concurrence,
    concurrence_volume_residual,
    counterexample_state,
    ghz_family,
    ghz_state,
    l_bcd,
    max_volume_state,
    pairwise_correlation_sum,
    polygon_residual,
    purified_counterexample,
    purity_identity_residuals_3q,
    purity_identity_residuals_4q,
    singlet_state,
    slocc_classify,
    three_tangle,
    volume_monogamy_report,
    w_family,
    w_state,
    werner_state,
    volume_monogamy_report as report,
)
from qsteer.states import (
    StateValidationError,
    bloch_vector,
    partial_trace,
    pauli_coefficient,
    random_mixed_state,
    random_pure_state,
)

from conftest import _ref_ket_trace, _ref_partial_trace_arr, random_single_qubit_density

COUNTEREXAMPLE_SQRT_LHS = 2.0 * math.sqrt(8.0 / 27.0)  # = 1.08866...


def random_pure_product_3q(rng):
    vecs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
    out = np.kron(np.kron(vecs[0], vecs[1]), vecs[2])
    return out / np.linalg.norm(out)


class TestVolumeMonogamyReport:
    def test_counterexample_exceeds_sqrt_bound(self):
        rep = volume_monogamy_report(counterexample_state(), hub=0)
        assert rep.volumes[0] == pytest.approx(8 / 27, abs=1e-9)
        assert rep.volumes[1] == pytest.approx(8 / 27, abs=1e-9)
        assert rep.sqrt_lhs == pytest.approx(COUNTEREXAMPLE_SQRT_LHS, abs=1e-9)
        assert rep.sqrt_lhs > 1.0
        # (8/27)^(2/3) = 4/9, so the 2/3-power sum stays below its bound.
        assert rep.two_thirds_lhs == pytest.approx(8 / 9, abs=1e-9)

    @pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 12)[1:-1])
    def test_w_family_saturates_sqrt_bound(self, p):
        rep = volume_monogamy_report(w_family(p), hub=0)
        assert rep.sqrt_lhs == pytest.approx(1.0, abs=1e-9)

    def test_fully_product_state(self, rng):
        rep = volume_monogamy_report(random_pure_product_3q(rng), hub=0)
        assert all(v == pytest.approx(0.0, abs=1e-12) for v in rep.volumes)
        assert rep.sqrt_lhs == pytest.approx(0.0, abs=1e-6)
        assert rep.two_thirds_lhs == pytest.approx(0.0, abs=1e-6)

    def test_aggregates(self, rng):
        rho = random_mixed_state(4, seed=rng)
        rep = volume_monogamy_report(rho, hub=1)
        assert len(rep.volumes) == 3
        assert rep.n_bound == pytest.approx(1.5)
        assert rep.mean_volume == pytest.approx(np.mean(rep.volumes))
        assert rep.sqrt_lhs == pytest.approx(sum(math.sqrt(v) for v in rep.volumes))

    # The 9 hub volumes of random_pure_state(10, seed=13), as taken on an AVX-512 host under numpy's
    # default kernels.  Other kernels give some of them other last bits, and then np.sum can round alike.
    TEN_QUBIT_VOLUMES = (
        "0x1.3ded7f14d7816p-14", "0x1.efc8f1f0ff16fp-18", "0x1.f11b6a0f3070dp-16",
        "0x1.fccb56bec45cbp-15", "0x1.5ea598a40172fp-18", "0x1.929f90c4ef795p-14",
        "0x1.6d6142d58a805p-17", "0x1.ae177d611f5c5p-16", "0x1.eee5668a6bad6p-15",
    )

    def test_ten_qubit_sums_add_the_pairs_in_order(self):
        # np.sum adds 8 or more entries pairwise; on these volumes each sum rounds differently that way.
        volumes = np.array([float.fromhex(v) for v in self.TEN_QUBIT_VOLUMES])
        witness = monogamy.MonogamyReport._from_volumes(0, volumes, 10)
        assert np.sum(np.sqrt(volumes)) != witness.sqrt_lhs
        assert np.sum(np.float_power(volumes, 2.0 / 3.0)) != witness.two_thirds_lhs
        assert np.mean(volumes) != witness.mean_volume
        for rep in (witness, volume_monogamy_report(random_pure_state(10, seed=13))):
            assert len(rep.volumes) == 9
            assert rep.sqrt_lhs == sum(math.sqrt(v) for v in rep.volumes)
            assert rep.two_thirds_lhs == sum(v ** (2.0 / 3.0) for v in rep.volumes)
            assert rep.mean_volume == sum(rep.volumes) / len(rep.volumes)

    def test_ten_qubit_mean_equals_the_batched_mean(self):
        # np.mean adds one state's 9 pairs pairwise but a batch's in order; the report must not care.
        kets = np.stack([random_pure_state(10, seed=seed).data for seed in range(8, 24)])
        batched = monogamy._mean_volume(monogamy._hub_volumes(kets, 10, 0, pure=True))
        for ket, mean in zip(kets, batched):
            assert volume_monogamy_report(ket).mean_volume.hex() == float(mean).hex()

    def test_two_qubit_state_rejected(self):
        with pytest.raises(StateValidationError):
            volume_monogamy_report(werner_state(), hub=0)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_ket_report_equals_density_report_bit_for_bit(self, n):
        # A ket's pairs are traced from the ket itself, never from |psi><psi|.
        for seed in range(10):
            ket = random_pure_state(n, seed=[seed, n])
            for hub in (0, n - 1):
                from_density = volume_monogamy_report(states.ket_to_density(ket), hub)
                # repr prints each float exactly, so equal reprs are equal bits.
                assert repr(volume_monogamy_report(ket, hub)) == repr(from_density)

    def test_report_dict_schema(self):
        payload = volume_monogamy_report(w_state()).to_dict()
        assert set(payload) == {"hub", "volumes", "sqrt_lhs", "two_thirds_lhs", "n_bound", "mean_volume"}


class TestPairwiseCorrelationSum:
    def test_pure_three_qubit_identity(self, rng):
        for _ in range(20):
            psi = random_pure_state(3, seed=rng)
            assert pairwise_correlation_sum(psi) == pytest.approx(3.0, abs=1e-9)

    def test_maximally_mixed(self):
        assert pairwise_correlation_sum(np.eye(8) / 8) == pytest.approx(0.0, abs=1e-12)

    def test_product_of_three_pure_qubits(self, rng):
        # Each pair has T equal to the outer product of two unit Bloch
        # vectors, contributing exactly 1.
        assert pairwise_correlation_sum(random_pure_product_3q(rng)) == pytest.approx(3.0, abs=1e-9)

    def test_explicit_pair_subset(self, rng):
        psi = random_pure_state(3, seed=rng)
        total = pairwise_correlation_sum(psi)
        partial = pairwise_correlation_sum(psi, pairs=[(0, 1), (0, 2)])
        rest = pairwise_correlation_sum(psi, pairs=[(1, 2)])
        assert total == pytest.approx(partial + rest, abs=1e-12)

    def test_bad_pair(self):
        with pytest.raises(StateValidationError):
            pairwise_correlation_sum(ghz_state(), pairs=[(0, 3)])


class TestPurityIdentities:
    @pytest.mark.parametrize("state", [ghz_state(), w_state()])
    def test_named_three_qubit_states(self, state):
        np.testing.assert_allclose(purity_identity_residuals_3q(state), np.zeros(3), atol=1e-12)

    def test_random_pure_three_qubit(self, rng):
        for _ in range(20):
            res = purity_identity_residuals_3q(random_pure_state(3, seed=rng))
            assert np.max(np.abs(res)) < 1e-9

    def test_mixed_input_rejected(self):
        with pytest.raises(StateValidationError):
            purity_identity_residuals_3q(counterexample_state())

    def test_basis_state_four_qubit(self):
        vec = np.zeros(16)
        vec[0] = 1.0
        np.testing.assert_allclose(purity_identity_residuals_4q(vec), np.zeros(4), atol=1e-12)

    def test_ghz4(self):
        np.testing.assert_allclose(purity_identity_residuals_4q(ghz_state(4)), np.zeros(4), atol=1e-12)

    def test_random_pure_four_qubit(self, rng):
        for _ in range(20):
            res = purity_identity_residuals_4q(random_pure_state(4, seed=rng))
            assert np.max(np.abs(res)) < 1e-9

    def test_mixed_four_qubit_rejected(self, rng):
        with pytest.raises(StateValidationError):
            purity_identity_residuals_4q(random_mixed_state(4, seed=rng))


class TestLBcd:
    def test_maximally_mixed(self):
        assert l_bcd(np.eye(16) / 16) == pytest.approx(0.0, abs=1e-12)

    def test_ghz3_on_trailing_qubits(self):
        vec = np.kron(np.array([1.0, 0.0]), ghz_state(3).data)
        value = l_bcd(vec)
        # Brute-force oracle over all 27 labelled coefficients.
        oracle = sum(
            pauli_coefficient(vec, [0, l, m, n]) ** 2
            for l in (1, 2, 3)
            for m in (1, 2, 3)
            for n in (1, 2, 3)
        )
        assert value == pytest.approx(oracle, abs=1e-12)
        assert value >= 1.0
        # xxx, xyy, yxy, yyx terms each contribute 1.
        assert value == pytest.approx(4.0, abs=1e-9)

    def test_product_of_four_pure_qubits(self, rng):
        vecs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(4)]
        out = vecs[0]
        for v in vecs[1:]:
            out = np.kron(out, v)
        out /= np.linalg.norm(out)
        # Coefficients factorize, so the sum is b^2 c^2 d^2 = 1.
        assert l_bcd(out) == pytest.approx(1.0, abs=1e-9)

    def test_wrong_size(self):
        with pytest.raises(StateValidationError):
            l_bcd(ghz_state(3))


class TestPolygonResidual:
    def test_fully_product_saturates(self, rng):
        # a = b = c = 1, so b + c = 1 + a exactly.
        assert polygon_residual(random_pure_product_3q(rng)) == pytest.approx(0.0, abs=1e-9)

    def test_ghz(self):
        assert polygon_residual(ghz_state()) == pytest.approx(1.0, abs=1e-12)

    def test_w(self):
        assert polygon_residual(w_state()) == pytest.approx(2 / 3, abs=1e-12)

    def test_nonnegative_for_random_pure(self, rng):
        for _ in range(50):
            assert polygon_residual(random_pure_state(3, seed=rng)) >= -1e-9

    def test_mixed_rejected(self):
        with pytest.raises(StateValidationError):
            polygon_residual(counterexample_state())


class TestConcurrence:
    def test_bell_state(self):
        assert concurrence(singlet_state()) == pytest.approx(1.0, abs=1e-9)

    def test_product_state(self, rng):
        rho = np.kron(random_single_qubit_density(rng), random_single_qubit_density(rng))
        assert concurrence(rho) == pytest.approx(0.0, abs=1e-9)

    def test_werner(self):
        # Wootters formula gives C = (3w - 1)/2 = 1/2 at singlet weight 2/3.
        assert concurrence(werner_state()) == pytest.approx(0.5, abs=1e-9)

    def test_range(self, rng):
        for _ in range(50):
            c = concurrence(random_mixed_state(2, seed=rng))
            assert 0.0 <= c <= 1.0 + 1e-12

    def test_wrong_size(self):
        with pytest.raises(StateValidationError):
            concurrence(ghz_state())


class TestVolumeConcurrenceBounds:
    def test_bell_saturates(self):
        assert concurrence_volume_residual(singlet_state().matrix) == pytest.approx(0.0, abs=1e-9)

    def test_product_state(self, rng):
        rho = np.kron(random_single_qubit_density(rng), random_single_qubit_density(rng))
        assert concurrence_volume_residual(rho) == pytest.approx(0.0, abs=1e-7)

    def test_random_mixed_nonnegative(self, rng):
        for _ in range(100):
            assert concurrence_volume_residual(random_mixed_state(2, seed=rng).matrix) >= -1e-9

    def test_ckw_bell_times_free_qubit(self):
        vec = np.kron(singlet_state().data, np.array([1.0, 0.0]))
        assert ckw_residual(vec) == pytest.approx(0.0, abs=1e-9)

    def test_ckw_ghz(self):
        assert ckw_residual(ghz_state()) == pytest.approx(1.0, abs=1e-9)

    def test_ckw_random_mixed_nonnegative(self, rng):
        for _ in range(100):
            assert ckw_residual(random_mixed_state(3, seed=rng).matrix) >= -1e-9


class TestThreeTangle:
    def test_ghz(self):
        assert three_tangle(ghz_state()) == pytest.approx(1.0, abs=1e-9)

    def test_w(self):
        assert three_tangle(w_state()) == pytest.approx(0.0, abs=1e-12)

    def test_fully_product(self, rng):
        assert three_tangle(random_pure_product_3q(rng)) == pytest.approx(0.0, abs=1e-9)

    def test_mixed_rejected(self):
        with pytest.raises(StateValidationError):
            three_tangle(counterexample_state())

    def test_lower_bound_from_volumes(self, rng):
        for _ in range(50):
            psi = random_pure_state(3, seed=rng)
            rep = volume_monogamy_report(psi)
            a = bloch_vector(partial_trace(psi, [0]))
            bound = (1.0 - a @ a) * (1.0 - rep.sqrt_lhs)
            assert three_tangle(psi) >= bound - 1e-9


class TestSloccClassification:
    def test_w_state(self):
        assert slocc_classify(w_state()) is SloccClass.W_CLASS

    def test_ghz_state(self):
        assert slocc_classify(ghz_state()) is SloccClass.GHZ_CLASS

    def test_fully_product(self, rng):
        assert slocc_classify(random_pure_product_3q(rng)) is SloccClass.FULLY_PRODUCT

    def test_bipartite_classes(self, rng):
        phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi /= np.linalg.norm(phi)
        bell = singlet_state().data
        assert slocc_classify(np.kron(bell, phi)) is SloccClass.BIPARTITE_AB_C
        assert slocc_classify(np.kron(phi, bell)) is SloccClass.BIPARTITE_A_BC
        crossed = np.einsum("ac,b->abc", bell.reshape(2, 2), phi).reshape(8)
        assert slocc_classify(crossed) is SloccClass.BIPARTITE_AC_B

    def test_max_volume_endpoints_are_bipartite(self):
        assert slocc_classify(max_volume_state(0.0)) is SloccClass.BIPARTITE_AB_C
        assert slocc_classify(max_volume_state(math.pi / 2)) is SloccClass.BIPARTITE_AC_B

    def test_max_volume_interior_is_w_class(self):
        for theta in np.linspace(0.0, math.pi / 2, 9)[1:-1]:
            assert slocc_classify(max_volume_state(theta)) is SloccClass.W_CLASS

    def test_mixed_rejected(self):
        with pytest.raises(StateValidationError):
            slocc_classify(counterexample_state())


class TestFamilies:
    def test_w_family_at_symmetric_weight_is_w_state(self):
        np.testing.assert_allclose(w_family(1 / math.sqrt(3)).data, w_state().data, atol=1e-12)

    @pytest.mark.parametrize("p", [-0.5, 0.0, 1.0, 2.0, math.nan])
    def test_w_family_range(self, p):
        with pytest.raises(ValueError):
            w_family(p)

    def test_ghz_family_equal_angles(self):
        alpha = 0.4
        state, (x, y) = ghz_family(alpha, alpha)
        assert x == pytest.approx(math.cos(2 * alpha) ** 2, abs=1e-12)
        assert y == pytest.approx(0.0, abs=1e-12)
        rep = volume_monogamy_report(state)
        assert rep.volumes[0] == pytest.approx(x, abs=1e-9)
        assert rep.volumes[1] == pytest.approx(y, abs=1e-9)

    def test_ghz_family_eighth_pi(self):
        _, (x, y) = ghz_family(math.pi / 8, math.pi / 8)
        assert x == pytest.approx(0.5, abs=1e-12)
        assert y == pytest.approx(0.0, abs=1e-12)

    def test_ghz_family_is_canonical(self, rng):
        state, _ = ghz_family(rng.uniform(0.1, 1.4), rng.uniform(0.1, 1.4))
        a = bloch_vector(partial_trace(state, [0]))
        assert np.linalg.norm(a) < 1e-12

    @pytest.mark.parametrize(
        "angles", [(0.0, 0.5), (0.5, 0.0), (math.pi / 2, 0.5), (0.5, math.pi / 2), (math.nan, 0.5), (0.5, math.nan)]
    )
    def test_ghz_family_range(self, angles):
        with pytest.raises(ValueError):
            ghz_family(*angles)

    @pytest.mark.parametrize("n_qubits", [3.0, 2.5, "3"])
    def test_ghz_state_rejects_non_integers(self, n_qubits):
        # ghz_state(3.0) used to die inside numpy's zeros().
        with pytest.raises(TypeError, match="n_qubits must be an integer"):
            ghz_state(n_qubits)

    def test_ghz_state_range_and_numpy_integers(self):
        with pytest.raises(StateValidationError, match="at least 2 qubits"):
            ghz_state(1)
        np.testing.assert_array_equal(ghz_state(np.int64(4)).data, ghz_state(4).data)

    def test_max_volume_range(self):
        with pytest.raises(ValueError):
            max_volume_state(-0.1)
        with pytest.raises(ValueError, match=r"theta must lie in \[0, pi/2\], got 1.6"):
            max_volume_state(1.6)
        with pytest.raises(ValueError, match="got nan"):
            max_volume_state(math.nan)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: w_family(np.array([0.2, 0.3])),
            lambda: w_family(np.array([0.2])),
            lambda: w_family([0.5]),
            lambda: max_volume_state(np.array([0.1])),
            lambda: max_volume_state(np.array([0.1, 0.2])),
            lambda: ghz_family(np.array([0.2, 0.3]), 0.4),
            lambda: ghz_family(0.2, np.array([0.4])),
        ],
    )
    def test_builders_take_scalars_only(self, build):
        with pytest.raises(TypeError, match="must be a real scalar"):
            build()

    def test_builders_accept_numpy_scalars(self):
        np.testing.assert_array_equal(w_family(np.float64(0.3)).data, w_family(0.3).data)
        np.testing.assert_array_equal(max_volume_state(np.array(0.7)).data, max_volume_state(0.7).data)
        state, pred = ghz_family(np.float32(0.5), np.array(0.25))
        assert state.data.shape == (8,) and pred == ghz_family(float(np.float32(0.5)), 0.25)[1]

    def test_purified_counterexample_traces_back(self):
        pure4 = purified_counterexample()
        reduced = partial_trace(pure4, [0, 1, 2]).data
        np.testing.assert_allclose(reduced, counterexample_state().matrix, atol=1e-12)
        assert report(pure4, hub=0).sqrt_lhs > 1.0


class TestCanonicalVolumeEqualities:
    def test_volumes_equal_partner_bloch_norms(self, rng):
        # After filtering on qubit 0, v_{B|A} equals |c|^2 of qubit 2 and
        # v_{C|A} equals |b|^2 of qubit 1.
        for _ in range(25):
            canon = canonical_form(random_pure_state(3, seed=rng), steering_qubit=0)
            v_b = normalized_volume(partial_trace(canon, [0, 1]))
            v_c = normalized_volume(partial_trace(canon, [0, 2]))
            b = bloch_vector(partial_trace(canon, [1]))
            c = bloch_vector(partial_trace(canon, [2]))
            assert v_b == pytest.approx(c @ c, abs=1e-9)
            assert v_c == pytest.approx(b @ b, abs=1e-9)

    def test_sqrt_monogamy_for_random_pure(self, rng):
        for _ in range(100):
            rep = volume_monogamy_report(random_pure_state(3, seed=rng))
            assert rep.sqrt_lhs <= 1.0 + 1e-9


_SPIN_FLIP = np.kron(states.SIGMA_Y, states.SIGMA_Y)


def _ref_wootters(mat, rank_cap=None):
    """Descending sqrt-eigenvalues of rho rho_tilde by a general eigensolver: the formula the factor kernel replaced."""
    flipped = _SPIN_FLIP @ mat.conj() @ _SPIN_FLIP
    mu = np.sort(np.linalg.eigvals(mat @ flipped).real, axis=-1)[..., ::-1]
    top = mu[..., :1]
    mu = np.where((top <= 0.0) | (mu < top * 1e-12), 0.0, mu)
    if rank_cap is not None:
        mu[..., rank_cap:] = 0.0
    return np.sqrt(mu)


def _ref_concurrence(mat, rank_cap=None):
    lam = _ref_wootters(mat, rank_cap)
    c = lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]
    return np.where(c > 0.0, c, 0.0)


def _ref_ckw(mat, hub=0, rank_cap=None):
    """4 det(rho_hub) - C^2 - C^2 with the eigensolver concurrence; rank_cap=2 gave the 3-tangle of pure states."""
    total = 4.0 * np.linalg.det(states._partial_trace_arr(mat, [hub], 3)).real
    for other in (q for q in range(3) if q != hub):
        total = total - _ref_concurrence(states._partial_trace_arr(mat, [hub, other], 3), rank_cap) ** 2
    return total


def _kets(rng, n_qubits, count=40):
    return states._haar_arr(rng.standard_normal((count, 2 ** (n_qubits + 1))))


def _stack(rng, n, pure, count=40):
    if pure:
        return states._densities(_kets(rng, n, count))
    return states._induced_arr(_kets(rng, 2 * n, count), n)


def _factors(rng, n, count=40):
    """Induced n-qubit states and their factors: Haar kets of n system and n ancilla qubits as 2**n x 2**n."""
    kets = _kets(rng, 2 * n, count)
    return states._induced_arr(kets, n), kets.reshape(count, 2**n, 2**n)


# --- references: the per-subset loops that the stacked helpers replaced, verbatim ---


def _ref_hub_volumes(mat: np.ndarray, n: int, hub: int, trace=None) -> list[np.ndarray]:
    trace = trace or _ref_partial_trace_arr
    return [
        ellipsoid._volume_from_abT(*ellipsoid._steering_abT(trace(mat, [hub, other], n), 0))
        for other in range(n)
        if other != hub
    ]


def _ref_corr_strength(mat: np.ndarray, n: int, pair, trace=None):
    T = states._spin_corr_arr((trace or _ref_partial_trace_arr)(mat, list(pair), n))
    return np.sum(T * T, axis=(-2, -1))


def _ref_bloch_norms_sq(mat: np.ndarray, n: int, qubits) -> np.ndarray:
    out = np.empty((len(qubits),) + mat.shape[:-2])
    for k, q in enumerate(qubits):
        a = states._bloch_arr(_ref_partial_trace_arr(mat, [q], n))
        out[k] = (a[..., None, :] @ a[..., :, None])[..., 0, 0]
    return out


class TestStackedSubsets:
    """Each helper that reduces to a stack of qubit subsets equals its per-subset loop bit for bit."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_hub_volumes(self, rng, n):
        kets = _kets(rng, n)
        for hub in range(n):
            for mats in (states._densities(kets), _stack(rng, n, pure=False)):
                got = monogamy._hub_volumes(mats, n, hub)
                assert got.shape == (n - 1, len(mats))
                assert got.tobytes() == np.stack(_ref_hub_volumes(mats, n, hub)).tobytes()
            got = monogamy._hub_volumes(kets, n, hub, pure=True)
            assert got.tobytes() == np.stack(_ref_hub_volumes(kets, n, hub, _ref_ket_trace)).tobytes()

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_corr_strengths(self, rng, n):
        kets = _kets(rng, n)
        pairs = list(itertools.permutations(range(n), 2))
        for mats in (states._densities(kets), _stack(rng, n, pure=False)):
            want = [_ref_corr_strength(mats, n, pair) for pair in pairs]
            assert monogamy._corr_strengths(mats, n, pairs).tobytes() == np.stack(want).tobytes()
            assert monogamy._correlation_sum_arr(mats, n, pairs).tobytes() == sum(want).tobytes()
        want = [_ref_corr_strength(kets, n, pair, _ref_ket_trace) for pair in pairs]
        assert monogamy._corr_strengths(kets, n, pairs, pure=True).tobytes() == np.stack(want).tobytes()
        assert monogamy._correlation_sum_arr(kets, n, pairs, pure=True).tobytes() == sum(want).tobytes()

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_bloch_norms_sq(self, rng, n):
        for mats in (_stack(rng, n, pure=True), _stack(rng, n, pure=False)):
            for qubits in (range(n), (n - 1, 0), (1,)):
                got = monogamy._bloch_norms_sq(mats, n, qubits)
                assert got.tobytes() == _ref_bloch_norms_sq(mats, n, qubits).tobytes()


# States per agreement test: the suite's default scale.
_AGREEMENT_STATES = 10_000


class TestWoottersKernel:
    """The factor kernels against the eigensolver formula and against exact values."""

    def test_induced_two_qubit_states_match_eigensolver(self, rng):
        mats, factors = _factors(rng, 2, _AGREEMENT_STATES)
        ref = _ref_concurrence(mats)
        assert np.max(np.abs(monogamy._concurrence_arr(factors) - ref)) <= 1e-11
        assert np.max(np.abs(monogamy._concurrence_arr(monogamy._eigh_factor(mats)) - ref)) <= 1e-11
        np.testing.assert_allclose(monogamy._wootters_lambdas(factors), _ref_wootters(mats), rtol=0, atol=1e-11)

    def test_pure_three_qubit_states_match_eigensolver(self, rng):
        kets = _kets(rng, 3, _AGREEMENT_STATES)
        mats = states._densities(kets)
        ref = _ref_ckw(mats, 0, rank_cap=2)
        assert np.max(np.abs(monogamy._three_tangle_arr(kets) - ref)) <= 1e-11
        # The public functions' ket: the top column of the density's eigh factor.
        assert np.max(np.abs(monogamy._three_tangle_arr(monogamy._eigh_factor(mats)[..., -1]) - ref)) <= 1e-11
        # A pure-state reduction has a 4 x 2 factor; its tau has two Wootters values.
        pair = states._partial_trace_arr(mats, [0, 1], 3)
        got = monogamy._concurrence_arr(kets.reshape(-1, 4, 2))
        assert np.max(np.abs(got - _ref_concurrence(pair, rank_cap=2))) <= 1e-11

    @pytest.mark.parametrize("hub", [0, 1, 2])
    def test_mixed_three_qubit_states_match_eigensolver(self, rng, hub):
        mats, factors = _factors(rng, 3, _AGREEMENT_STATES)
        ref = _ref_ckw(mats, hub)
        assert np.max(np.abs(monogamy._ckw_arr(factors, hub) - ref)) <= 1e-11
        assert np.max(np.abs(monogamy._ckw_arr(monogamy._eigh_factor(mats), hub) - ref)) <= 1e-11

    def test_density_factor_reproduces_the_density(self, rng):
        mats = np.concatenate([_stack(rng, 2, pure=False), _stack(rng, 2, pure=True)])
        factor = monogamy._eigh_factor(mats)
        np.testing.assert_allclose(factor @ np.swapaxes(factor.conj(), -1, -2), mats, rtol=0, atol=1e-15)

    def test_wide_factor_is_reduced_to_four_columns(self, rng):
        mats, factors = _factors(rng, 3, 20)
        # A pair factor with the third qubit and the ancilla in its columns: 4 x 16.
        wide = factors.reshape(20, 4, 16)
        lam = monogamy._wootters_lambdas(wide)
        assert lam.shape == (20, 4)
        np.testing.assert_allclose(lam, _ref_wootters(states._partial_trace_arr(mats, [0, 1], 3)), atol=1e-11)

    def test_ghz_tangle_is_one(self):
        assert monogamy._three_tangle_arr(ghz_state().data) == pytest.approx(1.0, abs=1e-15)
        assert three_tangle(ghz_state()) == pytest.approx(1.0, abs=1e-15)

    def test_w_tangle_is_zero(self):
        assert monogamy._three_tangle_arr(w_state().data) <= 1e-15
        assert three_tangle(w_state()) <= 1e-15

    def test_ghz_family_tangle_closed_form(self):
        # Only sin(a) cos(a) sin(b) cos(b) / 4 survives in Cayley's hyperdeterminant.
        alpha, beta = np.meshgrid(np.linspace(0.05, 1.5, 15), np.linspace(0.05, 1.5, 15))
        sin_a, cos_a, _ = monogamy._ghz_factors("alpha", alpha)
        sin_b, cos_b, _ = monogamy._ghz_factors("beta", beta)
        kets = monogamy._ghz_kets(sin_a, cos_a, sin_b, cos_b)
        expected = np.sin(2.0 * alpha) * np.sin(2.0 * beta)
        np.testing.assert_allclose(monogamy._three_tangle_arr(kets), expected, rtol=0, atol=1e-15)
        state, _ = ghz_family(0.4, 1.1)
        assert three_tangle(state) == pytest.approx(math.sin(0.8) * math.sin(2.2), abs=1e-15)

    def test_w_class_tangle_headroom_over_the_suite_states(self):
        # The 10^4 rotated max-volume states of the default-seed wclass_saturation check.
        draws = states.sample_rows(experiments.DEFAULT_SEED, 0, _AGREEMENT_STATES, 25, experiments._WCLASS_DRAW)
        theta, kets = experiments._wclass_kets(draws)
        w_class = experiments._max_volume_codes(theta) == monogamy._SLOCC_CLASSES.index(SloccClass.W_CLASS)
        assert np.count_nonzero(w_class) > 9_000
        assert np.max(monogamy._three_tangle_arr(kets[w_class])) <= 1e-14
        assert np.all(monogamy._slocc_codes(kets) == experiments._max_volume_codes(theta))


class TestStackedKernels:
    """Each stacked kernel equals its per-matrix form bit for bit."""

    @pytest.mark.parametrize("columns", [1, 2, 4, 16])
    def test_wootters_lambdas(self, rng, columns):
        kets = _kets(rng, 2 + int(math.log2(columns)))
        factors = np.concatenate([kets.reshape(-1, 4, columns), np.zeros((1, 4, columns))])
        stacked = monogamy._wootters_lambdas(factors)
        for factor, lam in zip(factors, stacked):
            np.testing.assert_array_equal(lam, monogamy._wootters_lambdas(factor))

    def test_two_qubit_measures(self, rng):
        mats = np.concatenate([_stack(rng, 2, pure=False), _stack(rng, 2, pure=True)])
        factors = monogamy._eigh_factor(mats)
        np.testing.assert_array_equal(monogamy._concurrence_arr(factors), [concurrence(m) for m in mats])
        np.testing.assert_array_equal(
            monogamy._concurrence_volume_arr(mats, factors), [concurrence_volume_residual(m) for m in mats]
        )

    @pytest.mark.parametrize("hub", [0, 1, 2])
    def test_ckw(self, rng, hub):
        mats = _stack(rng, 3, pure=False)
        factors = monogamy._eigh_factor(mats)
        np.testing.assert_array_equal(monogamy._ckw_arr(factors, hub), [ckw_residual(m, hub) for m in mats])

    def test_pure_three_qubit_measures(self, rng):
        mats = _stack(rng, 3, pure=True)
        kets = monogamy._eigh_factor(mats)[..., -1]
        np.testing.assert_array_equal(monogamy._three_tangle_arr(kets), [three_tangle(m) for m in mats])
        np.testing.assert_array_equal(monogamy._polygon_arr(mats), [polygon_residual(m) for m in mats])
        np.testing.assert_array_equal(
            monogamy._purity_residuals_3q_arr(mats), [purity_identity_residuals_3q(m) for m in mats]
        )
        pairs = [(0, 1), (0, 2), (1, 2)]
        np.testing.assert_array_equal(
            monogamy._correlation_sum_arr(mats, 3, pairs), [pairwise_correlation_sum(m) for m in mats]
        )

    def test_pure_inputs_reach_the_kernels_as_given(self, rng):
        # A ket or a pure QuantumState is used as it is: no |psi><psi|, no eigh.
        kets = np.concatenate([_kets(rng, 3), [w_state().data, ghz_state(3).data, max_volume_state(0.0).data]])
        for ket in kets:
            tangle = float(monogamy._three_tangle_arr(ket))
            cls = monogamy._SLOCC_CLASSES[int(monogamy._slocc_codes(ket))]
            for psi in (ket, ket.tolist(), states.QuantumState.from_amplitudes(ket)):
                assert three_tangle(psi).hex() == tangle.hex()
                assert slocc_classify(psi) is cls

    def test_matrix_inputs_keep_the_top_eigenvector_path(self, rng):
        for mat in _stack(rng, 3, pure=True):
            ket = monogamy._eigh_factor(mat)[..., -1]
            for rho in (mat, states.QuantumState.from_matrix(mat)):
                assert three_tangle(rho).hex() == float(monogamy._three_tangle_arr(ket)).hex()
                assert slocc_classify(rho) is monogamy._SLOCC_CLASSES[int(monogamy._slocc_codes(ket))]
        for fn in (three_tangle, slocc_classify):
            with pytest.raises(StateValidationError, match="pure"):
                fn(counterexample_state())
            with pytest.raises(StateValidationError, match="3-qubit"):
                fn(random_pure_state(4, seed=rng))

    def test_pure_four_qubit_measures(self, rng):
        mats = _stack(rng, 4, pure=True)
        np.testing.assert_array_equal(monogamy._l_bcd_arr(mats), [l_bcd(m) for m in mats])
        np.testing.assert_array_equal(
            monogamy._purity_residuals_4q_arr(mats), [purity_identity_residuals_4q(m) for m in mats]
        )

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_ket_hub_volumes_match_density_hub_volumes(self, rng, n):
        # A GHZ ket holds exact zeros, where a sum that starts from zero can turn -0.0 into 0.0.
        kets = np.concatenate([states._haar_arr(rng.standard_normal((20, 2 ** (n + 1)))), [ghz_state(n).data]])
        for hub in range(n):
            got = monogamy._hub_volumes(kets, n, hub, pure=True)
            want = monogamy._hub_volumes(states._densities(kets), n, hub)
            assert [v.tobytes() for v in got] == [v.tobytes() for v in want]

    def test_slocc_codes_cover_every_class(self, rng):
        kets = [
            random_pure_product_3q(rng),
            np.kron(random_pure_state(1, seed=rng).data, random_pure_state(2, seed=rng).data),
            max_volume_state(0.0).data,
            max_volume_state(math.pi / 2).data,
            w_state().data,
            ghz_state(3).data,
        ]
        kets = np.concatenate([np.array(kets), _kets(rng, 3)])
        codes = monogamy._slocc_codes(kets)
        assert [monogamy._SLOCC_CLASSES[c] for c in codes] == [slocc_classify(k) for k in kets]
        assert set(codes[:6]) == {0, 1, 2, 3, 4, 5}

    def test_pure_check_rejects_a_mixed_state_in_the_stack(self, rng):
        mats = np.concatenate([_stack(rng, 3, pure=True), _stack(rng, 3, pure=False, count=1)])
        with pytest.raises(StateValidationError, match="pure"):
            monogamy._check_pure_arr(mats)

    def test_max_volume_kets(self):
        theta = np.array([0.0, 0.3, math.pi / 4, math.pi / 2])
        expected = [max_volume_state(float(t)).data for t in theta]
        np.testing.assert_array_equal(monogamy._max_volume_arr(theta), expected)
