import numpy as np
import pytest

from qsteer import ellipsoid, states
from qsteer.ellipsoid import (
    DegenerateMarginalError,
    PovmElement,
    ZeroProbabilityError,
    canonical_form,
    normalized_volume,
    steered_point,
    steering_ellipsoid,
)
from qsteer.monogamy import concurrence, ghz_state, singlet_state, w_state, werner_state
from qsteer.states import (
    bloch_vector,
    partial_trace,
    pauli_decomposition,
    random_mixed_state,
    random_pure_state,
    spin_correlation_matrix,
)

from conftest import random_single_qubit_density


def _ref_volume_from_abT(a, b, T):
    """The single-triple volume formula that the batch kernel replaced, verbatim."""
    gamma = 1.0 - float(a @ a)
    if gamma <= ellipsoid.DEGENERACY_THRESHOLD:
        return 0.0
    return float(abs(np.linalg.det(T - a[:, None] * b)) / gamma**2)


def _ref_center_orientation(a, b, T, gamma):
    """The orientation kernel before it took the degenerate rows itself, verbatim."""
    gamma = np.asarray(gamma)[..., None]
    shifted = T - a[..., :, None] * b[..., None, :]
    center = (b - (np.swapaxes(T, -1, -2) @ a[..., :, None])[..., 0]) / gamma
    metric = np.eye(3) + a[..., :, None] * a[..., None, :] / gamma[..., None]
    q = np.swapaxes(shifted, -1, -2) @ metric @ shifted / gamma[..., None]
    return center, (q + np.swapaxes(q, -1, -2)) / 2.0


def _ref_steering_ellipsoid(rho, steering_qubit=0):
    """steering_ellipsoid with its single-state branch for a pure steering marginal, verbatim."""
    mat, _ = states._density(rho, 2)
    a, b, T, _ = ellipsoid._steering_abT(mat, steering_qubit)
    gamma = 1.0 - float(a @ a)
    if gamma <= ellipsoid.DEGENERACY_THRESHOLD:
        return ellipsoid.SteeringEllipsoid(
            center=b.copy(),
            orientation=np.zeros((3, 3)),
            semiaxes=np.zeros(3),
            normalized_volume=0.0,
            degenerate=True,
        )
    center, q = _ref_center_orientation(a, b, T, gamma)
    eigvals = np.clip(np.linalg.eigvalsh(q), 0.0, None)
    semiaxes = np.sqrt(eigvals)[::-1].copy()
    return ellipsoid.SteeringEllipsoid(
        center=center,
        orientation=q,
        semiaxes=semiaxes,
        normalized_volume=float(ellipsoid._volume_from_abT(a, b, T, ellipsoid._gamma(a))),
        degenerate=False,
    )


class TestCanonicalForm:
    def test_balanced_marginal_is_fixed_point(self):
        # Werner already has a = 0, so the filter is the identity.
        original = werner_state().matrix
        out = canonical_form(original).data
        np.testing.assert_allclose(out, original, atol=1e-12)

    def test_w_state_filter(self):
        out = canonical_form(w_state(), steering_qubit=0)
        a_tilde = bloch_vector(partial_trace(out, [0]))
        assert np.linalg.norm(a_tilde) < 1e-9
        v = normalized_volume(partial_trace(out, [0, 1]))
        assert v == pytest.approx(0.25, abs=1e-9)

    def test_degenerate_marginal_raises(self, rng):
        rho = np.kron(np.diag([1.0, 0.0]).astype(complex), random_single_qubit_density(rng))
        with pytest.raises(DegenerateMarginalError):
            canonical_form(rho, steering_qubit=0)

    def test_preserves_volume(self, rng):
        for _ in range(25):
            rho = random_mixed_state(2, seed=rng).matrix
            canon = canonical_form(rho).data
            assert normalized_volume(canon) == pytest.approx(normalized_volume(rho), abs=1e-9)

    def test_volume_equals_canonical_t_determinant(self, rng):
        for _ in range(25):
            rho = random_mixed_state(2, seed=rng).matrix
            t_canon = spin_correlation_matrix(canonical_form(rho))
            assert normalized_volume(rho) == pytest.approx(abs(np.linalg.det(t_canon)), abs=1e-9)


class TestSteeringEllipsoid:
    def test_singlet_fills_bloch_ball(self):
        ell = steering_ellipsoid(singlet_state())
        np.testing.assert_allclose(ell.center, [0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(ell.semiaxes, [1, 1, 1], atol=1e-12)
        assert ell.normalized_volume == pytest.approx(1.0, abs=1e-12)

    def test_random_pure_entangled_fills_bloch_ball(self, rng):
        psi = random_pure_state(2, seed=rng)
        assert concurrence(psi.matrix) > 0.01
        assert steering_ellipsoid(psi).normalized_volume == pytest.approx(1.0, abs=1e-9)

    def test_werner_sphere(self):
        ell = steering_ellipsoid(werner_state())
        np.testing.assert_allclose(ell.semiaxes, [2 / 3] * 3, atol=1e-9)
        assert ell.normalized_volume == pytest.approx(8 / 27, abs=1e-12)
        assert not ell.degenerate

    def test_product_state_collapses_to_point(self, rng):
        rho_b = random_single_qubit_density(rng)
        rho = np.kron(np.diag([1.0, 0.0]).astype(complex), rho_b)
        ell = steering_ellipsoid(rho)
        assert ell.degenerate
        assert ell.normalized_volume == 0.0
        np.testing.assert_allclose(ell.center, bloch_vector(rho_b), atol=1e-12)
        np.testing.assert_allclose(ell.semiaxes, [0, 0, 0])

    @staticmethod
    def _near_pure_product(rng, gamma):
        """A product state whose steering marginal has 1 - |a|^2 close to ``gamma``."""
        n = rng.standard_normal(3)
        r = np.sqrt(1.0 - gamma) * n / np.linalg.norm(n)
        rho_a = (np.eye(2) + np.einsum("j,jab->ab", r, states.PAULIS)) / 2.0
        return np.kron(rho_a, random_single_qubit_density(rng))

    def test_every_field_keeps_its_bits(self, rng):
        cases = [werner_state(), singlet_state(), random_pure_state(2, seed=rng)]
        cases += [random_mixed_state(2, seed=rng) for _ in range(20)]
        pure = np.diag([1.0, 0.0]).astype(complex)
        cases += [np.kron(pure, random_single_qubit_density(rng)), np.kron(random_single_qubit_density(rng), pure)]
        sides = []
        for scale in (0.99, 1.01, 0.5, 2.0):
            rho = self._near_pure_product(rng, scale * ellipsoid.DEGENERACY_THRESHOLD)
            a = ellipsoid._steering_abT(rho, 0)[0]
            sides.append(1.0 - float(a @ a) > ellipsoid.DEGENERACY_THRESHOLD)
            cases.append(rho)
        assert sides == [False, True, False, True]
        for rho in cases:
            for steering_qubit in (0, 1):
                got = steering_ellipsoid(rho, steering_qubit)
                want = _ref_steering_ellipsoid(rho, steering_qubit)
                for field in ("center", "orientation", "semiaxes"):
                    g, w = getattr(got, field), getattr(want, field)
                    assert (g.shape, g.dtype, g.tobytes()) == (w.shape, w.dtype, w.tobytes()), field
                assert np.float64(got.normalized_volume).tobytes() == np.float64(want.normalized_volume).tobytes()
                assert got.degenerate is want.degenerate

    def test_orientation_is_symmetric_psd(self, rng):
        for _ in range(50):
            ell = steering_ellipsoid(random_mixed_state(2, seed=rng).matrix)
            np.testing.assert_allclose(ell.orientation, ell.orientation.T, atol=1e-10)
            assert np.linalg.eigvalsh(ell.orientation)[0] > -1e-10

    def test_volume_is_product_of_semiaxes(self, rng):
        for _ in range(50):
            ell = steering_ellipsoid(random_mixed_state(2, seed=rng).matrix)
            assert ell.normalized_volume == pytest.approx(float(np.prod(ell.semiaxes)), abs=1e-9)

    def test_semiaxes_descending(self, rng):
        ell = steering_ellipsoid(random_mixed_state(2, seed=rng).matrix)
        assert ell.semiaxes[0] >= ell.semiaxes[1] >= ell.semiaxes[2]

    @pytest.mark.parametrize("kind", ["werner", "point", "negated point", "integer point"])
    def test_to_dict_schema(self, kind):
        if kind == "werner":
            ell = steering_ellipsoid(werner_state())
        elif kind == "integer point":
            # Built by hand from integer arrays, which the dict still writes as floats.
            ell = ellipsoid.SteeringEllipsoid(np.array([0, 0, 1]), np.zeros((3, 3), int), np.zeros(3, int), 0.0, True)
        else:
            # |1>|0>: qubit 0's marginal is pure, so the ellipsoid is the point (0, 0, 1).
            ell = steering_ellipsoid(np.diag([0.0, 0.0, 1.0, 0.0]))
            assert ell.degenerate
        if kind == "negated point":
            # Every zero of the point ellipsoid becomes -0.0.
            arrays = (-ell.center, -ell.orientation, -ell.semiaxes)
            ell = ellipsoid.SteeringEllipsoid(*arrays, -ell.normalized_volume, ell.degenerate)
        payload = ell.to_dict()
        assert set(payload) == {"center", "Q", "semiaxes", "volume", "degenerate"}
        assert len(payload["center"]) == 3
        assert len(payload["Q"]) == 3 and all(len(row) == 3 for row in payload["Q"])
        expected = {
            "center": [float(x) for x in ell.center],
            "Q": [[float(x) for x in row] for row in ell.orientation],
            "semiaxes": [float(x) for x in ell.semiaxes],
            "volume": float(ell.normalized_volume),
            "degenerate": bool(ell.degenerate),
        }
        # repr tells -0.0 from 0.0 and a Python float from a numpy scalar.
        assert repr(payload) == repr(expected)
        scalars = [*payload["center"], *sum(payload["Q"], []), *payload["semiaxes"], payload["volume"]]
        assert all(type(x) is float for x in scalars) and type(payload["degenerate"]) is bool

    def test_fields_are_read_only_copies(self):
        center, q, semiaxes = np.array([0.0, 0.0, 1.0]), np.zeros((3, 3)), np.zeros(3)
        ell = ellipsoid.SteeringEllipsoid(center, q, semiaxes, 0.0, True)
        # The caller's arrays stay writable; the object's own fields do not.
        assert all(arr.flags.writeable for arr in (center, q, semiaxes))
        for arr in (ell.center, ell.orientation, ell.semiaxes):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        center[2] = -1.0
        assert ell.center.tolist() == [0.0, 0.0, 1.0]

    def test_list_center_is_accepted(self):
        ell = ellipsoid.SteeringEllipsoid([0, 0, 1], np.zeros((3, 3)), np.zeros(3), 0.0, True)
        assert ell.center.dtype == np.float64 and not ell.center.flags.writeable
        assert ell.to_dict()["center"] == [0.0, 0.0, 1.0]


class TestNormalizedVolume:
    def test_bell_state(self):
        assert normalized_volume(singlet_state()) == pytest.approx(1.0, abs=1e-12)

    def test_werner(self):
        assert normalized_volume(werner_state()) == pytest.approx(8 / 27, abs=1e-12)

    def test_product_state(self, rng):
        rho = np.kron(random_single_qubit_density(rng), random_single_qubit_density(rng))
        assert normalized_volume(rho) == pytest.approx(0.0, abs=1e-12)

    def test_reverse_direction_matches_swapped_state(self, rng):
        rho = random_mixed_state(2, seed=rng).matrix
        swap = np.zeros((4, 4))
        for i, j in enumerate((0, 2, 1, 3)):
            swap[i, j] = 1.0
        swapped = swap @ rho @ swap.T
        assert normalized_volume(rho, steering_qubit=1) == pytest.approx(
            normalized_volume(swapped, steering_qubit=0), abs=1e-12
        )

    def test_in_unit_interval(self, rng):
        for _ in range(100):
            v = normalized_volume(random_mixed_state(2, seed=rng).matrix)
            assert -1e-12 <= v <= 1 + 1e-12


class TestBatchedVolume:
    def test_stack_matches_each_state_bitwise(self, rng):
        # The last state has a pure steering marginal, whose volume is 0.
        product = np.kron(np.diag([1.0, 0.0]), random_single_qubit_density(rng)).astype(complex)
        mats = np.stack([random_mixed_state(2, seed=rng).matrix for _ in range(7)] + [product]).reshape(2, 4, 4, 4)
        for steering in (0, 1):
            stacked = ellipsoid._volume_from_abT(*ellipsoid._steering_abT(mats, steering))
            assert stacked.shape == (2, 4)
            for idx in np.ndindex(2, 4):
                single = ellipsoid._volume_from_abT(*ellipsoid._steering_abT(mats[idx], steering))
                assert single.shape == ()
                assert stacked[idx] == single
        assert ellipsoid._volume_from_abT(*ellipsoid._steering_abT(mats, 0))[1, 3] == 0.0

    def test_stack_matches_single_calls_on_many_triples(self, rng):
        # Enough triples that a last-bit difference in |a|^2 or in the squared
        # denominator shows up in some entry.
        a = rng.uniform(-0.57, 0.57, (20_000, 3))
        b = rng.uniform(-1.0, 1.0, (20_000, 3))
        T = rng.uniform(-1.0, 1.0, (20_000, 3, 3))
        stacked = ellipsoid._volume_from_abT(a, b, T, ellipsoid._gamma(a))
        singles = [_ref_volume_from_abT(*triple) for triple in zip(a, b, T)]
        np.testing.assert_array_equal(stacked, singles)

    def test_single_state_matches_scalar_formula(self, rng):
        # GHZ pairs have a = 0 and exact zeros; the product and pure-state pairs have pure marginals.
        product = np.kron(np.diag([1.0, 0.0]), random_single_qubit_density(rng)).astype(complex)
        mats = [partial_trace(ghz_state(3), [0, 1]).data, werner_state().matrix, singlet_state().matrix, product]
        mats += [random_mixed_state(2, seed=rng).matrix for _ in range(20)]
        mats += [random_pure_state(2, seed=rng).matrix for _ in range(5)]
        mats += [np.kron(random_pure_state(1, seed=rng).matrix, random_single_qubit_density(rng))]
        for mat in mats:
            for steering in (0, 1):
                a, b, T, gamma = ellipsoid._steering_abT(mat, steering)
                want = _ref_volume_from_abT(a, b, T)
                single = ellipsoid._volume_from_abT(a, b, T, gamma)
                assert single.shape == ()
                assert float(single).hex() == want.hex()
                assert normalized_volume(mat, steering).hex() == want.hex()
                assert steering_ellipsoid(mat, steering).normalized_volume.hex() == want.hex()
        assert normalized_volume(product) == 0.0

    def test_stack_of_pure_marginals_is_zero(self, rng):
        mats = np.stack([random_pure_state(1, seed=rng).matrix for _ in range(5)])
        pairs = np.einsum("nab,cd->nacbd", mats, random_single_qubit_density(rng)).reshape(5, 4, 4)
        volumes = ellipsoid._volume_from_abT(*ellipsoid._steering_abT(pairs, 0))
        np.testing.assert_array_equal(volumes, np.zeros(5))

    def test_steering_abT_gamma_is_gamma_of_a(self, rng):
        # The one 1 - |a|^2 that both kernels take: _gamma of the steering Bloch vector, bit for bit.
        product = np.kron(np.diag([1.0, 0.0]), random_single_qubit_density(rng)).astype(complex)
        mats = np.stack([random_mixed_state(2, seed=rng).matrix for _ in range(11)] + [product])
        for steering in (0, 1):
            for mat in (mats, mats.reshape(3, 4, 4, 4), mats[0], product):
                a, _, _, gamma = ellipsoid._steering_abT(mat, steering)
                want = ellipsoid._gamma(a)
                assert np.shape(gamma) == np.shape(want) == mat.shape[:-2]
                assert np.asarray(gamma).tobytes() == np.asarray(want).tobytes()


class TestSteeredPoint:
    def test_uninformative_measurement_gives_marginal(self, rng):
        decomp = pauli_decomposition(random_mixed_state(2, seed=rng).matrix)
        out = steered_point(decomp, PovmElement(0.5, np.zeros(3)))
        np.testing.assert_allclose(out, decomp.b, atol=1e-12)

    def test_singlet_antipodal(self):
        decomp = pauli_decomposition(singlet_state())
        out = steered_point(decomp, PovmElement(0.5, np.array([0.0, 0.0, 1.0])))
        np.testing.assert_allclose(out, [0, 0, -1], atol=1e-12)

    def test_product_state_is_unsteerable(self, rng):
        rho = np.kron(random_single_qubit_density(rng), random_single_qubit_density(rng))
        decomp = pauli_decomposition(rho)
        for _ in range(10):
            e = rng.standard_normal(3)
            e /= np.linalg.norm(e)
            np.testing.assert_allclose(steered_point(decomp, PovmElement(1.0, e)), decomp.b, atol=1e-12)

    def test_zero_probability_outcome_raises(self, rng):
        rho = np.kron(np.diag([1.0, 0.0]).astype(complex), random_single_qubit_density(rng))
        decomp = pauli_decomposition(rho)
        with pytest.raises(ZeroProbabilityError):
            steered_point(decomp, PovmElement(0.5, np.array([0.0, 0.0, -1.0])))

    def test_points_stay_in_bloch_ball(self, rng):
        for _ in range(50):
            decomp = pauli_decomposition(random_mixed_state(2, seed=rng).matrix)
            for _ in range(20):
                e = rng.standard_normal(3)
                e /= np.linalg.norm(e)
                assert np.linalg.norm(steered_point(decomp, PovmElement(1.0, e))) <= 1 + 1e-8

    def test_points_satisfy_ellipsoid_form(self, rng):
        checked = 0
        while checked < 25:
            rho = random_mixed_state(2, seed=rng).matrix
            ell = steering_ellipsoid(rho)
            if ell.degenerate or np.linalg.eigvalsh(ell.orientation)[0] <= 1e-10:
                continue
            decomp = pauli_decomposition(rho)
            for _ in range(20):
                e = rng.standard_normal(3)
                e /= np.linalg.norm(e)
                delta = steered_point(decomp, PovmElement(1.0, e)) - ell.center
                assert delta @ np.linalg.solve(ell.orientation, delta) <= 1 + 1e-6
            checked += 1


class TestPovmElement:
    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            PovmElement(-0.1, np.zeros(3))

    def test_rejects_long_direction(self):
        with pytest.raises(ValueError):
            PovmElement(0.5, np.array([1.0, 1.0, 0.0]))

    @pytest.mark.parametrize("e0, e", [(np.nan, np.zeros(3)), (1.0, np.array([np.nan, 0.0, 0.0]))])
    def test_rejects_nan(self, e0, e):
        with pytest.raises(ValueError):
            PovmElement(e0, e)

    def test_direction_is_a_read_only_copy(self):
        # A view of the caller's array would let a later write skip the |e| <= 1 check.
        e = np.array([0.0, 0.0, 0.5])
        element = PovmElement(0.5, e)
        e[2] = 7.0
        assert element.e.tolist() == [0.0, 0.0, 0.5] and not element.e.flags.writeable
        assert PovmElement(0.5, [0, 0, 1]).e.dtype == np.float64


def _mixed_stack(rng, n, count=40):
    return states._induced_arr(states._haar_arr(rng.standard_normal((count, 2 ** (2 * n + 1)))), n)


class TestStackedKernels:
    """Each stacked kernel equals its per-matrix form bit for bit."""

    @pytest.mark.parametrize("n, steering_qubit", [(2, 0), (2, 1), (3, 0), (3, 2)])
    def test_canonical_form(self, rng, n, steering_qubit):
        mats = _mixed_stack(rng, n)
        stacked = ellipsoid._canonical_arr(mats, n, steering_qubit)
        for mat, out in zip(mats, stacked):
            np.testing.assert_array_equal(out, canonical_form(mat, steering_qubit).data)

    def test_canonical_form_rejects_a_pure_marginal_in_the_stack(self, rng):
        mats = _mixed_stack(rng, 2, count=3)
        product = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2).astype(complex)
        with pytest.raises(DegenerateMarginalError):
            ellipsoid._canonical_arr(np.concatenate([mats, product[None]]), 2, 0)

    @pytest.mark.parametrize("steering_qubit", [0, 1])
    def test_ellipsoid(self, rng, steering_qubit):
        # A product with a pure qubit 0 puts a point ellipsoid among the live ones when steered from it.
        product = np.kron(np.diag([1.0, 0.0]), random_single_qubit_density(rng)).astype(complex)
        mats = np.concatenate([_mixed_stack(rng, 2), product[None]])
        center, q, semiaxes, volume, live = ellipsoid._ellipsoid_arr(mats, steering_qubit)
        assert live[-1] == bool(steering_qubit)
        for k, mat in enumerate(mats):
            ell = steering_ellipsoid(mat, steering_qubit)
            np.testing.assert_array_equal(center[k], ell.center)
            np.testing.assert_array_equal(q[k], ell.orientation)
            np.testing.assert_array_equal(semiaxes[k], ell.semiaxes)
            assert volume[k] == ell.normalized_volume
            assert live[k] == (not ell.degenerate)

    def test_steered_points(self, rng):
        mats = _mixed_stack(rng, 2, count=10)
        a, b, T = states._pauli_arr(mats)
        e = rng.standard_normal((10, 7, 3))
        e /= np.linalg.norm(e, axis=-1, keepdims=True)
        points = ellipsoid._steered_arr(a, b, T, e)
        for k, mat in enumerate(mats):
            np.testing.assert_array_equal(points[k], ellipsoid._steered_arr(a[k], b[k], T[k], e[k]))
            # One direction at a time is a vector-matrix product: steered_point
            # keeps the rounding of its former (b + T^t e) / (1 + a.e).
            decomp = pauli_decomposition(mat)
            for direction in e[k]:
                expected = (decomp.b + decomp.T.T @ direction) / (1.0 + float(decomp.a @ direction))
                np.testing.assert_array_equal(steered_point(decomp, PovmElement(1.0, direction)), expected)

    def test_steered_points_reject_a_zero_probability_outcome(self):
        decomp = pauli_decomposition(np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2))
        e = np.array([[[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
        with pytest.raises(ZeroProbabilityError):
            ellipsoid._steered_arr(decomp.a[None], decomp.b[None], decomp.T[None], e)
