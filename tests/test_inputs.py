"""The input contract of the public API: one shared check per kind of argument, and a pinned API."""

import dataclasses
import inspect
import json
import math
import types

import numpy as np
import pytest

import qsteer
from qsteer import (
    StateValidationError,
    apply_local,
    canonical_form,
    ckw_residual,
    concurrence,
    concurrence_volume_residual,
    identity_channel,
    isotropic_channel,
    ket_to_density,
    l_bcd,
    monotonicity_check,
    normalized_volume,
    pairwise_correlation_sum,
    partial_trace,
    pauli_coefficient,
    pauli_decomposition,
    polygon_residual,
    purity,
    purity_identity_residuals_3q,
    purity_identity_residuals_4q,
    random_pure_state,
    slocc_classify,
    spin_correlation_matrix,
    steering_ellipsoid,
    three_tangle,
    volume_monogamy_report,
)
from qsteer.cli import main
from qsteer.states import bloch_vector


def _pure(n_qubits: int):
    return random_pure_state(n_qubits, seed=n_qubits)


# (name, function of one state, qubit count it takes).  Pure states are valid
# input for all of them, so only the qubit count is wrong below.
_FIXED_COUNT = [
    ("bloch_vector", bloch_vector, 1),
    ("spin_correlation_matrix", spin_correlation_matrix, 2),
    ("pauli_decomposition", pauli_decomposition, 2),
    ("steering_ellipsoid", steering_ellipsoid, 2),
    ("normalized_volume", normalized_volume, 2),
    ("concurrence", concurrence, 2),
    ("concurrence_volume_residual", concurrence_volume_residual, 2),
    ("monotonicity_check", lambda rho: monotonicity_check(rho, [identity_channel()] * 2), 2),
    ("ckw_residual", ckw_residual, 3),
    ("purity_identity_residuals_3q", purity_identity_residuals_3q, 3),
    ("polygon_residual", polygon_residual, 3),
    ("three_tangle", three_tangle, 3),
    ("slocc_classify", slocc_classify, 3),
    ("l_bcd", l_bcd, 4),
    ("purity_identity_residuals_4q", purity_identity_residuals_4q, 4),
    ("KrausChannel.apply", isotropic_channel(0.1).apply, 1),
]


@pytest.mark.parametrize("fn, n_qubits", [row[1:] for row in _FIXED_COUNT], ids=[row[0] for row in _FIXED_COUNT])
@pytest.mark.parametrize("offset", [-1, 1])
@pytest.mark.parametrize("as_matrix", [False, True], ids=["state", "matrix"])
def test_wrong_qubit_count(fn, n_qubits, offset, as_matrix):
    wrong = n_qubits + offset
    if wrong < 1:
        wrong = n_qubits + 2
    state = _pure(wrong)
    with pytest.raises(StateValidationError, match=f"^expected a {n_qubits}-qubit state, got {wrong} qubits$"):
        fn(state.matrix if as_matrix else state)


def test_right_qubit_count_is_accepted():
    for _, fn, n_qubits in _FIXED_COUNT:
        fn(_pure(n_qubits).matrix)


def test_monogamy_report_needs_three_qubits():
    with pytest.raises(StateValidationError, match="at least 3 qubits"):
        volume_monogamy_report(_pure(2))


# (name, call with the index, qubit count of the state it reads).
_INDEXED = [
    ("partial_trace keep", lambda rho, q: partial_trace(rho, [0, q]), 3, "keep entry"),
    ("canonical_form", lambda rho, q: canonical_form(rho, steering_qubit=q), 3, "steering_qubit"),
    ("steering_ellipsoid", lambda rho, q: steering_ellipsoid(rho, steering_qubit=q), 2, "steering_qubit"),
    ("normalized_volume", lambda rho, q: normalized_volume(rho, steering_qubit=q), 2, "steering_qubit"),
    (
        "concurrence_volume_residual",
        lambda rho, q: concurrence_volume_residual(rho, steering_qubit=q),
        2,
        "steering_qubit",
    ),
    ("volume_monogamy_report", lambda rho, q: volume_monogamy_report(rho, hub=q), 4, "hub"),
    ("ckw_residual", lambda rho, q: ckw_residual(rho, hub=q), 3, "hub"),
    ("pairwise_correlation_sum first", lambda rho, q: pairwise_correlation_sum(rho, [(q, 1)]), 3, "pairs entry"),
    ("pairwise_correlation_sum second", lambda rho, q: pairwise_correlation_sum(rho, [(1, q)]), 3, "pairs entry"),
]


def _mixed(n_qubits: int) -> np.ndarray:
    return qsteer.random_mixed_state(n_qubits, seed=10 + n_qubits).matrix


@pytest.mark.parametrize("call, n_qubits, name", [row[1:] for row in _INDEXED], ids=[row[0] for row in _INDEXED])
def test_qubit_index_range(call, n_qubits, name):
    rho = _mixed(n_qubits)
    for q in (n_qubits, n_qubits + 5, -1):
        with pytest.raises(StateValidationError, match=f"^{name} {q} out of range for {n_qubits} qubits$"):
            call(rho, q)
    call(rho, n_qubits - 1)
    call(rho, np.int64(n_qubits - 1))


@pytest.mark.parametrize("call, n_qubits, name", [row[1:] for row in _INDEXED], ids=[row[0] for row in _INDEXED])
@pytest.mark.parametrize("index", [0.0, 1.5, "0"])
def test_qubit_index_must_be_an_integer(call, n_qubits, name, index):
    with pytest.raises(TypeError, match=f"{name} must be an integer"):
        call(_mixed(n_qubits), index)


def test_pair_of_one_qubit_rejected():
    with pytest.raises(StateValidationError, match="names one qubit twice"):
        pairwise_correlation_sum(_mixed(3), [(0, 1), (2, 2)])


@pytest.mark.parametrize(
    "entry, text",
    [((0, 1, 2), r"\(0, 1, 2\)"), ((0,), r"\(0,\)"), (0, "0")],
    ids=["three indices", "one index", "an int"],
)
def test_pairs_entry_that_is_not_a_pair_rejected(entry, text):
    with pytest.raises(StateValidationError, match=f"^pairs entry {text} is not a pair of qubit indices$"):
        pairwise_correlation_sum(_mixed(3), [(0, 1), entry])


@pytest.mark.parametrize(
    "call, name",
    [(lambda rho: partial_trace(rho, []), "keep"), (lambda rho: pairwise_correlation_sum(rho, []), "pairs")],
    ids=["partial_trace", "pairwise_correlation_sum"],
)
def test_empty_qubit_list_rejected(call, name):
    with pytest.raises(StateValidationError, match=f"^{name} list must not be empty$"):
        call(_mixed(3))


@pytest.mark.parametrize("rho2", [np.eye(4) / 4, np.full((2, 2), math.nan), np.ones((2, 3))])
def test_kraus_apply_rejects_non_qubit_input(rho2):
    with pytest.raises(StateValidationError):
        isotropic_channel(0.2).apply(rho2)


def test_kraus_apply_keeps_its_bits():
    rho = _mixed(1)
    channel = isotropic_channel(0.3)
    want = qsteer.channels._apply_local_arr([channel.superoperator], rho, 1)
    np.testing.assert_array_equal(channel.apply(rho), want)


# --- one validator for every raw array -------------------------------------------

# (name, function of one state, qubit count it takes) for every public entry
# point that takes a state; ket_to_density takes kets only.
_TAKES_A_STATE = _FIXED_COUNT + [
    ("partial_trace", lambda rho: partial_trace(rho, [0]), 2),
    ("pauli_coefficient", lambda rho: pauli_coefficient(rho, [3, 0]), 2),
    ("purity", purity, 2),
    ("canonical_form", canonical_form, 2),
    ("volume_monogamy_report", volume_monogamy_report, 3),
    ("pairwise_correlation_sum", pairwise_correlation_sum, 3),
    ("apply_local", lambda rho: apply_local([identity_channel()] * 2, rho), 2),
]


def _invalid_states(n_qubits: int) -> dict:
    """Arrays of the right shape that fail one state invariant each, with the message they must raise."""
    d = 2**n_qubits
    ket = np.zeros(d)
    ket[0] = ket[-1] = 1.0
    skew = np.zeros((d, d))
    skew[0, 1], skew[1, 0] = 0.1, -0.1
    return {
        "ket of squared norm 2": (ket, "^amplitude vector has squared norm 2.0, expected 1$"),
        "trace 2": (2.0 * np.eye(d) / d, r"^matrix has trace 2\+0j, expected 1 \(\|trace - 1\| = 1\)$"),
        "non-Hermitian": (np.eye(d) / d + skew, "^matrix is not Hermitian"),
        "negative eigenvalue": (np.diag([1.5, -0.5] + [0.0] * (d - 2)), "^matrix is not positive semidefinite"),
    }


@pytest.mark.parametrize("fn, n_qubits", [row[1:] for row in _TAKES_A_STATE], ids=[row[0] for row in _TAKES_A_STATE])
@pytest.mark.parametrize("kind", list(_invalid_states(1)))
def test_invalid_state_rejected(fn, n_qubits, kind):
    bad, message = _invalid_states(n_qubits)[kind]
    with pytest.raises(StateValidationError, match=message):
        fn(bad)


def test_ket_to_density_rejects_an_unnormalized_ket():
    bad, message = _invalid_states(2)["ket of squared norm 2"]
    with pytest.raises(StateValidationError, match=message):
        ket_to_density(bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda: bloch_vector(np.array([1.0, 1.0])),
        lambda: purity(5 * np.eye(4)),
        lambda: normalized_volume(np.eye(4)),
        lambda: apply_local([identity_channel()] * 2, np.stack([np.eye(4)] * 3)),
        lambda: isotropic_channel(0.2).apply(2 * np.eye(2)),
    ],
    ids=["bloch_vector", "purity", "normalized_volume", "apply_local", "KrausChannel.apply"],
)
def test_unnormalized_input_is_never_computed(call):
    with pytest.raises(StateValidationError):
        call()


@pytest.mark.parametrize("kind", ["trace 2", "non-Hermitian", "negative eigenvalue"])
def test_apply_local_rejects_one_invalid_member_of_a_stack(kind):
    bad, message = _invalid_states(2)[kind]
    stack = np.stack([_mixed(2), _mixed(2), bad, _mixed(2)]).reshape(2, 2, 4, 4)
    with pytest.raises(StateValidationError, match=message):
        apply_local([identity_channel()] * 2, stack)


def test_other_tolerances_go_through_quantum_state():
    rho = _mixed(2) * (1.0 + 1e-7)
    with pytest.raises(StateValidationError, match="trace"):
        normalized_volume(rho)
    state = qsteer.QuantumState.from_matrix(rho, tol=1e-6)
    assert normalized_volume(state) == normalized_volume(qsteer.QuantumState(2, rho))


# --- state files: every malformed payload is named, and analyze exits 2 ------------

_BAD_PAYLOADS = {
    # complex() reads true and false as 1 and 0, so this loaded as |00>.
    "boolean amplitude": (
        {"n_qubits": 2, "kind": "pure", "data": [[True, 0], [0, 0], [0, 0], [False, 0]]},
        "state data entry 0 holds a boolean, not a number",
    ),
    "boolean imaginary part": (
        {"n_qubits": 1, "kind": "pure", "data": [[1.0, 0.0], [0.0, False]]},
        "state data entry 1 holds a boolean, not a number",
    ),
    "not an object": ([1, 2], "state payload must be a JSON object, got list"),
}


@pytest.mark.parametrize("kind", list(_BAD_PAYLOADS))
def test_malformed_state_payload_is_named(tmp_path, capsys, kind):
    payload, message = _BAD_PAYLOADS[kind]
    with pytest.raises(StateValidationError, match=f"^{message}$"):
        qsteer.QuantumState.from_dict(payload)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    assert main(["analyze", "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# --- the public API, recorded from the package before the shared input checks ----

_PUBLIC_NAMES = [
    "ConjectureResult", "DegenerateMarginalError", "InvariantResult", "KrausChannel", "MonogamyReport",
    "PauliDecomposition", "PovmElement", "QuantumState", "SloccClass", "StateValidationError", "SteeringEllipsoid",
    "SuiteReport", "ZeroProbabilityError", "apply_local", "bloch_vector", "canonical_form", "ckw_residual",
    "concurrence", "concurrence_volume_residual", "counterexample_regression", "counterexample_state",
    "ghz_family", "ghz_state", "identity_channel", "isotropic_channel", "ket_to_density", "l_bcd",
    "max_volume_state", "monotonicity_check", "noisy_w_volume", "normalized_volume", "pairwise_correlation_sum",
    "partial_trace", "pauli_coefficient", "pauli_decomposition", "polygon_residual", "purified_counterexample",
    "purity", "purity_identity_residuals_3q", "purity_identity_residuals_4q", "random_channel",
    "random_mixed_state", "random_pure_state", "random_separable_two_qubit", "run_conjecture_test",
    "run_property_suite", "singlet_state", "slocc_classify", "spin_correlation_matrix", "steered_point",
    "steering_ellipsoid", "sweep_ghz_region", "sweep_noisy_w", "three_tangle", "volume_monogamy_report",
    "w_family", "w_state", "werner_state",
]  # fmt: skip

# inspect.signature of every exported function and dataclass.
_SIGNATURES = {
    "ConjectureResult": "(samples: 'int', violations: 'int', max_lhs: 'float', worst_state_seed: 'int', near_misses: 'tuple[tuple[int, float], ...]' = ()) -> None",
    "InvariantResult": "(name: 'str', samples: 'int', failures: 'int', worst_margin: 'float', exploratory: 'bool' = False, error: 'str' = '', worst_index: 'int' = -1) -> None",
    "KrausChannel": "(operators: 'tuple[np.ndarray, ...]') -> None",
    "MonogamyReport": "(hub: 'int', volumes: 'tuple[float, ...]', sqrt_lhs: 'float', two_thirds_lhs: 'float', n_bound: 'float', mean_volume: 'float') -> None",
    "PauliDecomposition": "(a: 'np.ndarray', b: 'np.ndarray', T: 'np.ndarray') -> None",
    "PovmElement": "(e0: 'float', e: 'np.ndarray') -> None",
    "QuantumState": "(n_qubits: 'int', data: 'np.ndarray') -> None",
    "SteeringEllipsoid": "(center: 'np.ndarray', orientation: 'np.ndarray', semiaxes: 'np.ndarray', normalized_volume: 'float', degenerate: 'bool') -> None",
    "SuiteReport": "(results: 'tuple[InvariantResult, ...]') -> None",
    "apply_local": "(channels, rho)",
    "bloch_vector": "(rho: 'StateLike') -> 'np.ndarray'",
    "canonical_form": "(rho: 'StateLike', steering_qubit: 'int' = 0) -> 'QuantumState'",
    "ckw_residual": "(rho: 'StateLike', hub: 'int' = 0) -> 'float'",
    "concurrence": "(rho: 'StateLike') -> 'float'",
    "concurrence_volume_residual": "(rho: 'StateLike', steering_qubit: 'int' = 0) -> 'float'",
    "counterexample_regression": "() -> 'dict'",
    "counterexample_state": "() -> 'QuantumState'",
    "ghz_family": "(alpha: 'float', beta: 'float') -> 'tuple[QuantumState, tuple[float, float]]'",
    "ghz_state": "(n_qubits: 'int' = 3) -> 'QuantumState'",
    "identity_channel": "() -> 'KrausChannel'",
    "isotropic_channel": "(epsilon: 'float') -> 'KrausChannel'",
    "ket_to_density": "(psi: 'StateLike', tol: 'float' = 1e-09) -> 'QuantumState'",
    "l_bcd": "(rho: 'StateLike') -> 'float'",
    "max_volume_state": "(theta: 'float') -> 'QuantumState'",
    "monotonicity_check": "(rho: 'StateLike', channels, tol: 'float' = 1e-09) -> 'tuple[float, float, bool]'",
    "noisy_w_volume": "(p: 'float', epsilon: 'float') -> 'float'",
    "normalized_volume": "(rho: 'StateLike', steering_qubit: 'int' = 0) -> 'float'",
    "pairwise_correlation_sum": "(rho: 'StateLike', pairs: 'Sequence[tuple[int, int]] | None' = None) -> 'float'",
    "partial_trace": "(rho: 'StateLike', keep: 'Iterable[int]') -> 'QuantumState'",
    "pauli_coefficient": "(rho: 'StateLike', labels: 'Sequence[int]') -> 'float'",
    "pauli_decomposition": "(rho: 'StateLike', tol: 'float' = 1e-09) -> 'PauliDecomposition'",
    "polygon_residual": "(psi: 'StateLike') -> 'float'",
    "purified_counterexample": "() -> 'QuantumState'",
    "purity": "(rho: 'StateLike') -> 'float'",
    "purity_identity_residuals_3q": "(psi: 'StateLike') -> 'np.ndarray'",
    "purity_identity_residuals_4q": "(psi: 'StateLike') -> 'np.ndarray'",
    "random_channel": "(seed: 'SeedLike' = None) -> 'KrausChannel'",
    "random_mixed_state": "(n_qubits: 'int', ancilla_qubits: 'int | None' = None, seed: 'SeedLike' = None) -> 'QuantumState'",
    "random_pure_state": "(n_qubits: 'int', seed: 'SeedLike' = None) -> 'QuantumState'",
    "random_separable_two_qubit": "(seed: 'SeedLike' = None, max_terms: 'int' = 4) -> 'QuantumState'",
    "run_conjecture_test": "(n_samples: 'int', master_seed: 'int' = 12345, workers: 'int' = 1) -> 'ConjectureResult'",
    "run_property_suite": "(samples: 'int' = 10000, master_seed: 'int' = 12345, workers: 'int' = 1, explore_mixed_4q: 'bool' = False) -> 'SuiteReport'",
    "singlet_state": "() -> 'QuantumState'",
    "slocc_classify": "(psi: 'StateLike') -> 'SloccClass'",
    "spin_correlation_matrix": "(rho: 'StateLike') -> 'np.ndarray'",
    "steered_point": "(decomp: 'PauliDecomposition', element: 'PovmElement') -> 'np.ndarray'",
    "steering_ellipsoid": "(rho: 'StateLike', steering_qubit: 'int' = 0) -> 'SteeringEllipsoid'",
    "sweep_ghz_region": "(grid_steps: 'int' = 50) -> 'list[GhzSweepRow]'",
    "sweep_noisy_w": "(p_grid: 'Sequence[float] | None' = None, epsilons: 'Sequence[float] | None' = None) -> 'list[NoisyWSweepRow]'",
    "three_tangle": "(psi: 'StateLike') -> 'float'",
    "volume_monogamy_report": "(rho: 'StateLike', hub: 'int' = 0) -> 'MonogamyReport'",
    "w_family": "(p: 'float') -> 'QuantumState'",
    "w_state": "() -> 'QuantumState'",
    "werner_state": "() -> 'QuantumState'",
}  # fmt: skip


def test_exported_names_are_pinned():
    exported = sorted(
        name for name, value in vars(qsteer).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )  # fmt: skip
    assert exported == _PUBLIC_NAMES


def test_signatures_are_pinned():
    got = {
        name: str(inspect.signature(getattr(qsteer, name)))
        for name in _PUBLIC_NAMES
        if inspect.isfunction(getattr(qsteer, name)) or dataclasses.is_dataclass(getattr(qsteer, name))
    }
    assert got == _SIGNATURES
