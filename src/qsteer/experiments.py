"""Batch drivers: conjecture searches, figure-data sweeps, and the invariant suite.

Every Monte-Carlo run draws sample ``i``'s row from ``(master_seed, i)``
alone (``states.sample_rows``), so results are bit-reproducible and
independent of the worker count.  Workers are processes; chunk functions
are module-level functions or partials of them, so they pickle.
"""

from __future__ import annotations

import atexit
import math
from dataclasses import asdict, dataclass
from functools import cache, partial
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from . import channels, ellipsoid, monogamy, states
from .channels import _KRAUS_WIDTH
from .states import _NORMALS, _SEPARABLE_DRAW, _SEPARABLE_WIDTH, _partial_trace_arr

__all__ = [
    "DEFAULT_SEED",
    "CONJECTURE_BOUND",
    "ConjectureResult",
    "GhzSweepRow",
    "NoisyWSweepRow",
    "InvariantResult",
    "SuiteReport",
    "run_conjecture_test",
    "sweep_ghz_region",
    "sweep_noisy_w",
    "run_property_suite",
    "counterexample_regression",
]

DEFAULT_SEED = 12345

CONJECTURE_BOUND = 3.0
# Left-hand sides this close to the bound are logged with their seed even
# though they do not violate it.
_NEAR_MISS_GAP = 1e-3

_DEFAULT_EPSILONS = (0.0, 0.001, 0.005, 0.01)

# The grid sweeps (figures, tables) evaluate their points in blocks of
# states._SAMPLE_BLOCK, the samples whose draw rows the conjecture search and
# the invariant suite reduce together.  256 amortizes most of the per-call
# overhead, not all of it: fig1's columns (_ghz_columns(50)) took 6.16 ms at
# 256, 5.71 at 512 and 9.87 at 2,500 (one block), with peaks of 0.8, 1.5 and
# 6.4 MB (tracemalloc; medians of 40 interleaved runs on one AVX-512 core).


def _open_grid(count: int, upper: float) -> np.ndarray:
    """``count`` uniformly spaced points in the open interval (0, upper)."""
    return np.arange(1, count + 1) / (count + 1) * upper


def _check_run(samples: int, master_seed: int, workers: int) -> None:
    samples = states._integer("sample count", samples)
    master_seed = states._integer("master seed", master_seed)
    workers = states._integer("workers", workers)
    # Sample i's block i // 256 is a 24-bit field of the keys of its draw rows (states._drawn_blocks).
    if not 0 <= samples <= 2**32:
        raise ValueError(f"sample count must lie in [0, 2**32], got {samples}")
    # Checked up front: the suite reports each check's errors instead of raising them.
    if master_seed < 0:
        raise ValueError(f"master seed must be >= 0, got {master_seed}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


@cache
def _pool(workers: int):
    """One process pool per worker count, shared by every parallel run of the process.

    Its workers start once and keep the module state they started with, so
    a later change to it (a monkeypatch, say) does not reach them.
    """
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing, so only when a pool is used

    # Dropped at exit, while concurrent.futures (imported later, so torn down earlier) can still collect it.
    atexit.register(_pool.cache_clear)
    return ProcessPoolExecutor(max_workers=workers)


def _chunks(fn: Callable, n_samples: int, master_seed: int, workers: int) -> list:
    """``fn(master_seed, lo, hi)`` of consecutive chunks [lo, hi) that cover [0, n_samples), in order.

    With ``workers > 1`` the chunks run in the cached process pool of ``_pool``.
    """
    if workers == 1:
        return [fn(master_seed, 0, n_samples)]
    from concurrent.futures.process import BrokenProcessPool

    n_chunks = min(n_samples, 4 * workers)
    bounds = np.linspace(0, n_samples, n_chunks + 1).astype(int)
    pool = _pool(workers)
    try:
        futures = [
            pool.submit(fn, master_seed, int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        return [f.result() for f in futures]
    except BrokenProcessPool:
        # A dead worker breaks the pool for good; later runs get a fresh one.
        _pool.cache_clear()
        raise


def _chunked_values(fn: Callable, n_samples: int, master_seed: int, workers: int) -> np.ndarray:
    """Evaluate ``fn(master_seed, start, stop)`` over [0, n_samples), possibly in parallel.

    The concatenated result is ordered by sample index and identical for
    every worker count, because each sample's row depends on its index alone.
    """
    if n_samples <= 0:
        return np.empty(0)
    return np.concatenate(_chunks(fn, n_samples, master_seed, workers))


class _Stacks:
    """The drawn state stacks that one block's reduces read, each built once and shared read-only.

    A stack is keyed by its builder, qubit count and normals offset, and is
    built by its first reader: ``builder(rows[:count, offset:], n_qubits,
    source)`` over that reader's ``count`` rows, where ``source(builder,
    n_qubits)`` reads another stack at the same count and offset, so a state
    stack is made from the cached kets.  A later reader of fewer rows gets a
    leading slice of the very array the builder returned, never a copy: the
    builders are row-independent, but matmul rounds by operand layout.  A
    tile's columns hold stale floats past the rows it is drawn for, so the
    first reader of a stack should be the one of most rows (``_shared_sampled``
    reduces the largest count first); a reader of more rows rebuilds it.
    """

    def __init__(self, rows: np.ndarray):
        self._rows = rows
        self._built: dict[tuple[Callable, int, int], np.ndarray] = {}

    def reader(self, count: int) -> Callable[..., np.ndarray]:
        """``stack(builder, n_qubits, offset=0)`` of a reduce of the block's first ``count`` rows."""
        return partial(self._stack, count)

    def _stack(self, count: int, builder: Callable, n_qubits: int, offset: int = 0) -> np.ndarray:
        key = (builder, n_qubits, offset)
        stack = self._built.get(key)
        if stack is None or len(stack) < count:
            stack = builder(self._rows[:count, offset:], n_qubits, partial(self._stack, count, offset=offset))
            # Shared by every reduce of the block, so none may write into it.
            stack.flags.writeable = False
            self._built[key] = stack
        return stack[:count]


# The default tolerance of a check's margins.
_TOL = 1e-9


@dataclass(frozen=True)
class _InvariantCheck:
    """Values at most ``bound`` within ``tol``, from a random-sample check (``width``, ``reduce``, ``draw``: see
    ``_shared_sampled``) or a grid check (``fn``); the values hold no tolerance, and ``margins`` is the one rule."""

    name: str
    samples: int
    width: int = 0
    reduce: Callable | None = None
    draw: states._Draw = _NORMALS
    fn: Callable | None = None
    exploratory: bool = False
    bound: float = 0.0
    tol: float = _TOL

    @property
    def scaled(self) -> bool:
        """Whether the sample count scales with the run's: true of every random-sample check."""
        return self.fn is None

    def margins(self, values: np.ndarray) -> np.ndarray:
        """``(bound + tol) - values``, so that >= 0 passes; a NaN value is a forced failure, of margin -1."""
        return np.where(np.isnan(values), -1.0, (self.bound + self.tol) - values)


def _shared_sampled(
    master_seed: int, start: int, stop: int, checks: Sequence[tuple[int, _InvariantCheck]]
) -> tuple[list[np.ndarray], list[Exception | None]]:
    """Values over [start, stop) and first exceptions of random-sample checks ``(count, check)``.

    Check k reads the first ``width_k`` floats of the ``draw_k`` rows of samples [0, count_k)
    (``states.sample_rows``); ``reduce_k(block, stack)`` maps a view of at most 256 of them to
    their values, reading the block's state stacks through ``stack`` (``_Stacks``).  Checks with
    the same draw share one pass (``states._drawn_blocks``), and a block's reduces run largest
    count first, so each stack is built once, over the rows of its largest reader.  A reduce
    that raises gives its check the exception of its first failing block and no later blocks;
    the other checks go on.  The row array is reused: a reduce must neither keep nor write it.
    """
    values = [np.empty(max(0, min(count, stop) - start)) for count, _ in checks]
    errors: list[Exception | None] = [None] * len(checks)
    for draw in dict.fromkeys(check.draw for _, check in checks):
        group = [(k, count, check.width, check.reduce) for k, (count, check) in enumerate(checks) if check.draw == draw]
        group = sorted((member for member in group if member[1] > start), key=lambda member: -member[1])
        reads = [(count, width) for _, count, width, _ in group]
        for lo, rows in (states._drawn_blocks(master_seed, start, stop, draw, reads) if group else ()):
            stacks = _Stacks(rows)
            for k, count, width, reduce in group:
                n = min(count, lo + len(rows)) - lo
                if n <= 0 or errors[k] is not None:
                    continue
                try:
                    values[k][lo - start : lo - start + n] = reduce(rows[:n, :width], stacks.reader(n))
                except Exception as exc:  # noqa: BLE001 - one check's error must not stop the others
                    errors[k] = exc
    return values, errors


def _sampled(master_seed: int, start: int, stop: int, check: _InvariantCheck) -> np.ndarray:
    """One value per sample in [start, stop): ``_shared_sampled`` of the one check, which raises its error."""
    (values,), (error,) = _shared_sampled(master_seed, start, stop, ((stop, check),))
    if error is not None:
        raise error
    return values


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# --- conjecture search ---------------------------------------------------------


@dataclass(frozen=True)
class ConjectureResult:
    """Outcome of a random search for violations of the pairwise-correlation bound.

    ``worst_state_seed`` is the index i of the largest left-hand side, -1 for
    an empty run; ``pairwise_correlation_sum`` over the hub pairs of the ket
    ``states._haar_arr(states.sample_rows(master_seed, i, i + 1, 32)[0])``
    gives ``max_lhs`` bit for bit.  Near misses (lhs within 1e-3 of the
    bound) are kept for inspection even though they are not violations.
    """

    samples: int
    violations: int
    max_lhs: float
    worst_state_seed: int
    near_misses: tuple[tuple[int, float], ...] = ()

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "violations": self.violations,
            "max_lhs": self.max_lhs,
            "worst_state_seed": self.worst_state_seed,
            "near_misses": [[idx, lhs] for idx, lhs in self.near_misses],
        }


def _pure4_block_lhs(draws: np.ndarray, stack: Callable) -> np.ndarray:
    """Hub correlation sums of the kets whose real and imaginary parts are the rows of ``draws``."""
    # _haar_arr normalizes each ket exactly as random_pure_state does.
    kets = stack(_pure_kets, 4)
    return monogamy._correlation_sum_arr(kets, 4, [(0, 1), (0, 2), (0, 3)], pure=True)


# The conjecture search: one more random-sample check, run alone; its values are the left-hand sides and
# its count is the default of ``qsteer conjecture``.
_CONJECTURE = _InvariantCheck("pure4_hub_correlation_sum", 100_000, 32, _pure4_block_lhs, bound=CONJECTURE_BOUND)


def run_conjecture_test(n_samples: int, master_seed: int = DEFAULT_SEED, workers: int = 1) -> ConjectureResult:
    """Sample Haar-random pure 4-qubit states and test the hub correlation sum <= 3.

    The left-hand side is Tr[T_AB T_AB^t] + Tr[T_AC T_AC^t] +
    Tr[T_AD T_AD^t]; a violation is a strict excess beyond 3 + 1e-9.
    """
    _check_run(n_samples, master_seed, workers)
    values = _chunked_values(partial(_sampled, check=_CONJECTURE), n_samples, master_seed, workers)
    if values.size == 0:
        return ConjectureResult(samples=0, violations=0, max_lhs=float("-inf"), worst_state_seed=-1)
    worst = int(np.argmax(values))
    near = [(int(i), float(values[i])) for i in np.nonzero(values > CONJECTURE_BOUND - _NEAR_MISS_GAP)[0]]
    return ConjectureResult(
        samples=int(values.size),
        violations=int(np.count_nonzero(_CONJECTURE.margins(values) < 0)),
        max_lhs=float(values[worst]),
        worst_state_seed=worst,
        near_misses=tuple(near),
    )


# --- sweeps --------------------------------------------------------------------


@dataclass(frozen=True)
class GhzSweepRow:
    """One grid point of the GHZ-class family against its predicted volume coordinates."""

    alpha: float
    beta: float
    volume_b: float
    volume_c: float
    predicted_b: float
    predicted_c: float
    residual_b: float
    residual_c: float
    sqrt_lhs: float


@dataclass(frozen=True)
class NoisyWSweepRow:
    """One (p, epsilon) point of the symmetric W family under isotropic noise."""

    p: float
    epsilon: float
    volume_closed_form: float
    volume_numeric: float
    residual: float
    lhs: float


def _blocks(count: int):
    """Slices that cover range(count) in blocks of at most states._SAMPLE_BLOCK."""
    return [slice(lo, min(lo + states._SAMPLE_BLOCK, count)) for lo in range(0, count, states._SAMPLE_BLOCK)]


def _rows(row_type: type, columns: Sequence[np.ndarray]) -> list:
    """One ``row_type`` per index of the equal-length ``columns``, which are in field order."""
    return [row_type(*row) for row in zip(*(col.tolist() for col in columns))]


def sweep_ghz_region(grid_steps: int = 50) -> list[GhzSweepRow]:
    """Compare computed volumes of the GHZ-class family against the (x, y) map.

    Walks a uniform ``grid_steps`` x ``grid_steps`` grid over the open
    square (0, pi/2)^2, alpha-major.
    """
    return _rows(GhzSweepRow, _ghz_columns(grid_steps))


def _ghz_columns(grid_steps: int) -> tuple[np.ndarray, ...]:
    """The float64 columns of ``sweep_ghz_region``, in ``GhzSweepRow`` field order."""
    grid_steps = states._integer("grid_steps", grid_steps)
    if grid_steps < 2:
        raise ValueError("grid_steps must be >= 2")
    alpha = np.empty(grid_steps * grid_steps)  # first, so that a grid too large is refused before any work
    angles = _open_grid(grid_steps, math.pi / 2.0)
    alpha.reshape(grid_steps, grid_steps)[...] = angles[:, None]
    beta = np.tile(angles, grid_steps)
    # Every factor and prediction is a function of one or two of the grid_steps angles.
    sin_t, cos_t, cos_2t = monogamy._ghz_factors("grid angle", angles)
    x_pred, y_pred = (p.ravel() for p in monogamy._ghz_predictions(cos_2t[:, None], cos_2t))
    volumes = np.empty((2, alpha.size))
    # Each block gathers its factors and builds its own kets, so no column of kets spans the grid.
    for block in _blocks(alpha.size):
        i_alpha, i_beta = np.divmod(np.arange(block.start, block.stop), grid_steps)
        kets = monogamy._ghz_kets(sin_t[i_alpha], cos_t[i_alpha], sin_t[i_beta], cos_t[i_beta])
        volumes[:, block] = monogamy._hub_volumes(kets, 3, 0, pure=True)
    v_b, v_c = volumes
    residuals = np.abs(v_b - x_pred), np.abs(v_c - y_pred)
    return alpha, beta, v_b, v_c, x_pred, y_pred, *residuals, monogamy._sqrt_lhs(volumes)


def sweep_noisy_w(
    p_grid: Sequence[float] | None = None,
    epsilons: Sequence[float] | None = None,
) -> list[NoisyWSweepRow]:
    """Noisy W-family volumes: closed form vs the channels applied to the kept pair rho_AB.

    C's channel is trace preserving and cannot change rho_AB, so only A's and B's are applied.  ``lhs`` is
    the numeric sqrt-volume sum sqrt(v') + sqrt(v') of the two symmetric pairs; rows run epsilon-major.
    Defaults: 100 p-values on (0, 1) and strengths (0, 0.001, 0.005, 0.01).
    """
    return _rows(NoisyWSweepRow, _noisy_w_columns(p_grid, epsilons))


def _noisy_w_columns(p_grid: Sequence[float] | None, epsilons: Sequence[float] | None) -> tuple[np.ndarray, ...]:
    """The float64 columns of ``sweep_noisy_w``, in ``NoisyWSweepRow`` field order; the noise acts on the 4 x 4 rho_AB."""
    p = np.asarray(_open_grid(100, 1.0) if p_grid is None else p_grid, dtype=float).reshape(-1)
    eps = np.asarray(_DEFAULT_EPSILONS if epsilons is None else epsilons, dtype=float).reshape(-1)
    for name, values in (("p_grid", p), ("epsilons", eps)):
        if values.size == 0:
            raise ValueError(f"{name} must not be empty")
    closed = channels._noisy_w_volume_arr(p, eps[:, None])
    kets = monogamy._w_family_arr(p)
    sups = channels._superoperator_arr(channels._isotropic_kraus_arr(eps))
    numeric = np.empty(closed.shape)
    for block in _blocks(p.size):
        # Trace C away first, then noise the (1, N) pair stack under every strength at once: one volume call.
        pair = states._reduced_arr(kets[block], 3, [(0, 1)], pure=True)
        numeric[:, block] = ellipsoid._volume_arr(channels._apply_local_arr([sups] * 2, pair, 2))
    return (
        np.tile(p, eps.size), np.repeat(eps, p.size), closed.ravel(), numeric.ravel(),
        np.abs(closed - numeric).ravel(), monogamy._sqrt_lhs([numeric, numeric]).ravel(),
    )


# --- counterexample regression ---------------------------------------------------


def counterexample_regression() -> dict:
    """Volumes of the monogamy counterexample and of its 4-qubit purification."""
    report3 = monogamy.volume_monogamy_report(monogamy.counterexample_state(), hub=0)
    report4 = monogamy.volume_monogamy_report(monogamy.purified_counterexample(), hub=0)
    return {
        "volumes": list(report3.volumes),
        "sqrt_lhs": report3.sqrt_lhs,
        "two_thirds_lhs": report3.two_thirds_lhs,
        "purified_volumes": list(report4.volumes),
        "purified_sqrt_lhs": report4.sqrt_lhs,
    }


# --- invariant suite -------------------------------------------------------------

_POINTS_PER_STATE = 100

# Each random-sample check is a draw row (states.sample_rows), holding the
# numbers the public samplers take, in their order, and a reduce, which does
# all the arithmetic on a block of rows with stacked kernels.  A _NORMALS row
# holds the normals of every Haar ket and unitary (real parts, then imaginary
# parts); the checks that read one share it (_shared_sampled), and their
# reduces read its kets, states, hub volumes and steered points from one
# cache per block.


def _pure_width(n_qubits: int) -> int:
    """Normals behind one Haar-random pure n-qubit ket."""
    return 2 ** (n_qubits + 1)


def _mixed_width(n_qubits: int) -> int:
    """Normals behind one induced-measure mixed n-qubit state (an n-qubit ancilla)."""
    return 2 ** (2 * n_qubits + 1)


# The stack builders of _Stacks: ``builder(draws, n_qubits, source)``, where
# ``source(builder, n_qubits)`` reads another stack of the same rows.


def _pure_kets(draws: np.ndarray, n_qubits: int, source: Callable) -> np.ndarray:
    return states._haar_arr(draws[:, : _pure_width(n_qubits)])


def _pure_states(draws: np.ndarray, n_qubits: int, source: Callable) -> np.ndarray:
    return states._densities(source(_pure_kets, n_qubits))


def _mixed_kets(draws: np.ndarray, n_qubits: int, source: Callable) -> np.ndarray:
    """Haar kets of n system and n ancilla qubits: as (N, 2**n, 2**n), factors A of the induced states A A^dagger."""
    return states._haar_arr(draws[:, : _mixed_width(n_qubits)])


def _mixed_states(draws: np.ndarray, n_qubits: int, source: Callable) -> np.ndarray:
    return states._induced_arr(source(_mixed_kets, n_qubits), n_qubits)


def _pure_hub_volumes(draws: np.ndarray, n_qubits: int, source: Callable) -> np.ndarray:
    """Hub-0 volumes (N, n - 1) of the pure states, traced from their kets."""
    return monogamy._hub_volumes(source(_pure_kets, n_qubits), n_qubits, 0, pure=True).T


def _mixed_hub_volumes(draws: np.ndarray, n_qubits: int, source: Callable) -> np.ndarray:
    """Hub-0 volumes (N, n - 1) of the induced mixed states; at n = 2, v_{B|A} with ``_volume_arr``'s bits."""
    return monogamy._hub_volumes(source(_mixed_states, n_qubits), n_qubits, 0).T


def _reconstruction_error(draws: np.ndarray, stack: Callable) -> np.ndarray:
    mat = stack(_mixed_states, 2)
    rebuilt = states._reconstruct_arr(*states._pauli_arr(mat))
    return np.max(np.abs(rebuilt - mat), axis=(1, 2))


def _ptrace_composition_error(draws: np.ndarray, stack: Callable) -> np.ndarray:
    mat = stack(_mixed_states, 3)
    direct = _partial_trace_arr(mat, [0], 3)
    stepwise = _partial_trace_arr(_partial_trace_arr(mat, [0, 1], 3), [0], 2)
    return np.max(np.abs(direct - stepwise), axis=(1, 2))


def _purity_asymmetry(draws: np.ndarray, stack: Callable) -> np.ndarray:
    mat = stack(_pure_states, 3)
    p_ab = states._purity_arr(_partial_trace_arr(mat, [0, 1], 3))
    p_c = states._purity_arr(_partial_trace_arr(mat, [2], 3))
    return np.abs(p_ab - p_c)


def _validated(draws: np.ndarray, stack: Callable) -> np.ndarray:
    # The stacked validator of QuantumState.from_amplitudes and from_matrix, on the states that
    # random_pure_state(3) and then random_mixed_state(3) build from the same 16 + 128 normals.
    states._validate_arr(stack(_pure_kets, 3), states.DEFAULT_TOL)
    states._validate_arr(stack(_mixed_states, 3, _pure_width(3)), states.DEFAULT_TOL)
    return np.zeros(len(draws))


def _volume_canonical_error(draws: np.ndarray, stack: Callable) -> np.ndarray:
    t_canon = states._spin_corr_arr(ellipsoid._canonical_arr(stack(_mixed_states, 2), 2, 0))
    return np.abs(stack(_mixed_hub_volumes, 2)[:, 0] - np.abs(np.linalg.det(t_canon)))


# A mixed two-qubit state, then the normals of its steering directions.
_STEERED_WIDTH = _mixed_width(2) + 3 * _POINTS_PER_STATE


def _steered_points(draws: np.ndarray, n_qubits: int, source: Callable) -> np.ndarray:
    """Steered Bloch vectors (N, 100, 3) of the mixed states, along each row's normalized directions."""
    raw = draws[:, _mixed_width(2) : _STEERED_WIDTH].reshape(len(draws), _POINTS_PER_STATE, 3)
    e = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
    return ellipsoid._steered_arr(*states._pauli_arr(source(_mixed_states, n_qubits)), e)


def _steered_norm(draws: np.ndarray, stack: Callable) -> np.ndarray:
    return np.max(np.linalg.norm(stack(_steered_points, 2), axis=-1), axis=-1)


def _steered_form(draws: np.ndarray, stack: Callable) -> np.ndarray:
    points, (a, b, T) = stack(_steered_points, 2), states._pauli_arr(stack(_mixed_states, 2))
    # Every row, not a fancy-indexed copy of T: matmul sums in another order
    # when the strides of T change.
    live, center, q = ellipsoid._center_orientation(a, b, T, ellipsoid._gamma(a))
    # Where the quadratic form is undefined the value is 0, the form's value at
    # the centre; containment is covered by the Bloch-ball check.
    firm = live & (np.linalg.eigvalsh(q)[:, 0] > 1e-10)
    delta = points[firm] - center[firm, None, :]
    solved = np.swapaxes(np.linalg.solve(q[firm], np.swapaxes(delta, 1, 2)), 1, 2)
    out = np.zeros(len(draws))
    out[firm] = np.max(np.einsum("nij,nij->ni", delta, solved), axis=-1)
    return out


def _separable_volumes(draws: np.ndarray, stack: Callable) -> np.ndarray:
    return ellipsoid._volume_arr(states._separable_arr(draws))


def _volume_excess(draws: np.ndarray, stack: Callable) -> np.ndarray:
    """How far each volume lies outside [0, 1]: the larger of -v and v - 1."""
    mat, v = stack(_mixed_states, 2), stack(_mixed_hub_volumes, 2)[:, 0]
    values = np.maximum(-v, v - 1.0)
    unit = np.flatnonzero(v >= 1.0 - _TOL)
    if unit.size:
        # Unit volume must certify a pure entangled state.
        mixed = states._purity_arr(mat[unit]) < 1.0 - _TOL
        values[unit[(monogamy._concurrence_arr(monogamy._eigh_factor(mat[unit])) <= 0.0) | mixed]] = np.nan
    return values


def _monogamy_sum(draws: np.ndarray, stack: Callable, *, n_qubits: int, pure: bool, lhs: str) -> np.ndarray:
    """The ``MonogamyReport`` field ``lhs`` of each row's hub-0 volumes."""
    volumes = stack(_pure_hub_volumes if pure else _mixed_hub_volumes, n_qubits)
    return monogamy._RELATION_SUMS[lhs](volumes.T)


def _relation(name: str, samples: int, n_qubits: int, pure: bool, lhs: str, bound: float, **kw) -> _InvariantCheck:
    """The row of ``MonogamyReport.<lhs> <= bound`` on Haar-random pure or induced mixed n-qubit states."""
    width = _pure_width(n_qubits) if pure else _mixed_width(n_qubits)
    reduce = partial(_monogamy_sum, n_qubits=n_qubits, pure=pure, lhs=lhs)
    return _InvariantCheck(name, samples, width, reduce, bound=bound, **kw)


def _correlation_sum(draws: np.ndarray, stack: Callable, *, pure: bool) -> np.ndarray:
    """|sum - 3| of the pure states' pairwise correlation sums, or the mixed states' sums."""
    mat = stack(_pure_states if pure else _mixed_states, 3)
    total = monogamy._correlation_sum_arr(mat, 3, list(combinations(range(3), 2)))
    return np.abs(total - 3.0) if pure else total


def _purity_identity_error(draws: np.ndarray, stack: Callable, *, n_qubits: int) -> np.ndarray:
    mat = stack(_pure_states, n_qubits)
    monogamy._check_pure_arr(mat)
    if n_qubits == 3:
        residuals = monogamy._purity_residuals_3q_arr(mat)
    else:
        residuals = monogamy._purity_residuals_4q_arr(mat)
    return np.max(np.abs(residuals), axis=-1)


def _canonical_equality_error(draws: np.ndarray, stack: Callable) -> np.ndarray:
    mat = ellipsoid._canonical_arr(stack(_pure_states, 3), 3, 0)
    v_b, v_c = monogamy._hub_volumes(mat, 3, 0)
    b2, c2 = monogamy._bloch_norms_sq(mat, 3, (1, 2))
    return np.maximum(np.abs(v_b - c2), np.abs(v_c - b2))


def _polygon_excess(draws: np.ndarray, stack: Callable) -> np.ndarray:
    mat = stack(_pure_states, 3)
    monogamy._check_pure_arr(mat)
    return -monogamy._polygon_arr(mat)


def _concurrence_volume_excess(draws: np.ndarray, stack: Callable) -> np.ndarray:
    return -monogamy._concurrence_volume_arr(stack(_mixed_states, 2), stack(_mixed_kets, 2).reshape(-1, 4, 4))


def _ckw_excess(draws: np.ndarray, stack: Callable) -> np.ndarray:
    return -monogamy._ckw_arr(stack(_mixed_kets, 3).reshape(-1, 8, 8), 0)


def _tangle_volume_excess(draws: np.ndarray, stack: Callable) -> np.ndarray:
    kets, mat = stack(_pure_kets, 3), stack(_pure_states, 3)
    monogamy._check_pure_arr(mat)
    tangle = monogamy._three_tangle_arr(kets)
    (a2,) = monogamy._bloch_norms_sq(mat, 3, (0,))
    # The pure3_sqrt_volume_monogamy row's volumes: traced from the kets, with the densities' bits.
    lhs = monogamy._sqrt_lhs(stack(_pure_hub_volumes, 3).T)
    return (1.0 - a2) * (1.0 - lhs) - tangle


def _max_volume_codes(theta) -> np.ndarray:
    """Indices into monogamy._SLOCC_CLASSES of the class each ``max_volume_state(theta)`` has.

    Qubit 0 is maximally mixed; qubits 1 and 2 have smallest marginal
    eigenvalues cos^2(theta)/2 and sin^2(theta)/2.  Within about 4.5e-5 of
    an end of [0, pi/2] one of these falls below RANK_TOL, so that qubit
    factors out, and the state still saturates the bound.
    """
    code = monogamy._SLOCC_CLASSES.index
    # float_power calls the C pow, as Python's float ** does.
    return np.where(
        np.float_power(np.cos(theta), 2) / 2.0 < monogamy.RANK_TOL,
        code(monogamy.SloccClass.BIPARTITE_AC_B),
        np.where(
            np.float_power(np.sin(theta), 2) / 2.0 < monogamy.RANK_TOL,
            code(monogamy.SloccClass.BIPARTITE_AB_C),
            code(monogamy.SloccClass.W_CLASS),
        ),
    )


# random(), which times pi/2 is bit for bit uniform(0, pi/2), then the normals of three Haar 2x2 unitaries.
_WCLASS_DRAW = states._Draw(1, ((np.random.Generator.random, 1), (states._standard_normal, 24)))


def _wclass_kets(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """theta and the kets of ``max_volume_state(theta)`` under each row's three local unitaries."""
    theta = draws[:, 0] * (math.pi / 2.0)
    u = states._haar_unitary_arr(draws[:, 1:].reshape(len(draws), 3, 8), 2)
    local = states._kron_arr(states._kron_arr(u[:, 0], u[:, 1]), u[:, 2])
    return theta, (local @ monogamy._max_volume_arr(theta)[:, :, None])[:, :, 0]


def _wclass_distance(draws: np.ndarray, stack: Callable) -> np.ndarray:
    """|sqrt_lhs - 1| of each state, or NaN (a forced failure) where its SLOCC class is not the expected one."""
    theta, vec = _wclass_kets(draws)
    mat = states._densities(vec)
    distance = np.abs(monogamy._sqrt_lhs(monogamy._hub_volumes(mat, 3, 0)) - 1.0)
    monogamy._check_pure_arr(mat)
    return np.where(monogamy._slocc_codes(vec) == _max_volume_codes(theta), distance, np.nan)


def _noisy(mat: np.ndarray, draws: np.ndarray, n_qubits: int) -> np.ndarray:
    """``mat`` after one random channel per qubit, drawn from ``draws`` (N, n_qubits * _KRAUS_WIDTH)."""
    sups = channels._superoperator_arr(channels._random_kraus_arr(draws.reshape(len(draws), n_qubits, _KRAUS_WIDTH)))
    return channels._apply_local_arr([sups[:, q] for q in range(n_qubits)], mat, n_qubits)


def _volume_gain(draws: np.ndarray, stack: Callable) -> np.ndarray:
    """The volume each state gains under its local noise."""
    noisy = _noisy(stack(_mixed_states, 2), draws[:, _mixed_width(2) :], 2)
    return ellipsoid._volume_arr(noisy) - stack(_mixed_hub_volumes, 2)[:, 0]


def _noisy_pure3_sqrt_lhs(draws: np.ndarray, stack: Callable) -> np.ndarray:
    noisy = _noisy(stack(_pure_states, 3), draws[:, _pure_width(3) :], 3)
    return monogamy._sqrt_lhs(monogamy._hub_volumes(noisy, 3, 0))


def _inv_noisy_w_closed_form(master_seed: int, start: int, stop: int) -> np.ndarray:
    # Deterministic 20 x 5 grid; the index selects a row of the epsilon-major sweep.
    residual = _noisy_w_columns(_open_grid(20, 1.0), (0.0, 0.001, 0.005, 0.01, 0.1))[4]
    return residual[start:stop]


def _inv_ghz_mapping(master_seed: int, start: int, stop: int) -> np.ndarray:
    # Deterministic 20 x 20 grid over the open square (0, pi/2)^2, alpha-major.
    residual_b, residual_c = _ghz_columns(20)[6:8]
    return np.maximum(residual_b, residual_c)[start:stop]


def _inv_counterexample(master_seed: int, start: int, stop: int) -> np.ndarray:
    # Its record's tol is 0: the first entry checks sqrt_lhs within 1e-4 of exact, the second purified >= 1.
    regression = counterexample_regression()
    exact = 2.0 * math.sqrt(8.0 / 27.0)
    values = [abs(regression["sqrt_lhs"] - exact) - 1e-4, 1.0 - regression["purified_sqrt_lhs"]]
    return np.array(values[start:stop])


# Each row is an _InvariantCheck record.  A random-sample row sets its count at
# 10^4 scale, the width and draw of its rows and its reduce, which the suite
# runs in one shared pass (_shared_outcomes); a grid row sets its grid size and
# fn(master_seed, start, stop), which the suite calls once, in process.  An
# inequality whose kernel returns a slack s >= 0 returns its excess -s <= 0.
_SUITE: tuple[_InvariantCheck, ...] = (
    _InvariantCheck("state_reconstruction_round_trip", 10_000, _mixed_width(2), _reconstruction_error, tol=1e-10),
    _InvariantCheck("partial_trace_composition", 10_000, _mixed_width(3), _ptrace_composition_error, tol=1e-12),
    _InvariantCheck("pure3_purity_bipartition_symmetry", 10_000, _pure_width(3), _purity_asymmetry, tol=1e-10),
    _InvariantCheck("sampled_state_validity", 10_000, _pure_width(3) + _mixed_width(3), _validated, bound=1.0, tol=0.0),
    _InvariantCheck("volume_matches_canonical_form", 10_000, _mixed_width(2), _volume_canonical_error),
    _InvariantCheck("steered_points_inside_bloch_ball", 1_000, _STEERED_WIDTH, _steered_norm, bound=1.0, tol=1e-8),
    _InvariantCheck("steered_points_inside_ellipsoid", 1_000, _STEERED_WIDTH, _steered_form, bound=1.0, tol=1e-6),
    _InvariantCheck("separable_volume_bound", 10_000, _SEPARABLE_WIDTH, _separable_volumes, _SEPARABLE_DRAW, bound=1 / 27),
    _InvariantCheck("volume_in_unit_interval", 10_000, _mixed_width(2), _volume_excess),
    _relation("pure3_sqrt_volume_monogamy", 10_000, 3, True, "sqrt_lhs", 1.0),
    _relation("mixed3_twothirds_volume_monogamy", 10_000, 3, False, "two_thirds_lhs", 1.0),
    _relation("pure4_twothirds_volume_monogamy", 10_000, 4, True, "two_thirds_lhs", 1.0),
    _relation("mixed5_twothirds_volume_sum", 1_000, 5, False, "two_thirds_lhs", 2.0),
    _relation("mixed5_mean_volume", 1_000, 5, False, "mean_volume", 0.5),
    _InvariantCheck("pure3_correlation_identity", 10_000, _pure_width(3), partial(_correlation_sum, pure=True)),
    _InvariantCheck("mixed3_correlation_bound", 10_000, _mixed_width(3), partial(_correlation_sum, pure=False), bound=3.0),
    _InvariantCheck("pure3_purity_identities", 10_000, _pure_width(3), partial(_purity_identity_error, n_qubits=3)),
    _InvariantCheck("pure4_purity_identities", 10_000, _pure_width(4), partial(_purity_identity_error, n_qubits=4)),
    _InvariantCheck("canonical_volume_equalities", 10_000, _pure_width(3), _canonical_equality_error),
    _InvariantCheck("polygon_inequality", 10_000, _pure_width(3), _polygon_excess),
    _InvariantCheck("concurrence_volume_bound", 10_000, _mixed_width(2), _concurrence_volume_excess),
    _InvariantCheck("ckw_inequality", 10_000, _mixed_width(3), _ckw_excess),
    _InvariantCheck("tangle_volume_bound", 10_000, _pure_width(3), _tangle_volume_excess),
    _InvariantCheck("wclass_saturation", 10_000, 1 + 3 * 8, _wclass_distance, _WCLASS_DRAW, tol=1e-8),
    _InvariantCheck("channel_volume_monotonicity", 10_000, _mixed_width(2) + 2 * _KRAUS_WIDTH, _volume_gain),
    _InvariantCheck("noisy_pure3_monogamy", 1_000, _pure_width(3) + 3 * _KRAUS_WIDTH, _noisy_pure3_sqrt_lhs, bound=1.0),
    _InvariantCheck("noisy_w_closed_form", 100, fn=_inv_noisy_w_closed_form),
    _InvariantCheck("ghz_family_mapping", 400, fn=_inv_ghz_mapping),
    _InvariantCheck("counterexample_regression", 2, fn=_inv_counterexample, tol=0.0),
)

_EXPLORATORY = _relation("mixed4_twothirds_exploration", 10_000, 4, False, "two_thirds_lhs", 1.0, exploratory=True)


@dataclass(frozen=True)
class InvariantResult:
    """Per-invariant outcome: failures, the worst (most negative) margin, its index (-1: none) outside ``to_dict``."""

    name: str
    samples: int
    failures: int
    worst_margin: float
    exploratory: bool = False
    error: str = ""
    worst_index: int = -1

    @property
    def passed(self) -> bool:
        return self.failures == 0 and not self.error

    def to_dict(self) -> dict:
        return {key: value for key, value in asdict(self).items() if key != "worst_index"}


@dataclass(frozen=True)
class SuiteReport:
    results: tuple[InvariantResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results if not r.exploratory)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "invariants": [r.to_dict() for r in self.results]}


def _scaled_count(check: _InvariantCheck, samples: int) -> int:
    if not check.scaled:
        return check.samples
    # At least one sample per check for any nonzero scale; none for zero.
    return max(1, round(check.samples * samples / 10_000)) if samples else 0


def _shared_outcomes(
    checks: Sequence[_InvariantCheck], counts: Sequence[int], master_seed: int, workers: int
) -> dict[int, tuple[np.ndarray, str]]:
    """``(values, error)`` by position in ``checks`` of every random-sample (``scaled``) check.

    They share one pass over the samples (``_shared_sampled``), chunked over
    [0, largest count) for ``workers > 1``; the error text of a check is that
    of its first failing chunk.
    """
    shared = [k for k, check in enumerate(checks) if check.scaled]
    n_samples = max((counts[k] for k in shared), default=0)
    if n_samples == 0:
        return {k: (np.empty(0), "") for k in shared}
    parts = tuple((counts[k], checks[k]) for k in shared)
    try:
        chunks = _chunks(partial(_shared_sampled, checks=parts), n_samples, master_seed, workers)
    except Exception as exc:  # noqa: BLE001 - suite must report, not crash
        return {k: (np.empty(0), _error_text(exc)) for k in shared}
    return {
        k: (
            np.concatenate([values[j] for values, _ in chunks]),
            next((_error_text(errors[j]) for _, errors in chunks if errors[j] is not None), ""),
        )
        for j, k in enumerate(shared)
    }


def run_property_suite(
    samples: int = 10_000,
    master_seed: int = DEFAULT_SEED,
    workers: int = 1,
    explore_mixed_4q: bool = False,
) -> SuiteReport:
    """Run every invariant over fresh seeded ensembles and report margins.

    ``samples`` rescales the Monte-Carlo ensemble sizes relative to their
    defaults (10^4 for most checks); deterministic grid checks keep their
    size.  The optional mixed-4-qubit check records violations of the
    2/3-power bound without failing the suite, since that case is open.
    """
    _check_run(samples, master_seed, workers)
    checks = _SUITE + ((_EXPLORATORY,) if explore_mixed_4q else ())
    counts = [_scaled_count(check, samples) for check in checks]
    outcomes = _shared_outcomes(checks, counts, master_seed, workers)
    results = []
    for k, (check, count) in enumerate(zip(checks, counts)):
        if k in outcomes:
            values, error = outcomes[k]
        else:
            # A grid check computes its whole grid on every call, so it runs once, in this process.
            try:
                values, error = _chunked_values(check.fn, count, master_seed, 1), ""
            except Exception as exc:  # noqa: BLE001 - suite must report, not crash
                error = _error_text(exc)
        failures, worst, index = count, float("-inf"), -1
        if not error:
            margins = check.margins(values)
            count, failures = int(margins.size), int(np.count_nonzero(margins < 0))
            index = int(np.argmin(margins)) if margins.size else -1
            worst = float(margins[index]) if margins.size else float("inf")
        results.append(InvariantResult(check.name, count, failures, worst, check.exploratory, error, index))
    return SuiteReport(tuple(results))
