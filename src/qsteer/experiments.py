"""Batch drivers: conjecture searches, figure-data sweeps, and the invariant suite.

Every Monte-Carlo run derives the RNG stream of sample ``i`` from
``(master_seed, i)``, so results are bit-reproducible and independent of
the worker count.  Workers are processes; chunk functions are module-level
functions or partials of them, so they pickle.
"""

from __future__ import annotations

import atexit
import math
from dataclasses import asdict, dataclass
from functools import cache, partial
from itertools import combinations, islice
from typing import Callable, Sequence

import numpy as np

from . import channels, ellipsoid, monogamy, states
from .channels import _KRAUS_WIDTH
from .states import _draw_separable, _partial_trace_arr, sample_streams

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
_CONJECTURE_TOL = 1e-9
# Left-hand sides this close to the bound are logged with their seed even
# though they do not violate it.
_NEAR_MISS_GAP = 1e-3

_DEFAULT_EPSILONS = (0.0, 0.001, 0.005, 0.01)

# Samples or grid points the batched kernels (conjecture search, invariant
# suite, figure sweeps) reduce together.  256 already amortizes the per-call overhead; larger blocks only
# raise peak memory (one block of 2,500 samples added about 5 MB).
_BLOCK = 256


def _open_grid(count: int, upper: float) -> np.ndarray:
    """``count`` uniformly spaced points in the open interval (0, upper)."""
    return np.arange(1, count + 1) / (count + 1) * upper


def _check_run(samples: int, master_seed: int, workers: int) -> None:
    samples = states._integer("sample count", samples)
    master_seed = states._integer("master seed", master_seed)
    workers = states._integer("workers", workers)
    # Sample i draws from stream (master_seed, i), whose index is one uint32 word.
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
    every worker count, because each sample seeds its own stream.
    """
    if n_samples <= 0:
        return np.empty(0)
    return np.concatenate(_chunks(fn, n_samples, master_seed, workers))


def _normals(rng: np.random.Generator, row: np.ndarray) -> None:
    rng.standard_normal(out=row)


class _Stacks:
    """The drawn state stacks that one block's reduces read, each built once and shared read-only.

    A stack is keyed by its builder, qubit count and normals offset, and is
    built by its first reader: ``builder(rows[:count, offset:], n_qubits,
    source)`` over that reader's ``count`` rows, where ``source(builder,
    n_qubits)`` reads another stack at the same count and offset, so a state
    stack is made from the cached kets.  A later reader of fewer rows gets a
    leading slice of the very array the builder returned, never a copy: the
    builders are row-independent, but matmul rounds by operand layout.  Past
    a segment end the block's rows hold only that segment's width, so the
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


def _shared_sampled(
    master_seed: int, start: int, stop: int, checks: Sequence[tuple[int, int, Callable, Callable]]
) -> tuple[list[np.ndarray], list[Exception | None]]:
    """Values over [start, stop) and first exceptions of random-sample checks ``(count, width, reduce, draw)``.

    Check k covers samples [0, count_k).  ``draw_k(rng, row)`` fills the
    first ``width_k`` floats of sample i's row from its stream;
    ``reduce_k(block, stack)`` maps a block of at most _BLOCK rows, a view
    of their first ``width_k`` floats, to their values, reading the block's
    state stacks through ``stack`` (``_Stacks``).  Checks with the same draw
    share one pass: each sample's stream is re-keyed and drawn once, into a
    row as wide as the widest of them that covers it (one
    ``standard_normal(k)`` call is bit for bit the smaller calls it
    replaces), and the block's reduces run largest count first, so each
    stack is built once, over the rows of its largest reader.  A reduce that
    raises gives its check the exception of its first failing block and no
    later blocks; the other checks go on.  The row array is reused, so a
    reduce must neither keep nor write its block.
    """
    values = [np.empty(max(0, min(count, stop) - start)) for count, *_ in checks]
    errors: list[Exception | None] = [None] * len(checks)
    for draw in dict.fromkeys(check[3] for check in checks):
        group = sorted(
            (k for k, check in enumerate(checks) if check[3] is draw and check[0] > start), key=lambda k: -checks[k][0]
        )
        ends = sorted({checks[k][0] for k in group})
        if not ends:
            continue
        # Segments (end, width) by ascending end: the widest check covering each.
        widths = [(end, max(checks[k][1] for k in group if checks[k][0] >= end)) for end in ends]
        group_stop = min(stop, ends[-1])
        rows = np.empty((min(_BLOCK, group_stop - start), widths[0][1]))
        streams = sample_streams(master_seed, start, group_stop)
        for lo in range(start, group_stop, _BLOCK):
            hi = min(lo + _BLOCK, group_stop)
            seg_lo = lo
            for end, width in widths:
                n = min(end, hi) - seg_lo
                if n > 0:
                    seg_rows = rows[:, :width]
                    for i, rng in islice(streams, n):
                        draw(rng, seg_rows[i - lo])
                    seg_lo += n
            stacks = _Stacks(rows)
            for k in group:
                count, width, reduce, _ = checks[k]
                n = min(count, hi) - lo
                if n <= 0 or errors[k] is not None:
                    continue
                try:
                    values[k][lo - start : lo - start + n] = reduce(rows[:n, :width], stacks.reader(n))
                except Exception as exc:  # noqa: BLE001 - one check's error must not stop the others
                    errors[k] = exc
    return values, errors


def _sampled(
    master_seed: int, start: int, stop: int, width: int, reduce: Callable, draw: Callable = _normals
) -> np.ndarray:
    """One value per sample in [start, stop): ``_shared_sampled`` of the one check, which raises its error."""
    (values,), (error,) = _shared_sampled(master_seed, start, stop, ((stop, width, reduce, draw),))
    if error is not None:
        raise error
    return values


def _drawn(width: int, reduce: Callable, draw: Callable = _normals) -> partial:
    """``fn(master_seed, start, stop)`` of a random-sample check: ``_sampled`` with its parts bound."""
    return partial(_sampled, width=width, reduce=reduce, draw=draw)


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# --- conjecture search ---------------------------------------------------------


@dataclass(frozen=True)
class ConjectureResult:
    """Outcome of a random search for violations of the pairwise-correlation bound.

    ``worst_state_seed`` is the sample index whose stream (master_seed,
    index) regenerates the state with the largest left-hand side; -1 for an
    empty run.  Near misses (lhs within 1e-3 of the bound) are kept for
    inspection even though they are not violations.
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


_pure4_correlation_lhs = _drawn(32, _pure4_block_lhs)


def run_conjecture_test(n_samples: int, master_seed: int = DEFAULT_SEED, workers: int = 1) -> ConjectureResult:
    """Sample Haar-random pure 4-qubit states and test the hub correlation sum <= 3.

    The left-hand side is Tr[T_AB T_AB^t] + Tr[T_AC T_AC^t] +
    Tr[T_AD T_AD^t]; a violation is a strict excess beyond 3 + 1e-9.
    """
    _check_run(n_samples, master_seed, workers)
    values = _chunked_values(_pure4_correlation_lhs, n_samples, master_seed, workers)
    if values.size == 0:
        return ConjectureResult(samples=0, violations=0, max_lhs=float("-inf"), worst_state_seed=-1)
    worst = int(np.argmax(values))
    near = [(int(i), float(values[i])) for i in np.nonzero(values > CONJECTURE_BOUND - _NEAR_MISS_GAP)[0]]
    return ConjectureResult(
        samples=int(values.size),
        violations=int(np.count_nonzero(values > CONJECTURE_BOUND + _CONJECTURE_TOL)),
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
    """Slices that cover range(count) in blocks of at most _BLOCK."""
    return [slice(lo, min(lo + _BLOCK, count)) for lo in range(0, count, _BLOCK)]


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
    angles = _open_grid(grid_steps, math.pi / 2.0)
    alpha, beta = np.repeat(angles, grid_steps), np.tile(angles, grid_steps)
    x_pred, y_pred, v_b, v_c = (np.empty(alpha.size) for _ in range(4))
    # Each block builds its own kets, so no column of kets spans the grid.
    for block in _blocks(alpha.size):
        kets, x_pred[block], y_pred[block] = monogamy._ghz_family_arr(alpha[block], beta[block])
        v_b[block], v_c[block] = monogamy._hub_volumes(kets, 3, 0, pure=True)
    return (
        alpha, beta, v_b, v_c, x_pred, y_pred,
        np.abs(v_b - x_pred), np.abs(v_c - y_pred), monogamy._relation_sums([v_b, v_c])["sqrt_lhs"],
    )


def sweep_noisy_w(
    p_grid: Sequence[float] | None = None,
    epsilons: Sequence[float] | None = None,
) -> list[NoisyWSweepRow]:
    """Noisy W-family volumes: closed form vs direct channel application.

    ``lhs`` is the numeric sqrt-volume sum sqrt(v') + sqrt(v') of the two
    symmetric pairs; rows are grouped by noise strength (epsilon-major).
    Defaults: 100 p-values on (0, 1) and strengths (0, 0.001, 0.005, 0.01).
    """
    return _rows(NoisyWSweepRow, _noisy_w_columns(p_grid, epsilons))


def _noisy_w_columns(p_grid: Sequence[float] | None, epsilons: Sequence[float] | None) -> tuple[np.ndarray, ...]:
    """The float64 columns of ``sweep_noisy_w``, in ``NoisyWSweepRow`` field order."""
    p = np.asarray(_open_grid(100, 1.0) if p_grid is None else p_grid, dtype=float).reshape(-1)
    eps = np.asarray(_DEFAULT_EPSILONS if epsilons is None else epsilons, dtype=float).reshape(-1)
    for name, values in (("p_grid", p), ("epsilons", eps)):
        if values.size == 0:
            raise ValueError(f"{name} must not be empty")
    closed = channels._noisy_w_volume_arr(p, eps[:, None])
    kets = monogamy._w_family_arr(p)
    noises = [[channels.isotropic_channel(float(strength)).superoperator] * 3 for strength in eps]
    numeric = np.empty(closed.shape)
    for block in _blocks(p.size):
        # One density stack per block of p, under each strength's shared channel; then one trace
        # and one volume call over the (epsilon, p) block.
        mats = states._densities(kets[block])
        noisy = np.stack([channels._apply_local_arr(noise, mats, 3) for noise in noises])
        numeric[:, block] = ellipsoid._volume_arr(_partial_trace_arr(noisy, [0, 1], 3))
    return (
        np.tile(p, eps.size), np.repeat(eps, p.size), closed.ravel(), numeric.ravel(),
        np.abs(closed - numeric).ravel(), monogamy._relation_sums([numeric, numeric])["sqrt_lhs"].ravel(),
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

# Tolerances pinned per contract; margins are defined so that >= 0 passes.
_TOL = 1e-9
_RECON_TOL = 1e-10
_PTRACE_TOL = 1e-12
_PURITY_SYM_TOL = 1e-10
_BLOCH_BALL_TOL = 1e-8
_MEMBERSHIP_TOL = 1e-6
_SATURATION_TOL = 1e-8
_SEPARABLE_BOUND = 1.0 / 27.0
_POINTS_PER_STATE = 100

# Each random-sample check is a draw, which takes from sample i's stream the
# numbers the public samplers take, in their order, and a reduce, which does
# all the arithmetic on a block of drawn rows with stacked kernels.
# A row holds the normals of every Haar ket and unitary (real parts, then
# imaginary parts); one standard_normal(k) call is bit for bit the smaller
# calls it replaces, so the suite draws one row per sample for all the checks
# whose draw is _normals (_shared_sampled), and their reduces read the kets,
# states and hub volumes of those rows from one cache per block (_Stacks).


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
    """Hub-0 volumes (N, n - 1) of the induced mixed states."""
    return monogamy._hub_volumes(source(_mixed_states, n_qubits), n_qubits, 0).T


def _reconstruction_margins(draws: np.ndarray, stack: Callable) -> np.ndarray:
    mat = stack(_mixed_states, 2)
    rebuilt = states._reconstruct_arr(*states._pauli_arr(mat))
    return _RECON_TOL - np.max(np.abs(rebuilt - mat), axis=(1, 2))


def _ptrace_composition_margins(draws: np.ndarray, stack: Callable) -> np.ndarray:
    mat = stack(_mixed_states, 3)
    direct = _partial_trace_arr(mat, [0], 3)
    stepwise = _partial_trace_arr(_partial_trace_arr(mat, [0, 1], 3), [0], 2)
    return _PTRACE_TOL - np.max(np.abs(direct - stepwise), axis=(1, 2))


def _purity_symmetry_margins(draws: np.ndarray, stack: Callable) -> np.ndarray:
    mat = stack(_pure_states, 3)
    p_ab = states._purity_arr(_partial_trace_arr(mat, [0, 1], 3))
    p_c = states._purity_arr(_partial_trace_arr(mat, [2], 3))
    return _PURITY_SYM_TOL - np.abs(p_ab - p_c)


def _state_validity_margins(draws: np.ndarray, stack: Callable) -> np.ndarray:
    # The stacked validator of QuantumState.from_amplitudes and from_matrix, on the states that
    # random_pure_state(3) and then random_mixed_state(3) build from the same 16 + 128 normals.
    states._validate_arr(stack(_pure_kets, 3), states.DEFAULT_TOL)
    states._validate_arr(stack(_mixed_states, 3, _pure_width(3)), states.DEFAULT_TOL)
    return np.ones(len(draws))


def _volume_canonical_margins(draws: np.ndarray, stack: Callable) -> np.ndarray:
    mat = stack(_mixed_states, 2)
    t_canon = states._spin_corr_arr(ellipsoid._canonical_arr(mat, 2, 0))
    return _TOL - np.abs(ellipsoid._volume_arr(mat) - np.abs(np.linalg.det(t_canon)))


# A mixed two-qubit state, then the normals of its steering directions.
_STEERED_WIDTH = _mixed_width(2) + 3 * _POINTS_PER_STATE


def _points_and_abT(draws: np.ndarray, stack: Callable) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Steered Bloch vectors (N, 100, 3) of each row's state, and its (a, b, T)."""
    abT = states._pauli_arr(stack(_mixed_states, 2))
    raw = draws[:, _mixed_width(2) :].reshape(len(draws), _POINTS_PER_STATE, 3)
    e = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
    return ellipsoid._steered_arr(*abT, e), abT


def _bloch_containment_margins(draws: np.ndarray, stack: Callable) -> np.ndarray:
    points, _ = _points_and_abT(draws, stack)
    return 1.0 + _BLOCH_BALL_TOL - np.max(np.linalg.norm(points, axis=-1), axis=-1)


def _membership_margins(draws: np.ndarray, stack: Callable) -> np.ndarray:
    points, (a, b, T) = _points_and_abT(draws, stack)
    # Every row, not a fancy-indexed copy of T: matmul sums in another order
    # when the strides of T change.
    live, center, q = ellipsoid._center_orientation(a, b, T, ellipsoid._gamma(a))
    # Where the quadratic form is undefined the margin stays 1; containment
    # is covered by the Bloch-ball check.
    firm = live & (np.linalg.eigvalsh(q)[:, 0] > 1e-10)
    delta = points[firm] - center[firm, None, :]
    solved = np.swapaxes(np.linalg.solve(q[firm], np.swapaxes(delta, 1, 2)), 1, 2)
    out = np.ones(len(draws))
    out[firm] = 1.0 + _MEMBERSHIP_TOL - np.max(np.einsum("nij,nij->ni", delta, solved), axis=-1)
    return out


_SEPARABLE_WIDTH = states._separable_width(states.MAX_SEPARABLE_TERMS)


def _separable_margins(draws: np.ndarray, stack: Callable) -> np.ndarray:
    return _SEPARABLE_BOUND + _TOL - ellipsoid._volume_arr(states._separable_arr(draws))


def _volume_interval_margins(draws: np.ndarray, stack: Callable) -> np.ndarray:
    mat = stack(_mixed_states, 2)
    v = ellipsoid._volume_arr(mat)
    margin = np.minimum(v + _TOL, 1.0 + _TOL - v)
    unit = np.flatnonzero(v >= 1.0 - _TOL)
    if unit.size:
        # Unit volume must certify a pure entangled state.
        mixed = states._purity_arr(mat[unit]) < 1.0 - _TOL
        margin[unit[(monogamy._concurrence_arr(monogamy._eigh_factor(mat[unit])) <= 0.0) | mixed]] = -1.0
    return margin


def _monogamy_sum_margins(
    draws: np.ndarray, stack: Callable, *, n_qubits: int, pure: bool, lhs: str, bound: float
) -> np.ndarray:
    """``bound`` + _TOL minus the ``MonogamyReport`` field ``lhs`` of each row's hub-0 volumes."""
    volumes = stack(_pure_hub_volumes if pure else _mixed_hub_volumes, n_qubits)
    return bound + _TOL - monogamy._relation_sums(volumes.T)[lhs]


def _relation(n_qubits: int, pure: bool, lhs: str, bound: float) -> partial:
    """The check of ``MonogamyReport.<lhs> <= bound`` on Haar-random pure or induced mixed n-qubit states."""
    width = _pure_width(n_qubits) if pure else _mixed_width(n_qubits)
    return _drawn(width, partial(_monogamy_sum_margins, n_qubits=n_qubits, pure=pure, lhs=lhs, bound=bound))


def _correlation_sum_margins(draws: np.ndarray, stack: Callable, *, pure: bool) -> np.ndarray:
    mat = stack(_pure_states if pure else _mixed_states, 3)
    total = monogamy._correlation_sum_arr(mat, 3, list(combinations(range(3), 2)))
    return _TOL - np.abs(total - 3.0) if pure else 3.0 + _TOL - total


def _purity_identity_margins(draws: np.ndarray, stack: Callable, *, n_qubits: int) -> np.ndarray:
    mat = stack(_pure_states, n_qubits)
    monogamy._check_pure_arr(mat)
    if n_qubits == 3:
        residuals = monogamy._purity_residuals_3q_arr(mat)
    else:
        residuals = monogamy._purity_residuals_4q_arr(mat)
    return _TOL - np.max(np.abs(residuals), axis=-1)


def _canonical_equality_margins(draws: np.ndarray, stack: Callable) -> np.ndarray:
    mat = ellipsoid._canonical_arr(stack(_pure_states, 3), 3, 0)
    v_b, v_c = monogamy._hub_volumes(mat, 3, 0)
    b2, c2 = monogamy._bloch_norms_sq(mat, 3, (1, 2))
    return _TOL - np.maximum(np.abs(v_b - c2), np.abs(v_c - b2))


def _polygon_margins(draws: np.ndarray, stack: Callable) -> np.ndarray:
    mat = stack(_pure_states, 3)
    monogamy._check_pure_arr(mat)
    return monogamy._polygon_arr(mat) + _TOL


def _concurrence_volume_margins(draws: np.ndarray, stack: Callable) -> np.ndarray:
    return monogamy._concurrence_volume_arr(stack(_mixed_states, 2), stack(_mixed_kets, 2).reshape(-1, 4, 4)) + _TOL


def _ckw_margins(draws: np.ndarray, stack: Callable) -> np.ndarray:
    return monogamy._ckw_arr(stack(_mixed_kets, 3).reshape(-1, 8, 8), 0) + _TOL


def _tangle_volume_margins(draws: np.ndarray, stack: Callable) -> np.ndarray:
    kets, mat = stack(_pure_kets, 3), stack(_pure_states, 3)
    monogamy._check_pure_arr(mat)
    tangle = monogamy._three_tangle_arr(kets)
    (a2,) = monogamy._bloch_norms_sq(mat, 3, (0,))
    # The pure3_sqrt_volume_monogamy row's volumes: traced from the kets, with the densities' bits.
    lhs = monogamy._relation_sums(stack(_pure_hub_volumes, 3).T)["sqrt_lhs"]
    return tangle - (1.0 - a2) * (1.0 - lhs) + _TOL


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


def _draw_wclass(rng, row: np.ndarray) -> None:
    """random(), which times pi/2 is bit for bit uniform(0, pi/2), then the normals of three Haar 2x2 unitaries."""
    row[0] = rng.random()
    rng.standard_normal(out=row[1:])


def _wclass_kets(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """theta and the kets of ``max_volume_state(theta)`` under each row's three local unitaries."""
    theta = draws[:, 0] * (math.pi / 2.0)
    u = states._haar_unitary_arr(draws[:, 1:].reshape(len(draws), 3, 8), 2)
    local = states._kron_arr(states._kron_arr(u[:, 0], u[:, 1]), u[:, 2])
    return theta, (local @ monogamy._max_volume_arr(theta)[:, :, None])[:, :, 0]


def _wclass_margins(draws: np.ndarray, stack: Callable) -> np.ndarray:
    theta, vec = _wclass_kets(draws)
    mat = states._densities(vec)
    lhs = monogamy._relation_sums(monogamy._hub_volumes(mat, 3, 0))["sqrt_lhs"]
    margin = _SATURATION_TOL - np.abs(lhs - 1.0)
    monogamy._check_pure_arr(mat)
    return np.where(monogamy._slocc_codes(vec) == _max_volume_codes(theta), margin, -1.0)


def _noisy(mat: np.ndarray, draws: np.ndarray, n_qubits: int) -> np.ndarray:
    """``mat`` after one random channel per qubit, drawn from ``draws`` (N, n_qubits * _KRAUS_WIDTH)."""
    kraus = channels._random_kraus_arr(draws.reshape(len(draws), n_qubits, _KRAUS_WIDTH))
    sups = channels._superoperator_arr(kraus)
    return channels._apply_local_arr([sups[:, q] for q in range(n_qubits)], mat, n_qubits)


def _channel_monotonicity_margins(draws: np.ndarray, stack: Callable) -> np.ndarray:
    mat = stack(_mixed_states, 2)
    noisy = _noisy(mat, draws[:, _mixed_width(2) :], 2)
    return ellipsoid._volume_arr(mat) - ellipsoid._volume_arr(noisy) + _TOL


def _noisy_pure3_margins(draws: np.ndarray, stack: Callable) -> np.ndarray:
    noisy = _noisy(stack(_pure_states, 3), draws[:, _pure_width(3) :], 3)
    return 1.0 + _TOL - monogamy._relation_sums(monogamy._hub_volumes(noisy, 3, 0))["sqrt_lhs"]


def _inv_noisy_w_closed_form(master_seed: int, start: int, stop: int) -> np.ndarray:
    # Deterministic 20 x 5 grid; the index selects a row of the epsilon-major sweep.
    residual = _noisy_w_columns(_open_grid(20, 1.0), (0.0, 0.001, 0.005, 0.01, 0.1))[4]
    return _TOL - residual[start:stop]


def _inv_ghz_mapping(master_seed: int, start: int, stop: int) -> np.ndarray:
    # Deterministic 20 x 20 grid over the open square (0, pi/2)^2, alpha-major.
    residual_b, residual_c = _ghz_columns(20)[6:8]
    return _TOL - np.maximum(residual_b, residual_c)[start:stop]


def _inv_counterexample(master_seed: int, start: int, stop: int) -> np.ndarray:
    regression = counterexample_regression()
    exact = 2.0 * math.sqrt(8.0 / 27.0)
    margins = [
        1e-4 - abs(regression["sqrt_lhs"] - exact),
        regression["purified_sqrt_lhs"] - 1.0,
    ]
    return np.array(margins[start:stop])


@dataclass(frozen=True)
class _InvariantCheck:
    name: str
    fn: Callable
    samples: int
    scaled: bool = True
    exploratory: bool = False


# A random-sample check's fn is ``_drawn(width, reduce, draw)``, built once
# here: the benchmark tracer labels each check by the identity of its fn, and
# the suite reads the width, reduce and draw of each check from fn.keywords.
_SUITE: tuple[_InvariantCheck, ...] = (
    _InvariantCheck("state_reconstruction_round_trip", _drawn(_mixed_width(2), _reconstruction_margins), 10_000),
    _InvariantCheck("partial_trace_composition", _drawn(_mixed_width(3), _ptrace_composition_margins), 10_000),
    _InvariantCheck("pure3_purity_bipartition_symmetry", _drawn(_pure_width(3), _purity_symmetry_margins), 10_000),
    _InvariantCheck(
        "sampled_state_validity", _drawn(_pure_width(3) + _mixed_width(3), _state_validity_margins), 10_000
    ),
    _InvariantCheck("volume_matches_canonical_form", _drawn(_mixed_width(2), _volume_canonical_margins), 10_000),
    _InvariantCheck("steered_points_inside_bloch_ball", _drawn(_STEERED_WIDTH, _bloch_containment_margins), 1_000),
    _InvariantCheck("steered_points_inside_ellipsoid", _drawn(_STEERED_WIDTH, _membership_margins), 1_000),
    _InvariantCheck("separable_volume_bound", _drawn(_SEPARABLE_WIDTH, _separable_margins, _draw_separable), 10_000),
    _InvariantCheck("volume_in_unit_interval", _drawn(_mixed_width(2), _volume_interval_margins), 10_000),
    _InvariantCheck("pure3_sqrt_volume_monogamy", _relation(3, True, "sqrt_lhs", 1.0), 10_000),
    _InvariantCheck("mixed3_twothirds_volume_monogamy", _relation(3, False, "two_thirds_lhs", 1.0), 10_000),
    _InvariantCheck("pure4_twothirds_volume_monogamy", _relation(4, True, "two_thirds_lhs", 1.0), 10_000),
    _InvariantCheck("mixed5_twothirds_volume_sum", _relation(5, False, "two_thirds_lhs", 2.0), 1_000),
    _InvariantCheck("mixed5_mean_volume", _relation(5, False, "mean_volume", 0.5), 1_000),
    _InvariantCheck(
        "pure3_correlation_identity", _drawn(_pure_width(3), partial(_correlation_sum_margins, pure=True)), 10_000
    ),
    _InvariantCheck(
        "mixed3_correlation_bound", _drawn(_mixed_width(3), partial(_correlation_sum_margins, pure=False)), 10_000
    ),
    _InvariantCheck(
        "pure3_purity_identities", _drawn(_pure_width(3), partial(_purity_identity_margins, n_qubits=3)), 10_000
    ),
    _InvariantCheck(
        "pure4_purity_identities", _drawn(_pure_width(4), partial(_purity_identity_margins, n_qubits=4)), 10_000
    ),
    _InvariantCheck("canonical_volume_equalities", _drawn(_pure_width(3), _canonical_equality_margins), 10_000),
    _InvariantCheck("polygon_inequality", _drawn(_pure_width(3), _polygon_margins), 10_000),
    _InvariantCheck("concurrence_volume_bound", _drawn(_mixed_width(2), _concurrence_volume_margins), 10_000),
    _InvariantCheck("ckw_inequality", _drawn(_mixed_width(3), _ckw_margins), 10_000),
    _InvariantCheck("tangle_volume_bound", _drawn(_pure_width(3), _tangle_volume_margins), 10_000),
    _InvariantCheck("wclass_saturation", _drawn(1 + 3 * 8, _wclass_margins, _draw_wclass), 10_000),
    _InvariantCheck(
        "channel_volume_monotonicity", _drawn(_mixed_width(2) + 2 * _KRAUS_WIDTH, _channel_monotonicity_margins),
        10_000,
    ),
    _InvariantCheck("noisy_pure3_monogamy", _drawn(_pure_width(3) + 3 * _KRAUS_WIDTH, _noisy_pure3_margins), 1_000),
    _InvariantCheck("noisy_w_closed_form", _inv_noisy_w_closed_form, 100, scaled=False),
    _InvariantCheck("ghz_family_mapping", _inv_ghz_mapping, 400, scaled=False),
    _InvariantCheck("counterexample_regression", _inv_counterexample, 2, scaled=False),
)

_EXPLORATORY = _InvariantCheck(
    "mixed4_twothirds_exploration",
    _relation(4, False, "two_thirds_lhs", 1.0),
    10_000,
    exploratory=True,
)


@dataclass(frozen=True)
class InvariantResult:
    """Per-invariant outcome: failure count and the worst (most negative) margin."""

    name: str
    samples: int
    failures: int
    worst_margin: float
    exploratory: bool = False
    error: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0 and not self.error

    def to_dict(self) -> dict:
        return asdict(self)


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
    """``(margins, error)`` by position in ``checks`` of every random-sample (``scaled``) check.

    They share one pass over the samples (``_shared_sampled``), chunked over
    [0, largest count) for ``workers > 1``; the error text of a check is that
    of its first failing chunk.
    """
    shared = [k for k, check in enumerate(checks) if check.scaled]
    n_samples = max((counts[k] for k in shared), default=0)
    if n_samples == 0:
        return {k: (np.empty(0), "") for k in shared}
    parts = tuple((counts[k], *(checks[k].fn.keywords[key] for key in ("width", "reduce", "draw"))) for k in shared)
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
            margins, error = outcomes[k]
        else:
            # A grid check computes its whole grid on every call, so it runs once, in this process.
            try:
                margins, error = _chunked_values(check.fn, count, master_seed, 1), ""
            except Exception as exc:  # noqa: BLE001 - suite must report, not crash
                error = _error_text(exc)
        if error:
            failures, worst = count, float("-inf")
        else:
            count, failures = int(margins.size), int(np.count_nonzero(margins < 0))
            worst = float(np.min(margins)) if margins.size else float("inf")
        results.append(InvariantResult(check.name, count, failures, worst, check.exploratory, error))
    return SuiteReport(tuple(results))
