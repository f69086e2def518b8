"""Outside-in span tracer for qsteer: wraps library functions without editing them.

Each wrapped function belongs to one layer group.  ``experiments``,
``ellipsoid``, ``monogamy``, ``channels`` and ``cli`` bind most helpers with
``from .states import ...``, so patching only the defining module would miss
most calls; :meth:`Tracer.install` therefore replaces every binding of the
original function object in every loaded ``qsteer`` module, and
:meth:`Tracer.uninstall` puts the originals back.

Spans are kept in memory as ``(id, parent_id, name, start, end)`` tuples,
appended when the span closes, so children always precede their parent.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: Span name of a benchmark round, and the group of every experiments-module span.
DRIVER = "experiments.driver"

#: Layer group -> functions in it, as "module:qualname" of their defining module.
GROUPS: dict[str, tuple[str, ...]] = {
    "states.rng": ("states:sample_rng",),
    "states.sample": (
        "states:_haar_vector",
        "states:_haar_unitary",
        "states:random_pure_state",
        "states:random_mixed_state",
        "states:random_separable_two_qubit",
    ),
    "states.ptrace": ("states:_partial_trace_arr", "states:partial_trace"),
    "states.pauli": (
        "states:_bloch_arr",
        "states:_spin_corr_arr",
        "states:pauli_decomposition",
        "states:purity",
        "states:bloch_vector",
        "states:spin_correlation_matrix",
        "states:pauli_coefficient",
        "states:PauliDecomposition.reconstruct",
    ),
    "states.validate": (
        "states:_density",
        "states:QuantumState.from_amplitudes",
        "states:QuantumState.from_matrix",
        "states:QuantumState.from_dict",
    ),
    "ellipsoid.volume": ("ellipsoid:_steering_abT", "ellipsoid:_volume_from_abT", "ellipsoid:normalized_volume"),
    "ellipsoid.canonical": ("ellipsoid:canonical_form",),
    "ellipsoid.geometry": ("ellipsoid:steering_ellipsoid",),
    "monogamy.wootters": (
        "monogamy:_wootters_lambdas",
        "monogamy:concurrence",
        "monogamy:three_tangle",
        "monogamy:ckw_residual",
        "monogamy:concurrence_volume_residual",
    ),
    "monogamy.slocc": ("monogamy:slocc_classify",),
    "monogamy.report": (
        "monogamy:volume_monogamy_report",
        "monogamy:pairwise_correlation_sum",
        "monogamy:purity_identity_residuals_3q",
        "monogamy:purity_identity_residuals_4q",
        "monogamy:polygon_residual",
        "monogamy:l_bcd",
    ),
    "monogamy.families": (
        "monogamy:w_state",
        "monogamy:ghz_state",
        "monogamy:w_family",
        "monogamy:ghz_family",
        "monogamy:max_volume_state",
        "monogamy:singlet_state",
        "monogamy:werner_state",
        "monogamy:counterexample_state",
        "monogamy:purified_counterexample",
    ),
    "channels.apply_local": ("channels:apply_local",),
    "channels.build": ("channels:random_channel", "channels:isotropic_channel"),
    "serialize.emit": ("serialize:dumps", "serialize:rows_to_csv"),
    "serialize.load": ("serialize:load_state_file",),
    "cli.main": ("cli:main",),
    # Entry points of the experiments module: their own loop code is driver time.
    DRIVER: (
        "experiments:run_conjecture_test",
        "experiments:run_property_suite",
        "experiments:sweep_ghz_region",
        "experiments:sweep_noisy_w",
        "experiments:counterexample_regression",
    ),
}


def group_of(span_name: str) -> str:
    """Layer group of a span; per-invariant spans count as driver time."""
    return span_name if span_name in GROUPS else DRIVER


def invariant_names() -> list[str]:
    """Names of the gating suite checks, in suite order."""
    from qsteer import experiments

    return [check.name for check in experiments._SUITE]


class Tracer:
    """Collects spans from wrapped qsteer functions while installed."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        #: Samples handed to each per-invariant ``_chunked_values`` span, by span name.
        self.samples: dict[str, int] = defaultdict(int)
        self._stack = [0]
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span (used for benchmark rounds)."""
        sid = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def _chunked_wrapper(self, experiments):
        """Span per ``_chunked_values`` call, named after the suite check it evaluates."""
        original = experiments._chunked_values
        labels = {id(check.fn): f"experiments.{check.name}" for check in experiments._SUITE}
        span, samples = self.span, self.samples

        def traced_chunked(fn, n_samples, master_seed, workers):
            label = labels.get(id(fn), DRIVER)
            if label != DRIVER:
                samples[label] += int(n_samples)
            with span(label):
                return original(fn, n_samples, master_seed, workers)

        return traced_chunked

    def install(self) -> None:
        """Replace every binding of each grouped function in the loaded qsteer modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in sys.modules.items() if name == "qsteer" or name.startswith("qsteer.")}
        wrappers: dict[int, object] = {}
        for group, targets in GROUPS.items():
            for target in targets:
                module_name, qualname = target.split(":")
                owner = modules[f"qsteer.{module_name}"]
                *cls_path, attr = qualname.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
                if cls_path:
                    # Methods live only on their class, which every module shares.
                    is_cm = isinstance(raw, classmethod)
                    func = raw.__func__ if is_cm else raw
                    wrapped = self._wrap(group, func)
                    self._set(owner, attr, classmethod(wrapped) if is_cm else wrapped)
                else:
                    wrappers[id(raw)] = self._wrap(group, raw)
        experiments = modules["qsteer.experiments"]
        wrappers[id(experiments._chunked_values)] = self._chunked_wrapper(experiments)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None:
                    self._set(mod, attr, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every original binding."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list[tuple[int, int, str, float, float]]:
        """Return and clear the recorded spans."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


class LayerTotals:
    """Self time, call counts and per-invariant time summed over traced rounds."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.invariant_s: dict[str, float] = defaultdict(float)

    def add(self, spans) -> None:
        """Fold one round's spans in.  A span's self time is its duration minus its children's."""
        child_s: dict[int, float] = defaultdict(float)
        for sid, parent, name, start, end in spans:
            duration = end - start
            group = group_of(name)
            self.self_s[group] += duration - child_s.pop(sid, 0.0)
            self.calls[group] += 1
            child_s[parent] += duration
            if name != group:
                self.invariant_s[name] += duration
