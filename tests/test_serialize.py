import csv
import dataclasses
import io
import json
import math
from typing import Any, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsteer.serialize import columns_to_csv, columns_to_json, dumps, format_float, rows_to_csv

# --- references: the per-cell emitters the column formatters replaced, verbatim ---


def _ref_format_float(value: float) -> str:
    return f"{value:.12g}"


def _ref_emit(obj: Any, out: list, indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_ref_format_float(obj) if math.isfinite(obj) else "null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(f'{pad}  {json.dumps(str(key))}: ')
            _ref_emit(value, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        if all(isinstance(x, (int, float, bool)) or x is None for x in obj):
            _ref_emit_scalar_list(obj, out)
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad + "  ")
            _ref_emit(value, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _ref_emit_scalar_list(obj: Sequence, out: list) -> None:
    parts = []
    for x in obj:
        sub: list = []
        _ref_emit(x, sub, 0)
        parts.append("".join(sub))
    out.append("[" + ", ".join(parts) + "]")


def _ref_dumps(obj: Any) -> str:
    out: list = []
    _ref_emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _ref_csv_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _ref_format_float(value)
    return str(value)


def _ref_rows_to_csv(rows: Sequence, fields: Sequence[str] | None = None) -> str:
    if not rows:
        return "" if fields is None else ",".join(fields) + "\n"
    first = rows[0]
    if fields is None:
        if dataclasses.is_dataclass(first):
            fields = [f.name for f in dataclasses.fields(first)]
        else:
            fields = list(first.keys())
    lines = [",".join(fields)]
    for row in rows:
        if dataclasses.is_dataclass(row):
            cells = (getattr(row, name) for name in fields)
        else:
            cells = (row[name] for name in fields)
        lines.append(",".join(_ref_csv_cell(value) for value in cells))
    return "\n".join(lines) + "\n"


# --- tables ---

SPECIAL = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e22, 1e-7, 0.1, 2.0 / 3.0, -123456789012.5]
INTS = [0, -1, 7, 2**70, 3, 12, -5, 1, 0, 99, 10**12]
BOOLS = [True, False, True, True, False, False, True, False, True, False, True]
FIELDS = ["x", "n", "flag", "y"]


def _table(as_array: bool):
    columns = [SPECIAL, INTS, BOOLS, [1.5] * len(SPECIAL)]
    if as_array:
        # Arrays of every supported dtype; 2**70 does not fit an int64.
        columns = [np.array(SPECIAL), INTS, np.array(BOOLS), np.full(len(SPECIAL), 1.5)]
    return columns


def _rows_of(fields, columns):
    return [dict(zip(fields, cells)) for cells in zip(*columns)]


@pytest.mark.parametrize("as_array", [False, True])
def test_columns_to_csv_matches_per_cell_reference(as_array):
    columns = _table(as_array)
    assert columns_to_csv(FIELDS, columns) == _ref_rows_to_csv(_rows_of(FIELDS, _table(False)))


@pytest.mark.parametrize("as_array", [False, True])
def test_columns_to_json_matches_per_cell_reference(as_array):
    columns = _table(as_array)
    text = columns_to_json(FIELDS, columns)
    assert text == _ref_dumps(_rows_of(FIELDS, _table(False)))
    assert text.count("null") == 3  # inf, -inf and nan


def test_rows_to_csv_matches_reference_for_dicts_and_dataclasses():
    @dataclasses.dataclass(frozen=True)
    class Row:
        x: float
        n: int
        flag: bool
        y: float

    rows = _rows_of(FIELDS, _table(False))
    assert rows_to_csv(rows) == _ref_rows_to_csv(rows)
    assert rows_to_csv(rows, fields=["y", "x"]) == _ref_rows_to_csv(rows, fields=["y", "x"])
    records = [Row(**row) for row in rows]
    assert rows_to_csv(records) == _ref_rows_to_csv(records)


def test_mixed_type_column_formats_cell_by_cell():
    rows = [{"v": 1.5}, {"v": 2}, {"v": True}, {"v": np.float64(0.25)}, {"v": "text"}]
    assert rows_to_csv(rows) == _ref_rows_to_csv(rows)
    assert columns_to_json(["v"], [[row["v"] for row in rows]]) == _ref_dumps(rows)


def test_empty_tables():
    assert rows_to_csv([]) == _ref_rows_to_csv([]) == ""
    assert rows_to_csv([], fields=["a", "b"]) == _ref_rows_to_csv([], fields=["a", "b"]) == "a,b\n"
    assert columns_to_csv(["a", "b"], [np.empty(0), []]) == "a,b\n"
    assert columns_to_csv(["a"], []) == "a\n"
    assert columns_to_json(["a", "b"], [np.empty(0), []]) == _ref_dumps([]) == "[]\n"
    assert columns_to_json([], []) == "[]\n"


def test_json_field_names_are_escaped_and_percent_safe():
    fields = ['100% "sure"', "café", "%s"]
    columns = [[1.0, 2.0], [3, 4], ["a", "b"]]
    assert columns_to_json(fields, columns) == _ref_dumps(_rows_of(fields, columns))


@pytest.mark.parametrize(
    "payload",
    [
        {"n_qubits": 3, "ellipsoids": [], "monogamy": None},
        {"a": [1.0, math.inf, None, True, 2], "b": {"c": [[0.5, -0.0], []], "d": {}}, "e": "q\"uote\né"},
        [{"x": np.float64(1.25), "y": (1, 2.5, False)}, [math.nan, 5e-324, 1e22]],
        {"samples": 10, "near_misses": [[3, 2.9995], [7, 2.9999]], "max_lhs": -math.inf},
        (),
        "plain",
        -0.0,
        None,
    ],
)
def test_dumps_matches_reference(payload):
    assert dumps(payload) == _ref_dumps(payload)


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps({"a": object()})
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps([1.0, object()])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=8))
def test_float_formatters_match_reference_on_any_float(values):
    assert [format_float(v) for v in values] == [_ref_format_float(v) for v in values]
    rows = [{"v": v} for v in values]
    assert columns_to_csv(["v"], [np.array(values)]) == _ref_rows_to_csv(rows)
    assert columns_to_json(["v"], [np.array(values)]) == _ref_dumps(rows)
    assert dumps(values) == _ref_dumps(values)


def test_format_float_matches_reference_on_random_bit_patterns():
    bits = np.random.default_rng(5).integers(0, 2**64, size=20_000, dtype=np.uint64)
    values = bits.view(np.float64).tolist()
    assert list(map(format_float, values)) == list(map(_ref_format_float, values))


# --- CSV quoting (RFC 4180): string cells are quoted only when they must be ---


@pytest.mark.parametrize(
    "text",
    ["StateValidationError: matrix has trace 0.9+0j, expected 1", 'say "hi"', "two\nlines", "cr\rhere", ""],
)
def test_csv_string_cells_round_trip_through_csv_reader(text):
    rows = [{"name": "check", "worst_margin": -1.0, "error": text}]
    out = rows_to_csv(rows)
    parsed = list(csv.reader(io.StringIO(out, newline="")))
    assert parsed == [["name", "worst_margin", "error"], ["check", "-1", text]]


def test_csv_plain_strings_are_not_quoted():
    rows = [{"name": "ckw_inequality", "error": ""}]
    assert rows_to_csv(rows) == _ref_rows_to_csv(rows) == "name,error\nckw_inequality,\n"


def test_csv_quoting_matches_the_csv_module():
    cells = ["a,b", 'q"q', "x\ny", "plain", "r\rr", '"']
    out = rows_to_csv([{f"c{i}": cell for i, cell in enumerate(cells)}])
    lines = []
    for row in ([f"c{i}" for i in range(len(cells))], cells):
        # The default dialect ends lines with CR LF, so it quotes a cell holding either.
        buf = io.StringIO()
        csv.writer(buf, quoting=csv.QUOTE_MINIMAL).writerow(row)
        lines.append(buf.getvalue().removesuffix("\r\n"))
    assert out == "\n".join(lines) + "\n"


def test_public_single_state_results_are_python_floats_that_serialize():
    # The single-state calls run the batch kernels, whose results are 0-d arrays; the
    # public functions must hand back Python floats, and dumps rejects 0-d arrays.
    from qsteer import (
        ckw_residual,
        concurrence,
        concurrence_volume_residual,
        counterexample_state,
        ghz_state,
        isotropic_channel,
        l_bcd,
        monotonicity_check,
        normalized_volume,
        pairwise_correlation_sum,
        pauli_coefficient,
        polygon_residual,
        purified_counterexample,
        purity,
        steering_ellipsoid,
        three_tangle,
        volume_monogamy_report,
        w_state,
        werner_state,
    )

    werner, w = werner_state(), w_state()
    product = np.kron(np.diag([1.0, 0.0]), werner_state().matrix[:2, :2] * 2).astype(complex)
    scalars = [
        normalized_volume(werner),
        normalized_volume(product),
        purity(werner),
        purity(w),
        pauli_coefficient(w, [3, 0, 0]),
        concurrence(werner),
        concurrence_volume_residual(werner, 1),
        ckw_residual(counterexample_state(), 1),
        three_tangle(ghz_state()),
        polygon_residual(w),
        pairwise_correlation_sum(w),
        l_bcd(purified_counterexample()),
        *monotonicity_check(werner, [isotropic_channel(0.1)] * 2)[:2],
    ]
    assert all(type(value) is float for value in scalars), [type(value) for value in scalars]
    ellipsoids = [steering_ellipsoid(werner), steering_ellipsoid(product), steering_ellipsoid(werner, 1)]
    reports = [volume_monogamy_report(state, hub) for state in (w, counterexample_state()) for hub in range(3)]
    reports.append(volume_monogamy_report(purified_counterexample(), 3))
    for ell in ellipsoids:
        assert type(ell.normalized_volume) is float
    for report in reports:
        fields = [*report.volumes, report.sqrt_lhs, report.two_thirds_lhs, report.n_bound, report.mean_volume]
        assert all(type(value) is float for value in fields)
        assert type(report.hub) is int
    for result in ellipsoids + reports:
        dumps(result.to_dict())
