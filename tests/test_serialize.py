import csv
import dataclasses
import io
import json
import math
import re
from typing import Any, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsteer import experiments, serialize
from qsteer.serialize import columns_to_csv, columns_to_json, dumps, format_float, load_state_file, rows_to_csv
from qsteer.states import StateValidationError

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


def _ref_rows_to_csv(rows: Sequence[dict]) -> str:
    if not rows:
        return ""
    fields = list(rows[0].keys())
    lines = [",".join(fields)]
    for row in rows:
        lines.append(",".join(_ref_csv_cell(row[name]) for name in fields))
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


def test_rows_to_csv_matches_reference_for_dicts():
    rows = _rows_of(FIELDS, _table(False))
    assert rows_to_csv(rows) == _ref_rows_to_csv(rows)


def test_mixed_type_column_formats_cell_by_cell():
    rows = [{"v": 1.5}, {"v": 2}, {"v": True}, {"v": np.float64(0.25)}, {"v": "text"}]
    assert rows_to_csv(rows) == _ref_rows_to_csv(rows)
    assert columns_to_json(["v"], [[row["v"] for row in rows]]) == _ref_dumps(rows)


def test_empty_tables():
    assert rows_to_csv([]) == _ref_rows_to_csv([]) == ""
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


# --- a table's float64 cells convert once per distinct bit pattern ---

# -0.0 and 0.0, NaNs with different payloads and signs, +-inf, subnormals and 1e23.
POOL_BITS = [
    0x8000000000000000,
    0x0000000000000000,
    0x7FF8000000000000,
    0x7FF8000000000001,
    0xFFF8000000000000,
    0x7FF0000000000001,
    0x7FF0000000000000,
    0xFFF0000000000000,
    0x0000000000000001,
    0x000FFFFFFFFFFFFF,
    0x44B52D02C7E14AF6,  # 1e23
    0x3FB999999999999A,  # 0.1
]
FINITE_POOL = [0, 1, 8, 9, 10, 11]


def _pool_column(indices) -> np.ndarray:
    return np.array([POOL_BITS[i] for i in indices], dtype=np.uint64).view(np.float64)


def _assert_matches_references(fields, columns):
    rows = _rows_of(fields, [np.asarray(column).tolist() for column in columns])
    assert columns_to_csv(fields, columns) == _ref_rows_to_csv(rows)
    assert columns_to_json(fields, columns) == _ref_dumps(rows)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, len(POOL_BITS) - 1), min_size=2 * len(POOL_BITS), max_size=60),
    st.lists(st.sampled_from(FINITE_POOL), min_size=2 * len(POOL_BITS), max_size=60),
)
def test_repeating_float_columns_match_reference(pool_indices, finite_indices):
    length = min(len(pool_indices), len(finite_indices))
    columns = [_pool_column(pool_indices[:length]), _pool_column(finite_indices[:length])]
    _assert_matches_references(["a", "b"], columns)


def test_cache_keeps_each_bit_pattern_apart():
    column = _pool_column([0, 1, 0, 1, 2, 3, 4, 5, 2, 3, 4, 5])
    assert serialize._pattern_cells([column], serialize._csv_cell) == [["-0", "0", "-0", "0"] + ["nan"] * 8]
    assert serialize._pattern_cells([column], serialize._json_scalar) == [["-0", "0", "-0", "0"] + ["null"] * 8]
    _assert_matches_references(["v"], [column])


def test_columns_sharing_bit_patterns_share_their_text():
    a = _pool_column([11, 10, 0, 1, 11, 10])
    cells = serialize._pattern_cells([a, a[::-1].copy(), a[:3].repeat(2)], serialize._csv_cell)
    assert cells[0] == ["0.1", "1e+23", "-0", "0", "0.1", "1e+23"]
    assert cells[1] == cells[0][::-1] and cells[2] == ["0.1", "0.1", "1e+23", "1e+23", "-0", "-0"]
    # One conversion per pattern: every cell of a pattern is the same text object.
    assert len({id(cell) for column in cells for cell in column}) == 4
    _assert_matches_references(["a", "reversed", "repeated"], [a, a[::-1].copy(), a[:3].repeat(2)])


@pytest.mark.parametrize("index", range(len(POOL_BITS)))
def test_length_one_columns_match_reference(index):
    _assert_matches_references(["v", "w"], [_pool_column([index]), np.array([2.5])])


def test_strided_views_match_reference():
    # analyze passes the columns of a (pairs, 3) array, *center.T.
    center = np.repeat(np.random.default_rng(3).standard_normal((5, 3)), 4, axis=0)
    columns = [*center.T, center[::-1, 1]]
    _assert_matches_references(["x", "y", "z", "reversed"], columns)
    _assert_matches_references(["even_x", "even_z"], [center[::2, 0], center[::2, 2]])
    _assert_matches_references(["x", "z"], [center[::4, 0], center[::4, 2]])


def test_only_float64_arrays_are_deduplicated(monkeypatch):
    def refuse(arrays, cell):
        raise AssertionError("only float64 arrays are deduplicated")

    monkeypatch.setattr(serialize, "_pattern_cells", refuse)
    repeats = [0.1, -0.0, 0.1, 0.0] * 5
    columns = [
        np.array(repeats, dtype=np.float32),
        np.array([3, -1] * 10),
        np.array([True, False] * 10),
        repeats,
        [1, 0.5] * 10,
    ]
    _assert_matches_references(["f32", "int", "bool", "list", "mixed"], columns)
    assert dumps(repeats) == _ref_dumps(repeats)


def test_float64_arrays_beside_other_columns_match_reference():
    # The float32, list and int columns, all distinct, are formatted cell by cell.
    distinct = np.random.default_rng(4).standard_normal(20)
    columns = [np.arange(20.0) % 2, distinct.astype(np.float32), distinct.tolist(), np.arange(20)]
    _assert_matches_references(["repeats", "f32", "list", "int"], columns)


@pytest.mark.parametrize(
    "columns",
    [
        [np.arange(10.0) % 5, 5.0 + np.arange(10.0) % 5],  # 10 distinct of 20 cells
        [np.arange(10.0) % 6, np.arange(9.0, -1.0, -1.0) % 6],  # 6 of 10 in each column, 6 of 20 in all
        [np.zeros(10), 1.0 + np.arange(10.0) % 9],  # 1 + 9 of 20
        [np.zeros(10), 1.0 + np.arange(10.0)],  # 1 + 10 of 20
        [np.arange(10.0) % 6],  # 6 of 10
        [np.random.default_rng(6).standard_normal(10)],  # all distinct
    ],
)
def test_tables_of_any_distinct_share_match_reference(columns):
    _assert_matches_references([f"c{k}" for k in range(len(columns))], columns)


@st.composite
def _mixed_tables(draw):
    """Columns of POOL_BITS float64 cells, strided views of a (rows, 3) array, float32, int, bool and lists."""
    rows = draw(st.integers(1, 24))
    pool = st.lists(st.integers(0, len(POOL_BITS) - 1), min_size=rows, max_size=rows)
    wide = _pool_column(draw(st.lists(st.integers(0, len(POOL_BITS) - 1), min_size=3 * rows, max_size=3 * rows)))
    kinds = st.sampled_from(["float64", "strided", "float32", "int", "bool", "list"])
    columns = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=6)):
        if kind == "float64":
            columns.append(_pool_column(draw(pool)))
        elif kind == "strided":
            columns.append(wide.reshape(rows, 3)[:, draw(st.integers(0, 2))])
        elif kind == "float32":
            with np.errstate(invalid="ignore"):  # a signalling NaN raises the invalid flag as it narrows
                columns.append(_pool_column(draw(pool)).astype(np.float32))
        elif kind == "int":
            columns.append(np.array(draw(st.lists(st.integers(-3, 3), min_size=rows, max_size=rows))))
        elif kind == "bool":
            columns.append(np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows))))
        else:
            columns.append(_pool_column(draw(pool)).tolist())
    return columns


@settings(max_examples=300, deadline=None)
@given(_mixed_tables())
def test_mixed_tables_match_reference(columns):
    _assert_matches_references([f"c{k}" for k in range(len(columns))], columns)


def test_non_finite_json_column_with_repeats_matches_reference():
    column = np.array([1.0, math.inf, 1.0, math.nan, 1.0, -math.inf, 1.0, 1.0])
    _assert_matches_references(["v"], [column])
    assert columns_to_json(["v"], [column]).count("null") == 3


@pytest.mark.parametrize(
    "row_type, columns",
    [
        (experiments.GhzSweepRow, lambda: experiments._ghz_columns(50)),
        (experiments.NoisyWSweepRow, lambda: experiments._noisy_w_columns(None, None)),
        (experiments.NoisyWSweepRow, lambda: experiments._noisy_w_columns(experiments._open_grid(2000, 1.0), [0.01])),
    ],
)
def test_full_sweep_tables_match_reference(row_type, columns):
    _assert_matches_references([field.name for field in dataclasses.fields(row_type)], columns())


# --- a table is one equal-length column per field ---


@pytest.mark.parametrize("to_text", [columns_to_csv, columns_to_json])
@pytest.mark.parametrize(
    "fields, columns, message",
    [
        (["a", "b"], [[1.0, 2.0], [3.0]], r"unequal lengths \[1, 2\]"),
        (["a", "b"], [np.zeros(3), np.zeros(2)], r"unequal lengths \[2, 3\]"),
        (["a", "b", "c"], [[1.0, 2.0], [3.0, 4.0]], "3 fields, 2 columns"),
        (["a"], [[1.0, 2.0], [3.0, 4.0]], "1 fields, 2 columns"),
        ([], [[1.0]], "0 fields, 1 columns"),
    ],
)
def test_mis_shaped_tables_are_rejected(to_text, fields, columns, message):
    with pytest.raises(ValueError, match=message):
        to_text(fields, columns)


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


def test_non_utf8_state_file_names_the_file(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(StateValidationError, match=re.escape(f"state file {path} is not UTF-8 text")):
        load_state_file(str(path))
