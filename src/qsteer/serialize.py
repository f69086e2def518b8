"""Deterministic JSON/CSV emission and state-file loading.

All floats are printed with 12 significant digits so that identical inputs
produce byte-identical output files.  JSON has no representation for
non-finite values; they are emitted as null (CSV keeps "inf"/"-inf").
Tables are formatted column by column: one column formatter per format
decides how each column converts (see ``_json_column``, ``_csv_column``).
A float64 array column whose cells mostly repeat is formatted once per
distinct bit pattern (see ``_float_column``): the same bits always print the
same text, so the bytes are those of the cell-by-cell conversion.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Sequence

import numpy as np

from .states import QuantumState, StateValidationError

__all__ = ["format_float", "dumps", "columns_to_json", "rows_to_csv", "columns_to_csv", "load_state_file"]

# The one float format of every output; for a float, "%.12g" % x is f"{x:.12g}".
_FLOAT = "%.12g"
_encode_str = json.encoder.encode_basestring_ascii  # what json.dumps(str) calls
_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def format_float(value: float) -> str:
    return _FLOAT % value


def _json_scalar(value: Any) -> str:
    """JSON text of one scalar: null for None and for non-finite floats."""
    if isinstance(value, float):  # no float is also a bool or an int, so this may come first
        return _FLOAT % value if math.isfinite(value) else "null"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return _encode_str(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _csv_cell(value: Any) -> str:
    """CSV text of one cell; a string is quoted (RFC 4180) only when it holds , " CR or LF."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FLOAT % value
    if isinstance(value, str) and _CSV_SPECIAL.search(value):
        return '"' + value.replace('"', '""') + '"'
    return str(value)


def _column_values(column: Sequence) -> tuple[list, type | None]:
    """The Python scalars of a column and their common type (None if they differ or there are none)."""
    values = column.tolist() if isinstance(column, np.ndarray) else list(column)
    kinds = set(map(type, values))
    return values, kinds.pop() if len(kinds) == 1 else None


def _float_column(column: np.ndarray) -> tuple[str, list]:
    """A float64 column's spec and values: its floats for the template, or, when at
    most half its bit patterns are distinct, finished cells converted once per pattern.

    Bits, not values, are compared, so -0.0 and each NaN payload keep a cell of their own.
    """
    bits = column.view(np.uint64)
    ordered = np.sort(bits)
    first = np.ones(len(bits), dtype=bool)  # first of its run in sorted order
    first[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[first]
    if 2 * len(distinct) > len(bits):
        return _FLOAT, column.tolist()
    cells = np.array([_FLOAT % value for value in distinct.view(np.float64).tolist()], dtype=object)
    return "%s", cells[np.searchsorted(distinct, bits)].tolist()


def _is_float64(column: Sequence) -> bool:
    return isinstance(column, np.ndarray) and column.dtype == np.float64


# A column formatter returns the % conversion of the column's cells and the
# values it converts: the floats themselves for a float column, which a row
# template then formats in one C-level call per row, or else finished cells.


def _json_column(column: Sequence) -> tuple[str, list]:
    """JSON column formatter: finite floats convert in the template, any other cell by ``_json_scalar``."""
    if _is_float64(column) and np.isfinite(column).all():
        return _float_column(column)
    values, kind = _column_values(column)
    if kind is float and all(map(math.isfinite, values)):
        return _FLOAT, values
    return "%s", list(map(_json_scalar, values))


def _csv_column(column: Sequence) -> tuple[str, list]:
    """CSV column formatter: floats convert in the template, any other cell by ``_csv_cell``."""
    if _is_float64(column):
        return _float_column(column)
    values, kind = _column_values(column)
    if kind is float:
        return _FLOAT, values
    return "%s", list(map(_csv_cell, values))


def _rows(formatter, fields: Sequence[str], columns: Sequence[Sequence], template) -> list[str]:
    """One line per row: ``template(specs)`` is the row's % template, filled from ``columns``.

    No columns is a table of no rows; otherwise there must be one column per
    field, all of one length.
    """
    if not columns:
        return []
    if len(columns) != len(fields):
        raise ValueError(f"table needs one column per field: {len(fields)} fields, {len(columns)} columns")
    lengths = sorted(set(map(len, columns)))
    if len(lengths) > 1:
        raise ValueError(f"table columns have unequal lengths {lengths}")
    specs, values = zip(*map(formatter, columns))
    return list(map(template(specs).__mod__, zip(*values)))


def _emit(obj: Any, out: list, indent: int) -> None:
    if type(obj) is float or obj is None or isinstance(obj, (bool, int, float, str)):
        out.append(_json_scalar(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        pad = "  " * indent
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(f"{pad}  {_encode_str(str(key))}: ")
            _emit(value, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        # Flat numeric lists stay on one line; anything nested gets one
        # element per line.
        if all(isinstance(x, (int, float, bool)) or x is None for x in obj):
            spec, cells = _json_column(obj)
            out.append(("[" + ", ".join([spec] * len(cells)) + "]") % tuple(cells))
            return
        pad = "  " * indent
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad + "  ")
            _emit(value, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any) -> str:
    """Fixed-format JSON: 12-significant-digit floats, 2-space indent, trailing newline."""
    out: list = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def columns_to_json(fields: Sequence[str], columns: Sequence[Sequence]) -> str:
    """``dumps`` of the list of row dicts {field: column[i]}, built column by column.

    ``columns`` are equal-length sequences (numpy arrays or lists), one per
    field; the text is byte for byte that of ``dumps`` on the rows.
    """
    # A literal % in a field name must not act as a conversion.
    keys = [_encode_str(str(name)).replace("%", "%%") for name in fields]

    def template(specs):
        return "  {\n" + ",\n".join(f"    {key}: {spec}" for key, spec in zip(keys, specs)) + "\n  }"

    rows = _rows(_json_column, fields, columns, template)
    return "[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n"


def columns_to_csv(fields: Sequence[str], columns: Sequence[Sequence]) -> str:
    """Header plus one line per row of the equal-length ``columns``, one per field."""
    lines = [",".join(map(_csv_cell, fields)), *_rows(_csv_column, fields, columns, ",".join)]
    return "\n".join(lines) + "\n"


def rows_to_csv(rows: Sequence[dict]) -> str:
    """Header plus one line per row; rows are dicts with the keys of the first, which name the columns."""
    if not rows:
        return ""
    fields = list(rows[0])
    return columns_to_csv(fields, [[row[name] for row in rows] for name in fields])


def load_state_file(path: str, tol: float = 1e-9) -> QuantumState:
    """Read a state JSON file ({"n_qubits", "kind", "data"}) and validate it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise StateValidationError(f"cannot read state file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StateValidationError(f"state file {path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise StateValidationError(f"state file {path} is not UTF-8 text: {exc}") from exc
    return QuantumState.from_dict(payload, tol=tol)
