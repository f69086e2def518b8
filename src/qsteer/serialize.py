"""Deterministic JSON/CSV emission and state-file loading.

All floats are printed with 12 significant digits so that identical inputs
produce byte-identical output files.  JSON has no representation for
non-finite values; they are emitted as null (CSV keeps "inf"/"-inf").  A
table's float64 array columns convert once per distinct bit pattern
(``_pattern_cells``) and its other columns cell by cell.  The same bits
always print the same text, so the bytes are those of the cell-by-cell
conversion.
"""

from __future__ import annotations

import json
import math
import re
from itertools import repeat
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


def _pattern_cells(arrays: list[np.ndarray], cell) -> list[list[str]]:
    """The cells of equal-length float64 arrays, each distinct bit pattern converted
    once: "%.12g" if finite, else by ``cell``.

    Bits, not values, are compared, so -0.0 and each NaN payload keep a cell of their own.
    """
    bits = np.concatenate([array.view(np.uint64) for array in arrays])
    order = np.argsort(bits)
    ordered = bits[order]
    first = np.ones(len(bits), dtype=bool)  # first of its run in sorted order
    first[1:] = ordered[1:] != ordered[:-1]
    values = ordered[first].view(np.float64)
    text = np.array((",".join([_FLOAT] * len(values)) % tuple(values.tolist())).split(","), dtype=object)
    special = np.flatnonzero(~np.isfinite(values))
    text[special] = [cell(value) for value in values[special].tolist()]
    # Each cell's index in ``values``; an argsort is faster than a searchsorted for it.
    pattern = np.empty(len(bits), dtype=np.intp)
    pattern[order] = np.cumsum(first) - 1
    return text[pattern.reshape(len(arrays), -1)].tolist()


def _table(fields: Sequence[str], columns: Sequence[Sequence], cell) -> list[list[str]]:
    """The text of each cell of a table, column by column.

    There must be one column per field, all of one length.  Float64 array
    columns come from one ``_pattern_cells`` call, any other column cell by
    cell through ``cell``.
    """
    if columns and len(columns) != len(fields):
        raise ValueError(f"table needs one column per field: {len(fields)} fields, {len(columns)} columns")
    lengths = sorted(set(map(len, columns)))
    if len(lengths) > 1:
        raise ValueError(f"table columns have unequal lengths {lengths}")
    is_float64 = [isinstance(column, np.ndarray) and column.dtype == np.float64 for column in columns]
    arrays = [column for column, array in zip(columns, is_float64) if array]
    finished = iter(_pattern_cells(arrays, cell) if arrays else ())
    return [
        next(finished) if array else list(map(cell, column.tolist() if isinstance(column, np.ndarray) else column))
        for column, array in zip(columns, is_float64)
    ]


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
            out.append("[" + ", ".join(map(_json_scalar, obj)) + "]")
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
    # The text before each column's cell, "  {\n    key: " or ",\n    key: ", and after the last.
    seps = [("," if i else "  {") + f"\n    {_encode_str(str(name))}: " for i, name in enumerate(fields)] + ["\n  }"]
    cells = _table(fields, columns, _json_scalar)
    parts = [part for sep, column in zip(seps, cells) for part in (repeat(sep), column)]
    rows = list(map("".join, zip(*parts, repeat(seps[-1])))) if cells else []
    return "[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n"


def columns_to_csv(fields: Sequence[str], columns: Sequence[Sequence]) -> str:
    """Header plus one line per row of the equal-length ``columns``, one per field."""
    cells = _table(fields, columns, _csv_cell)
    return "\n".join([",".join(map(_csv_cell, fields)), *map(",".join, zip(*cells))]) + "\n"


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
