"""Deterministic JSON/CSV emission and state-file loading.

All floats are printed with 12 significant digits so that identical inputs
produce byte-identical output files.  JSON has no representation for
non-finite values; they are emitted as null (CSV keeps "inf"/"-inf").
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any, Sequence

from .states import QuantumState, StateValidationError

__all__ = ["format_float", "dumps", "rows_to_csv", "load_state_file"]


def format_float(value: float) -> str:
    return f"{value:.12g}"


def _emit(obj: Any, out: list, indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj) if math.isfinite(obj) else "null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(f'{pad}  {json.dumps(str(key))}: ')
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
            _emit_scalar_list(obj, out)
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad + "  ")
            _emit(value, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit_scalar_list(obj: Sequence, out: list) -> None:
    parts = []
    for x in obj:
        sub: list = []
        _emit(x, sub, 0)
        parts.append("".join(sub))
    out.append("[" + ", ".join(parts) + "]")


def dumps(obj: Any) -> str:
    """Fixed-format JSON: 12-significant-digit floats, 2-space indent, trailing newline."""
    out: list = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _csv_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def rows_to_csv(rows: Sequence, fields: Sequence[str] | None = None) -> str:
    """Header plus one line per row; rows are dataclasses or dicts with uniform keys."""
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
        lines.append(",".join(_csv_cell(value) for value in cells))
    return "\n".join(lines) + "\n"


def load_state_file(path: str, tol: float = 1e-9) -> QuantumState:
    """Read a state JSON file ({"n_qubits", "kind", "data"}) and validate it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise StateValidationError(f"cannot read state file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StateValidationError(f"state file {path} is not valid JSON: {exc}") from exc
    return QuantumState.from_dict(payload, tol=tol)
