"""Deterministic tabular serialization: CSV with a metadata header, and JSON.

A column is a 1-D array: float64 with NaN for a null cell, or integers (the
``stable`` column).  Floats are written with their shortest round-trip decimal
representation (``repr``), a null as an empty CSV field and a JSON ``null``,
newlines as ``\\n``; identical inputs therefore produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidInputError

__all__ = ["ResultTable", "write_csv", "read_csv", "write_json"]

_INT_COLUMNS = {"stable"}


@dataclass
class ResultTable:
    """Named 1-D columns of equal length plus ordered metadata key/value pairs."""

    columns: dict[str, np.ndarray]
    metadata: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.columns = {name: np.asarray(cells) for name, cells in self.columns.items()}
        expected = len(next(iter(self.columns.values()), ()))
        for name, cells in self.columns.items():
            if cells.ndim != 1 or cells.dtype.kind not in "iuf":
                raise InvalidInputError(f"column {name!r} must be a 1-D float or integer array")
            if len(cells) != expected:
                raise InvalidInputError(f"column {name!r} has {len(cells)} cells, expected {expected}")


def _fields(cells: np.ndarray) -> list[str]:
    """The CSV fields of a column: ``str`` per integer, ``repr`` per float, "" for NaN."""
    if cells.dtype.kind != "f":
        return list(map(str, cells.tolist()))
    return ["" if v != v else repr(v) for v in cells.tolist()]


def write_csv(table: ResultTable, path: str | Path) -> None:
    lines = [f"# {key} = {value}" for key, value in table.metadata]
    lines.append(",".join(table.columns))
    lines.extend(map(",".join, zip(*map(_fields, table.columns.values()))))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_csv(path: str | Path) -> ResultTable:
    """Parse a file written by write_csv back into a ResultTable."""
    metadata: list[tuple[str, str]] = []
    texts: dict[str, list[str]] | None = None
    for number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition(" = ")
            metadata.append((key, value))
            continue
        if texts is None:
            names = line.split(",")
            texts = {name: [] for name in names}
            if len(texts) != len(names):
                raise InvalidInputError(f"{path} repeats a column name: {line}")
            continue
        row = line.split(",")
        if len(row) != len(texts):
            raise InvalidInputError(
                f"{path} line {number} has {len(row)} cells, expected {len(texts)}"
            )
        for cells, text in zip(texts.values(), row):
            cells.append(text)
    if texts is None:
        raise InvalidInputError(f"{path} has no header row")
    try:
        columns = {
            name: np.array(list(map(int, cells)), dtype=int) if name in _INT_COLUMNS
            else np.array([float(text) if text else np.nan for text in cells])
            for name, cells in texts.items()
        }
    except (ValueError, OverflowError) as exc:  # not a number, an empty or huge integer cell
        raise InvalidInputError(f"{path} has an unreadable cell: {exc}") from None
    return ResultTable(columns=columns, metadata=metadata)


def write_json(table: ResultTable, path: str | Path) -> None:
    # Imported here: only --format json needs it, and every launch imports this module.
    import json

    columns = {name: [None if v != v else v for v in cells.tolist()]
               for name, cells in table.columns.items()}
    payload = {"metadata": dict(table.metadata), "columns": columns}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8", newline="\n")
