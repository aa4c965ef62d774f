"""Deterministic tabular serialization: CSV with a metadata header, and JSON.

Floats are written with their shortest round-trip decimal representation
(``repr``), nulls as empty fields, newlines as ``\\n``; identical inputs
therefore produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import CONTRASTS, MEASURES, SweepResult, _nullable
from .errors import InvalidInputError

__all__ = ["ResultTable", "sweep_table", "write_csv", "read_csv", "write_json"]

Cell = float | int | None

_INT_COLUMNS = {"stable"}


@dataclass
class ResultTable:
    """Column-named rows plus ordered metadata key/value pairs."""

    columns: list[str]
    rows: list[tuple[Cell, ...]]
    metadata: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        width = len(self.columns)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise InvalidInputError(
                    f"row {i} has {len(row)} cells, expected {width}"
                )

    def column(self, name: str) -> list[Cell]:
        try:
            k = self.columns.index(name)
        except ValueError:
            raise InvalidInputError(f"no column named {name!r}") from None
        return [row[k] for row in self.rows]


def _format_cell(value: Cell) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def sweep_table(
    result: SweepResult,
    axis_columns: Sequence[tuple[str, Sequence[float]]],
    extra_metadata: Sequence[tuple[str, str]] = (),
) -> ResultTable:
    """Flatten a SweepResult into a table.

    ``axis_columns`` names the axis columns and gives their display-unit
    grids (one per axis, same lengths as the sweep grids).  The metadata
    counts stable and unstable points, and failed points when there are
    any.
    """
    if len(axis_columns) != len(result.axes) or any(
        len(grid) != len(axis) for (_, grid), (_, axis) in zip(axis_columns, result.axes)
    ):
        raise InvalidInputError("axis_columns must match the sweep axes in count and length")

    mesh = np.meshgrid(*(np.asarray(grid, dtype=float) for _, grid in axis_columns), indexing="ij")
    columns = [name for name, _ in axis_columns] + ["stable", *MEASURES]
    cells: list[list[Cell]] = [axis.ravel().tolist() for axis in mesh]
    cells.append(result.stable.astype(int).tolist())
    cells += [_nullable(values) for values in result.measures.T]
    if result.contrasts is not None:
        columns += CONTRASTS
        cells += [_nullable(values) for values in result.contrasts.T]

    n_stable = int(result.stable.sum())
    metadata = list(extra_metadata)
    metadata.append(("stable_points", str(n_stable)))
    metadata.append(("unstable_points", str(len(result.stable) - n_stable)))
    n_failed = int(result.failed.sum())
    if n_failed:
        metadata.append(("failed_points", str(n_failed)))
    return ResultTable(columns=columns, rows=list(zip(*cells)), metadata=metadata)


def to_csv_text(table: ResultTable) -> str:
    lines = [f"# {key} = {value}" for key, value in table.metadata]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def write_csv(table: ResultTable, path: str | Path) -> None:
    Path(path).write_text(to_csv_text(table), encoding="utf-8", newline="\n")


def read_csv(path: str | Path) -> ResultTable:
    """Parse a file written by write_csv back into a ResultTable."""
    metadata: list[tuple[str, str]] = []
    columns: list[str] | None = None
    rows: list[tuple[Cell, ...]] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            key, _, value = body.partition(" = ")
            metadata.append((key, value))
            continue
        if columns is None:
            columns = line.split(",")
            continue
        cells: list[Cell] = []
        for name, text in zip(columns, line.split(",")):
            if text == "":
                cells.append(None)
            elif name in _INT_COLUMNS:
                cells.append(int(text))
            else:
                cells.append(float(text))
        rows.append(tuple(cells))
    if columns is None:
        raise InvalidInputError(f"{path} has no header row")
    return ResultTable(columns=columns, rows=rows, metadata=metadata)


def to_json_text(table: ResultTable) -> str:
    payload = {
        "metadata": {key: value for key, value in table.metadata},
        "columns": {
            name: [row[k] for row in table.rows] for k, name in enumerate(table.columns)
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def write_json(table: ResultTable, path: str | Path) -> None:
    Path(path).write_text(to_json_text(table), encoding="utf-8", newline="\n")
