"""Deterministic tabular serialization: CSV with a metadata header, and JSON.

Floats are written with their shortest round-trip decimal representation
(``repr``), nulls as empty fields, newlines as ``\\n``; identical inputs
therefore produce byte-identical files.
"""

from __future__ import annotations

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
    """Named columns of equal length plus ordered metadata key/value pairs."""

    columns: dict[str, list[Cell]]
    metadata: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        lengths = [len(cells) for cells in self.columns.values()]
        for name, length in zip(self.columns, lengths):
            if length != lengths[0]:
                raise InvalidInputError(
                    f"column {name!r} has {length} cells, expected {lengths[0]}"
                )


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
    columns: dict[str, list[Cell]] = {
        name: axis.ravel().tolist() for (name, _), axis in zip(axis_columns, mesh)
    }
    columns["stable"] = result.stable.astype(int).tolist()
    for name, values in zip(MEASURES, result.measures.T):
        columns[name] = _nullable(values)
    if result.contrasts is not None:
        for name, values in zip(CONTRASTS, result.contrasts.T):
            columns[name] = _nullable(values)

    n_stable = int(result.stable.sum())
    metadata = list(extra_metadata)
    metadata.append(("stable_points", str(n_stable)))
    metadata.append(("unstable_points", str(len(result.stable) - n_stable)))
    n_failed = int(result.failed.sum())
    if n_failed:
        metadata.append(("failed_points", str(n_failed)))
    return ResultTable(columns=columns, metadata=metadata)


def write_csv(table: ResultTable, path: str | Path) -> None:
    lines = [f"# {key} = {value}" for key, value in table.metadata]
    lines.append(",".join(table.columns))
    for row in zip(*table.columns.values()):
        lines.append(",".join(map(_format_cell, row)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_csv(path: str | Path) -> ResultTable:
    """Parse a file written by write_csv back into a ResultTable."""
    metadata: list[tuple[str, str]] = []
    columns: dict[str, list[Cell]] | None = None
    for number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            key, _, value = body.partition(" = ")
            metadata.append((key, value))
            continue
        if columns is None:
            names = line.split(",")
            columns = {name: [] for name in names}
            if len(columns) != len(names):
                raise InvalidInputError(f"{path} repeats a column name: {line}")
            continue
        texts = line.split(",")
        if len(texts) != len(columns):
            raise InvalidInputError(
                f"{path} line {number} has {len(texts)} cells, expected {len(columns)}"
            )
        for (name, cells), text in zip(columns.items(), texts):
            if text == "":
                cells.append(None)
            elif name in _INT_COLUMNS:
                cells.append(int(text))
            else:
                cells.append(float(text))
    if columns is None:
        raise InvalidInputError(f"{path} has no header row")
    return ResultTable(columns=columns, metadata=metadata)


def write_json(table: ResultTable, path: str | Path) -> None:
    # Imported here: only --format json needs it, and every launch imports this module.
    import json

    payload = {"metadata": dict(table.metadata), "columns": table.columns}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8", newline="\n")
