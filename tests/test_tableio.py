"""The table layer: ResultTable's named columns through the CSV and JSON writers."""

from __future__ import annotations

import json

import pytest

import numpy as np

from magsqueeze.analysis import SweepResult
from magsqueeze.errors import InvalidInputError
from magsqueeze.tableio import ResultTable, read_csv, sweep_table, write_csv, write_json

METADATA = [("artifact", "magsqueeze test"), ("axis theta_rad", "0.0 .. 1.0 (3 points)")]


def sample_table() -> ResultTable:
    return ResultTable(
        columns={
            "theta_rad": [0.0, 0.1, 1.0 / 3.0],
            "stable": [1, 0, 1],
            "E_mb": [2.5e-17, None, -1.0e300],
        },
        metadata=list(METADATA),
    )


def test_csv_round_trip_keeps_columns_order_and_metadata(tmp_path):
    table = sample_table()
    write_csv(table, tmp_path / "t.csv")
    back = read_csv(tmp_path / "t.csv")
    assert list(back.columns) == ["theta_rad", "stable", "E_mb"]
    assert back.columns == table.columns  # repr round-trip is exact
    assert back.columns["E_mb"][1] is None
    assert all(type(cell) is int for cell in back.columns["stable"])
    assert back.metadata == METADATA


def test_header_only_file_reads_as_empty_columns(tmp_path):
    table = ResultTable(columns={"x": [], "stable": []}, metadata=list(METADATA))
    write_csv(table, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_text().splitlines()[-1] == "x,stable"
    back = read_csv(tmp_path / "t.csv")
    assert back.columns == {"x": [], "stable": []}
    assert back.metadata == METADATA


def test_blank_lines_are_skipped(tmp_path):
    (tmp_path / "t.csv").write_text("# k = v\n\nx,stable\n\n0.5,1\n")
    back = read_csv(tmp_path / "t.csv")
    assert back.columns == {"x": [0.5], "stable": [1]}
    assert back.metadata == [("k", "v")]


def test_file_without_a_header_row_is_rejected(tmp_path):
    (tmp_path / "t.csv").write_text("# k = v\n")
    with pytest.raises(InvalidInputError, match="has no header row"):
        read_csv(tmp_path / "t.csv")


def test_sweep_table_rejects_a_wrong_axis_count():
    grid = np.array([0.0, 1.0])
    result = SweepResult(
        axes=(("upsilon", grid),),
        stable=np.ones(2, dtype=bool),
        failed=np.zeros(2, dtype=bool),
        measures=np.zeros((2, 4)),
    )
    match = "axis_columns must match the sweep axes in count and length"
    with pytest.raises(InvalidInputError, match=match):
        sweep_table(result, [])
    with pytest.raises(InvalidInputError, match=match):
        sweep_table(result, [("upsilon", grid), ("theta_rad", grid)])


def test_json_columns_are_the_table_columns(tmp_path):
    table = sample_table()
    write_json(table, tmp_path / "t.json")
    payload = json.loads((tmp_path / "t.json").read_text())
    assert payload["columns"] == table.columns
    assert list(payload["columns"]) == list(table.columns)
    assert payload["metadata"] == dict(METADATA)


def test_unequal_column_lengths_are_rejected():
    with pytest.raises(InvalidInputError, match="'y' has 1 cells, expected 2"):
        ResultTable(columns={"x": [0.0, 1.0], "y": [0.0]})


def test_short_row_in_a_file_is_rejected(tmp_path):
    (tmp_path / "t.csv").write_text("x,y\n0.0,1.0\n2.0\n")
    with pytest.raises(InvalidInputError, match="expected 2"):
        read_csv(tmp_path / "t.csv")


def test_long_row_in_a_file_is_rejected(tmp_path):
    # A cell past the header has no column to go to; it is not dropped silently.
    (tmp_path / "t.csv").write_text("x,y\n0.0,1.0,7.0\n")
    with pytest.raises(InvalidInputError, match=r"t\.csv line 2 has 3 cells, expected 2"):
        read_csv(tmp_path / "t.csv")


def test_repeated_column_name_in_a_file_is_rejected(tmp_path):
    # Columns are keyed by name, so a repeated name would drop a column.
    (tmp_path / "t.csv").write_text("x,x\n0.0,1.0\n")
    with pytest.raises(InvalidInputError, match="repeats a column name"):
        read_csv(tmp_path / "t.csv")
