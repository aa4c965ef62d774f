"""The table layer: ResultTable's named columns through the CSV and JSON writers."""

from __future__ import annotations

import json

import pytest

import numpy as np

from magsqueeze.errors import InvalidInputError
from magsqueeze.tableio import ResultTable, read_csv, write_csv, write_json

METADATA = [("artifact", "magsqueeze test"), ("axis theta_rad", "0.0 .. 1.0 (3 points)")]


def sample_table() -> ResultTable:
    return ResultTable(
        columns={
            "theta_rad": np.array([0.0, 0.1, 1.0 / 3.0]),
            "stable": np.array([1, 0, 1]),
            "E_mb": np.array([2.5e-17, np.nan, -1.0e300]),
        },
        metadata=list(METADATA),
    )


def assert_same_columns(got: dict[str, np.ndarray], want: dict[str, np.ndarray]) -> None:
    """The same names in the same order, each column of the same dtype and bit-equal."""
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name


def test_csv_round_trip_keeps_columns_order_and_metadata(tmp_path):
    table = sample_table()
    write_csv(table, tmp_path / "t.csv")
    back = read_csv(tmp_path / "t.csv")
    assert list(back.columns) == ["theta_rad", "stable", "E_mb"]
    assert_same_columns(back.columns, table.columns)  # repr round-trip is exact
    assert np.isnan(back.columns["E_mb"]).tolist() == [False, True, False]
    assert back.columns["stable"].dtype.kind == "i"
    assert back.metadata == METADATA


# Every CSV and JSON file the package writes goes through these two writers.
PINNED = {
    "x": np.array([np.nan, 5e-324, -1e300, 1.0 / 3.0]),
    "stable": np.array([0, 1, 0, 1]),
}
PINNED_CSV = """\
# artifact = magsqueeze test
# axis theta_rad = 0.0 .. 1.0 (3 points)
x,stable
,0
5e-324,1
-1e+300,0
0.3333333333333333,1
"""
PINNED_JSON = """\
{
  "metadata": {
    "artifact": "magsqueeze test",
    "axis theta_rad": "0.0 .. 1.0 (3 points)"
  },
  "columns": {
    "x": [
      null,
      5e-324,
      -1e+300,
      0.3333333333333333
    ],
    "stable": [
      0,
      1,
      0,
      1
    ]
  }
}
"""
EMPTY_CSV = """\
# artifact = magsqueeze test
# axis theta_rad = 0.0 .. 1.0 (3 points)
x,stable
"""
EMPTY_JSON = """\
{
  "metadata": {
    "artifact": "magsqueeze test",
    "axis theta_rad": "0.0 .. 1.0 (3 points)"
  },
  "columns": {
    "x": [],
    "stable": []
  }
}
"""


@pytest.mark.parametrize("columns, csv_text, json_text", [
    (PINNED, PINNED_CSV, PINNED_JSON),
    ({"x": np.array([]), "stable": np.array([], dtype=int)}, EMPTY_CSV, EMPTY_JSON),
], ids=["rows", "header_only"])
def test_writers_bytes_are_pinned(tmp_path, columns, csv_text, json_text):
    table = ResultTable(columns=columns, metadata=list(METADATA))
    write_csv(table, tmp_path / "t.csv")
    write_json(table, tmp_path / "t.json")
    assert (tmp_path / "t.csv").read_bytes() == csv_text.encode()
    assert (tmp_path / "t.json").read_bytes() == json_text.encode()
    back = read_csv(tmp_path / "t.csv")
    assert_same_columns(back.columns, columns)
    assert back.columns["stable"].dtype.kind == "i"
    assert back.metadata == METADATA


def test_header_only_file_reads_as_empty_columns(tmp_path):
    table = ResultTable(columns={"x": np.array([]), "stable": np.array([], dtype=int)},
                        metadata=list(METADATA))
    write_csv(table, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_text().splitlines()[-1] == "x,stable"
    back = read_csv(tmp_path / "t.csv")
    assert_same_columns(back.columns, table.columns)
    assert back.metadata == METADATA


def test_blank_lines_are_skipped(tmp_path):
    (tmp_path / "t.csv").write_text("# k = v\n\nx,stable\n\n0.5,1\n")
    back = read_csv(tmp_path / "t.csv")
    assert_same_columns(back.columns, {"x": np.array([0.5]), "stable": np.array([1])})
    assert back.metadata == [("k", "v")]


def test_file_without_a_header_row_is_rejected(tmp_path):
    (tmp_path / "t.csv").write_text("# k = v\n")
    with pytest.raises(InvalidInputError, match="has no header row"):
        read_csv(tmp_path / "t.csv")


def test_json_columns_are_the_table_columns(tmp_path):
    table = sample_table()
    write_json(table, tmp_path / "t.json")
    payload = json.loads((tmp_path / "t.json").read_text())
    assert payload["columns"] == {
        "theta_rad": [0.0, 0.1, 1.0 / 3.0], "stable": [1, 0, 1], "E_mb": [2.5e-17, None, -1.0e300],
    }
    assert list(payload["columns"]) == list(table.columns)
    assert payload["metadata"] == dict(METADATA)


def test_unequal_column_lengths_are_rejected():
    with pytest.raises(InvalidInputError, match="'y' has 1 cells, expected 2"):
        ResultTable(columns={"x": [0.0, 1.0], "y": [0.0]})


@pytest.mark.parametrize("cells", [[0.0, None], ["0.5"], [[0.0, 1.0]], [True]],
                         ids=["none_cell", "text", "two_d", "bool"])
def test_a_column_that_is_not_a_float_or_integer_array_is_rejected(cells):
    # A null is NaN, so a None cell is an error rather than a second null convention.
    with pytest.raises(InvalidInputError, match="'y' must be a 1-D float or integer array"):
        ResultTable(columns={"y": cells})


def test_short_row_in_a_file_is_rejected(tmp_path):
    (tmp_path / "t.csv").write_text("x,y\n0.0,1.0\n2.0\n")
    with pytest.raises(InvalidInputError, match="expected 2"):
        read_csv(tmp_path / "t.csv")


def test_long_row_in_a_file_is_rejected(tmp_path):
    # A cell past the header has no column to go to; it is not dropped silently.
    (tmp_path / "t.csv").write_text("x,y\n0.0,1.0,7.0\n")
    with pytest.raises(InvalidInputError, match=r"t\.csv line 2 has 3 cells, expected 2"):
        read_csv(tmp_path / "t.csv")


@pytest.mark.parametrize("text, message", [
    ("x,stable\nabc,1\n", "could not convert string to float: 'abc'"),
    # The integer column has no null: NaN is a float.
    ("x,stable\n0.5,\n", "invalid literal for int() with base 10: ''"),
    # numpy's overflow message varies by version, so only the start of the line is fixed.
    ("x,stable\n0.5,100000000000000000000\n", ""),
], ids=["text", "empty_integer_cell", "integer_past_int64"])
def test_a_cell_that_is_not_a_number_of_its_column_is_rejected(tmp_path, text, message):
    (tmp_path / "t.csv").write_text(text)
    with pytest.raises(InvalidInputError) as caught:
        read_csv(tmp_path / "t.csv")
    assert str(caught.value).startswith(f"{tmp_path / 't.csv'} has an unreadable cell: {message}")


def test_repeated_column_name_in_a_file_is_rejected(tmp_path):
    # Columns are keyed by name, so a repeated name would drop a column.
    (tmp_path / "t.csv").write_text("x,x\n0.0,1.0\n")
    with pytest.raises(InvalidInputError, match="repeats a column name"):
        read_csv(tmp_path / "t.csv")
