"""The one CSV writer and reader of the command line, for the tables ``cli`` declares as ``{column: type}``.

All files are RFC-4180 style with ``\n`` line endings and ``.`` decimal
separator. A cell is formatted by its column's type: ints as ``str``
writes them, strings as they are, and floats at 17 significant digits,
so they read back bit for bit and runs reproduce byte-identically.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = ["read_table", "write_table"]


def write_table(path: str | Path, table: dict[str, type], columns: Sequence[Sequence]) -> Path:
    """Write ``table``'s header, then a row per entry of ``columns``, one
    equally long sequence per column of ``table``, in its order."""
    cells = []
    for kind, column in zip(table.values(), columns, strict=True):
        values = column.tolist() if isinstance(column, np.ndarray) else column
        cells.append([format(value, ".17g") if kind is float else str(value) for value in values])
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(table) + "\n")
        handle.writelines(",".join(row) + "\n" for row in zip(*cells, strict=True))
    return path


def read_table(path: str | Path, columns: dict[str, type]) -> list[np.ndarray]:
    """Columns of a CSV whose header is ``columns``' names, each cell converted
    by its column's type, each column the array ``np.array`` makes of its
    values. Every failure is a ValueError naming the file: one that cannot
    be opened, or a cell that does not convert, is a float that is not
    finite or an int outside int64, with its row (the header is row 1, as
    in a spreadsheet) and its column."""
    values: list[list] = [[] for _ in columns]
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:  # an unreadable dataset is bad input, not an output directory failure
        raise ValueError(f"{path}: {exc.strerror}") from None
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty CSV")
        if header != list(columns):
            raise ValueError(f"{path}: unexpected header {header!r}, want {list(columns)!r}")
        for row in filter(None, reader):
            if len(row) != len(columns):
                raise ValueError(f"{path}: row {reader.line_num} has {len(row)} cells, want {len(columns)}")
            for column, (name, kind), cell in zip(values, columns.items(), row):
                try:
                    value = kind(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: row {reader.line_num}, column {name!r}: expected {kind.__name__}, got {cell!r}"
                    ) from None
                if kind is float and not math.isfinite(value):
                    raise ValueError(f"{path}: row {reader.line_num}, column {name!r} must be finite, got {cell!r}")
                if kind is int and not -2**63 <= value < 2**63:  # else np.array makes an object or float column
                    raise ValueError(f"{path}: row {reader.line_num}, column {name!r} must fit in int64, got {cell!r}")
                column.append(value)
    return [np.array(column) for column in values]
