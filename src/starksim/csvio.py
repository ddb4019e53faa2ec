"""The one CSV writer and reader of the command line; ``cli.FITS`` declares each dataset's columns.

All files are RFC-4180 style with ``\n`` line endings, ``.`` decimal
separator, and floats at 17 significant digits so runs reproduce
byte-identically.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Sequence

__all__ = ["format_value", "read_table", "write_table"]


def format_value(value: object) -> str:
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(format_value(v) for v in row) + "\n")
    return path


def read_table(path: str | Path, columns: dict[str, type]) -> list[list]:
    """Columns of a CSV whose header is ``columns``' names, each cell converted
    by its column's type. Every failure is a ValueError naming the file: one
    that cannot be opened, or a cell that does not convert or is a float
    that is not finite, with its row (the header is row 1, as in a
    spreadsheet) and its column."""
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
                column.append(value)
    return values
