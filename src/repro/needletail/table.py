"""Row-store table: the relation R(X, Y, ...) the queries run over.

NEEDLETAIL runs in row-store mode for the paper's experiments; this module
provides the in-memory equivalent: named, equal-length columns plus schema
metadata (row width in bytes for I/O accounting).  Tables are the input to
:class:`~repro.needletail.index.BitmapIndex` and
:class:`~repro.needletail.engine.NeedletailEngine`, and the query layer
(:mod:`repro.query`) binds SQL to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Column", "Table"]


@dataclass
class Column:
    """One table column: a name, a numpy array, and a byte width."""

    name: str
    values: np.ndarray
    byte_width: int

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values)
        if self.values.ndim != 1:
            raise ValueError(f"column {self.name!r} must be 1-D")
        if self.byte_width <= 0:
            raise ValueError(f"column {self.name!r} needs byte_width > 0")


class Table:
    """A named collection of equal-length columns."""

    def __init__(self, name: str, columns: list[Column]) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        lengths = {c.values.shape[0] for c in columns}
        if len(lengths) != 1:
            raise ValueError(f"column lengths differ: {sorted(lengths)}")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise ValueError("column names must be unique")
        self.name = str(name)
        self._columns = {c.name: c for c in columns}
        self.num_rows = int(lengths.pop())

    @classmethod
    def from_dict(cls, name: str, data: dict[str, np.ndarray]) -> "Table":
        """Build a table from a {column: array} mapping.

        Byte widths are inferred from dtypes (8 for float/int64, itemsize
        otherwise; strings count their encoded width).
        """
        cols = []
        for col_name, values in data.items():
            arr = np.asarray(values)
            width = arr.dtype.itemsize if arr.dtype.itemsize > 0 else 8
            cols.append(Column(col_name, arr, int(width)))
        return cls(name, cols)

    @property
    def column_names(self) -> list[str]:
        return list(self._columns.keys())

    def __contains__(self, column: str) -> bool:
        return column in self._columns

    def __len__(self) -> int:
        return self.num_rows

    def column(self, name: str) -> np.ndarray:
        if name not in self._columns:
            raise KeyError(f"table {self.name!r} has no column {name!r}; has {self.column_names}")
        return self._columns[name].values

    def distinct(self, column: str) -> np.ndarray:
        """Sorted distinct values of a column."""
        return np.unique(self.column(column))

    def filter(self, mask: np.ndarray) -> "Table":
        """A new table containing only rows where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.num_rows,):
            raise ValueError(f"mask must have shape ({self.num_rows},)")
        cols = [Column(c.name, c.values[mask], c.byte_width) for c in self._columns.values()]
        return Table(self.name, cols)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, rows={self.num_rows}, cols={self.column_names})"
