"""Chunked CSV source: stream a delimited file without materializing it.

Reading every row into one Python list before building arrays keeps O(file)
Python objects resident at once.  ``CSVSource`` instead makes two bounded
streaming passes:

1. **Schema pass** (:meth:`CSVSource.schema`, cached): reads the header,
   rejects duplicate column names, validates row widths, counts rows, and
   type-infers every column chunk-by-chunk (a column is numeric iff every
   row parses as a float; ``group_columns``/``value_columns`` pin the
   decision explicitly).  Only one chunk of raw rows is alive at a time.
2. **Scan pass** (:meth:`DataSource.scan`): re-reads the file in
   ``chunk_rows``-row chunks, converting only the requested columns with
   the types the schema pass fixed, applying any pushed-down predicate per
   chunk.

Because typing is decided over the *whole* file before any scan, a chunked
scan produces exactly the arrays a one-chunk read produces (same dtypes,
same parse), which the parity tests assert.

Files must be UTF-8; a decode failure surfaces as a clear ``ValueError``
naming the file and the offending byte, not a bare ``UnicodeDecodeError``
from deep inside the csv module.
"""

from __future__ import annotations

import csv
import os
from typing import Iterable, Iterator

import numpy as np

from repro.catalog.schema import NUMERIC, STRING, ColumnSchema, Schema
from repro.catalog.source import Chunk, DataSource

__all__ = ["CSVSource", "DEFAULT_CHUNK_ROWS"]

#: Default rows per scan chunk - small enough to keep raw-row memory modest,
#: large enough that per-chunk numpy conversion overhead is negligible.
DEFAULT_CHUNK_ROWS = 65_536


class CSVSource(DataSource):
    """A lazily-scanned CSV file with a header row."""

    kind = "csv"

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        group_columns: Iterable[str] = (),
        value_columns: Iterable[str] = (),
        delimiter: str = ",",
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> None:
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        self._path = os.fspath(path)
        self._group_cols = set(group_columns)
        self._value_cols = set(value_columns)
        overlap = self._group_cols & self._value_cols
        if overlap:
            raise ValueError(f"columns marked both group and value: {sorted(overlap)}")
        self._delimiter = delimiter
        self._chunk_rows = int(chunk_rows)
        self._schema: Schema | None = None
        self._num_rows: int | None = None

    @property
    def path(self) -> str:
        return self._path

    def describe(self) -> str:
        return f"csv {os.path.basename(self._path)!r}"

    def row_count_hint(self) -> int | None:
        """Exact row count once the schema pass has run, else ``None``."""
        return self._num_rows

    def refresh(self) -> None:
        """Forget the inferred schema/row count; re-infer on next use."""
        self._schema = None
        self._num_rows = None

    # -- header and raw-row streaming ---------------------------------------

    def _read_header(self, reader) -> list[str]:
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{self._path}: empty CSV (no header row)") from None
        header = [h.strip() for h in header]
        dupes = sorted({h for h in header if header.count(h) > 1})
        if dupes:
            raise ValueError(
                f"{self._path}: duplicate CSV header column(s) {dupes}; "
                "column names must be unique (an earlier column would be "
                "silently overwritten otherwise)"
            )
        unknown = (self._group_cols | self._value_cols) - set(header)
        if unknown:
            raise KeyError(f"{self._path}: no such CSV columns: {sorted(unknown)}")
        return header

    def _raw_chunks(self) -> Iterator[tuple[list[str], list[list[str]]]]:
        """Yield ``(header, row_chunk)`` pairs; one row chunk alive at a time."""
        try:
            with open(self._path, newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh, delimiter=self._delimiter)
                header = self._read_header(reader)
                rows: list[list[str]] = []
                for row in reader:
                    if not row:
                        continue
                    rows.append(row)
                    if len(rows) >= self._chunk_rows:
                        yield header, rows
                        rows = []
                if rows:
                    yield header, rows
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"{self._path}: not valid UTF-8 ({exc}); CSV sources require "
                "UTF-8 text - re-encode the file or convert it upstream"
            ) from None

    # -- schema inference ----------------------------------------------------

    def schema(self) -> Schema:
        """Infer (and cache) the schema with one bounded streaming pass."""
        if self._schema is not None:
            return self._schema
        header: list[str] | None = None
        numeric: dict[str, bool] = {}
        num_rows = 0
        bad_rows = 0
        bad_widths: set[int] = set()
        it = self._raw_chunks()
        while True:
            try:
                header, rows = next(it)
            except StopIteration:
                break
            for row in rows:
                if len(row) != len(header):
                    bad_rows += 1
                    bad_widths.add(len(row))
            num_rows += len(rows)
            if bad_rows:
                del rows
                continue
            for j, name in enumerate(header):
                if name in self._group_cols or numeric.get(name) is False:
                    numeric[name] = False
                    continue
                raw = np.array([row[j].strip() for row in rows], dtype=str)
                try:
                    raw.astype(np.float64)
                except ValueError:
                    if name in self._value_cols:
                        raise ValueError(
                            f"{self._path}: value column {name!r} has "
                            "non-numeric entries"
                        ) from None
                    numeric[name] = False
                else:
                    numeric[name] = numeric.get(name, True)
            del rows
        if header is None:
            # The header parsed but no data rows followed.
            with open(self._path, newline="", encoding="utf-8") as fh:
                header = self._read_header(csv.reader(fh, delimiter=self._delimiter))
            raise ValueError(f"{self._path}: CSV has a header but no data rows")
        if bad_rows:
            raise ValueError(
                f"{self._path}: {bad_rows} row(s) have {sorted(bad_widths)} "
                f"fields, expected {len(header)}"
            )
        self._schema = Schema(
            ColumnSchema(
                name,
                NUMERIC
                if name not in self._group_cols and numeric.get(name, False)
                else STRING,
            )
            for name in header
        )
        self._num_rows = num_rows
        return self._schema

    # -- scanning ------------------------------------------------------------

    def _chunks(self, columns: tuple[str, ...]) -> Iterator[Chunk]:
        schema = self.schema()
        it = self._raw_chunks()
        while True:
            try:
                header, rows = next(it)
            except StopIteration:
                return
            index = {name: header.index(name) for name in columns}
            out: dict[str, np.ndarray] = {}
            for name in columns:
                j = index[name]
                raw = np.array([row[j].strip() for row in rows], dtype=str)
                if schema.is_numeric(name):
                    out[name] = raw.astype(np.float64)
                else:
                    out[name] = raw
            del rows
            yield out
