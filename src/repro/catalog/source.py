"""The ``DataSource`` protocol: how relations enter the system.

A source is anything that can (a) describe its columns without reading data
(:meth:`DataSource.schema`), (b) stream its rows in bounded-memory chunks
with column pruning and predicate pushdown (:meth:`DataSource.scan`), and
(c) optionally report how many rows it holds (:meth:`DataSource.row_count_hint`).
The :class:`~repro.catalog.catalog.Catalog` owns named sources and builds
engine inputs (populations, materialized tables) from these three calls, so
new storage formats plug in without touching the session or the planner.

``scan`` is the heart of the contract::

    for chunk in source.scan(columns=("city", "delay"), predicate=pred):
        ...  # chunk is {"city": ndarray, "delay": ndarray}, already filtered

* ``columns`` prunes the projection: only the named columns are produced
  (predicate-only columns are read internally but not returned).
* ``predicate`` is the shared query AST (:mod:`repro.query.ast`).  The base
  class applies it chunk-by-chunk with the same kernel the legacy
  post-materialization filter used (:func:`repro.query.predicates`), so a
  pushed-down scan is bit-identical to filtering the concatenated whole.
* Chunks may be empty (a chunk whose rows all fail the predicate still
  yields, with zero-length arrays) - consumers must tolerate that.
* At most one raw chunk is alive inside the scan at any time; sources
  release each chunk before pulling the next, so memory stays bounded by
  the chunk size regardless of relation size.

Subclasses implement ``_chunks(columns)`` - yield raw ``{column: array}``
chunks restricted to ``columns`` - plus ``schema()``; everything else has
sensible defaults.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.catalog.schema import Schema
from repro.data.population import Population
from repro.needletail.table import Table
from repro.query.ast import Predicate
from repro.query.predicates import predicate_chunk_mask, predicate_columns
from repro.resilience.faults import fault_at

__all__ = ["DataSource", "TableSource", "IteratorSource", "MissingDependencyError"]

Chunk = Mapping[str, np.ndarray]


class MissingDependencyError(ImportError):
    """An optional extra (e.g. pyarrow) is needed but not installed."""


class DataSource:
    """Base class / protocol for pluggable relation sources."""

    #: Short source-kind tag shown by ``repro tables`` (csv/parquet/memory/...).
    kind = "source"

    #: Whether the catalog may cache builds (tables/populations) derived from
    #: this source.  True for sources whose repeated scans see the same rows
    #: (files, in-memory data); sources backed by live streams return False
    #: so every query observes the current data.
    cacheable = True

    # -- required interface --------------------------------------------------

    def schema(self) -> Schema:
        """Column names and kinds, without materializing any data."""
        raise NotImplementedError

    def _chunks(self, columns: tuple[str, ...]) -> Iterator[Chunk]:
        """Yield raw ``{column: array}`` chunks restricted to ``columns``."""
        raise NotImplementedError

    # -- optional interface --------------------------------------------------

    def row_count_hint(self) -> int | None:
        """Row count if cheaply known (exact or estimated), else ``None``."""
        return None

    def refresh(self) -> None:
        """Drop internally cached metadata (schemas, row counts).

        Called by :meth:`Catalog.invalidate` so "the next query re-reads
        the source" holds all the way down - a CSV rewritten on disk gets
        its types re-inferred, not just its population rebuilt.  Default:
        nothing cached, nothing to do.
        """

    def population(
        self,
        group_col: str,
        value_col: str,
        predicate: Predicate | None,
        value_bound: float | None,
    ) -> Population | None:
        """A ready-made population for this grouping, or ``None``.

        Sources that *are* populations (synthetic generator specs) override
        this so the catalog can skip the scan-based build entirely; the
        default ``None`` means "build me from :meth:`scan`".
        """
        return None

    def describe(self) -> str:
        """One-line human-readable description for catalog listings."""
        return self.kind

    # -- derived behaviour ---------------------------------------------------

    def scan(
        self,
        columns: Sequence[str] | None = None,
        predicate: Predicate | None = None,
    ) -> Iterator[Chunk]:
        """Stream ``{column: array}`` chunks, pruned and filtered.

        Args:
            columns: projection (``None``: every schema column, in order).
            predicate: optional row filter, pushed down into the scan - each
                chunk is masked before it is yielded, so callers never see a
                non-qualifying row and never hold the unfiltered relation.
        """
        schema = self.schema()
        wanted = tuple(columns) if columns is not None else tuple(schema.names)
        schema.check_columns(dict.fromkeys(wanted), "scan", self.describe())
        needed = list(dict.fromkeys(wanted))
        if predicate is not None:
            schema.check_predicate(predicate, self.describe())
            for col in sorted(predicate_columns(predicate)):
                if col not in needed:
                    needed.append(col)
        return self._filtered(tuple(needed), wanted, predicate)

    def _filtered(
        self,
        needed: tuple[str, ...],
        wanted: tuple[str, ...],
        predicate: Predicate | None,
    ) -> Iterator[Chunk]:
        it = self._chunks(needed)
        index = 0
        while True:
            # Named injection point for the chaos suite: a planned
            # fail_scan_chunk fault surfaces here as a TransientError, which
            # the planner's retry policy absorbs by restarting the build.
            fault_at("catalog.scan_chunk", shard=None, index=index)
            index += 1
            try:
                chunk = next(it)
            except StopIteration:
                return
            if predicate is not None:
                mask = predicate_chunk_mask(predicate, chunk)
                out = {name: np.asarray(chunk[name])[mask] for name in wanted}
            else:
                out = {name: np.asarray(chunk[name]) for name in wanted}
            # Release the raw chunk before yielding: the generator then holds
            # no reference while the consumer works, so at most one raw chunk
            # is ever alive (asserted by the catalog laziness tests).
            del chunk
            yield out

    def to_table(self, name: str) -> Table:
        """Materialize the full source into an in-memory row-store table."""
        schema = self.schema()
        parts: dict[str, list[np.ndarray]] = {col: [] for col in schema.names}
        it = self.scan()
        while True:
            try:
                chunk = next(it)
            except StopIteration:
                break
            for col in schema.names:
                parts[col].append(chunk[col])
            del chunk
        if not any(parts.values()) or not next(iter(parts.values())):
            raise ValueError(f"{self.describe()}: source produced no rows")
        data = {
            col: arrs[0] if len(arrs) == 1 else np.concatenate(arrs)
            for col, arrs in parts.items()
        }
        return Table.from_dict(name, data)


class TableSource(DataSource):
    """An in-memory source: wraps a :class:`Table` or a ``{col: array}`` dict.

    The eager door every ``Session.register(...)`` call lands on.
    ``chunk_rows`` optionally slices scans into bounded chunks (useful to
    exercise chunked consumers); the default is one chunk for the whole
    relation, which is also the zero-copy fast path.
    """

    kind = "memory"

    def __init__(
        self,
        data: Table | Mapping[str, np.ndarray],
        *,
        name: str = "table",
        chunk_rows: int | None = None,
    ) -> None:
        if chunk_rows is not None and chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        self._table = data if isinstance(data, Table) else Table.from_dict(name, dict(data))
        self._chunk_rows = chunk_rows

    @property
    def table(self) -> Table:
        """The wrapped table (shared, not a copy)."""
        return self._table

    def schema(self) -> Schema:
        return Schema.from_table(self._table)

    def row_count_hint(self) -> int | None:
        return self._table.num_rows

    def describe(self) -> str:
        return f"memory table {self._table.name!r}"

    def to_table(self, name: str) -> Table:
        if name == self._table.name:
            return self._table
        return super().to_table(name)

    def _chunks(self, columns: tuple[str, ...]) -> Iterator[Chunk]:
        n = self._table.num_rows
        step = self._chunk_rows if self._chunk_rows is not None else n
        for lo in range(0, n, max(step, 1)):
            yield {c: self._table.column(c)[lo : lo + step] for c in columns}


class IteratorSource(DataSource):
    """A streaming-ingest source fed by a re-invocable chunk factory.

    ``chunks`` is a zero-argument callable returning an iterator of
    ``{column: array}`` chunks (a generator function, ``lambda: iter(...)``
    over a stored list, a socket reader, ...).  Every scan calls the factory
    afresh, so the factory must be re-invocable; chunks are consumed one at
    a time and never accumulated by the source itself.

    Chunk arrays are coerced to the declared schema kind per chunk (a
    string-typed chunk in a numeric column is parsed, not compared
    lexicographically by predicates; unparseable values raise).

    Caching: by default ``cacheable`` is False - a *streaming* source's
    successive scans may see new data, so every query re-reads the factory
    rather than freezing the first query's snapshot forever.  Pass
    ``cache=True`` when the factory replays fixed data and builds should be
    reused across queries.

    Replay vs tail: the factory contract *is* the replay seam - every scan
    re-invokes it, so one-shot queries, multi-window re-scans and repeated
    subscriptions all observe the stream from its start.  For a genuinely
    non-replayable feed (a socket, a log tail) use
    :meth:`IteratorSource.single_use`, which admits exactly one scan and
    rejects the second loudly instead of tripping the factory-reuse guard
    with a confusing "same iterator twice" error.
    """

    kind = "iterator"

    def __init__(
        self,
        chunks: Callable[[], Iterable[Chunk]],
        *,
        schema: Schema | None = None,
        row_count_hint: int | None = None,
        cache: bool = False,
    ) -> None:
        if not callable(chunks):
            raise TypeError(
                "IteratorSource needs a zero-argument chunk *factory* (scans "
                "must be repeatable); got a non-callable - wrap your chunks "
                "in `lambda: iter(chunk_list)`"
            )
        self._factory = chunks
        self._schema = schema
        self._schema_supplied = schema is not None
        self._hint = row_count_hint
        self.cacheable = bool(cache)
        self._last_iter: object | None = None

    def refresh(self) -> None:
        """Forget the inferred schema (a supplied one is kept)."""
        if not self._schema_supplied:
            self._schema = None

    @classmethod
    def single_use(
        cls,
        chunks: Iterable[Chunk],
        *,
        schema: Schema,
        row_count_hint: int | None = None,
    ) -> "IteratorSource":
        """A one-shot *tail* over a live, non-replayable chunk stream.

        This is the documented seam for feeding a continuous query from a
        feed that cannot be rewound (a socket reader, a log tail, a queue
        drain): the returned source supports **exactly one** :meth:`scan` -
        which is all a streaming subscription
        (:class:`~repro.streaming.runner.WindowRunner`) performs - and a
        second scan raises a ``RuntimeError`` naming the problem, instead
        of the factory-reuse guard's "same iterator twice" ``TypeError``
        (aimed at a different mistake) or, worse, a silent resume that
        drops already-consumed chunks.

        ``schema`` is required: inferring it would consume the stream's
        first chunk before the scan ever runs.
        """
        if not isinstance(schema, Schema):
            raise TypeError(
                f"single_use needs an explicit Schema (inference would "
                f"consume the stream), got {schema!r}"
            )
        stream = iter(chunks)
        consumed: list[bool] = []

        def tail() -> Iterator[Chunk]:
            if consumed:
                raise RuntimeError(
                    "this IteratorSource.single_use stream was already "
                    "scanned once and cannot be replayed; wrap replayable "
                    "data in a fresh-iterator factory (IteratorSource("
                    "lambda: ...)) if you need repeated scans"
                )
            consumed.append(True)
            return stream

        return cls(tail, schema=schema, row_count_hint=row_count_hint, cache=False)

    def _fresh_iter(self):
        """A new iterator from the factory, refusing half-consumed reuse.

        ``lambda: g`` over one generator passes the callable guard but would
        make the second scan silently resume where the first stopped -
        groups whose rows lived in already-consumed chunks would vanish from
        results with no error.  Detect it: a *re-invocable* factory returns
        a distinct iterator every call.
        """
        it = iter(self._factory())
        if it is self._last_iter:
            raise TypeError(
                "IteratorSource factory returned the same iterator twice; "
                "it must build a fresh iterator per call (wrap a generator "
                "in its function, not `lambda: gen_instance`) - reusing one "
                "iterator would silently drop already-consumed chunks"
            )
        self._last_iter = it
        return it

    def schema(self) -> Schema:
        if self._schema is None:
            it = self._fresh_iter()
            try:
                first = next(it)
            except StopIteration:
                raise ValueError(
                    "iterator source produced no chunks; pass schema= to "
                    "register an empty stream"
                ) from None
            self._schema = Schema.from_arrays(first)
        return self._schema

    def row_count_hint(self) -> int | None:
        return self._hint

    def _coerce(self, name: str, values: np.ndarray) -> np.ndarray:
        """Align one chunk column with the declared schema kind.

        Without this, a feed that stops pre-parsing (string digits in a
        numeric column) would be predicate-filtered *lexicographically* -
        silently wrong rows - because the schema said numeric but the chunk
        dtype said string.
        """
        if self._schema is None:
            return values
        if self._schema.is_numeric(name):
            if not np.issubdtype(values.dtype, np.number) and values.dtype != bool:
                try:
                    return values.astype(np.float64)
                except ValueError:
                    raise ValueError(
                        f"iterator source chunk column {name!r} is declared "
                        f"numeric but holds unparseable values "
                        f"(dtype {values.dtype})"
                    ) from None
        elif values.dtype.kind not in ("U", "S", "O"):
            return values.astype(str)
        return values

    def _chunks(self, columns: tuple[str, ...]) -> Iterator[Chunk]:
        it = self._fresh_iter()
        while True:
            try:
                chunk = next(it)
            except StopIteration:
                return
            missing = [c for c in columns if c not in chunk]
            if missing:
                raise KeyError(
                    f"iterator source chunk is missing columns {missing}; "
                    f"chunk has {sorted(chunk)}"
                )
            out = {c: self._coerce(c, np.asarray(chunk[c])) for c in columns}
            del chunk
            yield out
